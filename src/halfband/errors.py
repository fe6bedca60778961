"""Shared exception types."""


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class BandTooThinError(RuntimeError):
    """A band too thin to sample, found when its sampler is built, before any draw.

    Its probability p is 0, or so small that the attempt counts of a
    simulated rejection loop would overflow int64. Carries the bandwidth b
    and p; usually signals a mis-tuned schedule constant.
    """

    def __init__(self, b, p):
        self.b = float(b)
        self.p = float(p)
        super().__init__(
            f"band at bandwidth b={self.b:g} is too thin to sample: its probability"
            f" {self.p:g} puts attempt counts past int64"
        )


class UnsupportedRegimeError(InvalidInputError):
    """Parameters fall outside the range where a guarantee (or closed form) is valid."""


class InvariantError(RuntimeError):
    """A result breaks a property the learner guarantees: a bug, not bad input."""


class NumericalError(RuntimeError):
    """An inner solver failed to reach tolerance, or a run's ledger disagrees with its schedule."""


class EmptyConstraintError(NumericalError):
    """The sparse step's constraint set, an l2 ball intersected with an l1 ball, is empty.

    Shown in closed form: the smallest l1 distance from the l1 center to any
    point of the l2 ball exceeds the l1 radius. Carries both numbers.
    """

    def __init__(self, distance, radius1):
        self.distance = float(distance)
        self.radius1 = float(radius1)
        super().__init__(
            f"empty constraint set: the l2 ball lies at l1 distance {self.distance:.6g} from"
            f" the l1 center, beyond the l1 radius {self.radius1:.6g}"
        )
