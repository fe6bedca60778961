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
    """An inner solver failed to reach tolerance; carries its residuals."""

    def __init__(self, message, residuals=None):
        self.residuals = residuals
        super().__init__(message)
