"""Shared exception types."""


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class BandTooThinError(RuntimeError):
    """Rejection sampling exhausted its attempt budget.

    Carries the attempted bandwidth; usually signals a mis-tuned
    schedule constant rather than bad luck.
    """

    def __init__(self, b, attempts):
        self.b = float(b)
        self.attempts = int(attempts)
        super().__init__(
            f"no sample accepted within {self.attempts} attempts at bandwidth b={self.b:g}"
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
