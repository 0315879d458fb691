"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid scenario parameters or malformed configuration input."""


class InfeasibleError(RuntimeError):
    """No strictly interior association exists for the given budgets."""

    def __init__(self, message, overloaded=()):
        super().__init__(message)
        self.overloaded = tuple(overloaded)


class SolverError(RuntimeError):
    """The relaxed stage ran out of iterations (the message names its pg),
    or a projection lost a row's support to rounding."""
