"""Exception types shared across the package: the CLI exits 2 on a
ConfigError and 4 on a SolverError. Budgets that cannot hold every user are
no error; admission blocks users until the rest fit (`solver.two_stage`)."""


class ConfigError(ValueError):
    """Invalid scenario parameters or malformed configuration input."""


class SolverError(RuntimeError):
    """The relaxed stage reached its cap on Newton steps, or none of its
    stages certified the analytic centre (the message names the steps)."""
