"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """An iterative solver or quadrature exhausted its budget without converging."""


class TruncationError(RuntimeError):
    """A discrete-spectrum sum was truncated too early for the requested accuracy."""


class ConfigError(ValueError):
    """Invalid sweep configuration. Carries the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
