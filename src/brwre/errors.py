"""Exception types shared across the package."""


class BrwreError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(BrwreError, ValueError):
    """An operation was called with arguments outside its contract."""


class ResourceLimitError(BrwreError):
    """A computation would exceed a configured resource limit."""


class ConvergenceError(BrwreError):
    """An iterative solver did not reach its tolerance within its budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EnvironmentValidationError(BrwreError):
    """An environment specification violates one or more invariants.

    ``violations`` lists every violated invariant, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MgfOverflowError(BrwreError):
    """A moment generating function evaluation would overflow."""


class ConfigError(BrwreError):
    """A configuration file failed strict parsing.

    Carries the 1-based line number of the offending entry when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
