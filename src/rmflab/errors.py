"""Error taxonomy shared across the package.

Parameter errors map to CLI exit code 2, resource errors to exit code 3.
"""


class RmflabError(Exception):
    """Base class for all package errors."""


class ParameterError(RmflabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ResourceError(RmflabError, RuntimeError):
    """A run would exceed the configured compute or memory budget.

    ``required`` carries the budget that would have been needed, so callers
    can report how to rerun with an explicit override.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required
