"""Exception types raised by hypersynth.

Everything user-facing derives from HypersynthError so callers can catch one
base class.  Parse errors carry a source location; model errors are plain.
"""


class HypersynthError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(HypersynthError):
    """A model, controller or query is structurally invalid."""


class InvalidControllerError(ModelError):
    """A controller picks an action outside the enabled menu of a state."""


class MissingRewardsError(ModelError):
    """A reward query was issued against a model without rewards."""


class ConstraintError(HypersynthError):
    """A structural constraint is ill-formed for the given model."""


class SpecError(HypersynthError):
    """A specification is internally inconsistent or unsupported."""


class ParseError(HypersynthError):
    """Syntax or validation error in a text input.

    Attributes
    ----------
    source : str
        Short name of the input (file name or "<string>").
    line, col : int
        1-based location of the offending token.
    """

    def __init__(self, message, source="<string>", line=0, col=0):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.source = source
        self.line = line
        self.col = col
        self.message = message


class LimitExceeded(HypersynthError):
    """An iteration or wall-clock budget ran out before a verdict."""
