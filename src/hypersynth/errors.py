"""Exception types raised by hypersynth.

Everything user-facing derives from HypersynthError so callers can catch one
base class.  Parse errors carry a source location; a model error raised by
make_mdp names the offending item of the model in its where.
"""


class HypersynthError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(HypersynthError):
    """A model, controller or query is structurally invalid.  where names
    the offending item of a model as make_mdp lists them, such as
    ("trans", s, a, t), or is None."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


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

    def __init__(self, message, source, line, col):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.source = source
        self.line = line
        self.col = col
        self.message = message


class LimitExceeded(HypersynthError):
    """An iteration or wall-clock budget ran out before a verdict."""
