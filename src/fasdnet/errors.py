"""Exception types shared across the toolkit.

Every error raised by the public API derives from FasdnetError, so callers
(including the command line front end) can map failures to exit codes
without string matching.
"""


class FasdnetError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(FasdnetError):
    """Operand shapes are incompatible; the message names both shapes."""


class NonFiniteError(FasdnetError):
    """A public operation produced or received NaN or infinity.

    Raised by the forward pass, it also records the failing layer and,
    for a stacked network, the positions of the failing stack slots
    (slot 0 for a plain 2-D pass)."""

    def __init__(self, message: str, layer: int | None = None, slots=()):
        super().__init__(message)
        self.layer = layer
        self.slots = tuple(slots)


class ConfigError(FasdnetError):
    """A network or experiment configuration violates its invariants."""


class ContractError(FasdnetError):
    """An operation was called in a way its contract forbids."""


class NotFittedError(FasdnetError):
    """A fitted transform was applied before fitting."""


class DataError(FasdnetError):
    """Dataset contents violate an invariant (labels, class counts, sizes)."""


class ParseError(DataError):
    """A CSV cell could not be parsed; carries row and column context."""


class SchemaError(DataError):
    """A file's column layout does not match the battery schema."""


class UnknownFeatureError(DataError):
    """A feature name was requested that the dataset does not contain."""


class DivergenceError(FasdnetError):
    """Training produced a non-finite pre-activation; records the
    failing epoch (the message also names the layer)."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class ReportError(FasdnetError):
    """A report was requested over inputs that cannot produce one."""
