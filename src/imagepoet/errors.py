"""Exception hierarchy shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An input is outside the operation's domain (empty sequence, etc.)."""


class ContractError(ValueError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class VocabularyError(ValueError):
    """A character id falls outside the configured vocabulary."""


class ConfigError(ValueError):
    """A configuration value is invalid or mutually inconsistent."""


class DataError(ValueError):
    """A data file is missing, malformed, or references something absent."""


class NumericalError(ArithmeticError):
    """A numerical failure (NaN/Inf) was detected during training."""


class UsageError(ValueError):
    """Bad command-line usage."""


class CheckpointError(ValueError):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """Bad magic, unsupported version, or corrupted checkpoint header."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint file ended before all declared content was read."""


class CheckpointShapeError(CheckpointError):
    """Stored parameters disagree with the model the config describes."""


class CheckpointValueError(CheckpointError):
    """A stored parameter value is not finite."""
