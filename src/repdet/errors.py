"""Exception taxonomy shared by every repdet module."""


class EngineError(Exception):
    """Base class for all repdet errors."""


class ShapeError(EngineError):
    """Tensor dimensions incompatible with an operation; message names the axis."""


class SpecError(EngineError):
    """Invalid or unsupported layer/block configuration."""


class NumericError(EngineError):
    """Arithmetic precondition violated (e.g. non-positive variance)."""


class FormatError(EngineError):
    """Malformed binary or text container (weight files, PPM images)."""


class ValidationError(EngineError):
    """Well-formed input that fails semantic validation (datasets, stores)."""
