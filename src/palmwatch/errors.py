"""Exception hierarchy shared by all palmwatch modules.

The CLI maps these onto exit codes: ConfigurationError -> 2,
DataError -> 3, anything else under PalmwatchError -> 4.
"""


class PalmwatchError(Exception):
    """Base class for all palmwatch errors."""


class ConfigurationError(PalmwatchError):
    """Invalid configuration: bad paths, out-of-range settings."""


class ParameterError(ConfigurationError):
    """An operation parameter violates its declared range."""


class DataError(PalmwatchError):
    """Input data is malformed or inconsistent."""


class FormatError(DataError):
    """Container header is missing, unparsable, or has a bad field."""


class PayloadSizeError(DataError):
    """Binary payload length does not match the header geometry."""


class ShapeError(DataError):
    """Grid dimensions disagree between inputs."""


class BoundsError(DataError):
    """Geometry (window, annotation) falls outside its raster."""


class BandLookupError(DataError):
    """A band or feature name is not present in the raster."""


class LabelError(DataError):
    """A class label is not in the declared class list."""


class DomainError(DataError):
    """Sample values are outside an operation's numeric domain."""


class DegenerateDataError(DataError):
    """Input lacks the variation the operation requires."""


class CompletenessError(DataError):
    """A required piece of a tiled result is missing or duplicated."""


class UnclassifiableError(DataError):
    """A detection has no valid pixels to classify from."""


class CapacityError(DataError):
    """Requested synthetic content does not fit the scene constraints."""


class CompatibilityError(BandLookupError):
    """A raster cannot supply the bands or features a caller asks for."""


class DivergenceError(PalmwatchError):
    """Training produced a non-finite loss."""
