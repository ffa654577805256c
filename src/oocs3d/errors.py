"""Exception taxonomy shared by the whole package.

Each class carries the CLI exit code it ends in, as `exit_code`:

    2  configuration problems: OocsError, ConfigError, DimensionError,
       InvalidKernelError, DomainError
    3  file and OS problems: UnsupportedFormatError, CorruptFileError
       (and any OSError, or a MemoryError: an allocation below
       tensor.MAX_ELEMENTS the machine cannot serve)
    4  data-dependent numeric failures: DegenerateKernelError,
       NormalizationError, ResampleError, UndefinedDistanceError,
       NonFiniteError
"""


class OocsError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class ConfigError(OocsError):
    """Invalid configuration detectable before touching any data."""


class DimensionError(OocsError):
    """Array shapes or spacings inconsistent with the requested operation."""


class InvalidKernelError(ConfigError):
    """Kernel size or kernel parameters outside the supported set."""


class DomainError(OocsError):
    """Numeric parameter outside its mathematical domain."""


class DegenerateKernelError(DomainError):
    """A raw kernel without both positive and negative entries cannot be balanced."""

    exit_code = 4


class NormalizationError(DomainError):
    """Zero-variance input cannot be z-scored."""

    exit_code = 4


class ResampleError(DomainError):
    """Resampling would produce a degenerate (zero-sized) volume."""

    exit_code = 4


class UndefinedDistanceError(DomainError):
    """Hausdorff distance is undefined when either mask is empty."""

    exit_code = 4


class NonFiniteError(DomainError):
    """A container got NaN or infinity: from a file's payload, or as float64 overflow on finite data leaves."""

    exit_code = 4


class UnsupportedFormatError(OocsError):
    """File uses a feature outside the supported format subset."""

    exit_code = 3


class CorruptFileError(OocsError):
    """Header and payload disagree, or the payload is unreadable."""

    exit_code = 3
