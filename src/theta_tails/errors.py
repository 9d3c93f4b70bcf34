"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes (2, 3, 4), and operating-system
errors such as an unwritable output path onto 5; library code raises them
directly.
"""


class ThetaTailsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ThetaTailsError, ValueError):
    """Malformed or out-of-domain input (CLI exit code 2)."""


class ResourceLimitError(ThetaTailsError):
    """A configured cap (enumeration size, memory) would be exceeded (exit 3)."""


class NumericFailureError(ThetaTailsError):
    """Quadrature or iteration failed to converge (exit 4)."""


class UnsupportedOperationError(ThetaTailsError):
    """The requested evaluation is mathematically undefined for this object.

    Example: a sharp cutoff weight has no pointwise rotated transform away
    from multiples of pi, so asking for one is refused rather than
    approximated.
    """
