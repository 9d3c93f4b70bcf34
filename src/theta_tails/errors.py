"""Exception taxonomy shared by the library and the CLI, and the checks of
scalar arguments.

The CLI maps these onto process exit codes (2, 3, 4), and operating-system
errors such as an unwritable output path onto 5; library code raises them
directly. Every scalar argument (a count, seed, denominator, cutoff ratio or
tolerance) is checked by check_integer or check_real, and every message
shows a caller's value through short, so an error is one short line at any
input size: no value meets Python's 4300-digit int-to-str limit.
"""
import math
from numbers import Integral, Rational, Real


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


def short(value) -> str:
    """value on one line for a message: an integer in full below 10^15 in
    size, else as [-]d.dde+k; a fraction as p/q of two such; a real as str;
    anything else as its repr, cut to 60 characters."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        n = int(value)
        k = math.floor(math.log10(abs(n))) if abs(n) >= 10**15 else 0
        return f"{n / 10**k:.2f}e+{k}" if k else str(n)
    if isinstance(value, Rational) and not isinstance(value, bool):
        return f"{short(value.numerator)}/{short(value.denominator)}"
    text = " ".join((str(value) if isinstance(value, Real) else repr(value)).split())
    return text if len(text) <= 60 else text[:57] + "..."


def check_integer(name: str, value, lo=None, hi=None) -> None:
    """Raise InvalidArgumentError unless value is an integer, Python or
    numpy but not a bool, with lo <= value <= hi (None: no bound). The
    message shows a range with hi below 2^31 as "lo to hi"; otherwise it
    names the bound that fails, an hi of 2^k - 1 (a fixed-width integer's
    largest value) as "< 2^k"."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {short(value)}")
    if (lo is None or value >= lo) and (hi is None or value <= hi):
        return
    if lo is not None and hi is not None and hi < 2**31:
        wanted = f"{short(lo)} to {short(hi)}"
    elif lo is not None and value < lo:
        wanted = f">= {short(lo)}"
    elif hi < 2**31 or hi & (hi + 1):
        wanted = f"<= {short(hi)}"
    else:
        wanted = f"< 2^{hi.bit_length()}"
    raise InvalidArgumentError(f"{name} must be {wanted}, got {short(value)}")


def check_real(name: str, value, lo=None, hi=None, strict: bool = False) -> float:
    """float(value), if value is a real number but not a bool, finite as a
    float (an int or fraction too large for one is not), with lo <= value
    <= hi, or lo < value < hi when strict (None: no bound); else
    InvalidArgumentError, naming the bound that fails."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidArgumentError(f"{name} must be a real number, got {short(value)}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise InvalidArgumentError(f"{name} must be finite, got {short(value)}")
    if lo is not None and (x <= lo if strict else x < lo):
        wanted = f"{'>' if strict else '>='} {short(lo)}"
    elif hi is not None and (x >= hi if strict else x > hi):
        wanted = f"{'<' if strict else '<='} {short(hi)}"
    else:
        return x
    raise InvalidArgumentError(f"{name} must be {wanted}, got {short(value)}")
