"""Exact arithmetic functions and canonicalization of rational parameter pairs.

Everything here is integer/Fraction exact. The multiplicative functions are
evaluated from a trial-division factorization. Its prime table is sieved on
demand, only as far as isqrt of the largest input so far (at most 10^6), so
any denominator below 10^12 is accepted; only the orbit enumeration is
limited to desk scale (a few thousand).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

from .errors import InvalidArgumentError, check_integer, short

_PRIME_BOUND = 10 ** 6
# (limit, every prime <= limit). factorize runs in worker threads (through
# orbit_contains), so a larger table replaces this tuple whole; it is never
# extended in place.
_PRIME_TABLE: tuple[int, list[int]] = (1, [])


def _primes(bound: int) -> list[int]:
    """Every prime up to at least min(bound, _PRIME_BOUND), in order.

    The table is sieved again only when a larger bound is asked for, then at
    least to twice its old limit, so growing inputs cost a few sieves in all.
    """
    global _PRIME_TABLE
    limit, primes = _PRIME_TABLE
    if bound > limit and limit < _PRIME_BOUND:
        limit = min(max(bound, 2 * limit), _PRIME_BOUND)
        sieve = bytearray(b"\x01") * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        primes = list(compress(range(limit + 1), sieve))
        _PRIME_TABLE = (limit, primes)
    return primes


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division.

    Raises InvalidArgumentError for a non-integer n, n < 1, or n beyond the
    supported range.
    The trial divisors are the primes up to isqrt(n) + 1, capped at 10^6, so
    n < 10^12 is safe.
    """
    check_integer("n", n, 1)
    out: dict[int, int] = {}
    rem = n
    for p in _primes(isqrt(n) + 1):
        if p * p > rem:
            break
        while rem % p == 0:
            out[p] = out.get(p, 0) + 1
            rem //= p
    if rem > 1:
        if rem >= _PRIME_BOUND * _PRIME_BOUND:
            raise InvalidArgumentError(f"{short(n)} is beyond the factorization range")
        out[rem] = out.get(rem, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Euler totient, the count of 1 <= k <= n coprime to n."""
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def dedekind_psi(n: int) -> int:
    """n * prod_{p | n} (1 + 1/p), always an integer."""
    result = n
    for p in factorize(n):
        result = result // p * (p + 1)
    return result


def jordan_j2(n: int) -> int:
    """Second Jordan totient n^2 * prod_{p | n} (1 - 1/p^2).

    Counts pairs (a, b) in [0, n)^2 with gcd(a, b, n) = 1; equals
    euler_phi(n) * dedekind_psi(n).
    """
    result = n * n
    for p in factorize(n):
        result = result // (p * p) * (p * p - 1)
    return result


def split_two_power(q: int) -> tuple[int, int]:
    """Write an integer q >= 1 as 2^ell * m with m odd; returns (ell, m)."""
    check_integer("q", q, 1)
    ell = (q & -q).bit_length() - 1
    return ell, q >> ell


@dataclass(frozen=True)
class RationalPair:
    """Canonical form of a rational pair (alpha, beta).

    a/q and b/q are the fractional parts of alpha and beta with the smallest
    common denominator: 0 <= a, b < q and gcd(a, b, q) = 1. ell and m give
    q = 2^ell * m with m odd. diagonal is the parity rule: q even and both
    numerators odd, the class of (1/q, 1/q). kind is "C" for a diagonal pair
    with ell = 1 (the compact-support class), else "H" (the heavy-tail class).
    """

    a: int
    b: int
    q: int
    ell: int
    m: int

    @property
    def diagonal(self) -> bool:
        return self.q % 2 == 0 and self.a & self.b & 1 == 1

    @property
    def kind(self) -> str:
        return "C" if self.ell == 1 and self.diagonal else "H"

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def beta(self) -> Fraction:
        return Fraction(self.b, self.q)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.a}/{self.q}, {self.b}/{self.q})[{self.kind}]"


def normalize_pair(alpha, beta) -> RationalPair:
    """Canonicalize (alpha, beta) to (a, b, q) with gcd(a, b, q) = 1.

    Inputs may be ints or Fractions, any sign. Floats are rejected: the
    whole point of the pair is exactness. A RationalPair is already
    canonical and comes back unchanged (beta is then ignored).
    """
    if isinstance(alpha, RationalPair):
        return alpha
    fa = _as_fraction(alpha, "alpha")
    fb = _as_fraction(beta, "beta")
    fa -= fa.__floor__()  # true fractional part, lands in [0, 1)
    fb -= fb.__floor__()
    q = fa.denominator * fb.denominator // gcd(fa.denominator, fb.denominator)
    a = fa.numerator * (q // fa.denominator)
    b = fb.numerator * (q // fb.denominator)
    # Fraction already reduced a/q and b/q separately, so gcd(a, b, q) = 1
    ell, m = split_two_power(q)
    return RationalPair(a=a, b=b, q=q, ell=ell, m=m)


def _as_fraction(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise InvalidArgumentError(
            f"{name} must be an exact rational (int or Fraction), got a float"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise InvalidArgumentError(f"{name} has zero denominator") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"cannot parse {name}={short(value)} as a rational") from exc
