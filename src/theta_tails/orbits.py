"""Torus orbits of rational pairs: closed forms and a BFS oracle.

The orbit of (a/q, b/q) under the affine group is a finite subset of the
q-division points of the torus. Its size, the counts of its points on the
lines xi2 = 0 and xi2 - xi1 = +-1/2, and its two line minima all have
closed forms in q and the numerators' parity, so orbit_report answers at
any q without building a point. orbit_contains is the closed membership
test (gcd(r, s, q) = 1, plus matching both-odd parity for even q), and
enumerate_orbit builds the point list from it, with counts taken from its
own mask, under a cap because that list grows like q^2.

_bfs_codes is the independent check on all of these. The linear generators
suffice for closure (the integer shifts fix every point mod Z^2), and on a
finite set the semigroup they generate is already a group, so a forward BFS
reaches the whole orbit; orbit_partition labels the q-division points with
it, and the test suite compares the closed forms against those labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (
    RationalPair,
    euler_phi,
    factorize,
    jordan_j2,
    normalize_pair,
)
from .errors import ResourceLimitError, check_integer, short

DEFAULT_ORBIT_CAP = 2000
# mask entries scanned per block when enumerate_orbit fills its point list
_POINT_BLOCK = 1 << 16


@dataclass(frozen=True)
class Representative:
    """Orbit representative tag: Origin, Rep10(q') for (1/q', 0), or Rep11(q')
    for (1/q', 1/q')."""

    kind: str  # "Origin" | "Rep10" | "Rep11"
    q: int

    def __str__(self) -> str:
        return "Origin" if self.kind == "Origin" else f"{self.kind}({self.q})"

    def point_mod(self, q: int) -> tuple[int, int]:
        """The representative as numerators mod q (q must be a multiple of self.q)."""
        if self.kind == "Origin":
            return (0, 0)
        scale = q // self.q
        return (scale, 0) if self.kind == "Rep10" else (scale, scale)


@dataclass
class OrbitData:
    """An enumerated orbit: its points and the counts read off its mask.

    points holds the numerators (r, s) mod q as an (n, 2) array, sorted by
    code r*q + s. size_S, size_U and size_V are counted from the membership
    mask, not taken from the closed forms, so they can check those forms.
    """

    pair: RationalPair
    points: np.ndarray
    size_S: int
    size_U: int
    size_V: int


def _bfs_codes(q: int, seeds: list[tuple[int, int]]) -> np.ndarray:
    """Sorted codes r*q + s of the orbit closure of seeds mod q.

    Generators applied: the order-4 inversion (r, s) -> (-s, r) and the
    shear (r, s) -> (r + 2s, s), with their inverses for fast mixing. The
    two unit shifts act trivially mod Z^2 and contribute nothing here.
    """
    visited = np.zeros(q * q, dtype=bool)
    frontier = np.unique(
        np.array([(r % q) * q + (s % q) for r, s in seeds], dtype=np.int64)
    )
    visited[frontier] = True
    while frontier.size:
        r, s = frontier // q, frontier % q
        nxt = np.concatenate(
            [
                ((q - s) % q) * q + r,  # inversion
                s * q + (q - r) % q,  # its inverse
                ((r + 2 * s) % q) * q + s,  # shear
                ((r - 2 * s) % q) * q + s,  # shear inverse
            ]
        )
        nxt = np.unique(nxt)
        nxt = nxt[~visited[nxt]]
        visited[nxt] = True
        frontier = nxt
    return np.flatnonzero(visited).astype(np.int64)


def _count_U(codes: np.ndarray, q: int) -> int:
    # xi2 integer <=> s = 0 mod q
    return int(np.count_nonzero(codes % q == 0))


def _count_V(codes: np.ndarray, q: int) -> int:
    # xi2 - xi1 = 1/2 mod 1 <=> 2(s - r) = q mod 2q; impossible for odd q
    if q % 2:
        return 0
    r, s = codes // q, codes % q
    return int(np.count_nonzero((2 * (s - r)) % (2 * q) == q))


def which_representative(pair: RationalPair) -> Representative:
    """Orbit representative of a canonical pair, by the parity rule.

    For gcd(a, b, q) = 1 the exact denominator is orbit-invariant, so the
    representative's denominator is q; both-odd parity (for even q) is
    preserved by the generators and selects the diagonal representative.
    """
    if pair.q == 1:
        return Representative("Origin", 1)
    if pair.diagonal:
        return Representative("Rep11", pair.q)
    return Representative("Rep10", pair.q)


@lru_cache(maxsize=256)
def _prime_divisors(q: int) -> tuple[int, ...]:
    return tuple(factorize(q))


def orbit_contains(pair: RationalPair, r, s) -> np.ndarray:
    """Elementwise membership of (r/q, s/q) in the orbit of a canonical pair.

    The orbit of (a, b, q) is the set of (r, s) mod q with gcd(r, s, q) = 1,
    and for even q only the part whose both-odd parity matches that of
    (a, b): the generators preserve both gcd and parity, and the closed-form
    sizes show that nothing else is cut off. r and s are integers or integer
    arrays of any sign (|r|, |s| < 2^63); the result is a boolean array of
    their broadcast shape. An odd prime p divides r where (r // p) * p == r,
    exact at any int64 of either sign, as the product wraps mod 2^64 to r
    exactly when p divides r. numpy floor-divides by a scalar without a
    hardware divide, which r % p takes per element.
    """
    r = np.asarray(r, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if pair.q % 2:
        inside = np.ones(np.broadcast(r, s).shape, dtype=bool)
    elif pair.diagonal:
        inside = (r & s & 1).astype(bool)  # both odd
    else:
        inside = ((r ^ s) & 1).astype(bool)  # exactly one odd
    for p in _prime_divisors(pair.q):
        if p > 2:
            inside &= ((r // p) * p != r) | ((s // p) * p != s)
    return inside


def _mask_points(mask: np.ndarray) -> np.ndarray:
    """np.stack(np.nonzero(mask), axis=1) for a 2-D mask, written into one
    (n, 2) int64 array block of rows by block, so the whole point list is
    never held twice."""
    q = mask.shape[1]
    points = np.empty((int(np.count_nonzero(mask)), 2), dtype=np.int64)
    step = max(1, _POINT_BLOCK // q)
    end = 0
    for first in range(0, mask.shape[0], step):
        flat = np.flatnonzero(mask[first : first + step])
        start, end = end, end + flat.size
        block = points[start:end]
        np.divmod(flat, q, out=(block[:, 0], block[:, 1]))
        block[:, 0] += first
    return points


def enumerate_orbit(pair: RationalPair, cap: int = DEFAULT_ORBIT_CAP) -> OrbitData:
    """The orbit of a canonical pair as a point list, with its counts.

    Built from the closed membership rule, not a closure: membership of
    (r, s) depends on r only through gcd(r, q) (for even q that gcd also
    fixes the parity of r), so one orbit_contains row per divisor of q,
    fancy-indexed by gcd(r, q), gives the (q, q) membership mask. The cap
    bounds that mask and the point list, both of which grow like q^2; it is
    an integer from 1 to 2^63 - 1, as the points are int64.
    """
    check_integer("cap", cap, 1, (1 << 63) - 1)
    q = pair.q
    if q > cap:
        raise ResourceLimitError(
            f"q={short(q)} exceeds the enumeration cap {short(cap)} (memory grows like q^2)"
        )
    r = np.arange(q, dtype=np.int64)
    keys, row_of = np.unique(np.gcd(r, q), return_inverse=True)
    mask = orbit_contains(pair, keys[:, None], r)[row_of]
    points = _mask_points(mask)
    # points (r, 0) lie on xi2 = 0; for even q, (r, r + q/2) on xi2 - xi1 = 1/2
    size_V = int(np.count_nonzero(mask[r, (r + q // 2) % q])) if q % 2 == 0 else 0
    return OrbitData(
        pair=pair,
        points=points,
        size_S=len(points),
        size_U=int(np.count_nonzero(mask[:, 0])),
        size_V=size_V,
    )


def theta_mins(pair: RationalPair) -> tuple[Fraction | None, Fraction]:
    """The two line minima of a canonical pair's orbit, in closed form.

    In window coordinates rw, sw in [-q/2, q/2) of a point (r, s) mod q,
    theta_min_infty is the least |sw|/q over points off xi2 = 0, and
    theta_min_one the least |2(sw - rw) -+ q|/(2q) over the two half-shift
    lines, a point on one line measuring only its distance to the other.

    theta_min_infty: None at q = 1, where the orbit is the origin; otherwise
    1/q, since |sw| >= 1 off the line and the orbit holds (0, 1) or, when
    q is even and both numerators odd, (1, 1).

    theta_min_one for odd q: 2(sw - rw) -+ q is odd, so the distance is at
    least 1/(2q), and (0, (q - 1)/2), which has gcd 1 with q, attains it
    (at q = 1 that is the origin's 1/2).

    theta_min_one for even q: 2(sw - rw) -+ q is even and s - r has the
    parity of the class (odd for one odd numerator, even for both odd).
    Points on a half-shift line have s - r = q/2 mod q; the class holds
    them (count_V_formula > 0) exactly when s - r has the parity of q/2.
    Then every off-line value 2(sw - rw) -+ q is a nonzero multiple of 4,
    and a point on one line lies 1 from the other, so the minimum is at
    least 2/q; otherwise every value is 2 mod 4 and it is at least 1/q.
    For q >= 4 the point (1, sw) with sw - 1 = -q/2 + 2 (class on the
    lines) or -q/2 + 1 (class off them) has the class parity and reaches
    the bound on the line -1/2. At q = 2 the orbits {(1, 0), (0, 1)} (on
    the lines, distance 1 = 2/q) and {(1, 1)} (distance 1/2 = 1/q) reach
    it too.
    """
    q = pair.q
    t_inf = None if q == 1 else Fraction(1, q)
    if q % 2:
        return t_inf, Fraction(1, 2 * q)
    return t_inf, Fraction(2 if count_V_formula(pair) else 1, q)


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _orbit_counts(pair: RationalPair) -> tuple[int, int, int]:
    """(|S|, |U|, |V|) of a canonical pair's orbit, from q = 2^ell m.

    Three classes: the origin at q = 1; the class of (1/q, 1/q) for even q
    with both numerators odd; otherwise the class of (1/q, 0).
    """
    if pair.q == 1:
        return 1, 1, 0
    ell, m = pair.ell, pair.m
    j2, phi_q = jordan_j2(m), euler_phi(m) << max(ell - 1, 0)
    if pair.diagonal:  # the class of (1/q, 1/q)
        return 4 ** (ell - 1) * j2, 0, phi_q if ell >= 2 else 0
    # the class of (1/q, 0)
    return (1 << max(2 * ell - 1, 0)) * j2, phi_q, 2 * phi_q if ell == 1 else 0


def orbit_size_formula(pair: RationalPair) -> int:
    """Closed form for the orbit cardinality of a canonical pair."""
    return _orbit_counts(pair)[0]


def count_U_formula(pair: RationalPair) -> int:
    """Closed form for the count of orbit points on the line xi2 = 0."""
    return _orbit_counts(pair)[1]


def count_V_formula(pair: RationalPair) -> int:
    """Closed form for the count of orbit points on xi2 - xi1 = +-1/2."""
    return _orbit_counts(pair)[2]


def leading_constant(pair: RationalPair) -> Fraction:
    """C(q) = (2|U| + |V|)/|S|, the tail constant's arithmetic factor, exact.

    With q = 2^ell m, m odd: 2/psi(m) when ell = 0, or ell = 1 with one even
    numerator; 0 when ell = 1 with both numerators odd (the compact-support
    class); 1/(2^(ell-1) psi(m)) when ell >= 2.
    """
    size, on_u, on_v = _orbit_counts(pair)
    return Fraction(2 * on_u + on_v, size)


def orbit_representatives(q: int) -> list[tuple[RationalPair, int]]:
    """Complete set of orbit representatives of the q-division points.

    One orbit per divisor q' > 1 with representative (1/q', 0), one per even
    divisor with representative (1/q', 1/q'), plus the fixed origin. Sizes
    come from the closed form and sum to q^2. q is an integer >= 1.
    """
    check_integer("q", q, 1)
    reps: list[tuple[RationalPair, int]] = []
    origin = normalize_pair(0, 0)
    reps.append((origin, 1))
    for d in divisors(q):
        if d > 1:
            p10 = normalize_pair(Fraction(1, d), 0)
            reps.append((p10, orbit_size_formula(p10)))
        if d % 2 == 0:
            p11 = normalize_pair(Fraction(1, d), Fraction(1, d))
            reps.append((p11, orbit_size_formula(p11)))
    reps.sort(key=lambda item: (-item[1], item[0].b, -item[0].q))
    return reps


@dataclass(frozen=True)
class OrbitClass:
    """One orbit inside the q-division points, as found by the partition."""

    representative: Representative
    size: int
    size_U: int
    size_V: int


@lru_cache(maxsize=128)
def orbit_partition(q: int) -> tuple[tuple[OrbitClass, ...], np.ndarray]:
    """Label every q-division point with its orbit.

    Returns (classes, labels) where labels[r*q + s] indexes into classes.
    Each orbit is enumerated once; the class equation (sizes summing to q^2)
    is asserted. Shared by the bulk formula-vs-enumeration checks, which
    would otherwise rerun the BFS for every pair in the same orbit; the
    result is cached, so labels is read-only.
    """
    labels = np.full(q * q, -1, dtype=np.int32)
    classes: list[OrbitClass] = []
    for rep_pair, _ in orbit_representatives(q):
        rep = which_representative(rep_pair)
        seed = rep.point_mod(q)
        if labels[seed[0] * q + seed[1]] >= 0:
            continue
        codes = _bfs_codes(q, [seed])
        labels[codes] = len(classes)
        classes.append(
            OrbitClass(
                representative=rep,
                size=int(codes.size),
                size_U=_count_U(codes, q),
                size_V=_count_V(codes, q),
            )
        )
    if np.any(labels < 0):
        raise AssertionError(f"orbit partition of q={q} did not cover the torus")
    labels.flags.writeable = False
    return tuple(classes), labels


def orbit_report(pair: RationalPair, points: np.ndarray | None = None) -> dict:
    """JSON-ready report of a canonical pair's orbit from the closed forms
    (exact values as strings), with the (r, s) rows of points appended when
    they are given."""
    t_inf, t_one = theta_mins(pair)
    size, on_u, on_v = _orbit_counts(pair)
    report = {
        "pair": {
            "alpha": str(pair.alpha),
            "beta": str(pair.beta),
            "a": pair.a,
            "b": pair.b,
            "q": pair.q,
            "kind": pair.kind,
        },
        "sizes": {"S": size, "U": on_u, "V": on_v},
        "representative": str(which_representative(pair)),
        "leading_constant": str(leading_constant(pair)),
        "theta_min_infty": None if t_inf is None else str(t_inf),
        "theta_min_one": str(t_one),
    }
    if points is not None:
        report["points"] = [[int(r), int(s)] for r, s in points]
    return report
