"""Reference computations the test suite checks the package against.

Everything here is deliberately naive: brute-force counting, exact Fraction
arithmetic, or closed forms evaluated the slow way. Nothing imports package
internals, so a bug in the fast paths cannot hide in its own mirror image.

Frozen decimals carry their generating expression in a comment; they were
produced once with mpmath at 40 digits and rounded to double precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# multiplicative functions, counted rather than factored

def phi_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _squarefree(d: int) -> bool:
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        if d % p == 0:
            d //= p
        else:
            p += 1
    return True


def psi_brute(n: int) -> int:
    # n * prod(1 + 1/p) equals the sum of n/d over squarefree divisors d
    return sum(n // d for d in range(1, n + 1) if n % d == 0 and _squarefree(d))


def j2_brute(n: int) -> int:
    """Number of pairs (r, s) mod n with gcd(r, s, n) = 1."""
    return sum(
        1 for r in range(n) for s in range(n) if math.gcd(math.gcd(r, s), n) == 1
    )


def reciprocal_c_brute(q: int) -> Fraction:
    """1/C(q) by the case split, with psi counted brute-force."""
    ell, m = 0, q
    while m % 2 == 0:
        ell += 1
        m //= 2
    if ell <= 1:
        return Fraction(psi_brute(m), 2)
    return Fraction(2 ** (ell - 1) * psi_brute(m))


# Reciprocals 1/C(q) for q = 1..100: 1/2 for q in {1, 2}, integers otherwise
# (OEIS A358015 from q = 3 on). Frozen as the expected table output.
RECIPROCAL_C_FIRST_100 = [Fraction(v) for v in (
    Fraction(1, 2), Fraction(1, 2), 2, 2, 3, 2, 4, 4, 6, 3, 6, 8, 7, 4, 12,
    8, 9, 6, 10, 12,
    16, 6, 12, 16, 15, 7, 18, 16, 15, 12, 16, 16, 24, 9, 24, 24, 19, 10, 28,
    24,
    21, 16, 22, 24, 36, 12, 24, 32, 28, 15, 36, 28, 27, 18, 36, 32, 40, 15,
    30, 48,
    31, 16, 48, 32, 42, 24, 34, 36, 48, 24, 36, 48, 37, 19, 60, 40, 48, 28,
    40, 48,
    54, 21, 42, 64, 54, 22, 60, 48, 45, 36, 56, 48, 64, 24, 60, 64, 49, 28,
    72, 60,
)]


# ---------------------------------------------------------------------------
# Weyl sums with every phase reduced inside the rationals

def weyl_sum_exact(
    x: Fraction, alpha: Fraction, beta: Fraction, zeta: Fraction, N: int
) -> complex:
    """Sum of e((n^2/2 + beta n + zeta) x + alpha n), phases reduced in Q."""
    re, im = [], []
    for n in range(1, N + 1):
        phase = (Fraction(n * n, 2) + beta * n + zeta) * x + alpha * n
        phase -= math.floor(phase)
        w = cmath.exp(2j * math.pi * float(phase))
        re.append(w.real)
        im.append(w.imag)
    return complex(math.fsum(re), math.fsum(im))


def weighted_weyl_sum_exact(weight_at, x, alpha, beta, zeta, N, half_range):
    """Two-sided weighted sum; weight_at(n) is the float weight of index n."""
    re, im = [], []
    for n in range(-half_range, half_range + 1):
        f = weight_at(n)
        if f == 0.0:
            continue
        phase = (Fraction(n * n, 2) + beta * n + zeta) * x + alpha * n
        phase -= math.floor(phase)
        w = cmath.exp(2j * math.pi * float(phase))
        re.append(f * w.real)
        im.append(f * w.imag)
    return complex(math.fsum(re), math.fsum(im))


def weyl_values_per_term(xs, a: int, b: int, q: int, N: int, m: int, stride: int = 64):
    """|S_N conj(S_m)|/N by the anchored rotation recurrence, one term at a time.

    Vectorized over the samples xs only. The terms 1..N and N+1..m are cut
    separately into blocks of `stride` terms, the last block of each short.
    Each block restarts t and rho from the phase (n^2/2 + (b/q) n) x +
    (a/q) n mod 1, with the integer part of the coefficient of x split off
    exactly and its product with x carried as a Dekker two-product, and sums
    its terms from zero by acc += t, t *= rho, rho *= w. The block sums are
    added into one total in block order; S_N is the total after the blocks
    of 1..N. Each e(theta) takes cos and sin of 2 pi (theta - k/4),
    k = rint(4 theta), times the exact quarter turn i^k.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)

    def split(v):
        c = 134217729.0 * v
        hi = c - (c - v)
        return hi, v - hi

    def phase(n):
        nb = n * b
        big = np.float64(0.5 * n * n + nb // q)
        p = big * xs
        bh, bl = split(big)
        xh, xl = split(xs)
        err = ((bh * xh - p) + bh * xl + bl * xh) + bl * xl
        theta = (p - np.floor(p)) + err
        v = ((nb % q) / q) * xs
        theta += v - np.floor(v)
        theta += (n * a) % q / q
        return theta

    def unit(theta):
        # cos and sin within 1/8 turn of zero, then the quarter turn
        # e(k/4) exactly: theta - k/4 is exact with k = rint(4 theta)
        k = np.rint(4.0 * theta)
        ang = 2.0 * math.pi * (theta - k / 4.0)
        out = np.empty(theta.shape, dtype=np.complex128)
        np.cos(ang, out=out.real)
        np.sin(ang, out=out.imag)
        return out * np.array([1.0, 1.0j, -1.0, -1.0j])[k.astype(np.int64) % 4]

    w = unit(xs)
    total = np.zeros_like(w)
    for lo, hi in ((1, N), (N + 1, m)):
        for start in range(lo, hi + 1, stride):
            theta = phase(start)
            t = unit(theta)
            rho = unit(phase(start + 1) - theta)
            acc = np.zeros_like(w)
            for _ in range(start, min(start + stride, hi + 1)):
                acc += t
                t *= rho
                rho *= w
            total += acc
        if hi == N:
            s_n = np.abs(total)
    return s_n * np.abs(total) / N


# ---------------------------------------------------------------------------
# the tail-fit standard error from the full covariance matrix

def covariance_stderr(thresholds, counts, n_samples: int) -> float:
    """Delta-method standard error of the slope -4 intercept.

    thresholds ascend and counts are the nonzero exceedance counts there.
    The nested Poisson counts have Cov(c_i, c_j) = c_max(i,j), so the logs
    have the k x k covariance Sigma_ij = c_max(i,j) / (c_i c_j); the
    intercept est is the geometric mean of count R^4 / n, and its standard
    error is est sqrt(sum of Sigma) / k.
    """
    import numpy as np

    r = np.asarray(thresholds, dtype=np.float64)
    c = np.asarray(counts, dtype=np.float64)
    k = c.size
    idx = np.arange(k)
    sigma = c[np.maximum.outer(idx, idx)] / np.outer(c, c)
    logs = [math.log(ci / n_samples) + 4.0 * math.log(ri) for ci, ri in zip(c, r)]
    est = math.exp(math.fsum(logs) / k)
    return est * math.sqrt(sigma.sum()) / k


# ---------------------------------------------------------------------------
# torus orbits by plain set BFS

def orbit_brute(a: int, b: int, q: int) -> set:
    """Closure of (a, b) mod q under the torus action, as a set of numerators.

    Generators written out longhand: the inversion sends (r, s) to (-s, r),
    the double translation sends (r, s) to (r + 2s, s); both inverses are
    included. Integer shifts act trivially mod q.
    """
    start = (a % q, b % q)
    seen = {start}
    frontier = [start]
    while frontier:
        r, s = frontier.pop()
        for img in (
            ((-s) % q, r),
            (s, (-r) % q),
            ((r + 2 * s) % q, s),
            ((r - 2 * s) % q, s),
        ):
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def counts_window_zero_one(points, q):
    """(U, V) with congruences tested on representatives in [0, 1)^2."""
    u = sum(1 for _, s in points if Fraction(s, q) % 1 == 0)
    v = sum(1 for r, s in points if (Fraction(s - r, q)) % 1 == Fraction(1, 2))
    return u, v


def _window(v: Fraction) -> Fraction:
    w = v % 1
    return w - 1 if 2 * w >= 1 else w


def counts_window_centered(points, q):
    """(U, V) with literal equalities in the window [-1/2, 1/2)^2.

    Here xi2 - xi1 lies in (-1, 1), so membership on the two half-shift
    lines is the plain test against +1/2 and -1/2, no reduction needed.
    """
    u = v = 0
    for r, s in points:
        w1, w2 = _window(Fraction(r, q)), _window(Fraction(s, q))
        if w2 == 0:
            u += 1
        if w2 - w1 == Fraction(1, 2) or w2 - w1 == Fraction(-1, 2):
            v += 1
    return u, v


def theta_mins_brute(points, q):
    """Line distances in window coordinates, exact rationals.

    The second minimum follows the two-line convention: a point lying on one
    half-shift line is excluded from that line's minimum but still measures
    its literal window distance to the other line.
    """
    t_inf = None
    for _, s in points:
        f = Fraction(s, q) % 1
        d = min(f, 1 - f)
        if d != 0:
            t_inf = d if t_inf is None else min(t_inf, d)
    t_one = None
    for r, s in points:
        t = _window(Fraction(s, q)) - _window(Fraction(r, q))
        for line in (Fraction(1, 2), Fraction(-1, 2)):
            if t != line:
                d = abs(t - line)
                t_one = d if t_one is None else min(t_one, d)
    return t_inf, t_one


# ---------------------------------------------------------------------------
# the map z -> 1/(1 - z) that carries the cusp at 1 to infinity

def rho_map(x: float, y: float, xi1: float, xi2: float) -> tuple[float, float, float, float]:
    """z -> 1/(1 - z) by Python's complex division, and
    (xi1, xi2) -> (xi2, -xi1 + xi2 + 1/2)."""
    z = 1 / (1 - complex(x, y))
    return z.real, z.imag, xi2, -xi1 + xi2 + 0.5


# ---------------------------------------------------------------------------
# the affine theta group, its action on Iwasawa coordinates, and its
# fundamental domain

@dataclass(frozen=True)
class GammaElement:
    """((a, b; c, d); (v1, v2)) with det = 1, ac and bd even and an integer
    shift; anything else raises ValueError."""

    a: int
    b: int
    c: int
    d: int
    v1: int = 0
    v2: int = 0

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must be unimodular")
        if (self.a * self.c) % 2 or (self.b * self.d) % 2:
            raise ValueError("matrix is not in the theta group")

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        # (M, v)(M', v') = (MM', v + Mv'), all integer exact
        a, b, c, d = self.a, self.b, self.c, self.d
        return GammaElement(
            a * other.a + b * other.c,
            a * other.b + b * other.d,
            c * other.a + d * other.c,
            c * other.b + d * other.d,
            self.v1 + a * other.v1 + b * other.v2,
            self.v2 + c * other.v1 + d * other.v2,
        )

    def inverse(self) -> "GammaElement":
        a, b, c, d = self.a, self.b, self.c, self.d
        # M^-1 = (d, -b; -c, a); shift maps to -M^-1 v
        return GammaElement(
            d, -b, -c, a, -(d * self.v1 - b * self.v2), -(-c * self.v1 + a * self.v2)
        )


IDENTITY = GammaElement(1, 0, 0, 1)
# the standard generators: inversion, translation by 2, the two shifts
GAMMA1 = GammaElement(0, -1, 1, 0)
GAMMA2 = GammaElement(1, 2, 0, 1)
GAMMA3 = GammaElement(1, 0, 0, 1, 1, 0)
GAMMA4 = GammaElement(1, 0, 0, 1, 0, 1)


def act_on_iwasawa(g: GammaElement, point: tuple) -> tuple:
    """g on the coordinates (x, y, phi, xi1, xi2), returned as the same tuple:
    the Moebius map on z = x + iy, phi plus the principal arg(cz + d) (not
    reduced mod 2 pi), and xi -> v + M xi."""
    x, y, phi, xi1, xi2 = point
    z = complex(x, y)
    w = g.c * z + g.d
    z2 = (g.a * z + g.b) / w
    return (
        z2.real,
        z2.imag,
        phi + cmath.phase(w),
        g.v1 + g.a * xi1 + g.b * xi2,
        g.v2 + g.c * xi1 + g.d * xi2,
    )


def wrap_angle(phi: float) -> float:
    """Reduce an angle into [0, 2 pi)."""
    out = phi % (2 * math.pi)
    # fmod can return 2 pi itself after rounding
    return 0.0 if out >= 2 * math.pi else out


def lower_boundary(x: float) -> float:
    """Height of the floor of F above x in [0, 2], the two unit circles at 0
    and 2; other x raises ValueError."""
    if not 0.0 <= x <= 2.0:
        raise ValueError(f"floor is defined for 0 <= x <= 2, got {x}")
    w = 1.0 - abs(1.0 - x)  # distance to the nearer of the centres 0, 2
    return math.sqrt(max(0.0, (1.0 - w) * (1.0 + w)))


def in_fundamental_domain(z: complex) -> bool:
    """Strict interior test: 0 <= Re z < 2, outside both closed unit disks."""
    x, y = z.real, z.imag
    if y <= 0.0 or not (0.0 <= x < 2.0):
        return False
    return x * x + y * y > 1.0 and (x - 2.0) ** 2 + y * y > 1.0


# ---------------------------------------------------------------------------
# uniform draws

def open_uniforms_by_integers(rng, shape):
    """Uniforms in (0, 1) by the integer route: (k + 1/2) 2^-53 for the
    53-bit integers k = rng.integers(0, 2^53), the one value that rounds to
    1.0 (k = 2^53 - 1) clamped to 1 - 2^-53."""
    import numpy as np

    u = (rng.integers(0, 1 << 53, size=shape) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


# ---------------------------------------------------------------------------
# theta values through mpmath

def gaussian_theta_mpmath(x: float, y: float) -> complex:
    """y^(1/4) * jtheta(3, 0, e^(i pi z)) at 30 digits, cast to complex."""
    import mpmath

    with mpmath.workdps(30):
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(x, y))
        val = mpmath.power(y, mpmath.mpf(1) / 4) * mpmath.jtheta(3, 0, nome)
        return complex(val)


def gaussian_theta_lattice_mpmath(x, y, xi1, xi2) -> complex:
    """Theta_f at phi = 0 for the Gaussian, summed at 60 digits over the 25
    terms n = round(xi2) + j, |j| <= 12, from the exact values of the floats."""
    import mpmath

    with mpmath.workdps(60):
        x, y, xi1, xi2 = (mpmath.mpf(v) for v in (x, y, xi1, xi2))
        total = mpmath.mpc(0)
        for n in range(int(mpmath.nint(xi2)) - 12, int(mpmath.nint(xi2)) + 13):
            m = n - xi2
            total += mpmath.exp(-mpmath.pi * m * m * y) * mpmath.expjpi(m * m * x + 2 * n * xi1)
        return complex(mpmath.power(y, mpmath.mpf(1) / 4) * mpmath.expjpi(-xi1 * xi2) * total)


def gaussian_pair_lattice_sum(x, y, xi1, xi2):
    """sqrt(y) |sum_n exp(-pi (n - xi2)^2 y) e((n - xi2)^2 x/2 + n xi1)|^2
    over the 13 terms n = round(xi2) + j, |j| <= 6, each from its own exp."""
    k0 = round(xi2)
    total = 0j
    for j in range(-6, 7):
        m = j - (xi2 - k0)
        total += cmath.exp(
            complex(-math.pi * m * m * y, 2 * math.pi * (0.5 * m * m * x + (k0 + j) * xi1))
        )
    return math.sqrt(y) * abs(total) ** 2


# ---------------------------------------------------------------------------
# frozen reference decimals

# nsum(lambda n: exp(-pi n^2), [-inf, inf]) = pi^(1/4)/gamma(3/4)
GAUSSIAN_THETA_AT_I = 1.0864348112133080

# 2 log 2
TWO_LOG_TWO = 1.3862943611198906

# 4 atanh(1/2) + log(3)/2 + 2 log(3/4), the closed form at r = 2
D_RAT_AT_2 = 2.1711665767667125

# 4 log 2 / pi^2, the tail coefficient of the pair (1/2, 0) at r = 1
WEYL_HALF_TAIL = 0.2809219710907315

# 2/pi and 1/(4 pi), theta-pairing tail coefficients at (0, 0) and (1/8, 0)
THETA_ORIGIN_TAIL = 0.6366197723675814
THETA_EIGHTH_TAIL = 0.07957747154594767

# 2^12 zeta(2)^2 = 4096 pi^4/36
CUSP_C2 = 11082.989913202055
