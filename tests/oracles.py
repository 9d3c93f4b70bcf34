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

    Vectorized over the samples xs only: term after term the running sum
    takes acc += t, t *= rho, rho *= w, and every `stride` terms t and rho
    restart from the phase (n^2/2 + (b/q) n) x + (a/q) n mod 1, with the
    integer part of the coefficient of x split off exactly and its product
    with x carried as a Dekker two-product. Each e(theta) takes cos and sin
    of 2 pi (theta - k/4), k = rint(4 theta), times the exact quarter turn
    i^k.
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
    acc = np.zeros_like(w)
    for start in range(1, m + 1, stride):
        theta = phase(start)
        t = unit(theta)
        rho = unit(phase(start + 1) - theta)
        for n in range(start, min(start + stride, m + 1)):
            acc += t
            if n == N:
                s_n = np.abs(acc)
            t *= rho
            rho *= w
    return s_n * np.abs(acc) / N


# ---------------------------------------------------------------------------
# the tail-fit bootstrap, one resample at a time

def bootstrap_stderr_loop(thresholds, counts, n_samples: int) -> float:
    """Standard error of the slope -4 intercept by 200 Poisson resamples.

    thresholds ascend and counts are the nonzero exceedance counts there.
    Each round draws the disjoint cells [R_i, R_{i+1}) and the remainder
    from the fixed bootstrap stream, accumulates them from the top, and
    fits the geometric mean of count R^4 / n over its nonzero bins.
    """
    import numpy as np

    r = np.asarray(thresholds, dtype=np.float64)
    c = np.asarray(counts, dtype=np.float64)
    cells = c - np.append(c[1:], 0.0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0x5EED, 0))))
    boots = []
    for _ in range(200):
        resampled = np.cumsum(rng.poisson(cells)[::-1])[::-1].astype(np.float64)
        live = resampled > 0
        if not np.any(live):
            continue
        logs = np.log(resampled[live] / n_samples) + 4.0 * np.log(r[live])
        boots.append(float(np.exp(np.mean(logs))))
    return float(np.std(boots)) if len(boots) > 1 else math.inf


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
# theta values through mpmath

def gaussian_theta_mpmath(x: float, y: float) -> complex:
    """y^(1/4) * jtheta(3, 0, e^(i pi z)) at 30 digits, cast to complex."""
    import mpmath

    with mpmath.workdps(30):
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(x, y))
        val = mpmath.power(y, mpmath.mpf(1) / 4) * mpmath.jtheta(3, 0, nome)
        return complex(val)


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
