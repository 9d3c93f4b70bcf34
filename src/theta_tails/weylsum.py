"""Quadratic exponential sums with phase-accurate argument reduction.

The phase (n^2/2 + beta n + zeta) x + alpha n grows like N^2 |x|, so naive
evaluation loses up to ten digits at N ~ 10^6 before the sum even starts.
Each product whose magnitude can exceed a few units is therefore computed as
an error-free transformation (Dekker/Veltkamp split), reduced mod 1 while
both halves are still exact, and only then pushed through cos/sin. For
rational alpha = a/q, beta = b/q the rational part of the phase is reduced
in integer arithmetic, which makes the per-term phase error a few 1e-16
independent of N at |x| ~ 1. Products with x keep a rounding residue of
about |x| 2^-52 turns, so the phase error grows like |x| 2^-52, and every
path accepts |x| < 2^30 only (check_x_range).

weyl_sum, partial_sums, weighted_weyl_sum and theta.theta_f share one exact
path: _phase_plan checks n and x once per call, _terms gives cos and sin of
each _blocks block, and phase_sum adds the terms, with real or complex
weights, exactly (math.fsum), so their error is dominated by the phase error.

The Monte-Carlo batch kernel weyl_values_batch trades a little of that
accuracy for speed. Consecutive terms differ by rho_n = e((n + 1/2 + beta) x
+ alpha) and rho_{n+1} = rho_n e(x), so a term costs two complex multiplies
instead of a cos and a sin. Rounding in the recurrence grows like k^2 eps
after k steps, so every K = ANCHOR_STRIDE = 64 terms the term and the ratio
restart from an exact anchor: the phase of _phase_mod1, the one phase
routine of this module, made a unit phasor by _unit_phasor, which reduces
it exactly to within 1/8 turn before cos and sin and so lands within about
2e-16 of e(theta) (cos and sin of 2 pi frac(theta), as weyl_sum takes them,
are within about 7e-16). Measured against weyl_sum at N = 10^4 and 10^5
for three pairs, at 48 normal draws of x (timings on a 2-core Xeon host,
which vary by about 20% from run to run):

    K        s per 32,768-sample chunk, N = 500    max deviation
    1 (cos/sin every term)  1.04                   1.4e-14
    32                      0.081                  4.8e-14
    64                      0.061                  1.3e-13
    128                     0.053                  4.3e-13
    256                     0.047                  1.9e-12

The deviation grows with K, not with N; at K = 1 it is the difference
between the two ways of taking cos and sin. With cos and sin of
2 pi frac(theta) at the anchors the same measurement gave 6.2e-13 at
K = 64. Near-resonant x, where the terms line up and their errors add
coherently, deviate more; the tests hold every value within
5e-12 (1 + value) of the exact sums.

The anchored blocks are independent, so on short batches the kernel runs
several of them side by side as rows of one array, up to a budget of
_GROUP_BUDGET = 2^14 complex elements per buffer; each step is then one
set of ufunc calls for all rows instead of one per block, which is what
dominates at a few hundred samples and large N (512 samples at
N = 10^4, r = 2, same host: 13.3 -> 5.2 ns per term). A full
32,768-sample chunk exceeds the budget on its own, so its groups are
single blocks.

The terms 1..N and N+1..floor(rN) are blocked separately, every group
is summed from zero, and the group sums are added into one running total
in group order, so S_N is the total at a group boundary and a call's
memory does not depend on N. Against one running sum carried through
all the terms, this order moves values by at most 3.8e-15 (1 + value) on
a weyl-wide chunk (32,768 normal draws, (1/2, 0), N = 500), 9.2e-14 at
the weyl-deep shape (512 uniform draws, (1/10, 1/10), N = 10^4, r = 2)
and 2.1e-13 on a full chunk at (3/7, 2/7), N = 300, r = 2.5.

A call runs on its caller's thread (the threads of a tail run go to its
chunks, homog.run_chunks): on 512 samples at r = 2, a second thread per
call saved at most 12% of the wall time, took 1.2 to 2.3 times the CPU,
and at m = 1000 made a call 1.5-1.7x slower (three runs of 40 rounds).

From m = floor(rN) >= CHIRP_MIN_TERMS on, the kernel takes the chirp
path (_chirp_values), whose cost per sample grows like sqrt(m) log m, not
like m. Write n = 1 + K i + j with K = isqrt(m) and 0 <= j < K. Then
phi(n) = (n^2/2 + beta n) x + alpha n splits as phi(1 + K i) +
[phi(1 + j) - phi(1)] + K i j x, and K i j x = (K x / 2)(i^2 + j^2 -
(i - j)^2), Bluestein's chirp-z identity (Bluestein 1970; Rabiner, Schafer
& Rader 1969). So block i sums to e(phi(1)) A_i (c * h)_i, with
A_i = e(phi(1 + K i) + g_i), c_j = e(phi(1 + j) + g_j), h_k = e(-g_k) and
g_k = K x k^2 / 2 mod 1: one circular convolution per sample, by numpy.fft
at a 5-smooth length L >= K + ceil(m / K) - 1, gives every full block.
S_N and S_m add the blocks below them and their fewer than K last terms,
A_i times a sum of c_j h_{i-j}. The factor e(phi(1)) is common to all
terms and drops out of the moduli. The path builds the phase rows of its
K + 2 ceil(m / K) indices once per call (_chirp_rows: _phase_rows, the
sample-free half of _phase_mod1, for the c_j and A_i, and the chirp for
the g_k) and lays each tile of samples out sample-major, one sample per
row with its indices contiguous. A tile then makes one phase pass
(_phase_pass, the other half) and one _unit_phasor call over all its
rows, and its FFTs and np.add.accumulate run along the rows: about 60
numpy calls per tile, against about 110 with one index per row, where
most calls broadcast a (k, 1) column against rows of 28 samples. In
BENCH_33.json (benchmarks/layers.py, 512 samples at r = 2) that took a
weyl-deep call from 12.1 to 10.5 ms, with bit-identical values.

Every phasor is exact in the sense of the anchors: the two halves of
_phase_mod1 give its phase (K k^2 / 2 is exact in a float) and
_unit_phasor the phasor, within about 2e-16. The FFT convolution adds a
rounding error of order eps log2 L relative to the l2 norms of c and h,
about eps sqrt(K) log2 L per block, and the independent errors of the
sqrt(m) blocks add to about eps sqrt(m) log2 L in S_m: no k^2 eps growth,
as the recurrence has, so the chirp values lie closer to weyl_sum than
the direct ones. Measured against weyl_sum (three pairs, r = 1, 2, 2.5,
uniform and near-resonant x), at most 1.4e-14 (1 + value) at N = 10^4
and 3.7e-14 at N = 10^5, where the direct path deviates by up to 9.7e-14;
the two paths differ by at most 1.6e-13 (1 + value) at the weyl-deep
shape. CHIRP_MIN_TERMS is the smallest m of the sweep in BENCH_32.json
(benchmarks/layers.py, 512 samples at r = 2, host of the module's other
timings) where the chirp path is the faster one: 2.65 against 2.88 ns per
term and sample. At m = 3000 and below the direct path won there (2.89
against 2.92 ns); in BENCH_33.json the sample-major chirp path is the
faster one at 3000 too (2.60 against 2.69 ns), inside the host's
run-to-run spread (an A/A run of the same code read 3.08/2.83 and
2.65/2.85 there); CHIRP_MIN_TERMS stays, as moving it would change the
values at every m it moves to the other path. At m = 10^6 the chirp path
takes 0.12 ms per sample against 2.7 ms (BENCH_33.json).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import RationalPair
from .errors import InvalidArgumentError, check_integer, check_real, short

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp splitter
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_CHUNK = 1 << 17
ANCHOR_STRIDE = 64  # K: batch-kernel terms between exact re-anchorings
_GROUP_BUDGET = 1 << 14  # complex elements per batch-kernel buffer
_X_MAX = 2.0**30  # |x| bound of every phase path, see check_x_range
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])  # e(k/4) for k mod 4
_QUARTER_SHIFT = 1.5 * 2.0**52
_ROTATION_BLOCK = 4096  # quarter turns gathered per pass of _unit_phasor
CHIRP_MIN_TERMS = 5000  # m = floor(rN) from which weyl_values_batch convolves blocks


def _outputs(out, n: int, *operands) -> list:
    """out, or n fresh float arrays of the operands' broadcast shape (0-d for
    scalars), taken from one allocation."""
    if out is not None:
        return out
    fresh = np.empty((n,) + np.broadcast_shapes(*(np.shape(v) for v in operands)))
    return [fresh[j, ...] for j in range(n)]


def veltkamp_split(a, out=None):
    """Split a into hi + lo with hi carrying the top 26 bits, exactly.

    out, a pair of float arrays shaped like a, receives the halves; without
    it they are allocated. Scalar input gives scalars.
    """
    hi, lo = _outputs(out, 2, a)
    np.multiply(a, _SPLIT, out=hi)  # c
    np.subtract(hi, a, out=lo)
    hi -= lo  # c - (c - a)
    np.subtract(a, hi, out=lo)
    return hi[()], lo[()]


def two_prod(a, b, b_split=None, out=None, a_split=None):
    """Return (p, e) with p = fl(a*b) and p + e = a*b exactly.

    Works elementwise on arrays. Valid while a*b neither overflows nor
    denormalizes, which holds for every phase product in this package.
    b_split is veltkamp_split(b), for a b that many products share, and
    a_split likewise that of a. out, three float arrays of the broadcast
    shape, receives p, e and a scratch term, so at most the split of a is
    allocated.
    """
    p, e, tmp = _outputs(out, 3, a, b)
    ah, al = veltkamp_split(a) if a_split is None else a_split
    bh, bl = veltkamp_split(b) if b_split is None else b_split
    np.multiply(a, b, out=p)
    np.multiply(ah, bh, out=e)
    e -= p
    for u, v in ((ah, bl), (al, bh), (al, bl)):
        np.multiply(u, v, out=tmp)
        e += tmp  # ((ah bh - p) + ah bl + al bh) + al bl
    return p[()], e[()]


def frac(v, out=None):
    """v mod 1, correctly rounded into [0, 1].

    Exact for |v| < 2^52 whenever the true fractional part is representable;
    the right endpoint occurs only for tiny negative v, where 1 - |v| rounds
    to 1. Downstream consumers feed this into e(.), which is 1-periodic, so
    the closed endpoint is harmless. out, a float array shaped like v,
    receives the result.
    """
    return np.subtract(v, np.floor(v, out=out), out=out)


def reduced_product(a, b, b_split=None, out=None, a_split=None):
    """(a*b) mod 1 with the rounding residue reattached.

    The integer part of fl(a*b) is discarded exactly (both operands of the
    subtraction share an exponent), so the result equals a*b mod 1 up to the
    rounding of the residue itself. b_split, out and a_split are two_prod's;
    the result is written into out[0].
    """
    out = _outputs(out, 3, a, b)
    p, e = two_prod(a, b, b_split, out, a_split)
    np.add(frac(p, out=out[2]), e, out=out[0])
    return out[0][()]


@dataclass(frozen=True)
class WeylSumSpec:
    """Parameters of S_N: exact rational alpha/beta when possible.

    alpha and beta may be ints, Fractions, or floats; exact inputs take the
    integer-reduced fast path. zeta is an ordinary real. N is an integer
    >= 1 (not a bool).
    """

    alpha: object = 0
    beta: object = 0
    zeta: float = 0.0
    N: int = 1

    def __post_init__(self):
        check_integer("N", self.N, 1)

    @classmethod
    def from_pair(cls, pair: RationalPair, N: int = 1) -> "WeylSumSpec":
        return cls(alpha=pair.alpha, beta=pair.beta, N=N)

    def rational_parts(self):
        """(a, b, q) with alpha = a/q, beta = b/q exactly, else None.

        alpha may be reduced mod 1 (the phase alpha*n is 1-periodic for
        integer n) but beta must not be: beta*n*x shifts by n*x under
        beta -> beta+1, which is not an integer. So the raw numerators over
        the common denominator are kept.
        """
        if isinstance(self.alpha, float) or isinstance(self.beta, float):
            return None
        fa = Fraction(self.alpha)
        fb = Fraction(self.beta)
        q = math.lcm(fa.denominator, fb.denominator)
        return fa.numerator * (q // fa.denominator), fb.numerator * (q // fb.denominator), q


def check_x_range(**values) -> None:
    """Raise InvalidArgumentError unless every named value v has |v| < 2^30.

    This is the x range of every phase path: the Weyl sums, the batch
    kernel, theta_f and the Gaussian theta batch (which also bound xi1 and
    xi2 by it). Products with x keep a rounding residue of about
    |x| 2^-52 that is not reduced mod 1, so the phase error grows like
    |x| 2^-52 turns; at 2^30 it is about 2^-22. Non-finite values fail too.
    """
    for name, v in values.items():
        v = np.asarray(v)  # a NaN makes min and max NaN, failing both tests
        if v.size and not (-_X_MAX < v.min() and v.max() < _X_MAX):
            raise InvalidArgumentError(f"{name} must be finite with |{name}| < 2^30")


class _PhasePlan(NamedTuple):
    """What every phase of one call shares, so that no phase redoes the
    Fraction arithmetic or the split of x: the spec, x, the exact parts
    (a, b, q) of alpha and beta (None for floats) and the Veltkamp split
    of x."""

    spec: WeylSumSpec
    x: object
    rat: tuple | None
    x_split: tuple


def _phase_plan(spec: WeylSumSpec, x, n_max: int, split=None) -> _PhasePlan:
    """The plan of a call whose terms have |n| <= n_max; raise
    InvalidArgumentError unless n_max and x keep the phase exact.

    For odd n, n^2/2 + floor(n b/q) is a half-integer, which float64 holds
    exactly only below 2^52: the range of every Weyl path is n_max^2/2 +
    floor(n_max |b|/q) < 2^52, n_max up to about 9.49e7 at b = 0. The
    rational path also reduces n a and n b mod q in int64, so for
    alpha = a/q, beta = b/q it needs max(|a|, |b|, q) n_max < 2^62, which
    leaves room for the batch kernel's step phase at n_max + 1. x (a scalar
    or an array of samples) must pass check_x_range. This is the one place
    that checks the bounds on n. split, a pair of float arrays shaped like
    x, receives the split of x (allocated when omitted).
    """
    check_x_range(x=x)
    rat = spec.rational_parts()
    shift = n_max * abs(rat[1]) // rat[2] if rat is not None else 0
    if n_max * n_max + 2 * shift >= 1 << 53:
        raise InvalidArgumentError(
            f"n up to {short(n_max)} exceeds the exact phase range n^2/2 + floor(n |b|/q) < 2^52"
        )
    if rat is not None and max(abs(rat[0]), abs(rat[1]), rat[2]) * n_max >= 1 << 62:
        raise InvalidArgumentError(
            f"n up to {short(n_max)} exceeds the exact integer range max(|a|, |b|, q) n < 2^62"
        )
    return _PhasePlan(spec, x, rat, veltkamp_split(x, out=split))


class _PhaseRows(NamedTuple):
    """The sample-free half of the phases of an index array ns (_phase_rows),
    each field shaped like ns: big = n^2/2 + floor(n b/q), an integer or
    half-integer that a float holds exactly, and its Veltkamp split;
    small = (n b mod q)/q in [0, 1); turn = alpha n mod 1. The phase is
    big x + small x + turn mod 1. On the float path big = n^2/2, small = 0
    and beta n x is left to _phase_mod1."""

    big: np.ndarray
    split: tuple
    small: object
    turn: np.ndarray


def _phase_rows(ns: np.ndarray, plan: _PhasePlan) -> _PhaseRows:
    """The rows of the indices ns that _phase_pass applies to samples."""
    half_sq = 0.5 * ns.astype(np.float64) * ns
    if plan.rat is None:
        big, small = half_sq, 0.0
        turn = reduced_product(ns.astype(np.float64), float(plan.spec.alpha))
    else:
        a, b, q = plan.rat
        nb = ns * b
        # beta n x = (nb//q) x + ((nb mod q)/q) x; the first factor is an
        # exact integer, the second lies in [0,1) so its product is small
        big = half_sq + (nb // q).astype(np.float64)
        small = (nb % q) / float(q)
        turn = ((ns * a) % q) / float(q)  # alpha n mod 1, exact rational
    return _PhaseRows(big, veltkamp_split(big), small, turn)


def _phase_pass(rows: _PhaseRows, plan: _PhasePlan, out: np.ndarray, scratch) -> np.ndarray:
    """(big x mod 1 + residue) + frac(small x) + turn for the rows against
    plan.x, written into out, which has their broadcast shape, and
    returned; scratch holds two float arrays of that shape, so nothing is
    allocated at that shape."""
    reduced_product(rows.big, plan.x, plan.x_split, (out, *scratch), rows.split)
    small, tmp = scratch
    np.multiply(rows.small, plan.x, out=small)
    out += frac(small, out=tmp)
    out += rows.turn
    return out


def _phase_mod1(ns: np.ndarray, plan: _PhasePlan, out: np.ndarray, scratch) -> np.ndarray:
    """Reduced phase ((n^2/2 + beta n + zeta) x + alpha n) mod 1, plus tiny residue.

    x is the plan's: a scalar with a vector of ns, or an array of samples
    with a one-element ns or a (k, 1) column of ns. The phase is written
    into out, which has the broadcast shape, and returned; scratch holds two
    float arrays of that shape, so on the rational path nothing is
    allocated at that shape. The plan bounds |n| (_phase_plan). The two
    halves, _phase_rows and _phase_pass, are this routine; the chirp path
    calls them apart, to build its rows once per call.
    """
    _phase_pass(_phase_rows(ns, plan), plan, out, scratch)
    if plan.rat is None and (beta := float(plan.spec.beta)):
        bx, bx_err = two_prod(beta, plan.x)
        out += reduced_product(ns.astype(np.float64), bx) + ns * bx_err
    if plan.spec.zeta:
        out += reduced_product(np.float64(plan.spec.zeta), np.float64(plan.x))
    return out


def _blocks(lo: int, hi: int):
    """The indices lo..hi as int64 arrays of up to _CHUNK terms, in order."""
    for start in range(lo, hi + 1, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, hi + 1), dtype=np.int64)


def _terms(plan: _PhasePlan, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi times the phases of the terms ns."""
    theta = _phase_mod1(ns, plan, np.empty(ns.shape), np.empty((2,) + ns.shape))
    ang = _TWO_PI * frac(theta)
    return np.cos(ang), np.sin(ang)


def phase_sum(spec: WeylSumSpec, x, lo: int, hi: int, weigh) -> complex:
    """The sum over lo <= n <= hi of weigh(ns) e(phase), weigh giving real
    or complex weights of an int64 block of n, in _phase_plan's range. The
    real and the imaginary part are each added exactly by math.fsum, block
    by block and then over the blocks; terms of weight zero are not evaluated."""
    plan = _phase_plan(spec, x, max(abs(lo), abs(hi)))
    re_parts: list[float] = []
    im_parts: list[float] = []
    for ns in _blocks(lo, hi):
        w = weigh(ns)
        live = w != 0.0
        re, im = _terms(plan, ns[live])
        terms = w[live] * (re + 1j * im)
        re_parts.append(math.fsum(terms.real.tolist()))
        im_parts.append(math.fsum(terms.imag.tolist()))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def weyl_sum(x: float, spec: WeylSumSpec) -> complex:
    """S_N(x) = sum_{n=1}^{N} e((n^2/2 + beta n + zeta) x + alpha n).

    Valid while N^2/2 + floor(N |b|/q) < 2^52, max(|a|, |b|, q) N < 2^62
    and |x| < 2^30; other input raises InvalidArgumentError. The phase
    error grows like |x| 2^-52 turns: with alpha = 1/3, beta = 2/7,
    N = 1000 the relative error is 2e-14 at x = 1.1 and 6e-7 at
    x = 1e9 + 0.1.
    """
    return phase_sum(spec, x, 1, spec.N, lambda ns: np.ones(ns.shape))


def partial_sums(x: float, spec: WeylSumSpec) -> np.ndarray:
    """Prefix sums S_1..S_N as a complex array (the curlicue path), in the
    N and x range of weyl_sum."""
    plan = _phase_plan(spec, x, spec.N)
    out = np.empty(spec.N, dtype=np.complex128)
    carry = 0.0 + 0.0j
    for ns in _blocks(1, spec.N):
        re, im = _terms(plan, ns)
        seg = np.cumsum(re + 1j * im)
        seg += carry
        out[ns[0] - 1 : ns[-1]] = seg
        carry = seg[-1]
    return out


def weighted_weyl_sum(weight, x: float, spec: WeylSumSpec) -> complex:
    """S_N^f(x) = sum over all integers n of f(n/N) e((n^2/2+beta n+zeta)x + alpha n).

    The summation range comes from the weight's own decay: terms with
    |f(n/N)| below the truncation level are dropped, with total tail mass
    bounded by (2N+1) times that level (documented by the weight). The
    largest |n| summed and x must lie in the N and x range of weyl_sum.
    """
    radius = weight.support_radius(1e-18)
    if not math.isfinite(radius):
        raise InvalidArgumentError(
            f"weight {short(getattr(weight, 'name', weight))} does not decay; cannot truncate"
        )
    n_max = int(math.floor(radius * spec.N)) + 1
    return phase_sum(spec, x, -n_max, n_max, lambda ns: weight.evaluate(ns / float(spec.N)))


def _floor_rN(N: int, r: float) -> int:
    """m = floor(r N), the length of the second sum, for finite r >= 1.

    Raises InvalidArgumentError for any other r and where r N overflows a
    float (r = 1e308, say); _phase_plan then bounds m itself.
    """
    check_real("r", r, 1)
    try:
        return math.floor(r * N)
    except OverflowError:
        raise InvalidArgumentError(f"r N overflows a float at r = {short(r)}, N = {short(N)}") from None


def _unit_phasor(theta: np.ndarray, out: np.ndarray, scratch=None) -> None:
    """Write e(theta) into the complex array out; theta is overwritten.

    The phase is first reduced exactly to within 1/8 turn of zero: with
    k = rint(4 theta), 4 theta and 4 theta - k are exact, so the angle
    (pi/2)(4 theta - k) = 2 pi (theta - k/4) lies on [-pi/4, pi/4], where
    numpy's cos and sin are both faster and closer to the true values than
    on [0, 2 pi). out is then multiplied by the exact quarter turn
    e(k/4) = {1, i, -1, -i}[k & 3]. Valid for |theta| < 2^49; against
    mpmath the result is within about 2e-16 of e(theta). scratch is a pair
    (k, rot): k a float array shaped like theta, rot a complex vector into
    which the quarter turns are gathered and from which they are applied,
    rot.size elements at a time. Given, nothing is allocated at the size of
    theta; omitted, both come from one allocation, rot with
    min(_ROTATION_BLOCK, theta.size) elements. theta, out and k are
    C-contiguous.
    """
    if scratch is None:
        rot = max(1, min(_ROTATION_BLOCK, theta.size))
        fresh = np.empty(rot + (theta.size + 1) // 2, dtype=np.complex128)
        scratch = fresh[rot:].view(np.float64)[: theta.size].reshape(theta.shape), fresh[:rot]
    k, rot = scratch
    theta *= 4.0
    np.rint(theta, out=k)
    theta -= k
    theta *= _HALF_PI
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    # k + 1.5 * 2^52 is exact and holds 2^51 + k in its low mantissa bits,
    # so its int64 view ends in the two bits of k mod 4
    k += _QUARTER_SHIFT
    quarter = k.view(np.int64).reshape(-1)
    quarter &= 3
    out = out.reshape(-1)
    for lo in range(0, out.size, rot.size):
        part = rot[: min(rot.size, out.size - lo)]
        np.take(_QUARTER_TURNS, quarter[lo : lo + part.size], out=part, mode="clip")
        out[lo : lo + part.size] *= part


def _halves(c: np.ndarray) -> np.ndarray:
    """The memory of a C-contiguous complex array as two float arrays of its shape."""
    return c.reshape(-1).view(np.float64).reshape((2,) + c.shape)


def weyl_values_batch(xs: np.ndarray, pair: RationalPair, N: int, r: float = 1.0) -> np.ndarray:
    """|S_N(x) conj(S_{floor(rN)}(x))| / N for a batch of sample points x.

    The terms t_n = e(theta_n) come from a rotation recurrence: consecutive
    terms differ by rho_n = e((n + 1/2 + beta) x + alpha), and
    rho_{n+1} = rho_n e(x), so each step is acc += t; t *= rho; rho *= w on
    complex arrays updated in place. Every ANCHOR_STRIDE = 64 terms t and
    rho restart from the exact integer-reduced phase of _phase_mod1, made a
    unit phasor within about 2e-16 of e(theta) by _unit_phasor, which keeps
    the deviation from weyl_sum near 1e-13 independent of N (the module
    docstring has the error-versus-K table). The phases of one call share
    one _PhasePlan.

    The terms 1..N and N+1..m, m = floor(rN), are laid out separately in
    blocks of K terms, the last block of each run short. Up to g blocks run
    side by side as the rows of one group, g = min(the blocks of the longer
    run, _GROUP_BUDGET // width), so the interpreter makes K steps per g
    blocks (g = 1 at a full chunk). A short block in a group of several
    rows is the group's last row, and its t is set to zero after its last
    term. Each group is summed from zero, its rows added into row 0 in row
    order, and the group sums are added into one running total in group
    order: S_N is the total at the group boundary at N, and S_m the total
    at the end.
    This moves values from one running sum over all terms by at most about
    2e-13 (1 + value) (module docstring).

    Every buffer comes from one allocation per call whose size does not
    depend on N: e(x) in every row of a group, read only, then t, rho and
    acc, whose memory also holds the anchor phases, their residues and the
    phasors' k, then the running total and the split of x, and a vector of
    _ROTATION_BLOCK quarter turns. The batch is flattened and the result
    has the shape of xs. A call runs on its caller's thread.

    That is the direct path. From m >= CHIRP_MIN_TERMS on, the block sums
    of K = isqrt(m) terms come from one FFT convolution per sample instead
    (the module docstring has the decomposition, its error and the
    crossover), in tiles of _GROUP_BUDGET // (2 L) samples, L ~ 2 sqrt(m)
    the FFT length, laid out one sample per row, with one allocation of
    buffers per call. So memory does not grow with N on this path either:
    a 512-sample call peaks at 0.68 MB (tracemalloc) at the weyl-deep shape
    and 0.75 MB at m = 10^6 (BENCH_33.json), where the direct path's peaks
    at 1.28 MB. The same range holds.

    Valid for N >= 1, finite r >= 1, m^2/2 + floor(m b / q) < 2^52
    (n up to about 9.49e7, where the anchor phase stops being an exact
    half-integer plus a reduced product), max(|a|, |b|, q) m < 2^62, and
    |x| < 2^30 (check_x_range), where the phase error is about |x| 2^-52
    turns; sampling laws satisfy the last by construction. Out-of-range
    input raises InvalidArgumentError.
    """
    spec = WeylSumSpec.from_pair(pair, N=N)
    m = _floor_rN(N, r)
    try:
        xs = np.asarray(xs, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"xs must be an array of reals, got {short(xs)}") from None
    flat = xs.reshape(-1)
    if m >= CHIRP_MIN_TERMS:
        return _chirp_values(_phase_plan(spec, flat, m), N, m).reshape(xs.shape)
    g = max(1, min(-(-max(N, m - N) // ANCHOR_STRIDE), _GROUP_BUDGET // max(flat.size, 1)))
    # One allocation: separate frees at the end of a call let glibc trim the
    # heap, and the next call page-faults it back in, and other arrays that
    # land in the freed space make the next call grow it. e(x) fills every
    # row because rho *= w is slower against a broadcast (1, width) w.
    size = (4 * g + 2) * flat.size
    memory = np.empty(size + max(1, min(_ROTATION_BLOCK, g * flat.size)), dtype=np.complex128)
    block, rot = memory[:size].reshape(4 * g + 2, flat.size), memory[size:]
    w, t, rho, acc = block[: 4 * g].reshape(4, g, flat.size)
    total, split = block[4 * g :]
    plan = _phase_plan(spec, flat, m, _halves(split))
    # e(x) once, in acc's first row, then copied to the other rows
    theta_x, k_x = _halves(acc[:1])
    theta_x[...] = flat
    _unit_phasor(theta_x, w[:1], (k_x, rot))
    w[1:] = w[0]
    total[...] = 0.0
    result = np.empty(flat.size)
    for first, height, last in _groups(N, m, g):
        total += _run_group((first, height, last), plan, w, (t, rho, acc, rot))
        if first + ANCHOR_STRIDE * (height - 1) + last == N + 1:
            np.abs(total, out=result)  # |S_N|
    result *= result if m == N else np.abs(total)
    result /= N
    return result.reshape(xs.shape)


def _groups(N: int, m: int, g: int):
    """(first term, rows, terms in the last row) of each group of
    weyl_values_batch, in order: the terms 1..N, then N+1..m, in blocks of
    ANCHOR_STRIDE terms, the last block of each run short, g blocks to a
    group."""
    for first, count in ((1, N), (N + 1, m - N)):
        blocks = -(-count // ANCHOR_STRIDE)
        for b in range(0, blocks, g):
            rows = min(g, blocks - b)
            last = min(ANCHOR_STRIDE, count - ANCHOR_STRIDE * (b + rows - 1))
            yield first + ANCHOR_STRIDE * b, rows, last


def _run_group(group, plan, w, bufs) -> np.ndarray:
    """Sum the terms of one group from zero.

    group is (first term, rows, last): row i holds the ANCHOR_STRIDE terms
    from first + i ANCHOR_STRIDE on, the last row only `last` of them. Each
    step is acc += t; t *= rho; rho *= w on the group's rows; a short last
    row in a group of several gets t = 0 after its last term, so it adds
    exact zeros from then on. At the end the other rows are added into
    row 0 in order. Returns row 0 of acc, valid until the next call on the
    same buffers (t, rho, acc, rot).
    """
    first, rows, last = group
    steps = ANCHOR_STRIDE if rows > 1 else last
    t, rho, acc, rot = bufs
    tv, rv, wv, av = t[:rows], rho[:rows], w[:rows], acc[:rows]
    starts = first + ANCHOR_STRIDE * np.arange(rows)[:, None]
    # The first phase waits in rho's memory, which is written last, and the
    # step phase in acc's, which is cleared after the anchors; the other
    # halves of the two hold the phases' residues and then the phasors' k.
    theta, free = _halves(rv)
    step, k = _halves(av)
    _phase_mod1(starts, plan, theta, (free, k))
    _phase_mod1(starts + 1, plan, step, (free, k))
    step -= theta
    _unit_phasor(theta, tv, (k, rot))
    _unit_phasor(step, rv, (k, rot))
    av[...] = 0.0
    for j in range(steps):
        av += tv
        if j + 1 == last < steps:
            tv[-1] = 0.0
        if j + 1 < steps:
            tv *= rv
            rv *= wv
    for row in range(1, rows):
        av[0] += av[row]
    return av[0]


def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length numpy.fft transforms fast."""
    best = 1 << max(0, n - 1).bit_length()
    five = 1
    while five < best:
        three = five
        while three < best:
            length = three
            while length < n:
                length *= 2
            best = min(best, length)
            three *= 3
        five *= 5
    return best


def _chirp_rows(plan: _PhasePlan, K: int, blocks: int) -> _PhaseRows:
    """The phase rows of the chirp path, stacked: _phase_rows of the c_j
    (n = 1 + j, j < K) and of the A_i (n = 1 + K i, i < blocks), then the
    g_k (k < blocks) with big = K k^2 / 2, exact in a float, and zero small
    and turn parts. So _phase_pass gives g_k = reduced_product(K k^2 / 2, x)
    plus +0.0 twice, which leaves it unchanged: frac(p) + e is never -0.0.
    """
    ends = _phase_rows(np.concatenate([1 + np.arange(K), 1 + K * np.arange(blocks)]), plan)
    big = np.concatenate([ends.big, 0.5 * K * np.arange(blocks, dtype=np.float64) ** 2])
    zero = np.zeros(blocks)
    return _PhaseRows(big, veltkamp_split(big), *(np.concatenate([v, zero]) for v in ends[2:]))


def _chirp_values(plan: _PhasePlan, N: int, m: int) -> np.ndarray:
    """weyl_values_batch at m >= CHIRP_MIN_TERMS: the block sums of
    K = isqrt(m) terms by one FFT convolution per sample (module docstring).

    The phase rows of the c_j, the A_i and the g_k are built once per call
    (_chirp_rows). The samples run in tiles of _GROUP_BUDGET // (2 L),
    L the FFT length, so the two FFT buffers of a tile hold at most
    _GROUP_BUDGET complex elements. The tiles share buffers from one
    allocation, laid out sample-major: a buffer's rows are samples and its
    columns indices, so a tile of fewer samples uses the first rows of the
    same views. Every step acts on each sample alone, so a value is the
    same in every tile and in every batch.
    """
    K = math.isqrt(m)
    blocks = -(-m // K)  # A_i and g_i for i < blocks (>= K); the last block may be short
    width = K + 2 * blocks  # the rows of the c_j, the A_i and the g_k
    length = _smooth_length(K + blocks - 1)
    rows = _chirp_rows(plan, K, blocks)
    # per sample: the two FFT buffers, whose memory first holds the phases
    # and the phasors' k, then e(phase), whose memory first holds the
    # phase pass's scratch
    fft_floats = max(4 * length, 2 * width)
    x, (x_hi, x_lo) = plan.x, plan.x_split
    tile = max(1, _GROUP_BUDGET // (2 * length))
    cols = min(tile, x.size)
    rot = max(1, min(_ROTATION_BLOCK, cols * width))
    memory = np.empty(cols * (fft_floats + 2 * width) + 2 * rot)
    phases = memory[: 2 * cols * width].reshape(2, cols, width)
    ffts = memory[: 4 * cols * length].view(np.complex128).reshape(2, cols, length)
    phasors = memory[cols * fft_floats : cols * (fft_floats + 2 * width)].view(np.complex128)
    bufs = (*phases, phasors.reshape(cols, width), *ffts)
    rotation = memory[cols * (fft_floats + 2 * width) :].view(np.complex128)
    result = np.empty(x.size)
    for lo in range(0, x.size, tile):
        hi = min(lo + tile, x.size)
        tile_plan = plan._replace(x=x[lo:hi, None], x_split=(x_hi[lo:hi, None], x_lo[lo:hi, None]))
        _chirp_tile(tile_plan, N, m, K, rows, [b[: hi - lo] for b in bufs], rotation, result[lo:hi])
    return result


def _chirp_tile(plan, N, m, K, rows, bufs, rot, out) -> None:
    """|S_N conj S_m| / N of one tile of samples, the column plan.x, into out.

    With n = 1 + K i + j, the terms of block i are e(phi(1)) A_i c_j h_{i-j},
    where A_i = e(phi(1 + K i) + g_i), c_j = e(phi(1 + j) + g_j),
    h_k = e(-g_k) and g_k = K x k^2 / 2 mod 1. The common factor e(phi(1))
    drops out of the moduli, so it is never formed. One phase pass over the
    stacked rows gives the phases of the c_j and A_i and the g_k, and one
    _unit_phasor call all their phasors. The full blocks are one circular
    convolution of c with h laid out from k = 1 - K on, by FFTs along each
    sample's row. The fewer than K last terms of each sum lie in one block
    i, and are A_i times the sum of c_j h_{i-j} over their j. Sums run
    along each sample's row by np.add.accumulate, whose order does not
    depend on the other samples.
    """
    from numpy.fft import fft, ifft  # only here: the package import does without it

    theta, k, phasors, conv, h = bufs
    blocks = (theta.shape[1] - K) // 2
    _phase_pass(rows, plan, theta, _halves(phasors))
    g = theta[:, K + blocks :]
    theta[:, :K] += g[:, :K]
    theta[:, K : K + blocks] += g
    _unit_phasor(theta, phasors, (k, rot))
    c, A, e_g = phasors[:, :K], phasors[:, K : K + blocks], phasors[:, K + blocks :]
    # the phases are spent: h and then conv take over their memory
    h[:, :K] = e_g[:, K - 1 :: -1]
    h[:, K - 1 : K - 1 + blocks] = e_g
    h[:, K - 1 + blocks :] = 0.0
    np.conjugate(h, out=h)

    def last_terms(n):
        # multiplied and added up as contiguous arrays in conv's memory
        # (2 J < L), before conv is filled: numpy allocates iterator buffers
        # for complex products on strided rows, and takes a product whose
        # output spans memory that an operand spans (c beside e(g), say)
        # through a scalar loop, which rounds otherwise than its vector loop
        i, J = divmod(n, K)
        if not J:
            return 0.0
        terms, c_j = conv.reshape(-1)[: 2 * J * out.size].reshape(2, out.size, J)
        terms[...] = h[:, i + K - 1 : i + K - 1 - J : -1]
        c_j[...] = c[:, :J]
        terms *= c_j
        return A[:, i] * np.add.accumulate(terms, axis=1, out=terms)[:, -1]

    tail_N, tail_m = last_terms(N), last_terms(m)
    conv[:, :K] = c
    conv[:, K:] = 0.0
    fft(conv, axis=1, out=conv)
    fft(h, axis=1, out=h)
    conv *= h
    ifft(conv, axis=1, out=conv)
    full = m // K
    # A_i times (c * h)_i as whole contiguous rows, in h's spent memory
    sums = h[:, K - 1 : K - 1 + full]
    sums[...] = A[:, :full]
    h *= conv
    np.add.accumulate(sums, axis=1, out=sums)
    s_N = sums[:, N // K - 1] + tail_N if N >= K else tail_N
    np.abs(s_N, out=out)
    out *= out if m == N else np.abs(sums[:, -1] + tail_m)
    out /= N
