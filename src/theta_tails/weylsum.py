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
path accepts |x| < 2^30 only (check_x_range). Accumulation uses exact partial sums (math.fsum), so the
relative error of the returned sum is dominated by the per-term phase error.

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
32,768-sample chunk exceeds the budget on its own, so it keeps one block
per step and the exact arithmetic of the ungrouped loop, one running sum.

On a shorter batch each group of rows is a piece: it sums its terms from
zero, and the piece totals are added in piece order. Pieces share
nothing but e(x), so with workers > 1 they run in T = min(workers,
pieces) shares, share k holding pieces k, k + T, ...: the calling thread
runs share 0 and a pool of T - 1 threads the others. The values do not
depend on the worker count. Adding the block sums in this order moves
short-batch values from the one-running-sum loop by up to about
2e-14 (1 + value). At 512 samples, N = 10^4, r = 2 two workers take
the kernel from about 64 to 45 ms (BENCH_10.json). Splitting the rows
of one group across threads instead keeps the values but is slower:
each ufunc call then lasts about 10 us, and the threads queue on the
GIL.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import RationalPair
from .errors import InvalidArgumentError

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


def two_prod(a, b, b_split=None, out=None):
    """Return (p, e) with p = fl(a*b) and p + e = a*b exactly.

    Works elementwise on arrays. Valid while a*b neither overflows nor
    denormalizes, which holds for every phase product in this package.
    b_split is veltkamp_split(b), for a b that many products share. out,
    three float arrays of the broadcast shape, receives p, e and a scratch
    term, so only the split of a is allocated.
    """
    p, e, tmp = _outputs(out, 3, a, b)
    ah, al = veltkamp_split(a)
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


def reduced_product(a, b, b_split=None, out=None):
    """(a*b) mod 1 with the rounding residue reattached.

    The integer part of fl(a*b) is discarded exactly (both operands of the
    subtraction share an exponent), so the result equals a*b mod 1 up to the
    rounding of the residue itself. b_split and out are two_prod's; the
    result is written into out[0].
    """
    out = _outputs(out, 3, a, b)
    p, e = two_prod(a, b, b_split, out)
    np.add(frac(p, out=out[2]), e, out=out[0])
    return out[0][()]


@dataclass(frozen=True)
class WeylSumSpec:
    """Parameters of S_N: exact rational alpha/beta when possible.

    alpha and beta may be ints, Fractions, or floats; exact inputs take the
    integer-reduced fast path. zeta is an ordinary real. N >= 1.
    """

    alpha: object = 0
    beta: object = 0
    zeta: float = 0.0
    N: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise InvalidArgumentError(f"N must be >= 1, got {self.N}")

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
        if not np.all(np.abs(v) < _X_MAX):
            raise InvalidArgumentError(f"{name} must be finite with |{name}| < 2^30")


def _check_phase_range(n_max: int, spec: WeylSumSpec, x):
    """Raise InvalidArgumentError unless |n| <= n_max and x keep the phase
    exact; return spec.rational_parts(), which the check needs anyway.

    For odd n, n^2/2 + floor(n b/q) is a half-integer, which float64 holds
    exactly only below 2^52: the range of every Weyl path is n_max^2/2 +
    floor(n_max |b|/q) < 2^52, n_max up to about 9.49e7 at b = 0. The
    rational path also reduces n a and n b mod q in int64, so for
    alpha = a/q, beta = b/q it needs max(|a|, |b|, q) n_max < 2^62, which
    leaves room for the batch kernel's step phase at n_max + 1. x (a scalar
    or an array of samples) must pass check_x_range. This is the one place
    that checks the bounds on n.
    """
    check_x_range(x=x)
    rat = spec.rational_parts()
    shift = n_max * abs(rat[1]) // rat[2] if rat is not None else 0
    if n_max * n_max + 2 * shift >= 1 << 53:
        raise InvalidArgumentError(
            f"n up to {n_max} exceeds the exact phase range n^2/2 + floor(n |b|/q) < 2^52"
        )
    if rat is not None and max(abs(rat[0]), abs(rat[1]), rat[2]) * n_max >= 1 << 62:
        raise InvalidArgumentError(
            f"n up to {n_max} exceeds the exact integer range max(|a|, |b|, q) n < 2^62"
        )
    return rat


class _PhasePlan(NamedTuple):
    """What every phase of one call shares, so that no phase redoes the
    Fraction arithmetic or the split of x: the spec, x, the exact parts
    (a, b, q) of alpha and beta from _check_phase_range (None for floats)
    and the Veltkamp split of x."""

    spec: WeylSumSpec
    x: object
    rat: tuple | None
    x_split: tuple


def _phase_plan(spec: WeylSumSpec, x, rat, split=None) -> _PhasePlan:
    """The plan of a call whose range _check_phase_range passed, rat being
    what it returned; split, a pair of float arrays shaped like x, receives
    the split of x (allocated when omitted)."""
    return _PhasePlan(spec, x, rat, veltkamp_split(x, out=split))


def _phase_mod1(ns: np.ndarray, plan: _PhasePlan, out: np.ndarray, scratch) -> np.ndarray:
    """Reduced phase ((n^2/2 + beta n + zeta) x + alpha n) mod 1, plus tiny residue.

    x is the plan's: a scalar with a vector of ns, or an array of samples
    with a one-element ns or a (k, 1) column of ns. The phase is written
    into out, which has the broadcast shape, and returned; scratch holds two
    float arrays of that shape, so on the rational path nothing is
    allocated at that shape. The plan bounds |n| (_check_phase_range).
    """
    half_sq = 0.5 * ns.astype(np.float64) * ns
    products = (out, *scratch)
    if plan.rat is not None:
        a, b, q = plan.rat
        alpha_part = ((ns * a) % q) / float(q)  # alpha n mod 1, exact rational
        nb = ns * b
        # beta n x = (nb//q) x + ((nb mod q)/q) x; the first factor is an
        # exact integer, the second lies in [0,1) so its product is small
        reduced_product(half_sq + (nb // q).astype(np.float64), plan.x, plan.x_split, products)
        small, tmp = scratch
        np.multiply((nb % q) / float(q), plan.x, out=small)
        out += frac(small, out=tmp)
        out += alpha_part
    else:
        alpha = float(plan.spec.alpha)
        beta = float(plan.spec.beta)
        reduced_product(half_sq, plan.x, plan.x_split, products)
        out += reduced_product(ns.astype(np.float64), alpha)
        if beta:
            bx, bx_err = two_prod(beta, plan.x)
            out += reduced_product(ns.astype(np.float64), bx) + ns * bx_err
    if plan.spec.zeta:
        out += reduced_product(np.float64(plan.spec.zeta), np.float64(plan.x))
    return out


def _terms(plan: _PhasePlan, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta = _phase_mod1(ns, plan, np.empty(ns.shape), np.empty((2,) + ns.shape))
    ang = _TWO_PI * frac(theta)
    return np.cos(ang), np.sin(ang)


def weyl_sum(x: float, spec: WeylSumSpec) -> complex:
    """S_N(x) = sum_{n=1}^{N} e((n^2/2 + beta n + zeta) x + alpha n).

    Valid while N^2/2 + floor(N |b|/q) < 2^52, max(|a|, |b|, q) N < 2^62
    and |x| < 2^30; other input raises InvalidArgumentError. The phase
    error grows like |x| 2^-52 turns: with alpha = 1/3, beta = 2/7,
    N = 1000 the relative error is 2e-14 at x = 1.1 and 6e-7 at
    x = 1e9 + 0.1.
    """
    plan = _phase_plan(spec, x, _check_phase_range(spec.N, spec, x))
    re_parts: list[float] = []
    im_parts: list[float] = []
    for start in range(1, spec.N + 1, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, spec.N + 1), dtype=np.int64)
        re, im = _terms(plan, ns)
        re_parts.append(math.fsum(re.tolist()))
        im_parts.append(math.fsum(im.tolist()))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def partial_sums(x: float, spec: WeylSumSpec) -> np.ndarray:
    """Prefix sums S_1..S_N as a complex array (the curlicue path), in the
    N and x range of weyl_sum."""
    plan = _phase_plan(spec, x, _check_phase_range(spec.N, spec, x))
    out = np.empty(spec.N, dtype=np.complex128)
    carry = 0.0 + 0.0j
    for start in range(1, spec.N + 1, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, spec.N + 1), dtype=np.int64)
        re, im = _terms(plan, ns)
        seg = np.cumsum(re + 1j * im)
        seg += carry
        out[start - 1 : start - 1 + seg.size] = seg
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
            f"weight {getattr(weight, 'name', weight)!r} does not decay; cannot truncate"
        )
    n_max = int(math.floor(radius * spec.N)) + 1
    plan = _phase_plan(spec, x, _check_phase_range(n_max, spec, x))
    re_parts: list[float] = []
    im_parts: list[float] = []
    for start in range(-n_max, n_max + 1, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, n_max + 1), dtype=np.int64)
        w = weight.evaluate(ns / float(spec.N))
        live = w != 0.0
        if not np.any(live):
            continue
        re, im = _terms(plan, ns[live])
        wl = w[live]
        re_parts.append(math.fsum((wl * re).tolist()))
        im_parts.append(math.fsum((wl * im).tolist()))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def _floor_rN(N: int, r: float) -> int:
    """m = floor(r N), the length of the second sum, for finite r >= 1.

    Raises InvalidArgumentError for any other r and where r N overflows a
    float (r = 1e308, say); _check_phase_range then bounds m itself.
    """
    if not (math.isfinite(r) and r >= 1):
        raise InvalidArgumentError(f"r must be finite and >= 1, got {r}")
    try:
        return math.floor(r * N)
    except OverflowError:
        raise InvalidArgumentError(f"r N overflows a float at r = {r}, N = {N}") from None


def normalized_product(x: float, spec: WeylSumSpec, r: float = 1.0) -> complex:
    """S_N(x) conj(S_{floor(rN)}(x)) / N, for finite r >= 1, in the N and x
    range of weyl_sum with N replaced by floor(rN)."""
    m = _floor_rN(spec.N, r)
    s_n = weyl_sum(x, spec)
    if m == spec.N:
        s_m = s_n
    else:
        s_m = weyl_sum(
            x, WeylSumSpec(alpha=spec.alpha, beta=spec.beta, zeta=spec.zeta, N=m)
        )
    return s_n * s_m.conjugate() / spec.N


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


def weyl_values_batch(
    xs: np.ndarray, pair: RationalPair, N: int, r: float = 1.0, *, workers: int = 1
) -> np.ndarray:
    """|S_N(x) conj(S_{floor(rN)}(x))| / N for a batch of sample points x.

    The terms t_n = e(theta_n) come from a rotation recurrence: consecutive
    terms differ by rho_n = e((n + 1/2 + beta) x + alpha), and
    rho_{n+1} = rho_n e(x), so each step is acc += t; t *= rho; rho *= w on
    complex arrays updated in place. Every ANCHOR_STRIDE = 64 terms t and
    rho restart from the exact integer-reduced phase of _phase_mod1, made a
    unit phasor within about 2e-16 of e(theta) by _unit_phasor, which keeps
    the deviation from weyl_sum near 1e-13 independent of N (the module
    docstring has the error-versus-K table). Against anchors that took cos
    and sin of 2 pi frac(theta) the values move by at most 1.6e-12
    (1 + value) (BENCH_13.json). The phases of one call share one
    _PhasePlan. The accumulation is a plain running sum (error ~ N eps,
    orders of magnitude below the Monte-Carlo noise this feeds).

    Because each block of K terms starts from an exact anchor, g blocks run
    side by side as the rows of (g, width) buffers, g = min(blocks,
    _GROUP_BUDGET // width), so the interpreter makes K steps per g blocks.
    Row 0 carries the running sum; after each group the other rows are
    added into it in order. The budget bounds the buffers (256 KB each)
    and leaves g = 1 at full chunks, where the whole batch is one piece
    and the arithmetic is exactly the one-block-at-a-time loop. At g > 1
    every group is a piece summed from zero, and S_N and S_floor(rN) are
    the piece totals added in piece order, which moves values from the
    running-sum loop by up to about 2e-14 (1 + value). The pieces run in
    T = min(workers, pieces) shares, piece k in share k mod T, share 0 on
    the calling thread and the others on a pool of T - 1 threads, so the
    result is the same at every worker count and never more than T
    threads run. Every buffer comes from one allocation per call: e(x) in
    every row, shared and read only, then for each share t, rho, acc and a
    scratch row that with rho's memory holds the anchor phases, their
    residues and the phasors' k, then the split of x, the piece totals
    and, when m > N, S_N, and for each share a vector of _ROTATION_BLOCK
    quarter turns. No anchor allocates an array at the size of a group.
    The batch is flattened and the result has the shape of xs.

    Valid for N >= 1, finite r >= 1, m^2/2 + floor(m b / q) < 2^52 with
    m = floor(rN) (n up to about 9.49e7, where the anchor phase stops being
    an exact half-integer plus a reduced product), max(|a|, |b|, q) m < 2^62,
    and |x| < 2^30 (check_x_range), where the phase error is about
    |x| 2^-52 turns; sampling laws satisfy the last by construction.
    Out-of-range input raises InvalidArgumentError.
    """
    if N < 1:
        raise InvalidArgumentError(f"N must be >= 1, got {N}")
    m = _floor_rN(N, r)
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    xs = np.asarray(xs, dtype=np.float64)
    flat = xs.reshape(-1)
    spec = WeylSumSpec.from_pair(pair, N=N)
    rat = _check_phase_range(m, spec, flat)  # before any size that grows with m
    full, tail = divmod(m, ANCHOR_STRIDE)
    g = max(1, min(full + (tail > 0), _GROUP_BUDGET // max(flat.size, 1)))
    # (first block, end block, steps); a partial last block runs alone so
    # every row of a group takes the same number of steps
    groups = [(b, min(b + g, full), ANCHOR_STRIDE) for b in range(0, full, g)]
    if tail:
        groups.append((full, full + 1, tail))
    pieces = [groups[k : k + 1] for k in range(len(groups))] if g > 1 else [groups]
    threads = min(workers, len(pieces))
    n_sums = len(pieces) if len(pieces) > 1 else 0
    # One allocation: separate frees at the end of a call let glibc trim the
    # heap, and the next call page-faults it back in, and other arrays that
    # land in the freed space make the next call grow it. e(x) fills every
    # row because rho *= w is slower against a broadcast (1, width) w. Each
    # share has four (g, width) rows, t, rho, acc and a scratch row, and a
    # short vector for the phasors' quarter turns. One row holds the split
    # of x. S_N needs a row of its own only when m > N; at m = N it is S_m.
    rows = (1 + 4 * threads) * g
    n_rows = rows + 1 + n_sums + (m > N)
    rot = max(1, min(_ROTATION_BLOCK, g * flat.size))
    memory = np.empty(n_rows * flat.size + threads * rot, dtype=np.complex128)
    block = memory[: n_rows * flat.size].reshape(n_rows, flat.size)
    rots = memory[n_rows * flat.size :].reshape(threads, rot)
    plan = _phase_plan(spec, flat, rat, _halves(block[rows]))
    w = block[:g]
    shares = block[g:rows].reshape(threads, 4, g, flat.size)
    # e(x) once, in share 0's scratch row, then copied to the other rows
    theta_x, k_x = _halves(shares[0, 3, :1])
    theta_x[...] = flat
    _unit_phasor(theta_x, w[:1], (k_x, rots[0]))
    w[1:] = w[0]
    sums = block[rows + 1 : rows + 1 + n_sums]
    snap = block[-1] if m > N else None
    result = np.empty(flat.size)
    parts = [None] * len(pieces)
    n_at = divmod(N - 1, ANCHOR_STRIDE) if m > N else (-1, -1)

    def share(j: int) -> np.ndarray:
        for k in range(j, len(pieces), threads):
            total, parts[k] = _run_groups(pieces[k], plan, w, (*shares[j], rots[j]), n_at, snap)
            if n_sums:
                sums[k] = total
        return total

    with ThreadPoolExecutor(max_workers=threads - 1) if threads > 1 else nullcontext() as pool:
        others = [pool.submit(share, j) for j in range(1, threads)]
        total = share(0)
        for job in others:
            job.result()
    # the piece totals in piece order, S_N on the way
    s_m, s_n = sums[0] if n_sums else total, parts[0]
    for k in range(1, len(pieces)):
        if parts[k] is not None:
            s_n = s_m + parts[k]
        s_m += sums[k]
    np.abs(s_m, out=result)
    result *= result if m == N else np.abs(s_n)
    result /= N
    return result.reshape(xs.shape)


def _run_groups(groups, plan, w, bufs, n_at, snap):
    """Sum the terms of consecutive anchor-block groups from zero.

    Each step is acc += t; t *= rho; rho *= w on the rows of one group;
    row 0 carries the running sum and the other rows are added into it, in
    order, at the end of each group. Returns (total, partial): total is
    row 0 of acc, valid until the next call on the same buffers, and
    partial is the sum up to n = N (in snap) if N falls in these groups,
    else None. n_at is (block, step) of n = N, or (-1, -1) for no snapshot.
    """
    t, rho, acc, spare, rot = bufs
    acc[0] = 0.0
    partial = None
    for first, end, steps in groups:
        rows = end - first
        tv, rv, wv, av = t[:rows], rho[:rows], w[:rows], acc[:rows]
        av[1:] = 0.0
        starts = 1 + ANCHOR_STRIDE * np.arange(first, end)[:, None]
        # The first phase waits in rho's memory, which is written last, and
        # the step phase in the scratch row; the other halves of the two
        # hold the phases' residues and then the phasors' k.
        theta, free = _halves(rv)
        step, k = _halves(spare[:rows])
        _phase_mod1(starts, plan, theta, (free, k))
        _phase_mod1(starts + 1, plan, step, (free, k))
        step -= theta
        _unit_phasor(theta, tv, (k, rot))
        _unit_phasor(step, rv, (k, rot))
        # the row and step where n = N, if it falls in this group
        n_row = n_at[0] - first if first <= n_at[0] < end else -1
        snap_at = n_at[1] if n_row >= 0 else -1
        for j in range(steps):
            av += tv
            if j == snap_at:
                partial = snap
                partial[...] = av[n_row]
            if j + 1 < steps:
                tv *= rv
                rv *= wv
        for row in range(1, rows):
            if row == n_row:
                np.add(av[0], partial, out=partial)
            av[0] += av[row]
    return acc[0], partial
