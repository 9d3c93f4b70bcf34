"""Phase-exact Weyl sums against exact-rational recomputation."""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from theta_tails import (
    CHUNK_SIZE,
    InvalidArgumentError,
    WeylSumSpec,
    gaussian_weight,
    normalize_pair,
    partial_sums,
    sharp_indicator_weight,
    weighted_weyl_sum,
    weyl_sum,
    weyl_values_batch,
    weylsum,
)
from theta_tails.weylsum import (
    ANCHOR_STRIDE as K,
    frac,
    reduced_product,
    two_prod,
    veltkamp_split,
)
from theta_tails.homog import run_chunks

small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=24)
xs_floats = st.floats(min_value=-4.0, max_value=4.0)


@given(
    xs_floats,
    small_fractions,
    small_fractions,
    small_fractions,
    st.integers(min_value=1, max_value=200),
)
def test_weyl_sum_matches_exact_rational_phases(x, alpha, beta, zeta, N):
    # the float x is itself a dyadic rational; the reference evaluates the
    # very same real number, so the comparison isolates summation error
    spec = WeylSumSpec(alpha=alpha, beta=beta, zeta=float(zeta), N=N)
    got = weyl_sum(x, spec)
    want = oracles.weyl_sum_exact(Fraction(x), alpha, beta, zeta, N)
    assert abs(got - want) <= 1e-11 * (1 + abs(want))


def test_float_parameters_take_the_float_path():
    # irrational-looking float alpha/beta; cross-check against the oracle at
    # the exact dyadic values the floats denote
    x, alpha, beta = 0.7548776662466927, 0.41421356237309515, 1.3222677868380702
    spec = WeylSumSpec(alpha=alpha, beta=beta, zeta=0.0, N=400)
    assert spec.rational_parts() is None
    got = weyl_sum(x, spec)
    want = oracles.weyl_sum_exact(
        Fraction(x), Fraction(alpha), Fraction(beta), Fraction(0), 400
    )
    assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_rational_parts_keeps_raw_numerators():
    spec = WeylSumSpec(alpha=Fraction(7, 3), beta=Fraction(-5, 4), zeta=0.0, N=10)
    a, b, q = spec.rational_parts()
    assert Fraction(a, q) == Fraction(7, 3)
    assert Fraction(b, q) == Fraction(-5, 4)


@given(xs_floats, small_fractions, small_fractions, st.integers(min_value=1, max_value=150))
def test_alpha_is_periodic_but_beta_is_not(x, alpha, beta, N):
    base = weyl_sum(x, WeylSumSpec(alpha=alpha, beta=beta, zeta=0.0, N=N))
    shifted = weyl_sum(x, WeylSumSpec(alpha=alpha + 1, beta=beta, zeta=0.0, N=N))
    assert abs(base - shifted) <= 1e-12 * (1 + abs(base))
    # beta + 1 multiplies each term by e(n x): a different sum unless x is
    # nearly integral
    beta_shift = weyl_sum(x, WeylSumSpec(alpha=alpha, beta=beta + 1, zeta=0.0, N=N))
    want = oracles.weyl_sum_exact(Fraction(x), alpha, beta + 1, Fraction(0), N)
    assert abs(beta_shift - want) <= 1e-11 * (1 + abs(want))


def test_beta_shift_changes_the_value_off_integers():
    x = math.sqrt(2) - 1
    spec = WeylSumSpec(alpha=Fraction(1, 3), beta=Fraction(0), zeta=0.0, N=50)
    shifted = WeylSumSpec(alpha=Fraction(1, 3), beta=Fraction(1), zeta=0.0, N=50)
    assert abs(weyl_sum(x, spec) - weyl_sum(x, shifted)) > 1e-6


@given(xs_floats, small_fractions, small_fractions, st.integers(min_value=1, max_value=150))
def test_conjugation_symmetry(x, alpha, beta, N):
    # zeta rides inside the x factor, so negating x conjugates every term
    fwd = weyl_sum(x, WeylSumSpec(alpha=alpha, beta=beta, zeta=0.25, N=N))
    bwd = weyl_sum(-x, WeylSumSpec(alpha=-alpha, beta=beta, zeta=0.25, N=N))
    assert abs(fwd - bwd.conjugate()) <= 1e-10 * (1 + abs(fwd))


def test_partial_sums_walk_in_unit_steps():
    x = 0.3819660112501051
    spec = WeylSumSpec(alpha=Fraction(1, 7), beta=Fraction(2, 7), zeta=0.1, N=500)
    sums = partial_sums(x, spec)
    assert sums.shape == (500,)
    steps = np.diff(sums)
    assert np.allclose(np.abs(steps), 1.0, atol=1e-12)
    assert abs(sums[-1] - weyl_sum(x, spec)) < 1e-10
    assert abs(sums[0]) == pytest.approx(1.0, abs=1e-12)


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        WeylSumSpec(alpha=0, beta=0, zeta=0.0, N=0)


# ---------------------------------------------------------------------------
# weighted sums

def test_indicator_weight_reproduces_the_sharp_sum():
    x = 1.2360679774997896
    spec = WeylSumSpec(alpha=Fraction(1, 8), beta=Fraction(3, 8), zeta=0.0, N=120)
    sharp = weyl_sum(x, spec)
    weighted = weighted_weyl_sum(sharp_indicator_weight(1.0), x, spec)
    assert abs(weighted - sharp) < 1e-12 * (1 + abs(sharp))


def test_indicator_weight_with_stretch_reproduces_the_longer_sum():
    x = 0.5235987755982988
    spec = WeylSumSpec(alpha=Fraction(2, 5), beta=Fraction(0), zeta=0.0, N=80)
    longer = WeylSumSpec(alpha=Fraction(2, 5), beta=Fraction(0), zeta=0.0, N=200)
    weighted = weighted_weyl_sum(sharp_indicator_weight(2.5), x, spec)
    assert abs(weighted - weyl_sum(x, longer)) < 1e-11 * (1 + abs(weighted))


@settings(max_examples=20)
@given(xs_floats, small_fractions, small_fractions, st.integers(min_value=5, max_value=80))
def test_gaussian_weighted_sum_matches_the_two_sided_oracle(x, alpha, beta, N):
    g = gaussian_weight()
    spec = WeylSumSpec(alpha=alpha, beta=beta, zeta=0.0, N=N)
    got = weighted_weyl_sum(g, x, spec)
    half = int(g.support_radius(1e-18) * N) + 1
    want = oracles.weighted_weyl_sum_exact(
        lambda n: math.exp(-math.pi * (n / N) ** 2),
        Fraction(x), alpha, beta, Fraction(0), N, half,
    )
    assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_nondecaying_weight_is_rejected(flat_weight):
    spec = WeylSumSpec(alpha=Fraction(1, 3), beta=0, zeta=0.0, N=10)
    with pytest.raises(InvalidArgumentError):
        weighted_weyl_sum(flat_weight, 0.5, spec)


# ---------------------------------------------------------------------------
# the batch kernel

@pytest.mark.parametrize("r", [1.0, 2.0])
def test_batch_kernel_matches_the_scalar_route(r):
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.normal(size=12) * 3, rng.uniform(0, 1, size=8)])
    pair = normalize_pair(Fraction(1, 2), 0)
    got = weyl_values_batch(xs, pair, 60, r=r)
    spec, spec_m = WeylSumSpec.from_pair(pair, 60), WeylSumSpec.from_pair(pair, math.floor(r * 60))
    for x, v in zip(xs, got):
        assert abs(v - abs(weyl_sum(x, spec)) * abs(weyl_sum(x, spec_m)) / 60) < 1e-9


def test_batch_kernel_rejects_huge_arguments():
    pair = normalize_pair(Fraction(1, 2), 0)
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array([2.0**31]), pair, 10)
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array([0.5, math.nan]), pair, 10)


BATCH_XS = [-2.7, -1.0000772680216847, -0.25, 0.1, 0.3819660112501051, 1.5, 3.3]
BATCH_PAIRS = [(Fraction(1, 2), Fraction(0)), (Fraction(1, 10), Fraction(1, 10)), (Fraction(3, 7), Fraction(2, 7))]


@pytest.mark.parametrize("alpha, beta", BATCH_PAIRS)
@pytest.mark.parametrize("N", [1, K - 1, K, K + 1, 2 * K + 1])
@pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
def test_batch_kernel_matches_the_exact_oracle(alpha, beta, N, r):
    # N and floor(rN) land inside a re-anchoring block and on its edges
    pair = normalize_pair(alpha, beta)
    m = math.floor(r * N)
    got = weyl_values_batch(np.array(BATCH_XS), pair, N, r=r)
    for x, v in zip(BATCH_XS, got):
        s_n = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), N)
        s_m = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), m)
        assert abs(v - abs(s_n) * abs(s_m) / N) <= 5e-12 * (1 + v)


def test_batch_kernel_matches_weyl_sum_at_ten_thousand_terms(direct_path):
    # the rotation recurrence; the chirp path has its own tests below
    xs = np.random.default_rng(11).normal(size=8)
    pair = normalize_pair(Fraction(3, 7), Fraction(2, 7))
    got = weyl_values_batch(xs, pair, 10**4, r=2.5)
    for x, v in zip(xs, got):
        s_n = weyl_sum(float(x), WeylSumSpec.from_pair(pair, N=10**4))
        s_m = weyl_sum(float(x), WeylSumSpec.from_pair(pair, N=25_000))
        assert abs(v - abs(s_n) * abs(s_m) / 10**4) <= 1e-9


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_batch_kernel_is_the_per_term_recurrence_on_a_full_chunk(r):
    # a full chunk exceeds the group budget, so blocks run one at a time
    # and every floating-point operation is the per-term reference's
    xs = np.random.default_rng(5).normal(size=32768)
    pair = normalize_pair(Fraction(3, 7), Fraction(2, 7))
    m = math.floor(r * 500)
    ref = oracles.weyl_values_per_term(xs, pair.a, pair.b, pair.q, 500, m, stride=K)
    assert np.array_equal(weyl_values_batch(xs, pair, 500, r=r), ref)


def _phasor(phases):
    theta = np.array(phases, dtype=np.float64)
    out = np.empty(theta.shape, dtype=np.complex128)
    weylsum._unit_phasor(theta, out)
    return out


def test_unit_phasor_is_within_3e_16_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # k/8 are the ties of rint(4 theta); each side of them picks another quarter
    ties = np.arange(-8, 41) / 8.0
    phases = np.concatenate([
        np.random.default_rng(13).uniform(-1.0, 5.0, 10_000),
        ties, ties - 2.0**-52, ties + 2.0**-52,
        np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf),
    ])
    got = _phasor(phases)
    worst = 0.0
    with mpmath.workdps(30):
        for v, z in zip(phases.tolist(), got.tolist()):
            turn = 2 * mpmath.mpf(v)
            worst = max(worst, float(abs(mpmath.mpc(z) - mpmath.mpc(mpmath.cospi(turn), mpmath.sinpi(turn)))))
    assert worst <= 3e-16


def test_unit_phasor_gives_quarter_turns_exactly():
    k = np.arange(-8, 21)
    assert np.array_equal(_phasor(k / 4.0), np.array([1.0, 1.0j, -1.0, -1.0j])[k % 4])


def test_full_chunk_kernel_allocates_its_rows_once():
    # One full-chunk call at (1/2, 0), N = 500 holds 6.5 rows of 32,768
    # complex values and a 64 KB vector of quarter turns: the block (e(x),
    # t, rho and acc, the running total and the split of x) and
    # the result. The bound leaves 64 KB for small arrays, so one phase or
    # phasor temporary per group (half a row) fails it. Measured 3,483,689
    # bytes; before the anchors wrote into the block the peak was 3,676,064
    # (a 4-row block plus per-group temporaries).
    xs = np.random.default_rng(5).normal(size=32768)
    pair = normalize_pair(Fraction(1, 2), 0)
    weyl_values_batch(xs, pair, 500)
    tracemalloc.start()
    try:
        weyl_values_batch(xs, pair, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 32768 * 16 + 2 * 64 * 1024


def test_kernel_memory_does_not_grow_with_n(direct_path):
    # the groups are laid out one at a time and their sums go into one
    # running total, so a call holds the same rows at any N (a row per
    # piece total once made the peak 4.2 MB at N = 10^4 and 27.4 MB at 10^5)
    xs = np.random.default_rng(5).normal(size=4096)
    pair = normalize_pair(Fraction(1, 2), 0)
    weyl_values_batch(xs, pair, 10**4)
    peaks = []
    for N in (10**4, 10**5):
        tracemalloc.start()
        try:
            weyl_values_batch(xs, pair, N)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


# ---------------------------------------------------------------------------
# the chirp path, m = floor(rN) >= CHIRP_MIN_TERMS

# x within 1e-9 of a/c, c <= 5: the terms line up and their errors add coherently
RESONANT_XS = [
    float(Fraction(a, c)) + d for c in range(1, 6) for a in range(c) if math.gcd(a, c) == 1 for d in (-1e-9, 1e-9)
]


def _assert_matches_weyl_sum(xs, alpha, beta, N, r):
    pair = normalize_pair(alpha, beta)
    m = math.floor(r * N)
    assert m >= weylsum.CHIRP_MIN_TERMS
    got = weyl_values_batch(np.array(xs), pair, N, r=r)
    for x, v in zip(xs, got):
        s_n = weyl_sum(x, WeylSumSpec.from_pair(pair, N=N))
        s_m = weyl_sum(x, WeylSumSpec.from_pair(pair, N=m))
        assert abs(v - abs(s_n) * abs(s_m) / N) <= 5e-12 * (1 + v)


@pytest.mark.parametrize("alpha, beta", BATCH_PAIRS)
@pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
@pytest.mark.parametrize("N", [10**4, 10_007])
def test_chirp_path_matches_weyl_sum_at_ten_thousand_terms(alpha, beta, N, r):
    # 10,007 is prime; the blocks have K = isqrt(m) terms, and but for
    # N = m = 10^4 both sums end on fewer than K last terms
    m = math.floor(r * N)
    assert (N, r) == (10**4, 1.0) or N % math.isqrt(m) and m % math.isqrt(m)
    xs = RESONANT_XS + np.random.default_rng(17).uniform(-3.0, 3.0, 2).tolist()
    _assert_matches_weyl_sum(xs, alpha, beta, N, r)


@pytest.mark.parametrize("alpha, beta", BATCH_PAIRS)
@pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
def test_chirp_path_matches_weyl_sum_at_a_hundred_thousand_terms(alpha, beta, r):
    # 100,003 is prime, and both sums end on last terms
    N = 100_003
    m = math.floor(r * N)
    assert N % math.isqrt(m) and m % math.isqrt(m)
    xs = [1 / 3 - 1e-9, 0.5 + 1e-9, 0.2 - 1e-9, -1.2345678901234567]
    _assert_matches_weyl_sum(xs, alpha, beta, N, r)


@pytest.mark.parametrize("alpha, beta", BATCH_PAIRS)
@pytest.mark.parametrize(
    "N, r", [(1, 1.0), (1, 2.5), (3, 2.0), (K - 1, 2.5), (144, 2.0), (2 * K + 1, 2.0), (3, 20.0), (10, 12.5)]
)
def test_chirp_layout_matches_the_exact_oracle_at_small_m(monkeypatch, alpha, beta, N, r):
    # the chirp path forced below its crossover: one-term blocks at m = 1
    # and 2, no last terms at N = 144, r = 2 (K = isqrt(m) = 16 divides N
    # and m), and no full block in S_N at r = 20 and 12.5, where N < K
    monkeypatch.setattr(weylsum, "CHIRP_MIN_TERMS", 0)
    pair = normalize_pair(alpha, beta)
    m = math.floor(r * N)
    got = weyl_values_batch(np.array(BATCH_XS), pair, N, r=r)
    for x, v in zip(BATCH_XS, got):
        s_n = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), N)
        s_m = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), m)
        assert abs(v - abs(s_n) * abs(s_m) / N) <= 5e-12 * (1 + v)


def test_chirp_values_do_not_depend_on_the_tile_or_the_batch():
    # the weyl-deep shape: 512 uniform draws, (1/10, 1/10), N = 10^4, r = 2,
    # in 19 tiles of 28 samples; every step acts on each sample alone
    xs = np.random.default_rng(9).uniform(size=512)
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    ref = weyl_values_batch(xs, pair, 10**4, r=2.0)
    for k in (0, 27, 28, 29, 300, 511):
        assert weyl_values_batch(xs[k : k + 1], pair, 10**4, r=2.0)[0] == ref[k]
    assert np.array_equal(weyl_values_batch(xs[101:350], pair, 10**4, r=2.0), ref[101:350])


# the phase pass's x: normal, near-resonant and at both ends of the x range
PHASE_XS = np.concatenate([
    np.random.default_rng(21).normal(size=24) * 3, RESONANT_XS, [-(2.0**30 - 1), 2.0**30 - 1],
])


@pytest.mark.parametrize("alpha, beta", BATCH_PAIRS)
@pytest.mark.parametrize("m", [5000, 20_000, 10**6])
def test_stacked_chirp_rows_give_phase_mod1_and_the_chirp_bit_for_bit(alpha, beta, m):
    # the rows are built once per call and applied to a column of samples:
    # the c_j and A_i phases (n up to about m) are _phase_mod1's of the
    # index column, transposed, and the g_k phases K x k^2 / 2 mod 1 those
    # of reduced_product, as the direct layout computed them
    block = math.isqrt(m)
    blocks = -(-m // block)
    ns = np.concatenate([1 + np.arange(block), 1 + block * np.arange(blocks)])
    plan = weylsum._phase_plan(WeylSumSpec.from_pair(normalize_pair(alpha, beta), m), PHASE_XS, m)
    ends = weylsum._phase_mod1(ns[:, None], plan, np.empty((ns.size, PHASE_XS.size)),
                               np.empty((2, ns.size, PHASE_XS.size)))
    chirp = reduced_product(0.5 * block * np.arange(blocks, dtype=np.float64)[:, None] ** 2, PHASE_XS)
    column = plan._replace(x=PHASE_XS[:, None], x_split=tuple(v[:, None] for v in plan.x_split))
    width = block + 2 * blocks
    got = weylsum._phase_pass(weylsum._chirp_rows(plan, block, blocks), column,
                              np.empty((PHASE_XS.size, width)), np.empty((2, PHASE_XS.size, width)))
    assert np.array_equal(got, np.concatenate([ends, chirp]).T)


@pytest.mark.parametrize("N", [10**4, 10**5, 10**6])
def test_chirp_memory_stays_below_the_direct_paths(N):
    # a 512-sample call at r = 2 holds one buffer allocation, whose tiles
    # are sized by the FFT length: 0.59 to 0.72 MB was measured at these N,
    # against 1.27 MB for the direct path at the weyl-deep shape
    xs = np.random.default_rng(5).uniform(size=512)
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    weyl_values_batch(xs, pair, N, r=2.0)
    tracemalloc.start()
    try:
        weyl_values_batch(xs, pair, N, r=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.28e6


# (g, N, r): the groups of 1..N; of N+1..floor(rN). "k + s" is a group of
# k full rows and a short last row, "s" a short block alone; g caps the rows.
GROUPED_CASES = [
    (3, 3 * K + 10, 2.0),  # 3, s; 3, s
    (3, K + 30, 2.5),  # 1 + s; 2 + s
    (3, 3 * K, 1.0),  # 3; none
    (3, 3 * K, 2.5),  # 3; 3, 1 + s
    (2, K + 36, 2.5),  # 1 + s; 2, s
    (2, K + 6, 1.0),  # 1 + s; none
    (2, 2 * K, 2.0),  # 2; 2
]
GROUPED_PAIRS = [(Fraction(1, 10), Fraction(1, 10)), (Fraction(3, 7), Fraction(2, 7))]


@pytest.mark.parametrize("g, N, r", GROUPED_CASES)
@pytest.mark.parametrize("alpha, beta", GROUPED_PAIRS)
def test_grouped_blocks_match_the_exact_oracle(monkeypatch, g, N, r, alpha, beta):
    monkeypatch.setattr(weylsum, "_GROUP_BUDGET", g * len(BATCH_XS))
    pair = normalize_pair(alpha, beta)
    m = math.floor(r * N)
    got = weyl_values_batch(np.array(BATCH_XS), pair, N, r=r)
    for x, v in zip(BATCH_XS, got):
        s_n = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), N)
        s_m = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), m)
        assert abs(v - abs(s_n) * abs(s_m) / N) <= 5e-12 * (1 + v)


@pytest.mark.parametrize("g, N, r", GROUPED_CASES)
@pytest.mark.parametrize("alpha, beta", GROUPED_PAIRS)
def test_grouped_pieces_on_two_workers_match_the_exact_oracle(monkeypatch, g, N, r, alpha, beta):
    # the kernel runs on its caller's thread: here two chunk workers of
    # run_chunks call it at once, each with buffers of its own
    monkeypatch.setattr(weylsum, "_GROUP_BUDGET", g * len(BATCH_XS))
    pair = normalize_pair(alpha, beta)
    m = math.floor(r * N)
    xs = np.array(BATCH_XS)
    got = run_chunks(CHUNK_SIZE + 1, lambda *_: weyl_values_batch(xs, pair, N, r=r), 2)
    ref = weyl_values_batch(xs, pair, N, r=r)
    assert len(got) == 2
    for values in got:
        assert np.array_equal(values, ref)
    for x, v in zip(BATCH_XS, ref):
        s_n = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), N)
        s_m = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), m)
        assert abs(v - abs(s_n) * abs(s_m) / N) <= 5e-12 * (1 + v)


@pytest.mark.parametrize("crossover", [math.inf, 0])
def test_pieces_survive_fast_thread_switching(monkeypatch, crossover):
    # threads that switch every microsecond: 8 chunk workers each run the
    # kernel, on the direct path in 40 two-row groups, on the chirp path in
    # 7 one-sample tiles. No call may see another's buffers
    monkeypatch.setattr(weylsum, "CHIRP_MIN_TERMS", crossover)
    monkeypatch.setattr(weylsum, "_GROUP_BUDGET", 2 * len(BATCH_XS))
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    xs = np.array(BATCH_XS)
    ref = weyl_values_batch(xs, pair, 40 * K, r=2.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = run_chunks(8 * CHUNK_SIZE, lambda *_: weyl_values_batch(xs, pair, 40 * K, r=2.0), 8)
            assert len(got) == 8
            for values in got:
                assert np.array_equal(values, ref)
    finally:
        sys.setswitchinterval(interval)


def test_each_group_runs_once_in_order_on_the_calling_thread(monkeypatch):
    # g = 2 and m = N = 13 K: six two-row groups and a one-row one, in term
    # order, all into the one set of buffers of the call
    monkeypatch.setattr(weylsum, "_GROUP_BUDGET", 2 * len(BATCH_XS))
    runs = []
    real = weylsum._run_group

    def recorder(group, plan, w, bufs):
        runs.append((group[0], bufs[0].ctypes.data, threading.get_ident()))
        return real(group, plan, w, bufs)

    monkeypatch.setattr(weylsum, "_run_group", recorder)
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    weyl_values_batch(np.array(BATCH_XS), pair, 13 * K)
    assert [first for first, _, _ in runs] == [1 + 2 * K * k for k in range(7)]
    assert len({buffer for _, buffer, _ in runs}) == 1
    assert {ident for _, _, ident in runs} == {threading.get_ident()}


@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (5,), (3, 4)])
def test_batch_kernel_keeps_the_shape_of_its_input(shape):
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    xs = np.random.default_rng(3).normal(size=shape)
    got = weyl_values_batch(xs, pair, 200, r=2.0)
    assert got.shape == shape
    assert np.array_equal(got.reshape(-1), weyl_values_batch(xs.reshape(-1), pair, 200, r=2.0))


@pytest.mark.parametrize(
    "N, r",
    [
        (0, 1.0), (-5, 1.0), (10, 0.9), (10, math.inf), (10, math.nan),
        (2**27, 1.0), (10, 2.0**24), (95_000_001, 1.0), (10, 1e308),
    ],
)
def test_batch_kernel_range_guard(N, r):
    # m^2/2 must stay below 2^52 with m = floor(rN); b = 0 puts the limit
    # just under m = 94,906,266
    pair = normalize_pair(Fraction(1, 2), 0)
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array([0.5]), pair, N, r=r)


def test_every_weyl_path_rejects_n_beyond_the_exact_phase_range():
    # an odd n with n^2 >= 2^53 loses the half of n^2/2 in float64: at
    # (1/8, 0), x = 0.3 the phase of n = 95,000,001 came out off by x/2
    n = 95_000_001
    assert 0.5 * np.float64(n) * n != Fraction(n * n, 2)
    assert 0.5 * np.float64(94_906_265) * 94_906_265 == Fraction(94_906_265**2, 2)
    spec = WeylSumSpec(alpha=Fraction(1, 8), beta=0, zeta=0.0, N=n)
    weylsum._phase_plan(spec, 0.3, 94_906_265)  # the largest n in range at b = 0
    for path in (weyl_sum, partial_sums):
        with pytest.raises(InvalidArgumentError):
            path(0.3, spec)
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array([0.3]), normalize_pair(Fraction(1, 8), 0), n)
    # the weighted sum runs n up to about 3.6 N, so it crosses at a smaller N
    g = gaussian_weight()
    N = math.ceil(94_906_266 / g.support_radius(1e-18))
    with pytest.raises(InvalidArgumentError):
        weighted_weyl_sum(g, 0.3, WeylSumSpec(alpha=Fraction(1, 8), beta=0, zeta=0.0, N=N))


def test_range_errors_print_a_large_n_in_three_digits():
    # past 4300 digits str(n) itself raised ValueError, not the range error
    for N, short in ((10**20, "1.00e+20"), (10**5000, "1.00e+5000"), (123456789, "123456789")):
        with pytest.raises(InvalidArgumentError) as info:
            weyl_sum(0.3, WeylSumSpec(alpha=Fraction(1, 8), N=N))
        assert f"n up to {short} " in str(info.value) and len(str(info.value)) < 120
    with pytest.raises(InvalidArgumentError, match="N = 1.00e\\+400$"):
        weyl_values_batch(np.array([0.3]), normalize_pair(0, 0), 10**400, r=2.0)


def test_every_weyl_path_rejects_numerators_or_q_beyond_the_integer_range():
    # n a and n b are reduced mod q in int64: max(|a|, |b|, q) n < 2^62
    with pytest.raises(InvalidArgumentError, match="2\\^62"):
        weyl_sum(0.3, WeylSumSpec(alpha=Fraction(10**12, 3), N=10**7))
    edge = WeylSumSpec(alpha=Fraction(1, 2**40), N=2**22)
    weylsum._phase_plan(edge, 0.3, 2**22 - 1)
    with pytest.raises(InvalidArgumentError):
        weylsum._phase_plan(edge, 0.3, 2**22)
    huge_q = Fraction(1, 2**70)
    with pytest.raises(InvalidArgumentError):
        partial_sums(0.3, WeylSumSpec(alpha=huge_q, N=10))
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array([0.3]), normalize_pair(huge_q, 0), 10)


def test_every_weyl_path_rejects_x_beyond_2_30():
    # the two_prod residue is never reduced mod 1, so far out the phase is
    # wrong with no error: unchecked, weyl_sum gives 4.0 at x = 1e300
    # against the exact -0.5 + 0.866i, and the Gaussian sum 2.23 against
    # 6.1e-15 at the 2-periodic equivalent x = 0
    spec = WeylSumSpec(alpha=Fraction(1, 3), N=10)
    pair = normalize_pair(Fraction(1, 3), 0)
    paths = [
        weyl_sum,
        partial_sums,
        lambda x, s: weighted_weyl_sum(gaussian_weight(), x, s),
        lambda x, s: weyl_values_batch(np.array([0.3, x]), pair, s.N),
    ]
    weylsum._phase_plan(spec, np.nextafter(2.0**30, 0), 10)
    for x in (1e300, -1e300, 2.0**30):
        for path in paths:
            with pytest.raises(InvalidArgumentError, match="2\\^30"):
                path(x, spec)


def test_weyl_batch_types_input_that_is_no_real_array():
    # numpy's plain ValueError once came out of the conversion
    pair = normalize_pair(Fraction(1, 2), 0)
    for bad in (["a"], "x", [[0.1], [0.2, 0.3]], [1j], object()):
        with pytest.raises(InvalidArgumentError, match="xs must be an array of reals"):
            weyl_values_batch(bad, pair, 5)
    # valid calls keep their bits: a list, a scalar and a 2-D batch as arrays
    xs = np.array([0.3, -0.1, 0.25, 1e-9])
    want = weyl_values_batch(xs, pair, 40, 1.5)
    assert np.array_equal(weyl_values_batch(xs.tolist(), pair, 40, 1.5), want)
    assert np.array_equal(weyl_values_batch(xs.reshape(2, 2), pair, 40, 1.5), want.reshape(2, 2))
    assert weyl_values_batch(0.3, pair, 40, 1.5) == weyl_values_batch([0.3], pair, 40, 1.5)[0]


# ---------------------------------------------------------------------------
# double-double helpers

scaled = st.floats(min_value=-1e8, max_value=1e8).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-30  # stay clear of denormal products
)


@given(scaled, scaled)
def test_two_prod_is_an_exact_split(a, b):
    p, e = two_prod(a, b)
    assert p == a * b
    assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)


@given(scaled)
def test_veltkamp_split_is_exact(a):
    hi, lo = veltkamp_split(a)
    assert hi + lo == a
    assert Fraction(hi) + Fraction(lo) == Fraction(a)


@given(st.floats(min_value=-1e15, max_value=1e15))
def test_frac_is_correctly_rounded_mod_one(v):
    # frac lands in [0, 1]; the closed right end appears only when the true
    # fractional part of a tiny negative v rounds up to 1
    f = float(frac(v))
    assert 0.0 <= f <= 1.0
    d = (Fraction(f) - Fraction(v)) % 1
    assert min(d, 1 - d) <= Fraction(1, 2**52)


@given(st.floats(min_value=-1e7, max_value=1e7), st.floats(min_value=-1e4, max_value=1e4))
def test_reduced_product_is_the_true_product_mod_one(a, b):
    got = reduced_product(a, b)
    d = (Fraction(a) * Fraction(b) - Fraction(float(got))) % 1
    assert min(d, 1 - d) < Fraction(1, 10**13)
