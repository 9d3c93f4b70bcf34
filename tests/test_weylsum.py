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
    InvalidArgumentError,
    WeightFunction,
    WeylSumSpec,
    gaussian_weight,
    normalize_pair,
    normalized_product,
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


def test_nondecaying_weight_is_rejected():
    class Flat(WeightFunction):
        name = "flat"
        regular = False
        eta = None

        def evaluate(self, w):
            return np.ones_like(np.asarray(w, dtype=float))

        def support_radius(self, tol):
            return math.inf

    spec = WeylSumSpec(alpha=Fraction(1, 3), beta=0, zeta=0.0, N=10)
    with pytest.raises(InvalidArgumentError):
        weighted_weyl_sum(Flat(), 0.5, spec)


# ---------------------------------------------------------------------------
# normalized products and the batch kernel

def test_normalized_product_consistency():
    x = 2.718281828459045
    spec = WeylSumSpec(alpha=Fraction(1, 2), beta=Fraction(0), zeta=0.0, N=100)
    val = normalized_product(x, spec)
    assert abs(val - weyl_sum(x, spec) * weyl_sum(x, spec).conjugate() / 100) < 1e-12
    big = WeylSumSpec(alpha=Fraction(1, 2), beta=Fraction(0), zeta=0.0, N=250)
    val2 = normalized_product(x, spec, r=2.5)
    assert abs(val2 - weyl_sum(x, spec) * weyl_sum(x, big).conjugate() / 100) < 1e-12
    with pytest.raises(InvalidArgumentError):
        normalized_product(x, spec, r=0.9)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_batch_kernel_matches_the_scalar_route(r):
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.normal(size=12) * 3, rng.uniform(0, 1, size=8)])
    pair = normalize_pair(Fraction(1, 2), 0)
    got = weyl_values_batch(xs, pair, 60, r=r)
    for x, v in zip(xs, got):
        spec = WeylSumSpec(alpha=pair.alpha, beta=pair.beta, zeta=0.0, N=60)
        assert abs(v - abs(normalized_product(float(x), spec, r=r))) < 1e-9


def test_batch_kernel_rejects_huge_arguments():
    pair = normalize_pair(Fraction(1, 2), 0)
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array([2.0**31]), pair, 10)
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array([0.5, math.nan]), pair, 10)


BATCH_XS = [-2.7, -1.0000772680216847, -0.25, 0.1, 0.3819660112501051, 1.5, 3.3]


@pytest.mark.parametrize(
    "alpha, beta",
    [(Fraction(1, 2), Fraction(0)), (Fraction(1, 10), Fraction(1, 10)), (Fraction(3, 7), Fraction(2, 7))],
)
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


def test_batch_kernel_matches_weyl_sum_at_ten_thousand_terms():
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
    # one share's t, rho, acc and scratch row, and the split of x) and the
    # result. The bound leaves 64 KB for small arrays, so one phase or
    # phasor temporary per group (half a row) fails it. Measured 3,480,480
    # bytes; before the scratch rows the peak was 3,676,064 (a 4-row block
    # plus per-group temporaries).
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


# (g, N, r); every group is a piece, so these put N in the first, a middle
# and the partial last piece
GROUPED_CASES = [
    (3, 3 * K + 10, 2.0),  # N in row 0 of the second group, m alone after it
    (3, K + 30, 2.5),  # N in the middle row, m in the partial last block
    (3, 3 * K, 1.0),  # N = m on the last step of the last row
    (3, 3 * K, 2.5),  # N in the last row, m three groups later
    (2, K + 36, 2.5),  # N in the last row; a one-row full group follows
    (2, K + 6, 1.0),  # N = m in the partial last block
    (2, 2 * K, 2.0),  # N and m both end a group
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
def test_grouped_pieces_on_two_workers_match_the_exact_oracle(
    monkeypatch, pool_sizes, g, N, r, alpha, beta
):
    monkeypatch.setattr(weylsum, "_GROUP_BUDGET", g * len(BATCH_XS))
    pair = normalize_pair(alpha, beta)
    m = math.floor(r * N)
    got = weyl_values_batch(np.array(BATCH_XS), pair, N, r=r, workers=2)
    full, tail = divmod(m, K)
    pieces = -(-full // g) + (tail > 0)
    assert pool_sizes == ([1] if pieces > 1 else [])
    assert np.array_equal(got, weyl_values_batch(np.array(BATCH_XS), pair, N, r=r))
    for x, v in zip(BATCH_XS, got):
        s_n = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), N)
        s_m = oracles.weyl_sum_exact(Fraction(x), alpha, beta, Fraction(0), m)
        assert abs(v - abs(s_n) * abs(s_m) / N) <= 5e-12 * (1 + v)


def test_one_row_groups_ignore_the_worker_count(pool_sizes):
    # a full chunk has g = 1: one piece on the calling thread, no pool
    xs = np.random.default_rng(6).normal(size=32768)
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    got = weyl_values_batch(xs, pair, 150, r=2.5, workers=2)
    assert np.array_equal(got, weyl_values_batch(xs, pair, 150, r=2.5))
    assert pool_sizes == []


def test_pieces_survive_fast_thread_switching(monkeypatch):
    # 40 two-row pieces on 8 threads that switch every microsecond: each
    # thread writes only its own piece totals, so nothing may get lost
    monkeypatch.setattr(weylsum, "_GROUP_BUDGET", 2 * len(BATCH_XS))
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    xs = np.array(BATCH_XS)
    ref = weyl_values_batch(xs, pair, 40 * K, r=2.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(weyl_values_batch(xs, pair, 40 * K, r=2.0, workers=8), ref)
    finally:
        sys.setswitchinterval(interval)


def test_each_piece_runs_once_in_share_k_mod_t(monkeypatch):
    # g = 2 and m = 13 K: six two-row pieces and a one-row one, 3 shares
    monkeypatch.setattr(weylsum, "_GROUP_BUDGET", 2 * len(BATCH_XS))
    runs = []
    real = weylsum._run_groups

    def recorder(groups, *args):
        runs.append((groups[0][0], threading.get_ident()))
        return real(groups, *args)

    monkeypatch.setattr(weylsum, "_run_groups", recorder)
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    weyl_values_batch(np.array(BATCH_XS), pair, 13 * K, workers=3)
    assert sorted(first for first, _ in runs) == [0, 2, 4, 6, 8, 10, 12]
    # pool threads take shares 1 and 2 from a queue, so one may run both
    thread_of = {first // 2: ident for first, ident in runs}
    assert thread_of[0] == threading.get_ident()
    assert threading.get_ident() not in (thread_of[1], thread_of[2])
    for k in range(3, 7):
        assert thread_of[k] == thread_of[k - 3]


def test_kernel_threads_never_exceed_the_pieces(pool_sizes):
    # 7 samples, m = K + 6: one full block and the partial one, two pieces
    pair = normalize_pair(Fraction(3, 7), Fraction(2, 7))
    got = weyl_values_batch(np.array(BATCH_XS), pair, K + 6, workers=64)
    assert pool_sizes == [1]
    assert np.array_equal(got, weyl_values_batch(np.array(BATCH_XS), pair, K + 6))
    with pytest.raises(InvalidArgumentError):
        weyl_values_batch(np.array(BATCH_XS), pair, K + 6, workers=0)


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
    weylsum._check_phase_range(94_906_265, spec, 0.3)  # the largest n in range at b = 0
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


def test_every_weyl_path_rejects_numerators_or_q_beyond_the_integer_range():
    # n a and n b are reduced mod q in int64: max(|a|, |b|, q) n < 2^62
    with pytest.raises(InvalidArgumentError, match="2\\^62"):
        weyl_sum(0.3, WeylSumSpec(alpha=Fraction(10**12, 3), N=10**7))
    edge = WeylSumSpec(alpha=Fraction(1, 2**40), N=2**22)
    weylsum._check_phase_range(2**22 - 1, edge, 0.3)
    with pytest.raises(InvalidArgumentError):
        weylsum._check_phase_range(2**22, edge, 0.3)
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
        normalized_product,
        lambda x, s: weyl_values_batch(np.array([0.3, x]), pair, s.N),
    ]
    weylsum._check_phase_range(10, spec, np.nextafter(2.0**30, 0))
    for x in (1e300, -1e300, 2.0**30):
        for path in paths:
            with pytest.raises(InvalidArgumentError, match="2\\^30"):
                path(x, spec)


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
