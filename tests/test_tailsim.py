"""Monte-Carlo survival curves and the R^-4 fit."""

import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

import oracles

from theta_tails import (
    CHUNK_SIZE,
    InvalidArgumentError,
    MuAbSampler,
    TailCurve,
    default_thresholds,
    fit_tail_constant,
    homog,
    leading_constant,
    normalize_pair,
    orbit_size_formula,
    sampling_law,
    simulate_theta_tail,
    simulate_weyl_tail,
    tail_constant,
    weylsum,
)
from theta_tails.homog import conjugate_horoball, cusp_candidates
from theta_tails.tailsim import MAX_THRESHOLDS, _count_exceedances, theta_values
from theta_tails.theta import theta_pair_gaussian_batch, theta_pair_gaussian_screen_height


def test_sampling_laws():
    u = np.array([0.1, 0.5, 0.9, 0.999])
    assert np.array_equal(sampling_law("normal").transform(u), ndtri(u))
    assert np.array_equal(sampling_law("uniform01").transform(u), u)
    with pytest.raises(InvalidArgumentError):
        sampling_law("cauchy")


def test_default_thresholds_grid():
    grid = default_thresholds()
    assert grid[0] == pytest.approx(1.5) and grid[-1] == pytest.approx(6.0)
    assert len(grid) == 20
    assert np.all(np.diff(np.log(grid)) > 0)
    custom = default_thresholds(2.0, 8.0, 3)
    assert np.allclose(custom, [2.0, 4.0, 8.0])
    with pytest.raises(InvalidArgumentError):
        default_thresholds(3.0, 2.0, 5)
    with pytest.raises(InvalidArgumentError):
        default_thresholds(1.0, 2.0, 1)
    assert default_thresholds(1.0, 2.0, MAX_THRESHOLDS).size == MAX_THRESHOLDS
    # R beyond 1e-75..1e75 once gave "predicted": Infinity, or R^2 = inf
    for bad in ((1.0, math.inf, 5), (math.nan, 2.0, 5), (1.0, 2.0, MAX_THRESHOLDS + 1),
                (1e-300, 1e-299, 3), (1e-76, 1.0, 3), (1.0, 1e76, 3), (1.0, 1e308, 3)):
        with pytest.raises(InvalidArgumentError):
            default_thresholds(*bad)
    edges = default_thresholds(1e-75, 1e75, 3)
    assert np.all(np.isfinite(edges**4) & np.isfinite(edges**-4.0) & (edges**-4.0 > 0))


@pytest.mark.parametrize(
    "grid",
    [[], [[2.0, 3.0]], [2.0, math.inf], [2.0, math.nan], [0.0, 2.0], [-1.0],
     np.full(MAX_THRESHOLDS + 1, 2.0), [1e-300, 1e-299], [1.0, 1e308]],
    ids=["empty", "2-D", "inf", "nan", "zero", "negative", "too-many", "R^-4-inf", "R^4-inf"],
)
@pytest.mark.parametrize("simulate", [simulate_weyl_tail, simulate_theta_tail])
def test_simulators_reject_bad_threshold_grids(simulate, grid):
    with pytest.raises(InvalidArgumentError):
        simulate(Fraction(1, 8), n_samples=10, thresholds=grid)


@pytest.mark.parametrize(
    "bad",
    [{"workers": None}, {"workers": "2"}, {"workers": [2]}, {"n_samples": None}, {"n_samples": "10"}],
    ids=["workers-None", "workers-str", "workers-list", "n_samples-None", "n_samples-str"],
)
@pytest.mark.parametrize("simulate", [simulate_weyl_tail, simulate_theta_tail])
def test_simulators_reject_a_count_that_is_no_integer(simulate, bad):
    # simulate_weyl_tail once split its workers over the chunks before any
    # check, and raised a bare TypeError where simulate_theta_tail raised this
    with pytest.raises(InvalidArgumentError):
        simulate(Fraction(1, 8), **{"n_samples": 10, **bad})


def test_exceedance_count_equals_the_full_comparison():
    rng = np.random.default_rng(11)
    squared = np.array([9.0, 2.25, 36.0, 4.0, 2.25, 20.5])  # unsorted, one repeat
    values = np.concatenate([rng.pareto(1.5, 5000), squared, np.nextafter(squared, 0)])
    rng.shuffle(values)
    for vals in (values, values[:0], np.full(7, 2.25), np.full(3, 40.0)):
        want = np.count_nonzero(vals[None, :] > squared[:, None], axis=1)
        got = _count_exceedances(vals, squared)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_tail_curve_accessors():
    curve = TailCurve(
        kind="weyl",
        thresholds=np.array([1.0, 2.0]),
        counts=np.array([50, 10]),
        n_samples=100,
        seed=0,
        predicted_constant=3.0,
    )
    assert np.allclose(curve.survival, [0.5, 0.1])
    assert np.allclose(curve.predicted, [3.0, 3.0 / 16])
    rows = curve.rows()
    assert rows[1] == (2.0, 0.1, 3.0 / 16, 10)


def test_weyl_tail_simulation_small():
    pair = normalize_pair(Fraction(1, 2), 0)
    grid = default_thresholds(2.0, 4.0, 5)
    curve = simulate_weyl_tail(pair, N=50, n_samples=20000, thresholds=grid, seed=7)
    assert curve.kind == "weyl"
    assert curve.n_samples == 20000
    # survival curves are nonincreasing in R
    assert np.all(np.diff(curve.counts) <= 0)
    assert curve.counts[0] > 0
    assert curve.predicted_constant == pytest.approx(
        tail_constant(pair, r=1.0).value
    )
    assert curve.meta["q"] == 2 and curve.meta["type"] == "H"
    assert curve.meta["N"] == 50 and curve.meta["law"] == "normal"

    again = simulate_weyl_tail(pair, N=50, n_samples=20000, thresholds=grid, seed=7)
    assert np.array_equal(curve.counts, again.counts)
    threaded = simulate_weyl_tail(
        pair, N=50, n_samples=20000, thresholds=grid, seed=7, workers=4
    )
    assert np.array_equal(curve.counts, threaded.counts)
    other = simulate_weyl_tail(pair, N=50, n_samples=20000, thresholds=grid, seed=8)
    assert not np.array_equal(curve.counts, other.counts)


def test_weyl_tail_keeps_values_on_request():
    pair = normalize_pair(0, 0)
    curve = simulate_weyl_tail(
        pair, N=20, n_samples=1000, thresholds=np.array([2.0, 3.0]),
        seed=1, keep_values=True,
    )
    assert curve.values is not None and curve.values.shape == (1000,)
    # counts are exactly the exceedances of the kept values
    assert curve.counts[0] == np.count_nonzero(curve.values > 4.0)
    lean = simulate_weyl_tail(
        pair, N=20, n_samples=1000, thresholds=np.array([2.0, 3.0]), seed=1
    )
    assert lean.values is None


@pytest.mark.parametrize(
    "n_samples, N, pools",
    [
        (600, 2000, []),  # one short chunk on the direct path
        (CHUNK_SIZE + 700, 300, [2, 2, 2]),  # a full chunk and a short one
        (512, 10_000, []),  # perfbench's weyl-deep chunk, on the chirp path
    ],
)
def test_weyl_tail_values_do_not_depend_on_the_worker_count(monkeypatch, n_samples, N, pools):
    # the chunks share the workers: a pool of min(workers, chunks) threads,
    # none for one chunk
    pool_sizes = []
    real = homog.ThreadPoolExecutor

    def recorder(max_workers):
        pool_sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(homog, "ThreadPoolExecutor", recorder)
    pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
    curves = [
        simulate_weyl_tail(
            pair, N=N, r=2.0, law="uniform01", n_samples=n_samples,
            thresholds=np.array([1.0, 2.0]), seed=3, workers=workers, keep_values=True,
        )
        for workers in (1, 2, 3, 8)
    ]
    assert pool_sizes == pools
    for curve in curves[1:]:
        assert np.array_equal(curve.values, curves[0].values)
        assert np.array_equal(curve.counts, curves[0].counts)


@pytest.mark.parametrize("N, piece", [(10_000, "_chirp_tile"), (2000, "_run_group")])
@pytest.mark.parametrize("workers", [2, 8])
def test_one_chunk_runs_its_kernel_on_the_calling_thread(monkeypatch, N, piece, workers):
    # the weyl-deep shape (512 samples at N = 10^4, r = 2, on the chirp
    # path) and a direct-path one: a kernel call takes no threads of its own
    idents = []
    real = getattr(weylsum, piece)

    def recorder(*args):
        idents.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(weylsum, piece, recorder)
    simulate_weyl_tail(
        Fraction(1, 10), Fraction(1, 10), N=N, r=2.0, law="uniform01", n_samples=512,
        thresholds=np.array([1.0, 2.0]), seed=3, workers=workers,
    )
    assert idents and set(idents) == {threading.get_ident()}


@pytest.mark.parametrize("r", [2.0, 4.0])
def test_weyl_tail_at_r_above_1_follows_T_of_r(r):
    # T(q; r) = C(q) D_rat(r) / pi^2 at a cutoff ratio r > 1: every bin's
    # count within 3 sqrt(count) of n T R^-4 (the default seed read
    # |z| <= 1.41 in all ten bins)
    n = 1 << 18
    grid = np.array([3.0, 3.5, 4.0, 4.5, 5.0])
    curve = simulate_weyl_tail(
        Fraction(1, 2), N=500, r=r, n_samples=n, thresholds=grid, workers=2
    )
    expected = n * tail_constant(Fraction(1, 2), r=r).value * grid**-4.0
    assert np.all(curve.counts > 0)
    assert np.all(np.abs(curve.counts - expected) <= 3.0 * np.sqrt(curve.counts))


def test_weyl_tail_uniform_law_and_validation():
    pair = normalize_pair(Fraction(1, 3), Fraction(1, 3))
    curve = simulate_weyl_tail(
        pair, N=30, n_samples=5000, law="uniform01",
        thresholds=np.array([1.5, 2.5]), seed=3,
    )
    assert curve.meta["law"] == "uniform01"
    with pytest.raises(InvalidArgumentError):
        simulate_weyl_tail(pair, N=30, n_samples=0)
    for bad in (dict(N=0), dict(N=-5), dict(N=30, r=math.inf), dict(N=30, r=math.nan)):
        with pytest.raises(InvalidArgumentError):
            simulate_weyl_tail(pair, n_samples=10, **bad)


def test_theta_tail_simulation_small():
    pair = normalize_pair(0, 0)
    grid = default_thresholds(2.0, 4.0, 4)
    curve = simulate_theta_tail(pair, n_samples=20000, thresholds=grid, seed=11)
    assert curve.kind == "theta"
    assert curve.predicted_constant == pytest.approx(
        float(leading_constant(pair)) / math.pi
    )
    assert np.all(np.diff(curve.counts) <= 0)
    threaded = simulate_theta_tail(
        pair, n_samples=20000, thresholds=grid, seed=11, workers=4
    )
    assert np.array_equal(curve.counts, threaded.counts)
    kept = simulate_theta_tail(
        pair, n_samples=2000, thresholds=grid, seed=11, keep_values=True
    )
    assert kept.values.shape == (2000,)
    assert curve.meta["orbit_size"] == 1
    assert curve.meta["weights"] == ("gaussian", "gaussian")


def test_theta_tail_values_do_not_depend_on_the_worker_count():
    runs = [
        simulate_theta_tail(
            Fraction(1, 2000), 0, n_samples=2**18, keep_values=True, workers=workers
        )
        for workers in (1, 2)
    ]
    assert np.array_equal(runs[0].counts, runs[1].counts)
    assert np.array_equal(runs[0].values, runs[1].values)
    assert runs[0].values.shape == (2**18,) and np.all(np.isfinite(runs[0].values))


@pytest.mark.parametrize(
    "pair",
    [(0, 0), (Fraction(1, 8), 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2000), 0),
     (Fraction(1, 2002), Fraction(1, 2002))],
    ids=str,
)
@pytest.mark.parametrize("lo", [1.5, 0.5, 2.5])
def test_theta_tail_counts_match_with_and_without_the_values(pair, lo):
    # without the values only the draws that pass the height screen and
    # then the shift screen at the smallest R^2 are mapped and evaluated;
    # from R = 0.5 neither screen drops any
    grid = default_thresholds(lo, 6.0, 20)
    n = 3 * CHUNK_SIZE + 321
    full = simulate_theta_tail(*pair, n_samples=n, thresholds=grid, keep_values=True)
    assert np.array_equal(full.counts, _count_exceedances(full.values, grid**2))
    assert full.counts[0] > 100
    for workers in (1, 2):
        bounded = simulate_theta_tail(*pair, n_samples=n, thresholds=grid, workers=workers)
        assert bounded.values is None
        assert np.array_equal(bounded.counts, full.counts)


@pytest.mark.parametrize(
    "pair",
    [(Fraction(1, 2000), 0), (Fraction(1, 2002), Fraction(1, 2002)), (Fraction(1, 2003), 0),
     (Fraction(1, 8), 0), (0, 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 10), Fraction(1, 10))],
    ids=str,
)
def test_theta_values_above_the_floor_equal_the_batch_of_the_whole_moved_chunk(pair):
    # theta_values maps only what the height and shift screens keep; the
    # batch of the whole moved chunk must give the same values above the
    # floor, in the same order, bit for bit. Below floor 1.4552 there is no
    # screen height (Y = -inf), so nothing is screened and the arrays are
    # equal
    sampler = MuAbSampler(*pair, seed=11)
    for floor in (-math.inf, 1.0, 1.5, 2.0, 2.25, 36.0):
        for index, count in ((0, CHUNK_SIZE), (3, 1000), (4, 1)):
            data = sampler.chunk(index, count)
            whole = theta_pair_gaussian_batch(*conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"]))
            values = theta_values(sampler, index, count, floor)
            assert values.dtype == whole.dtype
            assert values[values > floor].tobytes() == whole[whole > floor].tobytes()
            if floor < 1.4552:
                assert values.tobytes() == whole.tobytes()


def test_theta_values_map_at_most_a_fifth_of_the_cusp_candidates():
    # at (1/2000, 0) on the default grid the shift screen keeps |t| < t0 =
    # 0.0821 of cusp_candidates' draws, 2 t0 = 16.4%: the Haar map sees only
    # those, and the batch runs on each of them. A screen that kept all
    # would pass every other test
    floor = float(default_thresholds()[0] ** 2)
    sampler = MuAbSampler(Fraction(1, 2000), 0)
    height = theta_pair_gaussian_screen_height(floor)
    mapped = []
    points = MuAbSampler.points

    def counted(self, u, rs):
        mapped.append(u.shape[1])
        return points(self, u, rs)

    candidates = evaluated = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MuAbSampler, "points", counted)
        for index in range(16):
            evaluated += theta_values(sampler, index, CHUNK_SIZE, floor).size
            u, _ = sampler.raw_chunk(index, CHUNK_SIZE)
            candidates += cusp_candidates(u[0], u[1], height)[0].size
    assert 0 < sum(mapped) <= 0.2 * candidates
    assert evaluated == sum(mapped)


@pytest.mark.parametrize("key", ["x", "y", "xi1", "xi2"])
@pytest.mark.parametrize("keep_values", [False, True])
def test_theta_tail_raises_on_a_nan_sample(monkeypatch, key, keep_values):
    # NaN > R^2 is False: a NaN that only the kept samples were checked for
    # would drop out of the counts without an error. theta_values maps the
    # samples that cusp_candidates keeps; one of them turns NaN here
    points = MuAbSampler.points
    calls = []

    def poisoned(self, u, rs):
        data = points(self, u, rs)
        calls.append(None)
        if len(calls) == 2:
            data[key][100] = math.nan
        return data

    monkeypatch.setattr(MuAbSampler, "points", poisoned)
    with pytest.raises(InvalidArgumentError, match="finite"):
        simulate_theta_tail(
            Fraction(1, 8), 0, n_samples=2 * CHUNK_SIZE, keep_values=keep_values
        )


@pytest.mark.parametrize("row", [0, 1], ids=["u1", "u2"])
@pytest.mark.parametrize("keep_values", [False, True])
def test_theta_tail_raises_on_a_nan_uniform(monkeypatch, row, keep_values):
    # the pre-screen on the uniforms keeps what it cannot prove is dropped,
    # so a NaN uniform is mapped and reaches the range checks
    raw_chunk = MuAbSampler.raw_chunk

    def poisoned(self, index, count):
        u, rs = raw_chunk(self, index, count)
        if index == 1:
            u[row, 100] = math.nan
        return u, rs

    monkeypatch.setattr(MuAbSampler, "raw_chunk", poisoned)
    with pytest.raises(InvalidArgumentError, match="finite"):
        simulate_theta_tail(
            Fraction(1, 8), 0, n_samples=2 * CHUNK_SIZE, keep_values=keep_values
        )


def test_theta_tail_runs_beyond_the_enumeration_cap():
    pair = normalize_pair(Fraction(1, 10**9 + 7), 0)
    curve = simulate_theta_tail(pair, n_samples=5000, thresholds=np.array([2.0, 3.0]))
    assert curve.meta["orbit_size"] == orbit_size_formula(pair) == (10**9 + 7) ** 2 - 1


def synthetic_curve(constant: float, n: int = 10**7) -> TailCurve:
    grid = default_thresholds(2.0, 5.0, 10)
    counts = np.rint(n * constant * grid**-4.0).astype(np.int64)
    return TailCurve(
        kind="weyl", thresholds=grid, counts=counts, n_samples=n,
        seed=0, predicted_constant=constant,
    )


def test_fit_recovers_a_planted_constant():
    curve = synthetic_curve(0.28)
    fit = fit_tail_constant(curve)
    assert fit.constant == pytest.approx(0.28, rel=0.02)
    assert 0 < fit.stderr < math.inf
    assert len(fit.used_thresholds) == 10


def test_fit_window_restricts_the_bins():
    curve = synthetic_curve(0.28)
    fit = fit_tail_constant(curve, window=(2.5, 4.0))
    assert np.all((fit.used_thresholds >= 2.5) & (fit.used_thresholds <= 4.0))
    assert fit.constant == pytest.approx(0.28, rel=0.02)


def test_fit_requires_three_nonzero_bins():
    grid = default_thresholds(2.0, 5.0, 10)
    counts = np.zeros(10, dtype=np.int64)
    counts[:2] = [40, 11]
    curve = TailCurve(
        kind="weyl", thresholds=grid, counts=counts, n_samples=1000,
        seed=0, predicted_constant=0.0,
    )
    with pytest.raises(InvalidArgumentError):
        fit_tail_constant(curve)
    with pytest.raises(InvalidArgumentError):
        fit_tail_constant(synthetic_curve(0.28), window=(2.0, 2.2))


def test_fit_stderr_matches_the_spread_across_datasets():
    # 150 multinomial samples of n draws from an exact T R^-4 law on the
    # default grid: the reported stderr must track the estimator's actual
    # spread (independent Poissons on the nested counts give 2.7). At
    # n = 2e4 the top bin holds about 4 counts and only the ratio is checked
    T = 0.28
    grid = default_thresholds()
    survival = T * grid**-4.0
    cells = np.append(-np.diff(survival), survival[-1])
    probs = np.append(cells, 1.0 - survival[0])
    for n in (200_000, 20_000):
        rng = np.random.default_rng(20261018)
        constants, stderrs = [], []
        for _ in range(150):
            beyond = rng.multinomial(n, probs)[:-1]
            counts = np.cumsum(beyond[::-1])[::-1]
            fit = fit_tail_constant(TailCurve("weyl", grid, counts, n, 0, T))
            constants.append(fit.constant)
            stderrs.append(fit.stderr)
        ratio = np.std(constants, ddof=1) / np.mean(stderrs)
        assert 0.8 < ratio < 1.25, n
        if n == 200_000:
            assert np.mean(constants) == pytest.approx(T, rel=0.01)


@pytest.mark.parametrize(
    "counts, n",
    [
        ([18156, 13107, 9720, 7273, 5500, 4300, 3454, 2700, 2100, 1650], 10**6),
        ([11710, 6000, 2500, 800, 150, 20, 3, 0, 0, 0], 10**6),
        ([40, 11, 4, 2, 1, 1, 0, 0, 0, 0], 1000),
        ([3, 2, 1, 1, 1, 1, 1, 1, 1, 1], 1000),
    ],
)
def test_fit_stderr_matches_the_covariance_reference(counts, n):
    grid = default_thresholds(2.0, 5.0, 10)
    counts = np.array(counts, dtype=np.int64)
    fit = fit_tail_constant(TailCurve("weyl", grid, counts, n, 0, 0.28))
    live = counts > 0
    ref = oracles.covariance_stderr(grid[live], counts[live], n)
    assert fit.stderr == pytest.approx(ref, rel=1e-12)


def test_fit_sorts_thresholds_and_rejects_increasing_counts():
    curve = synthetic_curve(0.28)
    flipped = TailCurve(
        kind="weyl", thresholds=curve.thresholds[::-1], counts=curve.counts[::-1],
        n_samples=curve.n_samples, seed=0, predicted_constant=0.28,
    )
    a, b = fit_tail_constant(curve), fit_tail_constant(flipped)
    assert (a.constant, a.stderr) == (b.constant, b.stderr)
    bad = TailCurve(
        kind="weyl", thresholds=curve.thresholds, counts=curve.counts[::-1],
        n_samples=curve.n_samples, seed=0, predicted_constant=0.28,
    )
    with pytest.raises(InvalidArgumentError):
        fit_tail_constant(bad)

