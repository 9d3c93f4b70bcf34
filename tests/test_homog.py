"""The fundamental domain, the horoball map, and the deterministic samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from theta_tails import (
    CHUNK_SIZE,
    DEFAULT_SEED,
    InvalidArgumentError,
    MuAbSampler,
    chunk_generator,
    conjugate_horoball,
    default_thresholds,
    enumerate_orbit,
    haar_from_uniforms,
    normalize_pair,
    open_uniforms,
    orbit_contains,
    sampling_law,
)
from theta_tails import homog
from theta_tails.homog import MAX_WORKERS, cusp_candidates, run_chunks
from theta_tails.theta import theta_pair_gaussian_screen_height


def test_domain_membership_examples():
    assert oracles.in_fundamental_domain(2j)
    assert oracles.in_fundamental_domain(1 + 5j)
    assert not oracles.in_fundamental_domain(0.5 + 0.2j)  # inside the circle at 0
    assert not oracles.in_fundamental_domain(1.9 + 0.1j)  # inside the circle at 2
    assert not oracles.in_fundamental_domain(-0.5 + 3j)  # left of the strip


def test_lower_boundary_profile():
    # the two circles touch the axis at x = 1 and reach height 1 at 0 and 2
    assert oracles.lower_boundary(1.0) == pytest.approx(0.0, abs=1e-12)
    assert oracles.lower_boundary(0.5) == pytest.approx(math.sqrt(3) / 2)
    assert oracles.lower_boundary(1.5) == pytest.approx(math.sqrt(3) / 2)
    assert oracles.lower_boundary(0.0) == pytest.approx(1.0)
    assert oracles.lower_boundary(2.0) == pytest.approx(1.0)
    # the floor is only defined over the strip
    with pytest.raises(ValueError):
        oracles.lower_boundary(-1.0)
    with pytest.raises(ValueError):
        oracles.lower_boundary(3.0)


def test_rho_rotates_the_cusps():
    # one step of conjugate_horoball: the point below the cusp at 1 goes
    # high into the cusp at infinity
    x, y, xi1, xi2 = (np.array([v]) for v in (1.0, 0.01, 0.3, 0.1))
    out = conjugate_horoball(x, y, xi1, xi2)
    assert abs(complex(out[0][0], out[1][0]) - 1 / (1 - complex(1.0, 0.01))) < 1e-12
    assert out[1][0] == pytest.approx(100.0, rel=1e-9)
    assert (out[2][0], out[3][0]) == (0.1, -0.3 + 0.1 + 0.5)
    # the point has left the horoball, so the threefold return is checked on
    # the oracle map: z comes back; xi comes back up to integers and a sign
    # that the pairing cannot see
    pt = (1.0, 0.01, 0.3, 0.1)
    back = oracles.rho_map(*oracles.rho_map(*oracles.rho_map(*pt)))
    assert abs(complex(back[0], back[1]) - complex(pt[0], pt[1])) < 1e-9
    for got, start in zip(back[2:], pt[2:]):
        assert abs(got + start - round(got + start)) < 1e-9


# ---------------------------------------------------------------------------
# randomness plumbing

def test_chunk_generator_is_keyed_by_seed_and_index():
    a = chunk_generator(123, 0).integers(0, 2**53, 16)
    b = chunk_generator(123, 0).integers(0, 2**53, 16)
    c = chunk_generator(123, 1).integers(0, 2**53, 16)
    d = chunk_generator(124, 0).integers(0, 2**53, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_open_uniforms_avoid_the_endpoints():
    u = open_uniforms(chunk_generator(5, 0), (4, 1000))
    assert u.shape == (4, 1000)
    assert np.all(u > 0) and np.all(u < 1)


def test_open_uniforms_equal_the_integer_route():
    # rng.random takes the top 53 bits of one PCG64 output, as
    # integers(0, 2^53) does: Lemire's method never rejects at a power of 2
    for seed in (0, DEFAULT_SEED, 2**64 - 1):
        for index in range(40):
            for shape in ((3, CHUNK_SIZE), CHUNK_SIZE, 7):
                rng, oracle_rng = chunk_generator(seed, index), chunk_generator(seed, index)
                got = open_uniforms(rng, shape)
                want = oracles.open_uniforms_by_integers(oracle_rng, shape)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**64 - 1], ids=str)
def test_chunk_draws_phi_from_the_third_row_and_the_candidates_after_it(seed):
    # raw_chunk skips the phi row with bit_generator.advance and chunk reads
    # it from a second generator: both pin how numpy's PCG64 counts outputs
    pair = normalize_pair(Fraction(1, 2000), 0)
    q = pair.q
    sampler = MuAbSampler(pair, seed=seed)
    for index, count in ((0, CHUNK_SIZE), (3, 1000), (2**64 - 1, CHUNK_SIZE)):
        rng = chunk_generator(seed, index)
        x, y, phi = haar_from_uniforms(*open_uniforms(rng, (3, CHUNK_SIZE)))
        kept, accepted = [], 0
        while accepted < CHUNK_SIZE:
            cand = rng.integers(0, q, size=(2, CHUNK_SIZE - accepted))
            cand[1] ^= ~(cand[0] ^ cand[1]) & 1
            kept.append(cand[:, orbit_contains(pair, cand[0], cand[1])])
            accepted += kept[-1].shape[1]
        rs = np.concatenate(kept, axis=1)[:, :count]
        xi1, xi2 = (rs - q * (rs >= q - q // 2)) / q
        want = {"x": x[:count], "y": y[:count], "phi": phi[:count], "xi1": xi1, "xi2": xi2}
        got = sampler.chunk(index, count)
        assert list(got) == list(want)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


class _StubRng:
    """Hands out the uniforms (2^53 - 1) 2^-53 and 0, alternating."""

    def random(self, size):
        return np.resize(np.array([(2**53 - 1) * 2.0**-53, 0.0]), size)


def test_open_uniforms_clamp_the_top_integer_below_one():
    u = open_uniforms(_StubRng(), 4)
    assert u[0] == u[2] == 1.0 - 2.0**-53 < 1.0
    assert u[1] == u[3] == 2.0**-54
    # the clamped value still maps into the domain and to a finite normal draw
    x, y, _ = haar_from_uniforms(u[0], u[1], u[2])
    assert 0 <= x < 2 and y > 0
    assert np.all(np.isfinite(sampling_law("normal").transform(u)))


def test_haar_samples_live_in_the_domain():
    u = open_uniforms(chunk_generator(DEFAULT_SEED, 0), (3, 4096))
    x, y, phi = haar_from_uniforms(u[0], u[1], u[2])
    assert np.all(y >= np.array([oracles.lower_boundary(v) for v in x]) - 1e-12)
    assert np.all((0 <= phi) & (phi < math.pi))
    assert np.all((0 <= x) & (x < 2))


def test_haar_marginals_match_the_closed_forms():
    rng = chunk_generator(DEFAULT_SEED, 7)
    n = 1 << 16
    x, y, phi = haar_from_uniforms(*open_uniforms(rng, (3, n)))
    # P(X <= t) = asin(t)/pi for t in [0, 1], symmetric about 1
    for t, p in [(0.5, math.asin(0.5) / math.pi), (1.0, 0.5)]:
        emp = np.mean(x <= t)
        assert abs(emp - p) < 5 * math.sqrt(p * (1 - p) / n)
    # normalized cusp mass: P(Y > T) = 2/(pi T) for T >= 1
    for T in (1.0, 2.0, 4.0):
        p = 2.0 / (math.pi * T)
        emp = np.mean(y > T)
        assert abs(emp - p) < 5 * math.sqrt(p * (1 - p) / n)
    # phi is uniform on [0, pi)
    emp = np.mean(phi < math.pi / 2)
    assert abs(emp - 0.5) < 5 * math.sqrt(0.25 / n)


# ---------------------------------------------------------------------------
# the lifted sampler

@pytest.mark.parametrize("workers", [0, -4, MAX_WORKERS + 1, 10**5])
def test_run_chunks_takes_1_to_max_workers(workers):
    jobs = []
    with pytest.raises(InvalidArgumentError, match=f"workers must be 1 to {MAX_WORKERS}"):
        run_chunks(10, lambda *job: jobs.append(job), workers)
    assert jobs == []


def test_sampler_is_prefix_stable_and_worker_independent():
    a = MuAbSampler(Fraction(1, 8), 0, seed=99).draw(1000)
    b = MuAbSampler(Fraction(1, 8), 0, seed=99).draw(CHUNK_SIZE * 2 + 137)
    for key in a:
        assert np.array_equal(a[key], b[key][:1000])
    # the chunks that tailsim runs on a thread pool give the same stream
    sampler = MuAbSampler(Fraction(1, 8), 0, seed=99)
    parts = run_chunks(CHUNK_SIZE * 2 + 137, sampler.chunk, workers=8)
    for key in b:
        assert np.array_equal(b[key], np.concatenate([p[key] for p in parts]))


def test_sampler_xi_lands_on_the_orbit():
    pair = normalize_pair(Fraction(1, 6), 0)
    orbit = enumerate_orbit(pair)
    pts = {(int(r), int(s)) for r, s in orbit.points}
    out = MuAbSampler(pair).draw(2048)
    q = pair.q
    r = np.mod(np.rint(out["xi1"] * q).astype(int), q)
    s = np.mod(np.rint(out["xi2"] * q).astype(int), q)
    assert set(zip(r.tolist(), s.tolist())) <= pts
    # window coordinates straight from the orbit
    assert np.all((-0.5 <= out["xi1"]) & (out["xi1"] < 0.5))
    assert np.all((-0.5 <= out["xi2"]) & (out["xi2"] < 0.5))
    # a large orbit is actually covered
    assert len(set(zip(r.tolist(), s.tolist()))) == orbit.size_S


def window_numerators(out, q):
    r = np.mod(np.rint(out["xi1"] * q).astype(np.int64), q)
    s = np.mod(np.rint(out["xi2"] * q).astype(np.int64), q)
    return r, s


def test_sampler_xi_is_uniform_on_the_orbit():
    # candidates are drawn straight into the pair's parity class, a 2-to-1
    # map that must keep the draw uniform on the orbit: one odd numerator,
    # both odd, and at q = 30 the parity class and the odd primes 3 and 5
    for alpha, beta in ((Fraction(1, 8), 0), (Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 30), 0)):
        pair = normalize_pair(alpha, beta)
        orbit = enumerate_orbit(pair)
        out = MuAbSampler(pair, seed=3).draw(1 << 16)
        r, s = window_numerators(out, pair.q)
        counts = np.bincount(r * pair.q + s, minlength=pair.q**2)
        hit = counts[orbit.points[:, 0] * pair.q + orbit.points[:, 1]]
        assert hit.sum() == out["xi1"].size  # nothing off the orbit
        mean = out["xi1"].size / orbit.size_S
        assert np.all(np.abs(hit - mean) < 5 * math.sqrt(mean)), (alpha, beta)


class CountingGenerator:
    """A Generator that adds the candidate pairs it draws to tally[0]."""

    def __init__(self, rng, tally):
        self.rng, self.tally = rng, tally

    def random(self, size):
        return self.rng.random(size)

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def integers(self, low, high, size):
        if size[0] == 2:  # (2, n): n candidate pairs
            self.tally[0] += size[1]
        return self.rng.integers(low, high, size=size)


@pytest.mark.parametrize(
    "alpha, beta, most",
    [(Fraction(1, 2000), 0, 1.1), (Fraction(1, 2002), Fraction(1, 2002), 1.1),
     (Fraction(1, 30030), 0, 1.3)],
    ids=["q2000", "q2002-both-odd", "q30030"],
)
def test_sampler_draws_about_one_candidate_pair_per_sample(monkeypatch, alpha, beta, most):
    # drawn in the parity class, a candidate fails only on an odd prime
    # (acceptance 0.96, 0.97 and 0.82 here), and each block after the first
    # is the shortfall; full blocks on all of (Z/q)^2 drew 3, 5 and 3 per sample
    tally = [0]
    plain = homog.chunk_generator
    monkeypatch.setattr(
        homog, "chunk_generator", lambda seed, index: CountingGenerator(plain(seed, index), tally)
    )
    sampler = MuAbSampler(alpha, beta, seed=5)
    for index in range(3):
        sampler.chunk(index, CHUNK_SIZE)
    assert CHUNK_SIZE * 3 < tally[0] <= most * CHUNK_SIZE * 3


@pytest.mark.parametrize(
    "alpha, beta",
    [(Fraction(1, 2003), 0), (Fraction(1, 10**9 + 7), 0), (Fraction(1, 2002), Fraction(1, 2002))],
    ids=["q2003", "q1e9+7", "q2002-both-odd"],
)
def test_sampler_xi_lands_on_the_orbit_beyond_the_enumeration_cap(alpha, beta):
    pair = normalize_pair(alpha, beta)
    out = MuAbSampler(pair, seed=21).draw(5000)
    r, s = window_numerators(out, pair.q)
    both_odd = pair.a % 2 == 1 and pair.b % 2 == 1
    for i, j in zip(r.tolist(), s.tolist()):
        assert math.gcd(i, j, pair.q) == 1
        if pair.q % 2 == 0:
            assert (i % 2 == 1 and j % 2 == 1) == both_odd


def test_sampler_stream_ignores_the_orbit_argument():
    pair = normalize_pair(Fraction(1, 6), 0)
    plain = MuAbSampler(pair, seed=4).draw(CHUNK_SIZE + 300)
    given = MuAbSampler(pair, seed=4, orbit=enumerate_orbit(pair)).draw(CHUNK_SIZE + 300)
    for key in plain:
        assert np.array_equal(plain[key], given[key])
    with pytest.raises(InvalidArgumentError):
        MuAbSampler(pair, orbit=enumerate_orbit(normalize_pair(Fraction(1, 5), 0)))


def test_sampler_haar_stream_is_frozen():
    # the Haar stream at seed 99 must not depend on how xi is drawn
    out = MuAbSampler(Fraction(1, 8), 0, seed=99).draw(CHUNK_SIZE + 4)
    frozen = {
        0: (1.000179468628038, 0.0203867695045039, 0.922028376199433),
        1: (1.0208356062772184, 0.33584823136633807, 2.406597388144056),
        2: (1.000700611210517, 0.09289382437932017, 1.2947230264324097),
        CHUNK_SIZE + 3: (1.458250909870674, 1.2510400396661014, 1.5542703305624395),
    }
    for i, (x, y, phi) in frozen.items():
        assert (out["x"][i], out["y"][i], out["phi"][i]) == (x, y, phi)


def test_sampler_draw_validation():
    with pytest.raises(InvalidArgumentError):
        MuAbSampler(Fraction(1, 6)).draw(0)
    # every stream is seeded through chunk_generator, which takes seeds >= 0
    with pytest.raises(InvalidArgumentError):
        chunk_generator(-1, 0)
    with pytest.raises(InvalidArgumentError):
        MuAbSampler(Fraction(1, 6), seed=-1).draw(1)
    # int(seed) once ran seed 1.5 as 1 and took True as 1; a float count
    # raised a bare TypeError
    for seed in (1.5, True):
        with pytest.raises(InvalidArgumentError, match="seed"):
            MuAbSampler(Fraction(1, 6), seed=seed)
    sampler = MuAbSampler(Fraction(1, 6), seed=np.int64(5))
    for call in (lambda: sampler.draw(2.5), lambda: sampler.chunk(0, 2.5)):
        with pytest.raises(InvalidArgumentError, match="count"):
            call()
    plain = MuAbSampler(Fraction(1, 6), seed=5).draw(100)
    assert all(np.array_equal(plain[key], value) for key, value in sampler.draw(100).items())


def test_sampler_rejects_a_denominator_beyond_int64():
    with pytest.raises(InvalidArgumentError, match="2\\^63"):
        MuAbSampler(Fraction(1, 2**63))


def test_sampler_window_holds_for_denominators_above_2_to_62():
    # 2 * rs would overflow int64 here; the window test must not
    data = MuAbSampler(Fraction(1, 3 * 2**61), seed=1).chunk(0, 1000)
    for key in ("xi1", "xi2"):
        assert np.all((-0.5 <= data[key]) & (data[key] < 0.5))


@pytest.mark.parametrize("count", [CHUNK_SIZE + 5, -1])
def test_sampler_chunk_rejects_a_count_outside_one_chunk(count):
    with pytest.raises(InvalidArgumentError):
        MuAbSampler(Fraction(1, 6)).chunk(0, count)


def test_a_negative_chunk_index_is_an_invalid_argument():
    with pytest.raises(InvalidArgumentError):
        chunk_generator(0, -1)
    with pytest.raises(InvalidArgumentError):
        MuAbSampler(Fraction(1, 6)).chunk(-1, 10)


@pytest.mark.parametrize("index, count", [(0, 5), (1, 300), (2, CHUNK_SIZE)])
def test_sampler_chunk_is_the_matching_slice_of_draw(index, count):
    pair = normalize_pair(Fraction(1, 12), Fraction(1, 3))
    stream = MuAbSampler(pair, seed=7).draw(3 * CHUNK_SIZE)
    part = MuAbSampler(pair, seed=7).chunk(index, count)
    start = index * CHUNK_SIZE
    for key in stream:
        assert np.array_equal(part[key], stream[key][start : start + count])


def test_conjugate_horoball_is_apply_rho_inside_and_the_identity_outside():
    rng = np.random.default_rng(12)
    n = 4000
    x, y, _ = haar_from_uniforms(*open_uniforms(rng, (3, n)))
    xi1, xi2 = rng.uniform(-0.5, 0.5, (2, n))
    inside = (x - 1.0) ** 2 + y * y < 1.0
    assert 0 < np.count_nonzero(inside) < n
    out = conjugate_horoball(x, y, xi1, xi2)
    ulps = 4 * 2.0**-52
    for i in np.flatnonzero(inside):
        want = oracles.rho_map(x[i], y[i], xi1[i], xi2[i])
        for g, w in zip((v[i] for v in out), want):
            assert abs(g - w) <= ulps * abs(w)
        assert out[1][i] >= math.sqrt(3.0) / 2.0 - 1e-12
    for got, given in zip(out, (x, y, xi1, xi2)):
        assert np.array_equal(got[~inside], given[~inside])


def _missed(u1, u2, height):
    """The pairs whose moved Haar point lies above height but that
    cusp_candidates drops."""
    u1, u2 = np.broadcast_arrays(np.asarray(u1, dtype=float), np.asarray(u2, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # u2 near 0: y = inf
        x, y, _ = haar_from_uniforms(u1, u2, u1)
        above = conjugate_horoball(x, y, x, y)[1] > height
    kept = np.zeros(u1.shape, dtype=bool)
    kept[cusp_candidates(u1, u2, height)[0]] = True
    return np.flatnonzero(above & ~kept)


unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300)
@given(unit_open, unit_open, st.floats(min_value=1.0, max_value=100.0))
def test_cusp_candidates_keep_every_point_above_the_screen_height(u1, u2, floor):
    # floors 1.0-100 give Y = -inf (keep all) up to Y = 1e4
    height = theta_pair_gaussian_screen_height(floor)
    assert height == -math.inf or 2.0 <= height <= 1e4
    assert _missed([u1], [u2], height).size == 0
    if height == -math.inf:
        assert cusp_candidates([u1], [u2], height)[0].tolist() == [0]


@pytest.mark.parametrize("floor", [1.7, 2.25, 4.0, 36.0, 100.0])
def test_cusp_candidates_keep_the_points_on_the_edges_of_both_cusps(floor):
    height = theta_pair_gaussian_screen_height(floor)
    ulps = np.arange(-64, 65)
    u1 = np.concatenate([
        0.5 + ulps * 2.0**-54,  # u1 -> 1/2: the cusp at 1
        np.linspace(1e-6, 1 - 1e-6, 2001),
        np.geomspace(1e-300, 0.4, 500), 1 - np.geomspace(2.0**-53, 0.4, 500),
    ])
    x, h, _ = haar_from_uniforms(u1, np.ones(u1.size), np.zeros(u1.size))
    # heights y at which the point reaches Y: above the floor of the cusp
    # at infinity, on the horoball |z - 1| = 1, and on the circle where
    # conjugate_horoball lifts it to Y exactly
    w2 = (1.0 - x) ** 2
    disk = np.sqrt(np.maximum(1.0 / height**2 - 4.0 * w2, 0.0))
    edges = [np.full(u1.size, height), np.sqrt(np.maximum(1.0 - w2, 0.0)),
             (1.0 / height + disk) / 2.0, (1.0 / height - disk) / 2.0]
    for y in edges:
        for eps in (-1e-15, -2**-53, 0.0, 2**-53, 1e-15):
            with np.errstate(divide="ignore"):
                u2 = h / y * (1.0 + eps)
            ok = (u2 > 0) & (u2 < 1)
            assert _missed(u1[ok], u2[ok], height).size == 0


def test_cusp_candidates_keep_a_nan_and_everything_without_a_height():
    u = np.array([0.3, np.nan, 0.3, 0.5])
    v = np.array([0.9, 0.9, np.nan, 0.9])
    kept, at_one = cusp_candidates(u, v, 5.0)
    assert kept.tolist() == [1, 2, 3]  # u1 = 1/2 is the cusp at 1
    assert np.isnan(at_one[:2]).all() and at_one[2] == 1.0  # a NaN's cusp is unknown
    for height in (-math.inf, 0.0, math.nan):
        kept, at_one = cusp_candidates(u, v, height)
        assert kept.tolist() == [0, 1, 2, 3] and np.isnan(at_one).all()


def test_cusp_candidates_keep_a_quarter_of_the_default_grid_draws():
    # at (1/2000, 0) on the default grid the exact screen keeps 3/(pi Y) =
    # 18.9% of 2^20 draws and cusp_candidates 23.4%; a bound that fell back
    # to keeping all would still pass every test above
    floor = float(default_thresholds()[0] ** 2)
    height = theta_pair_gaussian_screen_height(floor)
    sampler = MuAbSampler(Fraction(1, 2000), 0)
    kept = above = 0
    for index in range(32):
        u, _ = sampler.raw_chunk(index, CHUNK_SIZE)
        candidates, at_one = cusp_candidates(u[0], u[1], height)
        x, y, _ = haar_from_uniforms(*u, 0.0)
        moved = np.flatnonzero(conjugate_horoball(x, y, x, y)[1] > height)
        assert np.isin(moved, candidates).all()
        # a point ends above the height in the cusp that at_one names
        inside = (1.0 - x) ** 2 + y * y < 1.0
        assert np.array_equal(at_one[np.searchsorted(candidates, moved)], inside[moved])
        kept += candidates.size
        above += moved.size
    assert above / 2**20 == pytest.approx(3 / (math.pi * height), rel=0.02)
    assert kept / 2**20 <= 0.25
