"""Fundamental domain reduction and the deterministic samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from theta_tails import (
    CHUNK_SIZE,
    DEFAULT_SEED,
    IDENTITY,
    InvalidArgumentError,
    IwasawaPoint,
    MuAbSampler,
    NumericFailureError,
    act_on_iwasawa,
    apply_rho,
    chunk_generator,
    conjugate_horoball,
    cusp_mass,
    enumerate_orbit,
    haar_from_uniforms,
    in_fundamental_domain,
    lower_boundary,
    normalize_pair,
    open_uniforms,
    reduce,
    sampling_law,
)
from theta_tails.homog import run_chunks
from theta_tails.weylsum import MAX_WORKERS


def test_domain_membership_examples():
    assert in_fundamental_domain(2j)
    assert in_fundamental_domain(1 + 5j)
    assert not in_fundamental_domain(0.5 + 0.2j)  # inside the circle at 0
    assert not in_fundamental_domain(1.9 + 0.1j)  # inside the circle at 2
    assert not in_fundamental_domain(-0.5 + 3j)  # left of the strip


def test_lower_boundary_profile():
    # the two circles touch the axis at x = 1 and reach height 1 at 0 and 2
    assert lower_boundary(1.0) == pytest.approx(0.0, abs=1e-12)
    assert lower_boundary(0.5) == pytest.approx(math.sqrt(3) / 2)
    assert lower_boundary(1.5) == pytest.approx(math.sqrt(3) / 2)
    assert lower_boundary(0.0) == pytest.approx(1.0)
    assert lower_boundary(2.0) == pytest.approx(1.0)
    # the floor is only defined over the strip
    with pytest.raises(InvalidArgumentError):
        lower_boundary(-1.0)
    with pytest.raises(InvalidArgumentError):
        lower_boundary(3.0)


def test_reduction_lands_in_the_domain_and_is_a_retraction():
    rng = np.random.default_rng(17)
    for _ in range(300):
        pt = IwasawaPoint(
            x=float(rng.uniform(-40, 40)),
            y=float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))),
            phi=float(rng.uniform(-10, 10)),
            xi1=float(rng.uniform(-8, 8)),
            xi2=float(rng.uniform(-8, 8)),
        )
        res = reduce(pt)
        out = res.point
        assert out.y >= lower_boundary(out.x) - 1e-9
        assert -1e-9 <= out.x < 2 + 1e-9
        assert 0 <= out.phi < math.pi
        assert -0.5 - 1e-12 <= out.xi1 < 0.5 + 1e-12
        assert -0.5 - 1e-12 <= out.xi2 < 0.5 + 1e-12
        # the element really carries the input to the output
        direct = act_on_iwasawa(res.element, pt)
        assert abs(direct.z - out.z) <= 1e-9 * (1 + abs(out.z))


def test_reduction_fixes_interior_points():
    pt = IwasawaPoint(x=0.7, y=2.0, phi=1.0, xi1=0.2, xi2=-0.3)
    res = reduce(pt)
    assert res.element == IDENTITY
    assert res.point == pt


def test_reduction_iteration_cap():
    # a point hugging the real axis needs many inversion rounds
    pt = IwasawaPoint(x=1.6180339887, y=1e-12, phi=0.0)
    with pytest.raises(NumericFailureError):
        reduce(pt, max_iterations=3)


@pytest.mark.parametrize("x, y", [(0.3, 1e-300), (0.3, 1e-12), (0.7, 1e-12), (0.3, 1e-160)])
def test_reduction_that_loses_the_point_raises(x, y):
    # at tiny y the element grows like 1/y and re-applying it to the input
    # loses the point: a zero inversion radius, or a result outside F
    with pytest.raises(NumericFailureError):
        reduce(IwasawaPoint(x=x, y=y, phi=0.0))


def test_rho_rotates_the_cusps():
    pt = IwasawaPoint(x=1.0, y=0.01, phi=0.4, xi1=0.3, xi2=0.1)
    out = apply_rho(pt)
    assert abs(out.z - 1 / (1 - pt.z)) < 1e-12
    assert out.y == pytest.approx(100.0, rel=1e-9)
    assert (out.xi1, out.xi2) == (pt.xi2, -pt.xi1 + pt.xi2 + 0.5)
    # three applications return to the start on z; xi returns up to integers
    # and a sign that the pairing cannot see
    back = apply_rho(apply_rho(out))
    assert abs(back.z - pt.z) < 1e-9
    assert abs(back.xi1 + pt.xi1 - round(back.xi1 + pt.xi1)) < 1e-9
    assert abs(back.xi2 + pt.xi2 - round(back.xi2 + pt.xi2)) < 1e-9


def test_cusp_mass_closed_form():
    assert cusp_mass(1.0) == pytest.approx(2 / math.pi)
    assert cusp_mass(4.0) == pytest.approx(0.5 / math.pi)
    with pytest.raises(InvalidArgumentError):
        cusp_mass(0.5)


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


class _StubRng:
    """Hands out the 53-bit integers 2^53 - 1 and 0, alternating."""

    def integers(self, low, high, size):
        return np.resize(np.array([2**53 - 1, 0], dtype=np.int64), size)


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
    assert np.all(y >= np.array([lower_boundary(v) for v in x]) - 1e-12)
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
    # normalized cusp mass: P(Y > T) = 2/(pi T), which is cusp_mass(T)
    for T in (1.0, 2.0, 4.0):
        p = cusp_mass(T)
        emp = np.mean(y > T)
        assert abs(emp - p) < 5 * math.sqrt(p * (1 - p) / n)
    # phi is uniform on [0, pi)
    emp = np.mean(phi < math.pi / 2)
    assert abs(emp - 0.5) < 5 * math.sqrt(0.25 / n)


# ---------------------------------------------------------------------------
# the lifted sampler

@pytest.mark.parametrize("workers", [0, MAX_WORKERS + 1])
def test_run_chunks_takes_1_to_max_workers(workers):
    jobs = []
    with pytest.raises(InvalidArgumentError, match="workers must be 1 to"):
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
    pair = normalize_pair(Fraction(1, 8), 0)
    orbit = enumerate_orbit(pair)
    out = MuAbSampler(pair, seed=3).draw(1 << 16)
    r, s = window_numerators(out, pair.q)
    counts = np.bincount(r * pair.q + s, minlength=pair.q**2)
    hit = counts[orbit.points[:, 0] * pair.q + orbit.points[:, 1]]
    assert hit.sum() == out["xi1"].size  # nothing off the orbit
    mean = out["xi1"].size / orbit.size_S
    assert np.all(np.abs(hit - mean) < 5 * math.sqrt(mean))


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
        pt = apply_rho(IwasawaPoint(x=x[i], y=y[i], phi=0.0, xi1=xi1[i], xi2=xi2[i]))
        for got in (tuple(v[i] for v in out), (pt.x, pt.y, pt.xi1, pt.xi2)):
            for g, w in zip(got, want):
                assert abs(g - w) <= ulps * abs(w)
        assert out[1][i] >= math.sqrt(3.0) / 2.0 - 1e-12
    for got, given in zip(out, (x, y, xi1, xi2)):
        assert np.array_equal(got[~inside], given[~inside])
