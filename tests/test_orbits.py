"""Orbit enumeration against brute-force closures and the closed formulas."""

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import oracles
from theta_tails import orbits
from theta_tails import (
    DEFAULT_ORBIT_CAP,
    ResourceLimitError,
    count_U_formula,
    count_V_formula,
    enumerate_orbit,
    leading_constant,
    normalize_pair,
    orbit_contains,
    orbit_partition,
    orbit_report,
    orbit_representatives,
    orbit_size_formula,
    theta_mins,
    which_representative,
)
from theta_tails.orbits import _bfs_codes, _count_U, _count_V


def canonical_pairs(q):
    for a in range(q):
        for b in range(q):
            if math.gcd(math.gcd(a, b), q) == 1:
                yield normalize_pair(Fraction(a, q), Fraction(b, q))


def point_set(orbit):
    return {(int(r), int(s)) for r, s in orbit.points}


@pytest.mark.parametrize("q", range(1, 11))
def test_bfs_matches_the_brute_force_closure(q):
    for pair in canonical_pairs(q):
        orbit = enumerate_orbit(pair)
        assert point_set(orbit) == oracles.orbit_brute(pair.a, pair.b, q)


@pytest.mark.parametrize("q", range(1, 13))
def test_line_counts_match_both_window_conventions(q):
    for pair in canonical_pairs(q):
        orbit = enumerate_orbit(pair)
        pts = point_set(orbit)
        assert (orbit.size_U, orbit.size_V) == oracles.counts_window_zero_one(pts, q)
        assert (orbit.size_U, orbit.size_V) == oracles.counts_window_centered(pts, q)


@pytest.mark.parametrize("q", range(1, 21))
def test_closed_formulas_match_enumeration(q):
    for pair in canonical_pairs(q):
        orbit = enumerate_orbit(pair)
        assert orbit_size_formula(pair) == orbit.size_S
        assert count_U_formula(pair) == orbit.size_U
        assert count_V_formula(pair) == orbit.size_V
        assert leading_constant(pair) == Fraction(
            2 * orbit.size_U + orbit.size_V, orbit.size_S
        )


def test_worked_examples():
    expected = {
        (Fraction(1, 5), Fraction(0)): (24, 4, 0, Fraction(1, 3)),
        (Fraction(1, 6), Fraction(0)): (16, 2, 4, Fraction(1, 2)),
        (Fraction(1, 8), Fraction(0)): (32, 4, 0, Fraction(1, 4)),
        (Fraction(1, 6), Fraction(1, 6)): (8, 0, 0, Fraction(0)),
        (Fraction(1, 8), Fraction(1, 8)): (16, 0, 4, Fraction(1, 4)),
    }
    for (alpha, beta), (S, U, V, const) in expected.items():
        orbit = enumerate_orbit(normalize_pair(alpha, beta))
        assert (orbit.size_S, orbit.size_U, orbit.size_V) == (S, U, V)
        assert leading_constant(orbit.pair) == const


@pytest.mark.parametrize("q", range(1, 13))
def test_sign_flipped_pairs_share_one_orbit(q):
    for pair in canonical_pairs(q):
        base = point_set(enumerate_orbit(pair))
        for a2, b2 in {
            ((q - pair.a) % q, pair.b),
            (pair.a, (q - pair.b) % q),
            ((q - pair.a) % q, (q - pair.b) % q),
        }:
            flipped = normalize_pair(Fraction(a2, q), Fraction(b2, q))
            assert point_set(enumerate_orbit(flipped)) == base


def assert_matches_the_bfs(pair, codes):
    """enumerate_orbit against the sorted _bfs_codes closure of the pair."""
    q = pair.q
    orbit = enumerate_orbit(pair)
    bfs_points = np.stack([codes // q, codes % q], axis=1)
    assert orbit.points.dtype == bfs_points.dtype
    assert np.array_equal(orbit.points, bfs_points)
    assert orbit.size_S == codes.size
    assert (orbit.size_U, orbit.size_V) == (_count_U(codes, q), _count_V(codes, q))


@pytest.mark.parametrize("q", range(1, 41))
def test_enumeration_equals_the_bfs_closure(q):
    # orbit_partition labels each code r*q + s with its _bfs_codes closure
    _, labels = orbit_partition(q)
    for pair in canonical_pairs(q):
        codes = np.flatnonzero(labels == labels[pair.a * q + pair.b])
        assert_matches_the_bfs(pair, codes)


@pytest.mark.parametrize(
    "a, b, q",
    [(1, 0, 210), (1, 1, 210), (11, 4, 210), (1, 0, 256), (3, 5, 256),
     (6, 1, 256), (5, 7, 997)],
)
def test_enumeration_equals_the_bfs_closure_at_spot_pairs(a, b, q):
    pair = normalize_pair(Fraction(a, q), Fraction(b, q))
    assert_matches_the_bfs(pair, _bfs_codes(q, [(pair.a, pair.b)]))


def mask_nonzeros(pair):
    """np.stack(np.nonzero(mask), axis=1) of the full (q, q) membership mask,
    the point list enumerate_orbit built before it filled one in place."""
    r = np.arange(pair.q)
    mask = orbit_contains(pair, r[:, None], r)
    return mask, np.stack(np.nonzero(mask), axis=1)


def assert_same_points(got, want):
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q", range(1, 41))
def test_points_equal_the_mask_nonzeros(q, monkeypatch):
    # 120 mask entries per block: several blocks with a shorter last one from
    # q = 11 on (40 rows in 3s at q = 40, 13 rows in 9s at q = 13)
    monkeypatch.setattr(orbits, "_POINT_BLOCK", 120)
    for pair in canonical_pairs(q):
        mask, want = mask_nonzeros(pair)
        assert_same_points(orbits._mask_points(mask), want)
    # the point list depends on the pair only through its orbit
    for pair, _ in orbit_representatives(q):
        assert_same_points(enumerate_orbit(pair).points, mask_nonzeros(pair)[1])


@pytest.mark.parametrize("b", [0, 1])
def test_points_equal_the_mask_nonzeros_at_the_cap(b):
    # 32-row blocks at the default block size, the last one half full
    pair = normalize_pair(Fraction(1, 2000), Fraction(b, 2000))
    assert_same_points(enumerate_orbit(pair).points, mask_nonzeros(pair)[1])


# ---------------------------------------------------------------------------
# partitions of the q-division points

@pytest.mark.parametrize("q", [1, 2, 4, 5, 6, 8, 12, 20])
def test_partition_covers_the_full_grid(q):
    classes, labels = orbit_partition(q)
    sizes = sorted(c.size for c in classes)
    assert sum(sizes) == q * q
    # labels[r*q + s] indexes into classes and reproduces every class size
    assert labels.shape == (q * q,)
    counts = np.bincount(labels, minlength=len(classes))
    assert sorted(int(c) for c in counts) == sizes
    # every representative's own orbit has the size and counts the class claims
    for idx, cls in enumerate(classes):
        r, s = cls.representative.point_mod(q)
        assert labels[r * q + s] == idx
        pair = normalize_pair(Fraction(r, q), Fraction(s, q))
        orbit = enumerate_orbit(pair)
        assert orbit.size_S == cls.size
        assert (orbit.size_U, orbit.size_V) == (cls.size_U, cls.size_V)


def test_partition_of_q20_matches_the_known_class_sizes():
    classes, _ = orbit_partition(20)
    assert sorted(c.size for c in classes) == [1, 1, 2, 4, 8, 24, 24, 48, 96, 192]


def test_partition_of_q5():
    classes, _ = orbit_partition(5)
    assert sorted(c.size for c in classes) == [1, 24]


def test_representatives_cover_the_square():
    for q in (7, 9, 16, 24):
        reps = orbit_representatives(q)
        assert sum(size for _, size in reps) == q * q


def test_cached_partition_labels_are_read_only():
    _, labels = orbit_partition(6)
    before = labels.copy()
    with pytest.raises(ValueError):
        labels[0] = 99
    assert np.array_equal(orbit_partition(6)[1], before)


def test_orbit_marginals_depend_on_gcd_and_parity_only():
    # the cusp at infinity sees an orbit through its s marginal and the cusp
    # at 1 through its (s - r) mod q marginal: in every class of exact
    # denominator q, the points on a given value v of either number depend
    # only on (gcd(v, q), v mod 2)
    classes = cells = 0
    for q in range(1, 61):
        v = np.arange(q)
        cell_of = np.gcd(v, q) * 2 + v % 2
        for pair, _ in orbit_representatives(q):
            if pair.q != q:
                continue
            classes += 1
            r, s = enumerate_orbit(pair).points.T
            for marginal in (s, (s - r) % q):
                counts = np.bincount(marginal, minlength=q)
                for cell in np.unique(cell_of):
                    in_cell = counts[cell_of == cell]
                    assert np.all(in_cell == in_cell[0]), (pair, cell)
                    cells += 1
    assert (classes, cells) == (90, 984)


# ---------------------------------------------------------------------------
# the closed membership test

@lru_cache(maxsize=None)
def grid(q):
    """Numerators (r, s) of all q-division points, in code order r*q + s."""
    return np.divmod(np.arange(q * q, dtype=np.int64), q)


@pytest.mark.parametrize("q", range(1, 61))
def test_orbit_contains_matches_the_bfs_for_every_canonical_pair(q):
    # orbit_partition labels each code r*q + s with its _bfs_codes closure
    _, labels = orbit_partition(q)
    r, s = grid(q)
    for pair in canonical_pairs(q):
        bfs = labels == labels[pair.a * q + pair.b]
        assert np.array_equal(orbit_contains(pair, r, s), bfs)


def test_the_compact_class_is_one_rule():
    # normalize_pair's parity rule, the zero of the closed-form constant and
    # a BFS class with no point on either line pick out the same pairs
    for q in range(1, 61):
        classes, labels = orbit_partition(q)
        for pair in canonical_pairs(q):
            cls = classes[labels[pair.a * q + pair.b]]
            verdicts = {
                pair.kind == "C",
                leading_constant(pair) == 0,
                cls.size_U == cls.size_V == 0,
            }
            assert len(verdicts) == 1, pair


def test_orbit_contains_matches_the_brute_force_closure():
    rng = np.random.default_rng(3)
    for _ in range(80):
        q = int(rng.integers(1, 41))
        a, b = (int(v) for v in rng.integers(0, q, size=2))
        if math.gcd(a, b, q) != 1:
            continue
        pair = normalize_pair(Fraction(a, q), Fraction(b, q))
        r, s = grid(q)
        inside = orbit_contains(pair, r, s)
        got = set(zip(r[inside].tolist(), s[inside].tolist()))
        assert got == oracles.orbit_brute(pair.a, pair.b, q)


def test_orbit_contains_reduces_any_integer_mod_q():
    pair = normalize_pair(Fraction(1, 12), 0)
    r = np.array([1, 13, -11, 2, 0, 3, 6, 5])
    s = np.array([0, 12, -24, 1, 5, 2, 0, 5])
    # both-odd (5, 5) and the non-unit rows are outside the (1/12, 0) orbit
    want = [True, True, True, True, True, True, False, False]
    assert orbit_contains(pair, r, s).tolist() == want
    assert bool(orbit_contains(pair, 7, 0))
    assert orbit_contains(normalize_pair(0, 0), r, s).all()


@pytest.mark.parametrize("q", [30030, 223092870, 3**39, 6469693230], ids=str)
def test_orbit_contains_equals_the_remainder_form_at_any_int64(q):
    # the floor-division test (r // p) * p != r against r % p != 0, which
    # numpy gives in [0, p) at either sign, on draws of both signs, the
    # extremes and multiples of each odd prime of q
    pair = normalize_pair(Fraction(1, q), 0)
    primes = [p for p in orbits._prime_divisors(q) if p > 2]
    rng = np.random.default_rng(q)
    top = 2**63 - 1
    r = rng.integers(-top, top, size=200_000, endpoint=True)
    s = rng.integers(-top, top, size=200_000, endpoint=True)
    edges = np.array([top, -top, 0, 1, -1], dtype=np.int64)
    multiples = np.concatenate([np.array([p, -p, top // p * p, -(top // p) * p], dtype=np.int64)
                                for p in primes])
    r = np.concatenate([r, edges, multiples, rng.integers(-top, top, multiples.size)])
    s = np.concatenate([s, np.resize(multiples, edges.size), multiples, multiples[::-1]])
    r[:1000] = r[:1000] // primes[0] * primes[0]  # one coordinate a multiple
    want = ((r ^ s) & 1 | q & 1).astype(bool)  # for even q exactly one odd, as in (1/q, 0)
    for p in primes:
        want &= (r % p != 0) | (s % p != 0)
    assert np.array_equal(orbit_contains(pair, r, s), want)


# ---------------------------------------------------------------------------
# representatives, line minima, reports

def test_which_representative_examples():
    pair = normalize_pair(Fraction(1, 6), Fraction(1, 6))
    assert str(which_representative(pair)) == "Rep11(6)"
    pair = normalize_pair(Fraction(1, 8), Fraction(0))
    assert str(which_representative(pair)) == "Rep10(8)"
    assert str(which_representative(normalize_pair(0, 0))) == "Origin"


@pytest.mark.parametrize("q", range(1, 31))
def test_which_representative_lies_in_the_bfs_orbit(q):
    _, labels = orbit_partition(q)
    for pair in canonical_pairs(q):
        r, s = which_representative(pair).point_mod(q)
        assert labels[r * q + s] == labels[pair.a * q + pair.b]


@pytest.mark.parametrize("q", range(1, 17))
def test_theta_mins_match_the_exact_recomputation(q):
    for pair in canonical_pairs(q):
        orbit = enumerate_orbit(pair)
        assert theta_mins(pair) == oracles.theta_mins_brute(point_set(orbit), q)


@pytest.mark.parametrize("q", range(1, 61))
def test_theta_mins_of_every_orbit_class(q):
    # every class of exact denominator q, its points from the BFS closure
    for pair, _ in orbit_representatives(q):
        if pair.q == q:
            codes = _bfs_codes(q, [(pair.a, pair.b)])
            points = list(zip((codes // q).tolist(), (codes % q).tolist()))
            assert theta_mins(pair) == oracles.theta_mins_brute(points, q)


def test_theta_mins_frozen_examples():
    assert theta_mins(normalize_pair(0, 0)) == (None, Fraction(1, 2))
    # both points of the (1/2, 0) orbit sit on the half-shift lines, so the
    # second minimum degenerates to the literal cross-line distance 1
    assert theta_mins(normalize_pair(Fraction(1, 2), 0)) == (Fraction(1, 2), Fraction(1))
    # far beyond the enumeration cap: odd q, and both even-q classes
    assert theta_mins(normalize_pair(Fraction(1, 10**9 + 7), 0)) == (
        Fraction(1, 10**9 + 7), Fraction(1, 2 * (10**9 + 7)),
    )
    assert theta_mins(normalize_pair(Fraction(1, 10**6), 0)) == (
        Fraction(1, 10**6), Fraction(1, 10**6),
    )
    assert theta_mins(normalize_pair(Fraction(1, 10**6), Fraction(1, 10**6))) == (
        Fraction(1, 10**6), Fraction(2, 10**6),
    )


def test_enumeration_cap_is_enforced():
    pair = normalize_pair(Fraction(1, 211), 0)
    with pytest.raises(ResourceLimitError):
        enumerate_orbit(pair, cap=100)
    assert DEFAULT_ORBIT_CAP >= 2000


def test_orbit_report_is_json_ready():
    pair = normalize_pair(Fraction(1, 6), 0)
    report = orbit_report(pair, enumerate_orbit(pair).points)
    parsed = json.loads(json.dumps(report))
    assert parsed["sizes"] == {"S": 16, "U": 2, "V": 4}
    assert parsed["pair"]["kind"] == "H"
    assert parsed["leading_constant"] == "1/2"
    assert len(parsed["points"]) == 16
    slim = orbit_report(pair)
    assert "points" not in slim
