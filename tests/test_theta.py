"""Theta values, transformed weights, and the cusp approximation."""

import cmath
import math
import os
import random
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from theta_tails import (
    CHUNK_SIZE,
    InvalidArgumentError,
    IwasawaPoint,
    MuAbSampler,
    UnsupportedOperationError,
    WeylSumSpec,
    bound_constant,
    conjugate_horoball,
    cusp_bound,
    cusp_main_term,
    f_phi_numeric,
    gaussian_weight,
    sharp_indicator_weight,
    sigma_phi,
    theta_f,
    theta_pair,
    theta_pair_gaussian_batch,
    theta_pair_gaussian_bound,
    weighted_weyl_sum,
)
from theta_tails.theta import theta_pair_gaussian_screen_height, theta_pair_gaussian_shift_screen

GAUSS = gaussian_weight()
CHI = sharp_indicator_weight(1.0)


def test_sigma_staircase():
    for nu in range(-3, 4):
        assert sigma_phi(nu * math.pi) == 2 * nu
        assert sigma_phi(nu * math.pi + 0.3) == 2 * nu + 1
        assert sigma_phi((nu + 1) * math.pi - 0.3) == 2 * nu + 1


# ---------------------------------------------------------------------------
# theta values

@pytest.mark.parametrize("x", [-0.7, 0.0, 0.33, 1.5])
@pytest.mark.parametrize("y", [0.4, 1.0, 3.7])
def test_gaussian_theta_matches_mpmath(x, y):
    pt = IwasawaPoint(x=x, y=y, phi=0.0, xi1=0.0, xi2=0.0)
    got = theta_f(GAUSS, pt)
    want = oracles.gaussian_theta_mpmath(x, y)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_gaussian_theta_at_i_is_the_classical_constant():
    pt = IwasawaPoint(x=0.0, y=1.0, phi=0.0)
    assert abs(theta_f(GAUSS, pt) - oracles.GAUSSIAN_THETA_AT_I) < 1e-13


def test_truncation_tolerance_is_honoured():
    rng = random.Random(3)
    for _ in range(25):
        pt = IwasawaPoint(
            x=rng.uniform(-2, 2),
            y=rng.uniform(0.05, 5),
            phi=0.0,
            xi1=rng.uniform(-3, 3),
            xi2=rng.uniform(-3, 3),
        )
        loose = theta_f(GAUSS, pt, tol=1e-6)
        tight = theta_f(GAUSS, pt, tol=1e-14)
        assert abs(loose - tight) <= 1e-6 * (1 + abs(tight))


BIG = 2.0**29 + 0.3
TOP = float(np.nextafter(2.0**30, 0))


@pytest.mark.parametrize(
    "xi1, xi2, k1, k2",
    [
        (BIG, BIG, 2**29, 2**29),
        (-BIG, BIG, -(2**29), 2**29),
        (BIG, -BIG - 1.0, 2**29, -(2**29) - 1),
        (TOP, TOP, 2**30 - 1, 2**30 - 1),
        (250.3, 250.3, 250, 250),
        (12345.3, -7.2, 12345, -7),
    ],
    ids=["big", "big-sign", "big-minus-one", "top", "250", "12345"],
)
def test_theta_f_prefactor_turn_matches_a_fraction_oracle(xi1, xi2, k1, k2):
    # a shift of xi by integers (k1, k2) multiplies Theta_f by e(turn), with
    # turn = (k2 xi1 - k1 xi2 - k1 k2)/2 at the small xi, exactly; at large xi
    # the prefactor's -xi1 xi2/2 is huge and only its fraction of a turn counts
    small = IwasawaPoint(0.3, 1.0, 0.0, xi1 - k1, xi2 - k2)
    s1, s2 = Fraction(small.xi1), Fraction(small.xi2)
    assert (s1 + k1, s2 + k2) == (Fraction(xi1), Fraction(xi2))
    turn = (k2 * s1 - k1 * s2 - k1 * k2) / 2 % 1
    ratio = theta_f(GAUSS, IwasawaPoint(0.3, 1.0, 0.0, xi1, xi2)) / theta_f(GAUSS, small)
    assert abs(abs(ratio) - 1.0) < 1e-12
    assert abs((cmath.phase(ratio) / (2 * math.pi) - float(turn) + 0.5) % 1 - 0.5) < 1e-12


@pytest.mark.parametrize("x", [0.3, 2.0**20 + 0.1, 2.0**29 + 0.1])
@pytest.mark.parametrize("xi1, xi2", [(0.3, 0.2), (-0.45, 0.49)])
def test_theta_f_matches_an_mpmath_lattice_sum_at_large_x(x, xi1, xi2):
    # the shared phase t^2 x/2 is carried exactly, so the error does not grow with x
    got = theta_f(GAUSS, IwasawaPoint(x, 1.0, 0.0, xi1, xi2), tol=1e-15)
    want = oracles.gaussian_theta_lattice_mpmath(x, 1.0, xi1, xi2)
    assert abs(got - want) <= 1e-13 * abs(want)
    # at phi = k pi the even Gaussian's f_phi is e(-k/4) f, exactly: complex
    # weights in the lattice sum
    for k in (1, 2, 3):
        got = theta_f(GAUSS, IwasawaPoint(x, 1.0, k * math.pi, xi1, xi2), tol=1e-15)
        assert abs(got - (-1j) ** k * want) <= 1e-13 * abs(want)


def test_theta_f_rejects_a_weight_that_does_not_decay(flat_weight):
    with pytest.raises(InvalidArgumentError, match="weight 'flat' does not decay"):
        theta_f(flat_weight, IwasawaPoint(0.3, 1.0, 0.0))


def test_weyl_sum_identity_gaussian():
    rng = random.Random(11)
    for _ in range(10):
        x = rng.uniform(-3, 3)
        alpha = Fraction(rng.randrange(-12, 12), rng.randrange(1, 12))
        beta = Fraction(rng.randrange(-12, 12), rng.randrange(1, 12))
        zeta = rng.uniform(-2, 2)
        N = rng.randrange(1, 200)
        spec = WeylSumSpec(alpha=alpha, beta=beta, zeta=zeta, N=N)
        s = weighted_weyl_sum(GAUSS, x, spec) / math.sqrt(N)
        pt = IwasawaPoint(
            x=x, y=1.0 / N**2, phi=0.0, xi1=float(alpha) + float(beta) * x, xi2=0.0
        )
        t = theta_f(GAUSS, pt, zeta=zeta * x)
        assert abs(t - s) <= 1e-10 * (abs(s) + 1)


def test_weyl_sum_identity_indicator_at_dyadic_n():
    # dyadic N makes sqrt(1/N^2) exact, keeping the closed endpoint of the
    # indicator support exact in floating point
    rng = random.Random(12)
    for _ in range(10):
        x = rng.uniform(-3, 3)
        alpha = Fraction(rng.randrange(-12, 12), rng.randrange(1, 12))
        beta = Fraction(rng.randrange(-12, 12), rng.randrange(1, 12))
        N = 2 ** rng.randrange(0, 8)
        spec = WeylSumSpec(alpha=alpha, beta=beta, zeta=0.0, N=N)
        s = weighted_weyl_sum(CHI, x, spec) / math.sqrt(N)
        pt = IwasawaPoint(
            x=x, y=1.0 / N**2, phi=0.0, xi1=float(alpha) + float(beta) * x, xi2=0.0
        )
        t = theta_f(CHI, pt)
        assert abs(t - s) <= 1e-10 * (abs(s) + 1)


# ---------------------------------------------------------------------------
# invariance of the pairing

LETTERS = [oracles.GAMMA1, oracles.GAMMA2, oracles.GAMMA3, oracles.GAMMA4]
LETTERS += [g.inverse() for g in LETTERS]


def test_pairing_modulus_is_group_invariant():
    rng = random.Random(7)
    for _ in range(30):
        pt = IwasawaPoint(
            x=rng.uniform(-1, 3),
            y=rng.uniform(0.2, 4),
            phi=rng.uniform(0, math.pi),
            xi1=rng.uniform(-2, 2),
            xi2=rng.uniform(-2, 2),
        )
        g = LETTERS[0] * LETTERS[0]  # identity seed
        for _ in range(rng.randrange(1, 9)):
            g = g * rng.choice(LETTERS)
        base = abs(theta_pair(GAUSS, GAUSS, pt))
        moved_pt = IwasawaPoint(*oracles.act_on_iwasawa(g, astuple(pt)))
        moved = abs(theta_pair(GAUSS, GAUSS, moved_pt))
        assert math.isclose(base, moved, rel_tol=1e-9, abs_tol=1e-12)


def test_pairing_modulus_is_rho_invariant():
    rng = random.Random(8)
    for _ in range(20):
        pt = IwasawaPoint(
            x=rng.uniform(0.05, 1.9),
            y=rng.uniform(0.1, 2),
            phi=rng.uniform(0, math.pi),
            xi1=rng.uniform(-2, 2),
            xi2=rng.uniform(-2, 2),
        )
        base = abs(theta_pair(GAUSS, GAUSS, pt))
        # the Gaussian modulus does not depend on phi, so it stays as it is
        x, y, xi1, xi2 = oracles.rho_map(pt.x, pt.y, pt.xi1, pt.xi2)
        moved = abs(theta_pair(GAUSS, GAUSS, IwasawaPoint(x, y, pt.phi, xi1, xi2)))
        assert math.isclose(base, moved, rel_tol=1e-9, abs_tol=1e-12)


def test_pairing_is_independent_of_zeta():
    pt = IwasawaPoint(x=0.4, y=0.9, phi=0.0, xi1=0.3, xi2=-0.2)
    a = theta_f(GAUSS, pt, zeta=0.0) * theta_f(CHI, pt, zeta=0.0).conjugate()
    b = theta_f(GAUSS, pt, zeta=0.77) * theta_f(CHI, pt, zeta=0.77).conjugate()
    assert abs(a - b) < 1e-12 * (1 + abs(a))


def test_gaussian_batch_matches_the_scalar_pairing():
    rng = np.random.default_rng(5)
    n = 40
    x = rng.uniform(-1, 3, n)
    y = rng.uniform(math.sqrt(3) / 2, 6, n)
    xi1 = rng.uniform(-1, 2, n)
    xi2 = rng.uniform(-1, 2, n)
    got = theta_pair_gaussian_batch(x, y, xi1, xi2)
    for i in range(n):
        pt = IwasawaPoint(x=x[i], y=y[i], phi=0.0, xi1=xi1[i], xi2=xi2[i])
        want = abs(theta_pair(GAUSS, GAUSS, pt))
        assert abs(got[i] - want) <= 1e-10 * (1 + want)


def _assert_matches_lattice_oracle(x, y, xi1, xi2):
    got = theta_pair_gaussian_batch(x, y, xi1, xi2)
    for i in range(len(x)):
        want = oracles.gaussian_pair_lattice_sum(x[i], y[i], xi1[i], xi2[i])
        assert abs(got[i] - want) <= 2e-15 * (1 + want), (i, got[i], want)


def test_gaussian_batch_matches_the_lattice_oracle_on_a_wide_box():
    rng = np.random.default_rng(17)
    n = 3000
    _assert_matches_lattice_oracle(
        rng.uniform(-1, 3, n),
        rng.uniform(math.sqrt(3) / 2, 6, n),
        rng.uniform(-1, 2, n),
        rng.uniform(-1, 2, n),
    )


@pytest.mark.parametrize("q", [8, 2000])
def test_gaussian_batch_matches_the_lattice_oracle_on_sampler_chunks(q):
    # longer than one internal block, so a block boundary is crossed
    data = MuAbSampler(Fraction(1, q), 0, seed=3).chunk(0, 10000)
    x, y, xi1, xi2 = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
    assert y.min() > math.sqrt(3) / 2 - 1e-12 and y.max() > 100
    _assert_matches_lattice_oracle(x, y, xi1, xi2)


def test_gaussian_batch_rejects_inputs_outside_its_range():
    # the bound runs the batch's checks: a sample it rejects never reaches
    # the batch unseen
    good = [np.array(v) for v in ([0.3, -0.1], [1.0, 0.9], [0.2, 0.4], [0.1, 0.5])]
    for evaluate in (theta_pair_gaussian_batch, theta_pair_gaussian_bound):
        evaluate(*good)
        for slot in range(4):
            for bad in (math.nan, math.inf, -math.inf):
                args = [v.copy() for v in good]
                args[slot][1] = bad
                with pytest.raises(InvalidArgumentError):
                    evaluate(*args)
        for slot in (0, 2, 3):
            args = [v.copy() for v in good]
            args[slot][0] = 2.0**53
            with pytest.raises(InvalidArgumentError):
                evaluate(*args)
        for low_y in (0.4999, 0.0, -1.0):
            args = [v.copy() for v in good]
            args[1][0] = low_y
            with pytest.raises(InvalidArgumentError):
                evaluate(*args)


BOUND_PAIRS = [(0, 0), (Fraction(1, 8), 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2000), 0)]


@pytest.mark.parametrize("pair", BOUND_PAIRS, ids=str)
def test_gaussian_bound_holds_on_sampler_chunks_and_keeps_the_batch_bits(pair):
    for index in range(2):
        data = MuAbSampler(*pair, seed=5).chunk(index, CHUNK_SIZE)
        chunk = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
        values = theta_pair_gaussian_batch(*chunk)
        bound = theta_pair_gaussian_bound(*chunk)
        assert np.all(values <= bound * (1.0 + 1e-12))
        keep = bound * (1.0 + 1e-12) > 1.5**2
        assert 0 < np.count_nonzero(keep) < keep.size // 5
        # numpy's SIMD loops might round an element by its place in the
        # array; the batch on the kept samples must give their full-chunk bits
        assert np.array_equal(theta_pair_gaussian_batch(*(v[keep] for v in chunk)), values[keep])


@pytest.mark.parametrize("y", [0.5, 0.9, 3.0, 1e6])
def test_gaussian_bound_holds_at_the_edges_of_its_range(y):
    rng = np.random.default_rng(31)
    t = np.concatenate([[0.5, -0.5, 0.0, 0.01, 0.011, 0.4999999], rng.uniform(-0.5, 0.5, 58)])
    xi2 = 3.0 + t
    for x, xi1 in ((np.zeros(t.size), np.zeros(t.size)), rng.uniform(-1, 1, (2, t.size))):
        # at x = xi1 = 0 every term is real and positive: the triangle
        # inequality is an equality, and only the bound on the exponents is loose
        values = theta_pair_gaussian_batch(x, y, xi1, xi2)
        bound = theta_pair_gaussian_bound(x, y, xi1, xi2)
        assert np.all(values <= bound * (1.0 + 1e-12))
        for i in range(t.size):
            want = oracles.gaussian_pair_lattice_sum(x[i], y, xi1[i], xi2[i])
            assert want <= bound[i] * (1.0 + 1e-12)
    if y == 1e6:
        # the anchor's size exp(-2 pi t^2 y) underflows past |t| = 0.0109:
        # both are 0 there, and at t = 0 both are the anchor term sqrt(y)
        assert np.all((values == 0) == (bound == 0))
        assert np.count_nonzero(bound == 0) > 50 and bound[2] == values[2] == 1e3
    elif y == 0.5:
        # where the terms line up the bound is not far off: 1.02 times the
        # value at t = 0, and 2.19 at t = +-1/2, where it takes both sides
        # of the anchor to be the nearer one
        ratio = bound[:3] / theta_pair_gaussian_batch(0.0, y, 0.0, xi2[:3])
        assert np.all(ratio < [2.2, 2.2, 1.03])


def _height_bound(y):
    """H(y), the bound B(x, y, xi1, xi2) at shift t = 0."""
    return theta_pair_gaussian_bound(0.0, y, 0.0, 0.0)


def test_gaussian_height_bound_holds_for_every_shift():
    # H takes the Jacobi sum at t = 0, its largest by Poisson summation;
    # x = xi1 = 0 makes every term real and positive, the tightest case
    y = np.geomspace(0.5, 1e6, 400)
    bound = _height_bound(y) * (1.0 + 1e-12)
    rng = np.random.default_rng(41)
    for t in np.concatenate([[0.0, 0.5, -0.5, 1e-9], np.linspace(-0.5, 0.5, 201)]):
        for x, xi1 in ((0.0, 0.0), tuple(rng.uniform(-1, 1, 2))):
            values = theta_pair_gaussian_batch(x, y, xi1, 2.0 + t)
            assert np.all(values <= bound), t
    # at t = 0 the bound is tight high in the cusp: one term is left
    values = theta_pair_gaussian_batch(0.0, y, 0.0, 0.0)
    assert np.all(values > bound * (1 - 1e-6) * np.where(y > 3, 1.0, 0.8))


@pytest.mark.parametrize("pair", [(0, 0), (Fraction(1, 2000), 0), (Fraction(1, 2002), Fraction(1, 2002))],
                         ids=str)
def test_gaussian_height_bound_holds_on_sampler_points(pair):
    data = MuAbSampler(*pair, seed=9).draw(1 << 16)
    chunk = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
    values = theta_pair_gaussian_batch(*chunk)
    assert np.all(values <= _height_bound(chunk[1]) * (1.0 + 1e-12))


@pytest.mark.parametrize("floor", [1.45, 1.46, 1.6, 1.7, 2.25, 4.0, 36.0, 1e6])
def test_screen_height_is_where_the_height_bound_reaches_the_floor(floor):
    height = theta_pair_gaussian_screen_height(floor)
    if floor < 1.4552:  # below H(1/2) = 1.45515 nothing is screened out
        assert height == -math.inf
        return
    # H falls then rises: on [1/2, Y] it stays below the floor, just past Y not
    y = np.concatenate([np.linspace(0.5, min(height, 3.0), 2001), np.geomspace(0.5, height, 2001)])
    assert np.all(_height_bound(y) * (1.0 + 1e-12) < floor)
    assert _height_bound(height * (1 + 1e-8)) > floor


def test_screen_height_is_minus_inf_exactly_below_the_bound_at_one_half():
    cut = float(_height_bound(0.5)) * (1.0 + 1e-9)
    assert cut == pytest.approx(1.45515, abs=1e-5)
    assert theta_pair_gaussian_screen_height(cut * (1.0 - 1e-12)) == -math.inf
    assert theta_pair_gaussian_screen_height(math.nan) == -math.inf
    # the iteration starts at Y = 2, where H is already below H(1/2)
    assert 2.0 <= theta_pair_gaussian_screen_height(cut * (1.0 + 1e-12)) < 2.1
    assert theta_pair_gaussian_screen_height(2.25) == pytest.approx(5.0624949745, rel=1e-10)


@pytest.mark.parametrize("floor", [1.4553, 1.5, 2.25, 9.0, 36.0, 1e6], ids=str)
def test_shift_screen_bounds_the_pairing_above_the_screen_height(floor):
    # B (1 + 1e-12) <= floor at y >= Y and t0 <= |t| <= 1/2, on a log grid
    # in y and |t| plus, per shift, the height 1 / (4 pi t^2) where the
    # anchor term sqrt(y) exp(-2 pi t^2 y) peaks
    height = theta_pair_gaussian_screen_height(floor)
    t0 = theta_pair_gaussian_shift_screen(floor)
    assert 2.0 <= height < math.inf and 0 < t0 < 0.5
    t = np.concatenate([t0 * np.geomspace(1.0, 0.5 / t0, 400), [t0, 0.5]])
    y = np.concatenate([height * np.geomspace(1.0, 1e4, 1500), [height]])
    y = np.concatenate([y, np.maximum(height, 1.0 / (4.0 * math.pi * t * t))])
    for sign in (1.0, -1.0):
        bound = theta_pair_gaussian_bound(0.0, y[:, None], 0.0, sign * t[None, :])
        assert np.all(bound * (1.0 + 1e-12) <= floor)
    if floor == 2.25:
        assert t0 == pytest.approx(0.0821, abs=1e-4)


@pytest.mark.parametrize("floor", [-math.inf, 0.0, 1.0, 1.455, math.nan])
def test_shift_screen_keeps_every_shift_without_a_screen_height(floor):
    assert theta_pair_gaussian_screen_height(floor) == -math.inf
    assert theta_pair_gaussian_shift_screen(floor) == math.inf


def test_theta_paths_reject_x_and_xi_beyond_2_30():
    # past 2^30 the phases drift: unchecked, the batch is 7.6% off
    # theta_pair at x = 2^51 + 0.5, and theta_f gives 0.933 at x = 1e300
    # against 1.67e-12 at x = 0
    below = np.nextafter(2.0**30, 0)
    theta_f(GAUSS, IwasawaPoint(below, 0.01, 0.0, below, below))
    good = [np.array(v) for v in ([0.3, -0.1], [1.0, 0.9], [0.2, 0.4], [0.1, 0.5])]
    for slot, name in ((0, "x"), (2, "xi1"), (3, "xi2")):
        for bad in (2.0**30, 2.0**51 + 0.5, -1e300):
            args = [v.copy() for v in good]
            args[slot][1] = bad
            with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
                theta_pair_gaussian_batch(*args)
            coords = {"x": 0.0, "y": 0.01, "phi": 0.0, "xi1": 0.3, "xi2": 0.0, name: bad}
            with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
                theta_f(GAUSS, IwasawaPoint(**coords))


@pytest.mark.parametrize("y", [1e-30, 1e-300])
def test_theta_f_rejects_a_y_whose_lattice_range_exceeds_the_phase_range(y):
    # the Gaussian keeps |n - xi2| up to about 3.9 / sqrt(y): at y = 1e-30
    # the lattice alone once asked for 64.3 PiB, at 1e-300 numpy refused
    # the size; both now fail the Weyl paths' n bound before any array
    with pytest.raises(InvalidArgumentError, match="exact phase range"):
        theta_f(gaussian_weight(), IwasawaPoint(0.3, y, 0.0))


def test_gaussian_batch_stays_finite_high_in_the_cusp():
    rng = np.random.default_rng(23)
    y = np.concatenate([np.geomspace(0.5, 1e300, 400), np.full(8, 1e300)])
    xi2 = rng.uniform(-1, 2, y.size)
    xi2[-8:] = [0.0, 0.5, -0.5, 0.25, 1.0, 1.5, 0.125, 0.0]
    x = rng.uniform(-1, 3, y.size)
    xi1 = rng.uniform(-1, 2, y.size)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = theta_pair_gaussian_batch(x, y, xi1, xi2)
    assert np.all(np.isfinite(got)) and np.all(got >= 0)
    # with xi2 an integer only the anchor term survives: the value is sqrt(y)
    assert got[-8] == pytest.approx(1e150, rel=1e-15)
    assert got[-4] == pytest.approx(1e150, rel=1e-15)
    moderate = y < 1e6
    _assert_matches_lattice_oracle(x[moderate], y[moderate], xi1[moderate], xi2[moderate])


def test_package_import_leaves_scipy_integrate_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, theta_tails; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_gaussian_pairing_integral_leaves_scipy_unloaded():
    # D_rat_numeric takes one mesh for every pair; only the sharp window's
    # Fresnel values need scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys\n"
        "from theta_tails import D_rat_numeric, GaussianWeight\n"
        "D_rat_numeric(GaussianWeight(), GaussianWeight())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_commands_off_the_normal_law_leave_scipy_special_unloaded(tmp_path):
    # after the import and after each command: only the normal law, the sharp
    # window's Fresnel values and bound_constant need scipy.special
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = str(tmp_path / "out")
    commands = [
        ["theta-tail", "--alpha", "1/8", "--samples", "2000", "--workers", "2"],
        ["tail", "--alpha", "1/2", "--N", "50", "--law", "uniform01", "--samples", "2000"],
        ["orbit", "--alpha", "1/6", "--points"],
        ["partition", "--q", "12"],
        ["constants", "--q-max", "12"],
    ]
    probe = (
        "import sys, theta_tails\n"
        "from theta_tails import cli\n"
        "loaded = ['scipy.special' in sys.modules]\n"
        f"for argv in {commands!r}:\n"
        f"    assert cli.main(argv + ['--out', {out!r}]) == 0\n"
        "    loaded.append('scipy.special' in sys.modules)\n"
        "print(loaded)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    # the commands print their summaries first; the probe's list comes last
    assert result.stdout.strip().splitlines()[-1] == str([False] * (len(commands) + 1))


# ---------------------------------------------------------------------------
# transformed weights

def test_gaussian_transform_closed_form():
    w = np.linspace(-2, 2, 9)
    # at multiples of pi the transform is exactly e(-k/4) f((-1)^k w), with
    # e(-k/4) from a table: cmath.exp(-0.5j * math.pi) is 6.1e-17 - 1j
    quarter = [1.0, -1.0j, -1.0, 1.0j]
    ks = list(range(-8, 9))
    for k in ks:
        want = quarter[k % 4] * np.exp(-math.pi * w**2)
        assert np.array_equal(GAUSS.f_phi(k * math.pi, w), want)
    want = np.array([quarter[k % 4] for k in ks])
    assert np.array_equal(GAUSS.f_phi0_values(np.array(ks) * math.pi), want)
    # away from them the modulus is still exact
    for phi in (0.3, 1.1, 2.9, 4.0):
        assert np.allclose(
            np.abs(GAUSS.f_phi(phi, w)), np.exp(-math.pi * w**2), rtol=1e-12
        )


def test_gaussian_is_a_rotation_eigenvector_at_zero():
    phis = np.array([0.0, 0.4, 1.0, math.pi, 4.4])
    vals = GAUSS.f_phi0_values(phis)
    assert np.allclose(np.abs(vals), 1.0, rtol=1e-12)
    assert abs(vals[3] - cmath.exp(-2j * math.pi / 4)) < 1e-12


def test_numeric_transform_agrees_with_the_gaussian_closed_form():
    for phi in (0.4, 1.0, 2.0, 2.8):
        for w in (0.0, 0.5, 1.3):
            got = f_phi_numeric(GAUSS, phi, w)
            want = abs(GAUSS.f_phi(phi, np.asarray([w]))[0])
            assert abs(abs(got) - want) < 1e-7
    # at multiples of pi both take the exact dispatch
    for weight in (GAUSS, CHI):
        for k in range(-2, 4):
            for w in (0.7, -0.3):
                want = weight.f_phi(k * math.pi, np.asarray([w]))[0]
                assert f_phi_numeric(weight, k * math.pi, w) == want


def test_numeric_transform_agrees_with_the_fresnel_closed_form():
    for phi in (0.4, 1.2, 2.0, 2.7):
        got = f_phi_numeric(CHI, phi, 0.0)
        want = CHI.f_phi0_values(np.asarray([phi]))[0]
        assert abs(got - want) < 1e-6 * (1 + abs(want))


def test_indicator_transform_limits():
    # halfway the rotation acts as a Fourier transform; the integral of the
    # indicator is its length
    assert abs(abs(CHI.f_phi0_values(np.asarray([math.pi / 2]))[0]) - 1.0) < 1e-12
    chi3 = sharp_indicator_weight(3.0)
    assert abs(abs(chi3.f_phi0_values(np.asarray([math.pi / 2]))[0]) - 3.0) < 1e-12
    # |f_phi(0)|^2 tends to 1/4 at the identity, Fresnel oscillations decay
    assert abs(abs(CHI.f_phi0_values(np.asarray([1e-4]))[0]) ** 2 - 0.25) < 0.05
    # on pi Z the sharp transform is the reflected indicator
    vals = CHI.f_phi(math.pi, np.array([-0.5, 0.5]))
    assert abs(vals[0] - cmath.exp(-2j * math.pi / 4)) < 1e-12
    assert abs(vals[1]) == 0.0
    with pytest.raises(UnsupportedOperationError):
        CHI.f_phi(0.5, np.array([0.0]))


def test_kappa_and_bound_constants():
    assert GAUSS.kappa_eta(2.0) == 1.0
    k10 = GAUSS.kappa_eta(10.0)
    assert math.isclose(
        k10, (10 / (2 * math.pi)) ** 5 * math.exp(math.pi - 5), rel_tol=1e-12
    )
    assert math.isinf(CHI.kappa_eta(2.0))
    assert math.isclose(bound_constant(2.0), oracles.CUSP_C2, rel_tol=1e-12)
    with pytest.raises(InvalidArgumentError):
        bound_constant(1.0)


def test_cusp_bound_domain():
    with pytest.raises(InvalidArgumentError):
        cusp_bound(GAUSS, GAUSS, 0.25, eta=2.0)
    with pytest.raises(InvalidArgumentError, match="needs eta-regular weights"):
        cusp_bound(GAUSS, CHI, 2.0, eta=2.0)
    assert cusp_bound(GAUSS, GAUSS, 2.0, eta=2.0) == pytest.approx(
        oracles.CUSP_C2 / math.sqrt(2.0), rel=1e-12
    )


def test_cusp_approximation_spot_check():
    rng = random.Random(9)
    for _ in range(100):
        pt = IwasawaPoint(
            x=rng.uniform(0, 2),
            y=math.exp(rng.uniform(math.log(0.5), math.log(500))),
            phi=rng.uniform(0, math.pi),
            xi1=rng.uniform(-0.5, 0.5),
            xi2=rng.uniform(-0.5, 0.5),
        )
        value = abs(theta_pair(GAUSS, GAUSS, pt))
        main = cusp_main_term(GAUSS, GAUSS, pt)
        assert abs(value - main) <= cusp_bound(GAUSS, GAUSS, pt.y, eta=2.0) + 1e-9
