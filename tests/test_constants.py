"""Arithmetic and analytic factors of the tail coefficient."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from theta_tails import (
    D_rat_closed,
    D_rat_numeric,
    GaussianWeight,
    InvalidArgumentError,
    IwasawaPoint,
    MuAbSampler,
    WeylSumSpec,
    bound_constant,
    chunk_generator,
    cusp_bound,
    cusp_main_term,
    dedekind_psi,
    default_thresholds,
    enumerate_orbit,
    f_phi_numeric,
    factorize,
    gaussian_weight,
    leading_constant,
    normalize_pair,
    orbit_representatives,
    sharp_indicator_weight,
    simulate_theta_tail,
    simulate_weyl_tail,
    split_two_power,
    table_reciprocal_C,
    tail_constant,
    theta_f,
    weyl_sum,
    weyl_values_batch,
)
from theta_tails.homog import run_chunks


def test_arithmetic_factor_case_split():
    # odd q
    assert leading_constant(normalize_pair(Fraction(1, 5), 0)) == Fraction(1, 3)
    # single factor of 2, one even numerator
    assert leading_constant(normalize_pair(Fraction(1, 2), 0)) == Fraction(2)
    assert leading_constant(normalize_pair(Fraction(1, 6), 0)) == Fraction(1, 2)
    # single factor of 2, both numerators odd: compact support, zero constant
    assert leading_constant(normalize_pair(Fraction(1, 2), Fraction(1, 2))) == 0
    assert leading_constant(normalize_pair(Fraction(1, 6), Fraction(1, 6))) == 0
    # at least two factors of 2
    assert leading_constant(normalize_pair(Fraction(1, 8), 0)) == Fraction(1, 4)
    assert leading_constant(normalize_pair(Fraction(1, 8), Fraction(1, 8))) == Fraction(1, 4)
    assert leading_constant(normalize_pair(Fraction(1, 12), 0)) == Fraction(1, 8)


def _arithmetic_factor(q: int, both_odd: bool) -> Fraction:
    # reciprocal_c_brute's psi(m) case split, with psi from its closed form
    ell, m = 0, q
    while m % 2 == 0:
        ell += 1
        m //= 2
    if ell == 1 and both_odd:
        return Fraction(0)
    if ell <= 1:
        return Fraction(2, dedekind_psi(m))
    return Fraction(1, 2 ** (ell - 1) * dedekind_psi(m))


def test_orbit_constant_matches_the_psi_case_split():
    # the orbit counts' (2|U| + |V|)/|S| is C(q) in both parity classes at
    # every q: (1/q, 0) has an even numerator, (1/q, 1/q) two odd ones
    for q in range(1, 10**4 + 1):
        for beta in (0, Fraction(1, q)):
            pair = normalize_pair(Fraction(1, q), beta)
            assert leading_constant(pair) == _arithmetic_factor(q, beta != 0), pair


def test_reciprocal_table_matches_frozen_and_brute_force():
    table = table_reciprocal_C(100)
    assert table == oracles.RECIPROCAL_C_FIRST_100
    assert table == [oracles.reciprocal_c_brute(q) for q in range(1, 101)]


def test_reciprocal_table_agrees_with_the_pair_constant():
    # the generic branch, which (1/q, 0) always hits, against the brute-force
    # reciprocal beyond the frozen table
    for q in range(101, 301):
        pair = normalize_pair(Fraction(1, q), 0)
        assert leading_constant(pair) * oracles.reciprocal_c_brute(q) == 1


# ---------------------------------------------------------------------------
# the analytic factor

def test_closed_form_values():
    assert math.isclose(D_rat_closed(1), oracles.TWO_LOG_TWO, rel_tol=1e-15)
    assert math.isclose(D_rat_closed(2), oracles.D_RAT_AT_2, rel_tol=1e-13)


def test_closed_form_is_continuous_at_one_and_increasing():
    assert abs(D_rat_closed(1 + 1e-9) - oracles.TWO_LOG_TWO) < 1e-6
    grid = [1.0, 1.5, 2.0, 4.0, 10.0, 100.0]
    vals = [D_rat_closed(r) for r in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("r", [2.0, 1e5, 1e7, 1e20, 1e154, 1e155, 1e300])
def test_closed_form_matches_mpmath_up_to_the_largest_float(r):
    # r * r overflows above about 1.3e154, where the r^2 form is NaN
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        R = mpmath.mpf(r)
        want = (
            2 * R * mpmath.acoth(R)
            + mpmath.log(R * R - 1) / 2
            + R * R / 2 * mpmath.log1p(-1 / (R * R))
        )
        assert math.isclose(D_rat_closed(r), float(want), rel_tol=4e-16)
    assert math.isfinite(tail_constant(Fraction(1, 3), r=r).value)


def test_closed_form_rejects_r_below_one():
    with pytest.raises(InvalidArgumentError):
        D_rat_closed(0.5)


def test_gaussian_pair_integral_is_pi():
    g = gaussian_weight()
    assert abs(D_rat_numeric(g, g, tol=1e-8) - math.pi) < 1e-8


def test_gaussian_pair_mesh_stays_coarse():
    # neither Gaussian oscillates, so the mesh has no reason to grade
    sizes = []

    class Counted(GaussianWeight):
        def f_phi0_values(self, phis):
            sizes.append(len(phis))
            return super().f_phi0_values(phis)

    g = Counted()
    assert abs(D_rat_numeric(g, g, tol=1e-8) - math.pi) < 1e-8
    assert len(sizes) == 2 and max(sizes) <= 2000


def test_indicator_pair_integral_matches_the_closed_form():
    chi = sharp_indicator_weight(1.0)
    assert abs(D_rat_numeric(chi, chi) - oracles.TWO_LOG_TWO) < 1e-3
    chi2 = sharp_indicator_weight(2.0)
    assert abs(D_rat_numeric(chi, chi2) - oracles.D_RAT_AT_2) < 1e-3


# ---------------------------------------------------------------------------
# assembled coefficient

def test_tail_constant_assembly():
    tc = tail_constant(Fraction(1, 2), 0)
    assert tc.c_of_q == 2
    assert math.isclose(tc.value, oracles.WEYL_HALF_TAIL, rel_tol=1e-13)
    assert math.isclose(tc.value, float(tc.c_of_q) * tc.d_rat / math.pi**2, rel_tol=1e-15)

    compact = tail_constant(Fraction(1, 6), Fraction(1, 6))
    assert compact.value == 0.0

    stretched = tail_constant(Fraction(1, 2), 0, r=2.0)
    assert math.isclose(
        stretched.value, 2 * oracles.D_RAT_AT_2 / math.pi**2, rel_tol=1e-13
    )

    with pytest.raises(InvalidArgumentError):
        tail_constant(Fraction(1, 2), 0, r=0.25)


GAUSS = gaussian_weight()
POINT = IwasawaPoint(x=0.1, y=1.2, phi=0.0)
PAIR = normalize_pair(Fraction(1, 3), 0)


REJECTED = {
    "D_rat_closed-inf": lambda: D_rat_closed(math.inf),
    "tail_constant-inf": lambda: tail_constant(Fraction(1, 3), r=math.inf),
    "weyl_values_batch-r-nan": lambda: weyl_values_batch([0.3], PAIR, 10, r=math.nan),
    "weyl_values_batch-r-inf": lambda: weyl_values_batch([0.3], PAIR, 10, r=math.inf),
    "weyl_values_batch-rN-overflow": lambda: weyl_values_batch([0.3], PAIR, 10, r=1e308),
    "theta_f-tol0": lambda: theta_f(GAUSS, POINT, tol=0.0),
    "theta_f-tol-1": lambda: theta_f(GAUSS, POINT, tol=-1.0),
    "theta_f-tol-nan": lambda: theta_f(GAUSS, POINT, tol=math.nan),
    "theta_f-tol-underflow": lambda: theta_f(GAUSS, IwasawaPoint(x=0.3, y=1.0, phi=0.0), tol=5e-324),
    "theta_f-tol-underflow-tiny-y": lambda: theta_f(GAUSS, IwasawaPoint(x=0.3, y=1e-200, phi=0.0), tol=1e-300),
    "theta_f-tol-subnormal": lambda: theta_f(GAUSS, IwasawaPoint(x=0.3, y=1.0, phi=0.0), tol=1e-310),
    "bound_constant-nan": lambda: bound_constant(math.nan),
    "cusp_bound-y-nan": lambda: cusp_bound(GAUSS, GAUSS, y=math.nan, eta=2.0),
    "D_rat_numeric-tol-nan": lambda: D_rat_numeric(GAUSS, GAUSS, tol=math.nan),
    "f_phi_numeric-tol-nan": lambda: f_phi_numeric(GAUSS, 0.7, 0.3, tol=math.nan),
    "f_phi_numeric-tol-1": lambda: f_phi_numeric(GAUSS, 0.7, 0.3, tol=-1.0),
    "theta_f-y-inf": lambda: theta_f(GAUSS, IwasawaPoint(x=0.1, y=math.inf, phi=0.0)),
    "cusp_main_term-y-inf": lambda: cusp_main_term(GAUSS, GAUSS, IwasawaPoint(x=0.1, y=math.inf, phi=0.0)),
    "theta_f-phi-nan": lambda: theta_f(GAUSS, IwasawaPoint(x=0.1, y=1.0, phi=math.nan)),
    "IwasawaPoint-x-overflow": lambda: IwasawaPoint(10**400, 1.0, 0.0),
    "IwasawaPoint-y-overflow": lambda: IwasawaPoint(0.0, 10**400, 0.0),
    "IwasawaPoint-fraction-overflow": lambda: IwasawaPoint(Fraction(10**400, 3), 1.0, 0.0),
    "kappa_eta-nan": lambda: GAUSS.kappa_eta(math.nan),
    "kappa_eta-inf": lambda: GAUSS.kappa_eta(math.inf),
    "bound_constant-eta-200": lambda: bound_constant(200.0),
    "kappa_eta-1000": lambda: GAUSS.kappa_eta(1000.0),
    "cusp_bound-eta-200": lambda: cusp_bound(GAUSS, GAUSS, y=1.0, eta=200.0),
    "WeylSumSpec-N-float": lambda: WeylSumSpec(N=1.5),
    "WeylSumSpec-N-bool": lambda: WeylSumSpec(N=True),
    "weyl_values_batch-N-float": lambda: weyl_values_batch([0.3], PAIR, 2.5),
    "simulate_weyl_tail-N-float": lambda: simulate_weyl_tail(Fraction(1, 3), N=2.5, n_samples=10),
    "simulate_weyl_tail-n_samples-float": lambda: simulate_weyl_tail(Fraction(1, 3), N=10, n_samples=10.5),
    "simulate_weyl_tail-workers-float": lambda: simulate_weyl_tail(Fraction(1, 3), N=10, n_samples=10, workers=1.5),
    "simulate_theta_tail-n_samples-bool": lambda: simulate_theta_tail(Fraction(1, 3), n_samples=True),
    "simulate_weyl_tail-seed-float": lambda: simulate_weyl_tail(Fraction(1, 3), N=10, n_samples=10, seed=1.5),
    "simulate_theta_tail-seed-float": lambda: simulate_theta_tail(Fraction(1, 3), n_samples=10, seed=1.5),
    "simulate_theta_tail-seed-bool": lambda: simulate_theta_tail(Fraction(1, 3), n_samples=10, seed=True),
    "factorize-float": lambda: factorize(1.5),
    "factorize-bool": lambda: factorize(True),
    "table_reciprocal_C-float": lambda: table_reciprocal_C(1.5),
    "default_thresholds-count-float": lambda: default_thresholds(1.5, 6, 2.5),
}

BIG = 10**5000
# each scalar parameter at 10^5000, -10^5000 and 10^5000/3: past Python's
# 4300-digit int-to-str limit and too large for a float. q = 10^5000 is
# valid for split_two_power and left out, and 10^5000 + 1 stands in for
# 10^5000 = 2^5000 5^5000 where factorize would take it.
SCALAR_PARAMETERS = [
    ("factorize-n", factorize, (BIG + 1, -BIG, Fraction(BIG, 3))),
    ("split_two_power-q", split_two_power, (-BIG, Fraction(BIG, 3))),
    ("chunk_generator-seed", lambda v: chunk_generator(v, 0), None),
    ("chunk_generator-index", lambda v: chunk_generator(0, v), None),
    ("run_chunks-workers", lambda v: run_chunks(10, lambda *job: job, v), None),
    ("MuAbSampler-q", lambda v: MuAbSampler(Fraction(1, v)), None),
    ("MuAbSampler-seed", lambda v: MuAbSampler(PAIR, seed=v), None),
    ("MuAbSampler.chunk-count", lambda v: MuAbSampler(PAIR).chunk(0, v), None),
    ("MuAbSampler.draw-n", lambda v: MuAbSampler(PAIR).draw(v), None),
    ("WeylSumSpec-N", lambda v: weyl_sum(0.3, WeylSumSpec(N=v)), None),
    ("weyl_values_batch-r", lambda v: weyl_values_batch([0.3], PAIR, 10, r=v), None),
    ("default_thresholds-count", lambda v: default_thresholds(1.5, 6, v), None),
    ("default_thresholds-lo", lambda v: default_thresholds(v, 6, 5), None),
    ("simulate_weyl_tail-n_samples", lambda v: simulate_weyl_tail(PAIR, N=10, n_samples=v), None),
    ("simulate_weyl_tail-seed", lambda v: simulate_weyl_tail(PAIR, N=10, n_samples=10, seed=v), None),
    ("simulate_weyl_tail-thresholds", lambda v: simulate_weyl_tail(PAIR, N=10, n_samples=10, thresholds=[v]), None),
    ("simulate_weyl_tail-workers", lambda v: simulate_weyl_tail(PAIR, N=10, n_samples=10, workers=v), None),
    ("simulate_theta_tail-workers", lambda v: simulate_theta_tail(PAIR, n_samples=10, workers=v), None),
    ("table_reciprocal_C-q_max", table_reciprocal_C, None),
    ("enumerate_orbit-cap", lambda v: enumerate_orbit(PAIR, cap=v), None),
    ("orbit_representatives-q", orbit_representatives, (BIG + 1, -BIG, Fraction(BIG, 3))),
    ("IwasawaPoint-x", lambda v: IwasawaPoint(v, 1.0, 0.0), None),
    ("IwasawaPoint-y", lambda v: IwasawaPoint(0.0, v, 0.0), None),
    ("IwasawaPoint-xi2", lambda v: IwasawaPoint(0.0, 1.0, 0.0, 0.0, v), None),
    ("kappa_eta-eta", GAUSS.kappa_eta, None),
    ("sharp_indicator_weight-r", sharp_indicator_weight, None),
    ("f_phi_numeric-tol", lambda v: f_phi_numeric(GAUSS, 0.7, 0.3, tol=v), None),
    ("theta_f-tol", lambda v: theta_f(GAUSS, POINT, tol=v), None),
    ("bound_constant-eta", bound_constant, None),
    ("cusp_bound-y", lambda v: cusp_bound(GAUSS, GAUSS, y=v, eta=2.0), None),
    ("D_rat_closed-r", D_rat_closed, None),
    ("tail_constant-r", lambda v: tail_constant(PAIR, r=v), None),
    ("D_rat_numeric-tol", lambda v: D_rat_numeric(GAUSS, GAUSS, tol=v), None),
]
for parameter, call, values in SCALAR_PARAMETERS:
    for label, value in zip(("big", "minus-big", "big-over-3"), values or (BIG, -BIG, Fraction(BIG, 3))):
        REJECTED[f"{parameter}-{label}"] = lambda call=call, value=value: call(value)
REJECTED.update({
    "chunk_generator-index-float": lambda: chunk_generator(0, 1.5),
    "chunk_generator-index-bool": lambda: chunk_generator(0, True),
    "enumerate_orbit-cap-None": lambda: enumerate_orbit(PAIR, cap=None),
    "enumerate_orbit-cap-0": lambda: enumerate_orbit(PAIR, cap=0),
    "split_two_power-float": lambda: split_two_power(2.5),
})


@pytest.mark.parametrize("call", list(REJECTED.values()), ids=list(REJECTED))
def test_scalar_entry_points_reject_non_finite_or_out_of_range_input(call):
    with pytest.raises(InvalidArgumentError) as caught:
        call()
    # one line, short: no value is printed in full
    message = str(caught.value)
    assert "\n" not in message and len(message) < 200


def test_cusp_bound_names_a_non_finite_eta():
    # eta is checked before a weight reads it, so the error names eta, not
    # the weights
    for eta in (math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match="eta must be finite"):
            cusp_bound(GAUSS, GAUSS, y=1.0, eta=eta)


def test_counts_accept_numpy_integers():
    assert WeylSumSpec(N=np.int64(7)).N == 7
    assert factorize(np.int64(12)) == {2: 2, 3: 1}
    assert len(table_reciprocal_C(np.int32(5))) == 5
    assert default_thresholds(1.5, 6.0, np.int64(4)).size == 4
    assert weyl_values_batch([0.3], PAIR, np.int64(10)).shape == (1,)
    for simulate in (simulate_weyl_tail, simulate_theta_tail):
        runs = [
            simulate(Fraction(1, 3), n_samples=10, seed=s, keep_values=True)
            for s in (np.uint32(3), 3)
        ]
        assert np.array_equal(runs[0].values, runs[1].values)
