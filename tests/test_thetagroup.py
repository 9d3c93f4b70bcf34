"""Exact group elements and their action on Iwasawa coordinates."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from theta_tails import (
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMA4,
    IDENTITY,
    GammaElement,
    InvalidArgumentError,
    IwasawaPoint,
    act_on_iwasawa,
    wrap_angle,
)

LETTERS = [GAMMA1, GAMMA2, GAMMA3, GAMMA4]
LETTERS += [g.inverse() for g in LETTERS]

words = st.lists(st.integers(min_value=0, max_value=7), max_size=12)


def compose(indices):
    g = IDENTITY
    for i in indices:
        g = g * LETTERS[i]
    return g


def test_generator_list_is_the_published_one():
    assert GAMMA1 == GammaElement(0, -1, 1, 0)
    assert GAMMA2 == GammaElement(1, 2, 0, 1)
    assert GAMMA3 == GammaElement(1, 0, 0, 1, 1, 0)
    assert GAMMA4 == GammaElement(1, 0, 0, 1, 0, 1)


@given(words)
def test_inverse_is_two_sided(idx):
    g = compose(idx)
    assert g * g.inverse() == IDENTITY
    assert g.inverse() * g == IDENTITY


@given(words, words)
def test_products_stay_in_the_group(i1, i2):
    g = compose(i1) * compose(i2)
    assert g.a * g.d - g.b * g.c == 1
    assert g.a * g.c % 2 == 0
    assert g.b * g.d % 2 == 0


@given(words, words, words)
def test_multiplication_is_associative(i1, i2, i3):
    g1, g2, g3 = compose(i1), compose(i2), compose(i3)
    assert (g1 * g2) * g3 == g1 * (g2 * g3)


def test_invalid_elements_are_rejected():
    with pytest.raises(InvalidArgumentError):
        GammaElement(1, 1, 0, 1)  # b*d odd
    with pytest.raises(InvalidArgumentError):
        GammaElement(1, 0, 1, 1)  # a*c odd
    with pytest.raises(InvalidArgumentError):
        GammaElement(2, 0, 0, 1)  # determinant 2


def test_membership_predicate():
    for a, b, c, d in [(1, 2, 0, 1), (0, -1, 1, 0), (1, 0, 2, 1)]:
        g = GammaElement(a, b, c, d)
        assert (g.a, g.b, g.c, g.d) == (a, b, c, d)
    with pytest.raises(InvalidArgumentError):
        GammaElement(1, 1, 1, 2)  # parity fails, det 1


# ---------------------------------------------------------------------------
# upper-half-plane action

points = st.builds(
    IwasawaPoint,
    x=st.floats(min_value=-3, max_value=3),
    y=st.floats(min_value=0.05, max_value=20),
    phi=st.floats(min_value=-6, max_value=6),
    xi1=st.floats(min_value=-2, max_value=2),
    xi2=st.floats(min_value=-2, max_value=2),
)


@given(words, points)
def test_moebius_action_on_z(idx, pt):
    g = compose(idx)
    out = act_on_iwasawa(g, pt)
    w = g.c * pt.z + g.d
    expect = (g.a * pt.z + g.b) / w
    assert cmath.isclose(out.z, expect, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(out.y, pt.y / abs(w) ** 2, rel_tol=1e-12)
    assert math.isclose(
        wrap_angle(out.phi), wrap_angle(pt.phi + cmath.phase(w)), abs_tol=1e-12
    )


@given(words, words, points)
def test_action_is_compatible_with_composition(i1, i2, pt):
    g1, g2 = compose(i1), compose(i2)
    once = act_on_iwasawa(g1 * g2, pt)
    twice = act_on_iwasawa(g1, act_on_iwasawa(g2, pt))
    assert cmath.isclose(once.z, twice.z, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(once.xi1, twice.xi1, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(once.xi2, twice.xi2, rel_tol=1e-9, abs_tol=1e-9)
    # phases agree up to the 2 pi ambiguity of arg accumulation
    d = (once.phi - twice.phi) / (2 * math.pi)
    assert abs(d - round(d)) < 1e-9


def test_iwasawa_point_requires_positive_y():
    with pytest.raises(InvalidArgumentError):
        IwasawaPoint(x=0.0, y=0.0, phi=0.0)


@given(st.floats(min_value=-50, max_value=50))
def test_wrap_angle_lands_in_the_period(phi):
    w = wrap_angle(phi)
    assert 0.0 <= w < 2 * math.pi
    d = (phi - w) / (2 * math.pi)
    assert abs(d - round(d)) < 1e-9
