"""The theta-group oracles: exact elements and their action on Iwasawa
coordinates, which the invariance tests of the pairing rest on."""

import ast
import cmath
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import (
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMA4,
    IDENTITY,
    GammaElement,
    act_on_iwasawa,
    wrap_angle,
)
from theta_tails import InvalidArgumentError, IwasawaPoint

LETTERS = [GAMMA1, GAMMA2, GAMMA3, GAMMA4]
LETTERS += [g.inverse() for g in LETTERS]

words = st.lists(st.integers(min_value=0, max_value=7), max_size=12)


def compose(indices):
    g = IDENTITY
    for i in indices:
        g = g * LETTERS[i]
    return g


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "the walk found no import at all"
    bad = [m for m in imported if m.startswith(".") or m.split(".")[0] == "theta_tails"]
    assert bad == []


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
    with pytest.raises(ValueError):
        GammaElement(1, 1, 0, 1)  # b*d odd
    with pytest.raises(ValueError):
        GammaElement(1, 0, 1, 1)  # a*c odd
    with pytest.raises(ValueError):
        GammaElement(2, 0, 0, 1)  # determinant 2


def test_membership_predicate():
    for a, b, c, d in [(1, 2, 0, 1), (0, -1, 1, 0), (1, 0, 2, 1)]:
        g = GammaElement(a, b, c, d)
        assert (g.a, g.b, g.c, g.d) == (a, b, c, d)
    with pytest.raises(ValueError):
        GammaElement(1, 1, 1, 2)  # parity fails, det 1


# ---------------------------------------------------------------------------
# upper-half-plane action on (x, y, phi, xi1, xi2)

points = st.tuples(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.05, max_value=20),
    st.floats(min_value=-6, max_value=6),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
)


@given(words, points)
def test_moebius_action_on_z(idx, pt):
    g = compose(idx)
    x, y, phi, _, _ = pt
    out = act_on_iwasawa(g, pt)
    z = complex(x, y)
    w = g.c * z + g.d
    expect = (g.a * z + g.b) / w
    assert cmath.isclose(complex(out[0], out[1]), expect, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(out[1], y / abs(w) ** 2, rel_tol=1e-12)
    assert math.isclose(wrap_angle(out[2]), wrap_angle(phi + cmath.phase(w)), abs_tol=1e-12)


@given(words, words, points)
def test_action_is_compatible_with_composition(i1, i2, pt):
    g1, g2 = compose(i1), compose(i2)
    once = act_on_iwasawa(g1 * g2, pt)
    twice = act_on_iwasawa(g1, act_on_iwasawa(g2, pt))
    z_once, z_twice = complex(once[0], once[1]), complex(twice[0], twice[1])
    assert cmath.isclose(z_once, z_twice, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(once[3], twice[3], rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(once[4], twice[4], rel_tol=1e-9, abs_tol=1e-9)
    # phases agree up to the 2 pi ambiguity of arg accumulation
    d = (once[2] - twice[2]) / (2 * math.pi)
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
