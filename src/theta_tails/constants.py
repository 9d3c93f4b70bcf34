"""Closed-form tail constants and the variance integral behind them.

The heavy-tail coefficient factors as T = C(q) * D / pi^2. C(q) is a
purely arithmetic rational depending on the denominator q = 2^l m (m odd)
and on the parities of the numerators: the orbit's (2|U| + |V|)/|S|, which
orbits.leading_constant gives in closed form. D is an integral over the
circle of the paired transformed weights at the origin,

    D(f1, f2) = integral over (0, pi) of |f1_phi(0)|^2 |f2_phi(0)|^2 dphi.

For the Gaussian pair D = pi exactly; for the pair (chi_1, chi_r) of sharp
cutoffs it has the elementary closed form D_rat_closed below. The numerical
evaluator integrates the Fresnel moduli on a mesh graded like the local
oscillation frequency, which stays cheap even though half the oscillations
crowd each endpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import RationalPair, normalize_pair
from .errors import InvalidArgumentError, check_integer, check_real
from .orbits import leading_constant

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def table_reciprocal_C(q_max: int) -> list[Fraction]:
    """1/C(q) for q = 1..q_max under the generic-numerator convention.

    Each entry is 1/leading_constant of the pair (1/q, 0), whose numerators
    never trigger the vanishing l = 1 case, so every entry is finite:
    psi(m)/2 for l <= 1 and 2^(l-1) psi(m) for l >= 2. q_max is an
    integer from 1 to 10^12, the range where factorize takes every q.
    """
    check_integer("q_max", q_max, 1, 10**12)
    return [1 / leading_constant(normalize_pair(Fraction(1, q), 0)) for q in range(1, q_max + 1)]


def D_rat_closed(r: float) -> float:
    """D(chi_1, chi_r) in closed form for finite r >= 1.

    2 log 2 at r = 1; for r > 1,
    2 r acoth(r) + (1/2) log(r^2 - 1) + (r^2/2) log(1 - 1/r^2).
    Continuous as r -> 1+ (the last two terms cancel in the limit). For
    large r it is log r + 3/2 - r^-2/12 - r^-4/60 - ...; past r = 1e6 the
    first three terms of that series are used, whose error is below the
    rounding, so r^2 (which overflows above about 1.3e154) is never formed.
    """
    check_real("r", r, 1)
    if r == 1.0:
        return 2.0 * math.log(2.0)
    if r > 1e6:
        return math.log(r) + 1.5 - (1.0 / r) ** 2 / 12.0
    return (
        2.0 * r * math.atanh(1.0 / r)
        + 0.5 * math.log(r * r - 1.0)
        + 0.5 * r * r * math.log1p(-1.0 / (r * r))
    )


def D_rat_numeric(w1, w2, tol: float = 1e-4) -> float:
    """D(f1, f2) by quadrature, independent of the closed forms.

    Every pair takes one graded mesh. The integral over (eps, pi - eps) is
    done by Gauss-Legendre panels holding about one Fresnel cycle each: a
    sharp cutoff oscillates like rate * cot(phi) near the endpoints, where
    rate is the sum of the two weights' declared oscillation_rate. A pair
    with rate 0 takes panels of width 0.05. The omitted endpoint mass, at
    most 2 eps times the weights' edge bounds, is absorbed into tol.
    """
    tol = check_real("tol", tol, 0, strict=True)
    edge = w1.edge_sq_bound * w2.edge_sq_bound
    eps = min(1e-3, tol / (8.0 * edge))
    if eps >= 0.25 * math.pi:
        raise InvalidArgumentError(f"tol={tol} leaves no integration interval")
    rate = w1.oscillation_rate + w2.oscillation_rate

    # integrand is even about pi/2 for real weights (moduli depend on |cot|)
    panels = [eps]
    phi = eps
    while phi < 0.5 * math.pi:
        s = math.sin(phi)
        step = max(1e-9, min(0.05, 2.0 * s * s / rate)) if rate else 0.05
        phi = min(phi + step, 0.5 * math.pi)
        panels.append(phi)
    edges = np.asarray(panels)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    v1 = np.abs(w1.f_phi0_values(nodes)) ** 2
    v2 = np.abs(w2.f_phi0_values(nodes)) ** 2
    return 2.0 * float(np.dot(weights, v1 * v2))


@dataclass(frozen=True)
class TailConstant:
    """Heavy-tail coefficient T = C(q) * D / pi^2 with its factors."""

    pair: RationalPair
    r: float
    c_of_q: Fraction
    d_rat: float
    value: float


def tail_constant(alpha, beta=0, r: float = 1.0) -> TailConstant:
    """Coefficient of R^-4 in the survival function of |S_N conj(S_rN)|/N."""
    pair = normalize_pair(alpha, beta)
    c = leading_constant(pair)
    d = D_rat_closed(r)
    return TailConstant(
        pair=pair, r=float(r), c_of_q=c, d_rat=d, value=float(c) * d / math.pi**2
    )

