"""The affine theta group: elements, generators, and their action.

Elements are pairs (M, v) of a unimodular integer matrix with even products
ac and bd, and an integer shift vector. They act on Iwasawa coordinates
(z, phi; xi) by the Moebius map on z, with phi advanced by arg(cz + d) and
xi sent to v + M xi.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class GammaElement:
    """Group element ((a, b; c, d); (v1, v2)) with det = 1 and ac, bd even."""

    a: int
    b: int
    c: int
    d: int
    v1: int = 0
    v2: int = 0

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise InvalidArgumentError("matrix must be unimodular")
        if (self.a * self.c) % 2 or (self.b * self.d) % 2:
            raise InvalidArgumentError("matrix is not in the theta group")

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        # (M, v)(M', v') = (MM', v + Mv'), all integer exact
        a, b, c, d = self.a, self.b, self.c, self.d
        return GammaElement(
            a * other.a + b * other.c,
            a * other.b + b * other.d,
            c * other.a + d * other.c,
            c * other.b + d * other.d,
            self.v1 + a * other.v1 + b * other.v2,
            self.v2 + c * other.v1 + d * other.v2,
        )

    def inverse(self) -> "GammaElement":
        a, b, c, d = self.a, self.b, self.c, self.d
        # M^-1 = (d, -b; -c, a); shift maps to -M^-1 v
        return GammaElement(
            d, -b, -c, a, -(d * self.v1 - b * self.v2), -(-c * self.v1 + a * self.v2)
        )


IDENTITY = GammaElement(1, 0, 0, 1)
# the standard generators: inversion, translation by 2, the two shifts
GAMMA1 = GammaElement(0, -1, 1, 0)
GAMMA2 = GammaElement(1, 2, 0, 1)
GAMMA3 = GammaElement(1, 0, 0, 1, 1, 0)
GAMMA4 = GammaElement(1, 0, 0, 1, 0, 1)


@dataclass(frozen=True)
class IwasawaPoint:
    """Coordinates (x + iy, phi; xi1, xi2), each finite, with y > 0; other
    input raises InvalidArgumentError."""

    x: float
    y: float
    phi: float
    xi1: float = 0.0
    xi2: float = 0.0

    def __post_init__(self):
        # one coordinate at a time: a sum of large finite values overflows
        coords = (self.x, self.y, self.phi, self.xi1, self.xi2)
        try:
            ok = all(map(math.isfinite, coords)) and self.y > 0
        except OverflowError:  # an int or Fraction too large for a float
            ok = False
        if not ok:
            raise InvalidArgumentError(f"coordinates must be finite with y > 0, got {coords}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def act_on_iwasawa(g: GammaElement, pt: IwasawaPoint) -> IwasawaPoint:
    """Moebius action on z, shear on phi, affine action on xi.

    phi accumulates the principal arg(cz + d); callers that need a canonical
    representative reduce mod 2 pi themselves.
    """
    z = pt.z
    w = g.c * z + g.d
    z2 = (g.a * z + g.b) / w
    return IwasawaPoint(
        x=z2.real,
        y=z2.imag,
        phi=pt.phi + cmath.phase(w),
        xi1=g.v1 + g.a * pt.xi1 + g.b * pt.xi2,
        xi2=g.v2 + g.c * pt.xi1 + g.d * pt.xi2,
    )


def wrap_angle(phi: float) -> float:
    """Reduce an angle into [0, 2 pi)."""
    out = phi % (2 * math.pi)
    # fmod can return 2 pi itself after rounding
    return 0.0 if out >= 2 * math.pi else out
