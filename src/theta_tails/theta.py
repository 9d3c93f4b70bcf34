"""Jacobi theta functions with weights transported along the circle action.

A weight f on the real line is carried to f_phi by the oscillator
representation of the rotation by phi. The convention used throughout:

    f_phi = e(sigma_{-phi}/8) R(k_phi) f,

where R(k_phi) is the plain integral operator (f itself at phi = 0, the
reflection f(-w) at phi = pi, the normalized Fresnel-kernel transform in
between) and sigma_phi is the integer staircase 2*nu at phi = nu*pi and
2*nu + 1 strictly between nu*pi and (nu+1)*pi. With that phase the map
phi -> f_phi is continuous, and f_{phi+pi}(w) = e(-1/4) f_phi(-w).

The theta function built from a weight,

    Theta_f(z, phi; xi, zeta) = y^{1/4} e(zeta - xi1 xi2 / 2)
        * sum_n f_phi((n - xi2) sqrt(y)) e((n - xi2)^2 x / 2 + n xi1),

is evaluated with the same error-free phase reduction as the Weyl sums, so
the identity relating it to S_N^f holds to near machine precision in tests.

The Gaussian weight is special-cased: its transform is again the Gaussian
times a w-independent unimodular constant c(phi). This module drops c(phi)
away from multiples of pi (it cancels in every pairing |Theta_f conj
Theta_f| and in all moduli), and keeps the exact value e(-k/4) exp(-pi w^2)
at phi = k pi, so mixed pairings at those angles are exact too.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericFailureError,
    UnsupportedOperationError,
)
from .thetagroup import IwasawaPoint
from .weylsum import _unit_phasor, check_x_range, frac, reduced_product, two_prod

_TWO_PI = 2.0 * math.pi
_PI_MULTIPLE_TOL = 1e-9


def _pi_multiple(phi: float):
    """Nearest integer k with phi ~ k*pi, or None if phi is not that close."""
    k = round(phi / math.pi)
    if abs(phi - k * math.pi) < _PI_MULTIPLE_TOL:
        return k
    return None


def sigma_phi(phi: float) -> int:
    """Maslov-type index: 2*nu at phi = nu*pi, 2*nu + 1 on (nu*pi, (nu+1)*pi)."""
    k = _pi_multiple(phi)
    if k is not None:
        return 2 * k
    return 2 * math.floor(phi / math.pi) + 1


def _e(t: float) -> complex:
    return cmath.exp(2j * math.pi * t)


class WeightFunction:
    """Base class for weights; subclasses fill in the transform data, of
    f_phi only its value off pi*Z.

    regular means eta-regular for some eta > 1: bounded kappa_eta, so the
    cusp estimate applies. The sharp indicator is the standard non-regular
    example.
    """

    name = "weight"
    regular = False
    eta = 2.0

    def evaluate(self, w):
        raise NotImplementedError

    def support_radius(self, tol: float) -> float:
        """W such that |f(w)| <= tol for |w| > W (may ignore tol if compact)."""
        raise NotImplementedError

    def kappa_eta(self, eta: float | None = None) -> float:
        """sup over phi, w of (1 + w^2)^(eta/2) |f_phi(w)|."""
        raise NotImplementedError

    def f_phi(self, phi: float, w):
        """Transformed weight at angle phi, vectorized in w: exactly
        e(-k/4) f((-1)^k w) at phi = k pi, else _f_phi_off_pi(phi, w)."""
        k = _pi_multiple(phi)
        if k is None:
            return self._f_phi_off_pi(phi, w)
        sign = 1.0 if k % 2 == 0 else -1.0
        vals = self.evaluate(sign * np.asarray(w, dtype=np.float64)).astype(np.complex128)
        if k % 4:
            vals *= _e(-k / 4.0)
        return vals

    def _f_phi_off_pi(self, phi: float, w):
        raise NotImplementedError

    def f_phi_modulus(self, phi: float, w):
        return np.abs(self.f_phi(phi, w))

    def f_phi0_values(self, phis: np.ndarray) -> np.ndarray:
        """f_phi(0) for an array of angles (closed form, complex)."""
        raise NotImplementedError

    def f_phi0_value(self, phi: float) -> complex:
        return complex(self.f_phi0_values(np.asarray([phi]))[0])

    # crude upper bound for |f_phi(0)|^2 as phi -> 0 or pi, used to pick the
    # endpoint cutoff when integrating |f_phi(0)|^2 d(phi) numerically
    edge_sq_bound = 1.0


class GaussianWeight(WeightFunction):
    """f(w) = exp(-pi w^2); fixed point of the transform up to phase.

    f_phi differs from exp(-pi w^2) only by the unimodular c(phi), which this
    class drops except at phi in pi*Z where the exact value e(-k/4) f(w) is
    returned. All moduli are exact for every phi.
    """

    name = "gaussian"
    regular = True

    def evaluate(self, w):
        return np.exp(-math.pi * np.square(w))

    def support_radius(self, tol: float) -> float:
        if tol >= 1.0:
            return 0.0
        return math.sqrt(math.log(1.0 / tol) / math.pi)

    def kappa_eta(self, eta: float | None = None) -> float:
        eta = self.eta if eta is None else eta
        # maximize (1+w^2)^(eta/2) exp(-pi w^2): interior critical point
        # exists only when eta > 2 pi
        if eta <= _TWO_PI:
            return 1.0
        return (eta / _TWO_PI) ** (eta / 2.0) * math.exp(math.pi - eta / 2.0)

    def _f_phi_off_pi(self, phi: float, w):
        return self.evaluate(w).astype(np.complex128)

    def f_phi_modulus(self, phi: float, w):
        return np.exp(-math.pi * np.square(w))

    def f_phi0_values(self, phis: np.ndarray) -> np.ndarray:
        phis = np.asarray(phis, dtype=np.float64)
        k = np.round(phis / math.pi)
        near = np.abs(phis - k * math.pi) < _PI_MULTIPLE_TOL
        out = np.ones(phis.shape, dtype=np.complex128)
        out[near] = np.exp(-0.5j * math.pi * k[near])
        return out

    edge_sq_bound = 1.0


class SharpIndicatorWeight(WeightFunction):
    """f = indicator of (0, r]; compactly supported, not eta-regular.

    The transform has no elementary closed form off pi*Z except at w = 0,
    where it is a Fresnel integral; f_phi at general (phi, w) is therefore
    unsupported (use f_phi_numeric for a quadrature evaluation).
    """

    name = "indicator"
    regular = False
    eta = None

    def __init__(self, r: float = 1.0):
        if not (r >= 1.0) or not math.isfinite(r):
            raise InvalidArgumentError(f"indicator radius must satisfy r >= 1, got {r}")
        self.r = float(r)
        self.name = f"indicator({r:g})"

    def evaluate(self, w):
        w = np.asarray(w, dtype=np.float64)
        return ((w > 0.0) & (w <= self.r)).astype(np.float64)

    def support_radius(self, tol: float) -> float:
        return self.r

    def kappa_eta(self, eta: float | None = None) -> float:
        return math.inf

    def _f_phi_off_pi(self, phi: float, w):
        raise UnsupportedOperationError(
            "sharp indicator transform is only closed-form at multiples of pi"
        )

    def f_phi0_values(self, phis: np.ndarray) -> np.ndarray:
        """chi_{r,phi}(0) = e(sigma_{-phi}/8) |sin phi|^{-1/2} I(cot phi),

        I(u) = integral over (0, r] of exp(i pi u v^2) dv, a Fresnel integral.
        Value 0 at phi in pi*Z (there chi_phi(0) = chi(0) = 0).
        """
        from scipy.special import fresnel  # only here, to keep the package import light

        phis = np.asarray(phis, dtype=np.float64)
        k = np.round(phis / math.pi)
        near = np.abs(phis - k * math.pi) < _PI_MULTIPLE_TOL
        s = np.sin(phis)
        c = np.cos(phis)
        safe_s = np.where(near, 1.0, s)
        u = c / safe_s
        flat = np.abs(u) < 1e-14
        scale = np.sqrt(2.0 * np.abs(np.where(flat, 1.0, u)))
        fs, fc = fresnel(self.r * scale)
        integral = np.where(
            flat, complex(self.r), (fc + 1j * np.sign(u) * fs) / scale
        )
        # sigma_{-phi} = 2*floor(-phi/pi) + 1 off multiples of pi
        sig = 2.0 * np.floor(-phis / math.pi) + 1.0
        out = np.exp(0.25j * math.pi * sig) * integral / np.sqrt(np.abs(safe_s))
        out[near] = 0.0
        return out

    # |I|^2 <= (C^2+S^2)/(2|cot|) with C^2+S^2 < 0.75 once the Fresnel
    # argument exceeds 3, so |f_phi(0)|^2 = |I|^2/|sin| < 0.38 near 0 and pi
    edge_sq_bound = 0.40


def gaussian_weight() -> GaussianWeight:
    return GaussianWeight()


def sharp_indicator_weight(r: float = 1.0) -> SharpIndicatorWeight:
    return SharpIndicatorWeight(r=r)


def f_phi_numeric(
    weight: WeightFunction, phi: float, w: float, tol: float = 1e-9
) -> complex:
    """Quadrature evaluation of f_phi(w) straight from the defining integral.

    Exact dispatch at multiples of pi. Away from them the kernel oscillates
    like 1/sin(phi); intended as a cross-check at moderate angles, with a
    NumericFailureError if the integrator cannot certify tol.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tol must be positive, got {tol}")
    from scipy.integrate import quad  # only here, to keep the package import light

    k = _pi_multiple(phi)
    if k is not None:
        sign = 1.0 if k % 2 == 0 else -1.0
        val = complex(float(weight.evaluate(np.asarray([sign * w]))[0]))
        return val * _e(-k / 4.0) if k % 4 else val
    s = math.sin(phi)
    c = math.cos(phi)
    radius = weight.support_radius(1e-16)
    lo, hi = -radius, radius
    if isinstance(weight, SharpIndicatorWeight):
        lo = 0.0

    def integrand_re(v):
        ph = _TWO_PI * ((0.5 * (w * w + v * v) * c - w * v) / s)
        return float(weight.evaluate(np.asarray([v]))[0]) * math.cos(ph)

    def integrand_im(v):
        ph = _TWO_PI * ((0.5 * (w * w + v * v) * c - w * v) / s)
        return float(weight.evaluate(np.asarray([v]))[0]) * math.sin(ph)

    re, re_err = quad(integrand_re, lo, hi, epsabs=tol / 4, epsrel=0.0, limit=800)
    im, im_err = quad(integrand_im, lo, hi, epsabs=tol / 4, epsrel=0.0, limit=800)
    if re_err + im_err > tol:
        raise NumericFailureError(
            f"oscillatory quadrature for f_phi stalled at error {re_err + im_err:.2e}"
        )
    return _e(sigma_phi(-phi) / 8.0) / math.sqrt(abs(s)) * complex(re, im)


def _lattice_range(xi2: float, y: float, radius: float):
    sq = math.sqrt(y)
    lo = math.ceil(xi2 - radius / sq)
    hi = math.floor(xi2 + radius / sq)
    return lo, hi


def theta_f(
    weight: WeightFunction,
    point: IwasawaPoint,
    zeta: float = 0.0,
    tol: float = 1e-12,
) -> complex:
    """Theta_f(z, phi; xi, zeta) with phase-exact lattice summation.

    Truncation keeps every n with |(n - xi2) sqrt(y)| inside the weight's
    own decay radius at level tol * min(1, sqrt(y))/8, which bounds the
    dropped tail by tol. For the Gaussian away from pi*Z the value carries
    the usual w-independent unimodular ambiguity; see the module docstring.
    x, xi1 and xi2 must be below 2^30 in size (check_x_range), and the
    phase error grows like their size times 2^-52 turns; other input
    raises InvalidArgumentError.
    """
    if not 0 < tol < math.inf:
        raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")
    x, y = point.x, point.y
    xi1, xi2 = float(point.xi1), float(point.xi2)
    check_x_range(x=x, xi1=xi1, xi2=xi2)
    term_tol = tol * min(1.0, math.sqrt(y)) / 8.0
    radius = weight.support_radius(term_tol)
    lo, hi = _lattice_range(xi2, y, radius)
    prefactor = y**0.25 * _e(frac(np.float64(zeta)) - 0.5 * xi1 * xi2)
    if lo > hi:
        return 0.0 * prefactor
    k0 = float(round(xi2))
    t = xi2 - k0  # |t| <= 1/2 + tiny, exact subtraction
    ms = np.arange(lo - k0, hi - k0 + 1.0)  # n - k0 as exact small floats
    w = (ms - t) * math.sqrt(y)
    fvals = weight.f_phi(point.phi, w)
    # (n - xi2)^2 x / 2 = m^2 x/2 - m (t x) + t^2 x / 2 with m = n - k0
    theta = reduced_product(0.5 * ms * ms, np.float64(x))
    tx, tx_err = two_prod(np.float64(t), np.float64(x))
    theta -= reduced_product(ms, tx) + ms * tx_err
    theta += frac(np.float64(0.5 * t * t * x))
    # n xi1 = (k0 + m) xi1
    theta += reduced_product(ms, np.float64(xi1))
    theta += reduced_product(np.float64(k0), np.float64(xi1))
    ang = _TWO_PI * frac(theta)
    total = np.sum(fvals * (np.cos(ang) + 1j * np.sin(ang)))
    return complex(prefactor * total)


def theta_pair(
    w1: WeightFunction, w2: WeightFunction, point: IwasawaPoint
) -> complex:
    """Theta_{f1}(point) * conj(Theta_{f2}(point)); zeta-free by construction.

    The modulus is exact for Gaussian weights at every phi; the complex
    phase is meaningful when both transforms are exact (phi in pi*Z, or
    phi = 0 for mixed pairs).
    """
    return theta_f(w1, point) * theta_f(w2, point).conjugate()


# a side keeps its recurrence past j = +-1 only while its j = +-2 term,
# exp(-2 pi y (1 + a)) of the anchor, is above exp(-43)
_CHAIN_CUT = 43.0 / _TWO_PI
# samples per pass; the temporaries of one block stay in a core's L2 cache
_BATCH_BLOCK = 8192
# the batch sums the lattice terms n = k0 + j, |j| <= _HALFWIDTH
_HALFWIDTH = 6


def theta_pair_gaussian_batch(
    x: np.ndarray,
    y: np.ndarray,
    xi1: np.ndarray,
    xi2: np.ndarray,
) -> np.ndarray:
    """|Theta_f conj Theta_f| for the Gaussian pair, vectorized over samples.

    Equals sqrt(y) |sum_n exp(-pi (n-xi2)^2 y) e((n-xi2)^2 x/2 + n xi1)|^2,
    independent of phi, summed over the fixed 13 terms n = k0 + j, |j| <= 6,
    around k0 = round(xi2).

    Valid range: finite y >= 1/2 and x, xi1, xi2 below 2^30 in size
    (check_x_range); anything else raises InvalidArgumentError.
    With t = xi2 - k0 in [-1/2, 1/2], term j is exp(-pi y j (j - 2t)) times
    the anchor j = 0 in modulus, so at y >= 1/2 the first dropped term
    (|j| = 7) is below exp(-66) = 2e-29 of it. The sampler's points lie in that range:
    conjugate_horoball moves the points of the horoball |z - 1| < 1 to
    |x| < 1/2 and y > sqrt(3)/2, and the rest of F lies above y = sqrt(3)/2.

    Evaluation walks outward from the anchor on both sides by complex
    multiplication, z *= w; w *= c. The first ratios are
    w_up = exp(-pi y a) e(x a/2 + xi1) with a = 1 - 2t and
    w_down = exp(-pi y b) e(x b/2 - xi1) with b = 1 + 2t, and
    c = w_up w_down = exp(-2 pi y) e(x). Each ratio has modulus <= 1, so
    large y underflows to 0 and nothing overflows. The anchor's phase drops
    out of the modulus, and its size exp(-2 pi t^2 y) multiplies the result
    as one real factor. The ratios' unit phasors come from the Weyl
    kernel's _unit_phasor, which reduces each phase exactly to within 1/8
    turn before cos and sin and applies the quarter turn exactly; the real
    factors then scale them. A side's terms past j = +-1 are dropped where
    its j = +-2 term is below exp(-43) = 2e-19 of the anchor; at |j| <= 6
    every kept term then stays above exp(-645), clear of slow subnormal
    arithmetic. Against the plain 13-term sum the result agrees to about
    1e-15 (1 + value) at |x| ~ 1.
    The ratio phases x a/2 and x b/2 round to about |x| 2^-53 turns, so the
    deviation grows in proportion to |x|: against theta_pair at y = 0.9,
    xi = (0.3, 0.2) it is 3e-12 at x = 2^20 + 0.3 and 1e-8 at x = 2^30 - 0.7.
    """
    x, y, xi1, xi2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (x, y, xi1, xi2))
    )
    check_x_range(x=x, xi1=xi1, xi2=xi2)
    if not (np.isfinite(y).all() and (y >= 0.5).all()):
        raise InvalidArgumentError("theta batch needs finite y >= 1/2")
    shape = x.shape
    x, y, xi1, xi2 = (v.ravel() for v in (x, y, xi1, xi2))
    out = np.empty(x.size)
    for start in range(0, x.size, _BATCH_BLOCK):
        part = slice(start, start + _BATCH_BLOCK)
        out[part] = _theta_block(x[part], y[part], xi1[part], xi2[part])
    return out.reshape(shape)


def _theta_block(x, y, xi1, xi2):
    t = xi2 - np.round(xi2)
    side = np.stack((1.0 - 2.0 * t, 1.0 + 2.0 * t))  # a, b
    turns = 0.5 * x * side
    turns[0] += xi1
    turns[1] -= xi1
    w = np.empty(side.shape, dtype=np.complex128)
    _unit_phasor(turns, w)
    mag = np.exp(-math.pi * y * side)
    w.real *= mag
    w.imag *= mag
    step = (w[0] * w[1]) * (y * (1.0 + side) <= _CHAIN_CUT)
    z = w.copy()
    acc = z[0] + z[1]
    acc += 1.0
    for _ in range(_HALFWIDTH - 1):
        w *= step
        z *= w
        acc += z[0]
        acc += z[1]
    return np.sqrt(y) * np.exp(-_TWO_PI * t * t * y) * (acc.real**2 + acc.imag**2)


def cusp_main_term(
    w1: WeightFunction, w2: WeightFunction, point: IwasawaPoint
) -> float:
    """Modulus of the dominant lattice term sqrt(y) f1_phi(-th) conj(f2_phi(-th)).

    th = (xi2 - nearest integer) * sqrt(y), the single summand that survives
    high in the cusp.
    """
    theta = (float(point.xi2) - round(float(point.xi2))) * math.sqrt(point.y)
    m1 = float(w1.f_phi_modulus(point.phi, np.asarray([-theta]))[0])
    m2 = float(w2.f_phi_modulus(point.phi, np.asarray([-theta]))[0])
    return math.sqrt(point.y) * m1 * m2


def bound_constant(eta: float) -> float:
    """C_eta = 2^(6 eta) zeta(eta)^2 in the cusp approximation estimate,
    for finite eta > 1."""
    if not 1 < eta < math.inf:
        raise InvalidArgumentError(f"eta must be finite and exceed 1, got {eta}")
    from scipy.special import zeta  # only here, to keep the package import light

    return 2.0 ** (6.0 * eta) * float(zeta(eta, 1.0)) ** 2


def cusp_bound(
    w1: WeightFunction, w2: WeightFunction, y: float, eta: float | None = None
) -> float:
    """C_eta kappa_eta(f1) kappa_eta(f2) y^(-(eta-1)/2), valid for y >= 1/2."""
    if eta is None:
        etas = [e for e in (w1.eta, w2.eta) if e is not None]
        if not etas:
            raise InvalidArgumentError("no regularity exponent available")
        eta = min(etas)
    if not y >= 0.5:
        raise InvalidArgumentError(f"cusp estimate requires y >= 1/2, got y={y}")
    kappa = w1.kappa_eta(eta) * w2.kappa_eta(eta)
    if not math.isfinite(kappa):
        raise InvalidArgumentError("cusp estimate needs eta-regular weights")
    return bound_constant(eta) * kappa * y ** (-(eta - 1.0) / 2.0)
