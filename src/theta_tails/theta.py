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

takes its lattice phases from the Weyl sums' own exact path (a Weyl phase
in m = n - round(xi2)), so the identity relating it to S_N^f holds to near
machine precision in tests.

The Gaussian weight is special-cased: its transform is again the Gaussian
times a w-independent unimodular constant c(phi). This module drops c(phi)
away from multiples of pi (it cancels in every pairing |Theta_f conj
Theta_f| and in all moduli), and keeps the exact value e(-k/4) exp(-pi w^2)
at phi = k pi, so mixed pairings at those angles are exact too.

The Gaussian pairing has one closed-form bound, theta_pair_gaussian_bound
B(y, t): theta_pair_gaussian_screened reads it at each sample's shift t,
theta_pair_gaussian_screen_height at t = 0, where it bounds every shift,
and theta_pair_gaussian_shift_screen above that height, split in its two
terms.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError, NumericFailureError, UnsupportedOperationError, check_real, short,
)
from .weylsum import (
    _QUARTER_TURNS, WeylSumSpec, _unit_phasor, check_x_range, frac, phase_sum, reduced_product,
    two_prod,
)

_TWO_PI = 2.0 * math.pi
_PI_MULTIPLE_TOL = 1e-9


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
        for name in ("x", "phi", "xi1", "xi2"):
            check_real(name, getattr(self, name))
        check_real("y", self.y, 0, strict=True)


def _pi_multiples(phis):
    """(k, near) for an angle or array of angles: k the nearest integers to
    phis / pi (as floats, ties to even), near where phis lies within
    _PI_MULTIPLE_TOL of k pi."""
    phis = np.asarray(phis, dtype=np.float64)
    k = np.round(phis / math.pi)
    return k, np.abs(phis - k * math.pi) < _PI_MULTIPLE_TOL


def sigma_phi(phi: float) -> int:
    """Maslov-type index: 2*nu at phi = nu*pi, 2*nu + 1 on (nu*pi, (nu+1)*pi)."""
    k, near = _pi_multiples(phi)
    if near:
        return 2 * int(k)
    return 2 * math.floor(phi / math.pi) + 1


def _e(t: float) -> complex:
    return cmath.exp(2j * math.pi * t)


class WeightFunction:
    """Base class for weights; subclasses fill in the transform data, of
    f_phi only its value off pi*Z, and the edge data that D_rat_numeric
    reads: edge_sq_bound and oscillation_rate."""

    name = "weight"

    def evaluate(self, w):
        raise NotImplementedError

    def support_radius(self, tol: float) -> float:
        """W such that |f(w)| <= tol for |w| > W (may ignore tol if compact)."""
        raise NotImplementedError

    def kappa_eta(self, eta: float) -> float:
        """sup over phi, w of (1 + w^2)^(eta/2) |f_phi(w)|, for finite eta;
        InvalidArgumentError where it is too large for a float."""
        raise NotImplementedError

    def f_phi(self, phi: float, w):
        """Transformed weight at angle phi, vectorized in w: exactly
        e(-k/4) f((-1)^k w) at phi = k pi, else _f_phi_off_pi(phi, w)."""
        k, near = _pi_multiples(phi)
        if not near:
            return self._f_phi_off_pi(phi, w)
        k = int(k)
        sign = 1.0 if k % 2 == 0 else -1.0
        vals = self.evaluate(sign * np.asarray(w, dtype=np.float64)).astype(np.complex128)
        vals *= _QUARTER_TURNS[-k % 4]  # e(-k/4), exactly
        return vals

    def _f_phi_off_pi(self, phi: float, w):
        raise NotImplementedError

    def f_phi0_values(self, phis: np.ndarray) -> np.ndarray:
        """f_phi(0) for an array of angles (closed form, complex)."""
        raise NotImplementedError

    # crude upper bound for |f_phi(0)|^2 as phi -> 0 or pi, used to pick the
    # endpoint cutoff when integrating |f_phi(0)|^2 d(phi) numerically
    edge_sq_bound = 1.0
    # cycles of f_phi(0) per unit of cot(phi) near pi*Z: r^2 for the
    # indicator of (0, r], 0 where |f_phi(0)| does not oscillate
    oscillation_rate = 0.0


class GaussianWeight(WeightFunction):
    """f(w) = exp(-pi w^2); fixed point of the transform up to phase.

    f_phi differs from exp(-pi w^2) only by the unimodular c(phi), which this
    class drops except at phi in pi*Z where the exact value e(-k/4) f(w) is
    returned. All moduli are exact for every phi.
    """

    name = "gaussian"

    def evaluate(self, w):
        return np.exp(-math.pi * np.square(w))

    def support_radius(self, tol: float) -> float:
        if tol >= 1.0:
            return 0.0
        return math.sqrt(math.log(1.0 / tol) / math.pi)

    def kappa_eta(self, eta: float) -> float:
        # maximize (1+w^2)^(eta/2) exp(-pi w^2): interior critical point
        # exists only when eta > 2 pi
        eta = check_real("eta", eta)
        if eta <= _TWO_PI:
            return 1.0
        try:
            return (eta / _TWO_PI) ** (eta / 2.0) * math.exp(math.pi - eta / 2.0)
        except OverflowError:  # the power leaves the floats from eta of about 352 on
            raise InvalidArgumentError(f"kappa_eta overflows a float at eta = {eta}") from None

    def _f_phi_off_pi(self, phi: float, w):
        return self.evaluate(w).astype(np.complex128)

    def f_phi0_values(self, phis: np.ndarray) -> np.ndarray:
        phis = np.asarray(phis, dtype=np.float64)
        k, near = _pi_multiples(phis)
        out = np.ones(phis.shape, dtype=np.complex128)
        out[near] = _QUARTER_TURNS[np.mod(-k[near], 4).astype(np.intp)]  # e(-k/4), exactly
        return out


class SharpIndicatorWeight(WeightFunction):
    """f = indicator of (0, r]; compactly supported, not eta-regular.

    The transform has no elementary closed form off pi*Z except at w = 0,
    where it is a Fresnel integral; f_phi at general (phi, w) is therefore
    unsupported (use f_phi_numeric for a quadrature evaluation).
    """

    name = "indicator"

    def __init__(self, r: float = 1.0):
        self.r = check_real("r", r, 1)
        self.oscillation_rate = self.r * self.r
        self.name = f"indicator({self.r:g})"

    def evaluate(self, w):
        w = np.asarray(w, dtype=np.float64)
        return ((w > 0.0) & (w <= self.r)).astype(np.float64)

    def support_radius(self, tol: float) -> float:
        return self.r

    def kappa_eta(self, eta: float) -> float:
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
        k, near = _pi_multiples(phis)
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
    tol = check_real("tol", tol, 0, strict=True)
    from scipy.integrate import quad  # only here, to keep the package import light

    if _pi_multiples(phi)[1]:
        return complex(weight.f_phi(phi, np.asarray([w]))[0])
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
    x, xi1 and xi2 must be below 2^30 in size (check_x_range). Every
    product in the phase is reduced mod 1 with its rounding residue, so the
    phase error does not grow with x, xi1 or xi2: it is a few 2^-52 turns.
    The phase t^2 x/2 (t = xi2 - round(xi2)) that every lattice term shares
    goes into the prefactor as (p/2) x + (e/2) x, from the exact split
    t^2 = p + e of two_prod. The lattice terms are Weyl terms in
    m = n - round(xi2) weighted by f_phi, summed by weyl_sum's phase_sum,
    so the largest |m| kept has weyl_sum's n bound (about 9.49e7): a tiny
    y exceeds it. The truncation level must be a normal float, at least
    DBL_MIN = 2.2e-308 (tol = 5e-324 at y = 1 is not), and support_radius
    finite. Other input raises InvalidArgumentError.
    """
    tol = check_real("tol", tol, 0, strict=True)
    x, y = point.x, point.y
    xi1, xi2 = float(point.xi1), float(point.xi2)
    check_x_range(x=x, xi1=xi1, xi2=xi2)
    root_y = math.sqrt(y)
    term_tol = tol * min(1.0, root_y) / 8.0
    if term_tol < sys.float_info.min:  # support_radius takes 1/term_tol
        raise InvalidArgumentError(
            f"tol = {tol} at y = {short(y)} gives the truncation level {term_tol}, below DBL_MIN"
        )
    radius = weight.support_radius(term_tol)
    if not math.isfinite(radius):
        raise InvalidArgumentError(f"weight {short(weight.name)} does not decay; cannot truncate")
    span = radius / root_y
    lo, hi = math.ceil(xi2 - span), math.floor(xi2 + span)
    # with m = n - k0 and t = xi2 - k0, the phase (n - xi2)^2 x/2 + n xi1 is
    # the Weyl phase (m^2/2 - t m) x + xi1 m, plus k0 xi1 and t^2 x/2
    k0 = round(xi2)
    t = xi2 - k0  # |t| <= 1/2 + tiny, exact subtraction
    t_sq, t_sq_err = two_prod(t, t)
    turn = frac(np.float64(zeta)) - reduced_product(np.float64(0.5 * xi1), xi2)
    turn += reduced_product(0.5 * t_sq, x) + reduced_product(0.5 * t_sq_err, x)
    prefactor = y**0.25 * _e(turn) * _e(reduced_product(np.float64(k0), xi1))
    if lo > hi:
        return 0.0 * prefactor
    total = phase_sum(
        WeylSumSpec(alpha=xi1, beta=-t), np.float64(x), lo - k0, hi - k0,
        lambda ms: weight.f_phi(point.phi, (ms - t) * root_y),
    )
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
    return _batch(*_batch_args(x, y, xi1, xi2))


def _batch(x, y, xi1, xi2):
    """theta_pair_gaussian_batch of arguments that passed _batch_args."""
    shape = x.shape
    x, y, xi1, xi2 = (v.ravel() for v in (x, y, xi1, xi2))
    out = np.empty(x.size)
    for start in range(0, x.size, _BATCH_BLOCK):
        part = slice(start, start + _BATCH_BLOCK)
        out[part] = _theta_block(x[part], y[part], xi1[part], xi2[part])
    return out.reshape(shape)


def _batch_args(x, y, xi1, xi2):
    """The four coordinates as broadcast float64 arrays, checked against
    the batch's valid range."""
    x, y, xi1, xi2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (x, y, xi1, xi2))
    )
    check_x_range(x=x, xi1=xi1, xi2=xi2)
    if y.size and not (y.min() >= 0.5 and y.max() < math.inf):
        raise InvalidArgumentError("theta batch needs finite y >= 1/2")
    return x, y, xi1, xi2


def theta_pair_gaussian_bound(x, y, xi1, xi2) -> np.ndarray:
    """An upper bound of theta_pair_gaussian_batch(x, y, xi1, xi2) in three
    exps per sample, with the batch's range checks:

        B = sqrt(y) exp(-2 pi t^2 y) (1 + 2a / (1 - exp(-2 pi y)))^2,
        a = exp(-pi y (1 - 2|t|)),  t = xi2 - round(xi2).

    Proof: term n = k0 + j of the lattice sum is exp(-pi y j (j - 2t)) times
    the anchor exp(-pi y t^2) in modulus, and for k = |j| >= 1,
    j (j - 2t) >= k (k - 2|t|) >= (1 - 2|t|) + 2(k - 1), the difference
    being (k - 1)(k - 1 - 2|t|) >= 0. So each side of the anchor sums in
    modulus to at most a (1 + exp(-2 pi y) + ...) = a / (1 - exp(-2 pi y)),
    and the triangle inequality, squared, gives B. It bounds any subset of
    the terms, the batch's included, and is tight where the pairing is its
    nearest lattice term, high in the cusp. B computes the batch's factor
    sqrt(y) exp(-2 pi t^2 y) the same way, and the batch stays below
    B (1 + 1e-12) after rounding; where that factor underflows (y = 1e6 at
    |t| > 0.011) both are 0.
    """
    _, y, _, xi2 = _batch_args(x, y, xi1, xi2)
    return _bound(y, xi2)


def _bound(y, xi2):
    """theta_pair_gaussian_bound of arguments that passed _batch_args."""
    t = xi2 - np.round(xi2)
    a = np.exp(-math.pi * y * (1.0 - 2.0 * np.abs(t)))
    factor = 1.0 + 2.0 * a / (1.0 - np.exp(-_TWO_PI * y))
    return np.sqrt(y) * np.exp(-_TWO_PI * t * t * y) * (factor * factor)


def theta_pair_gaussian_screen_height(floor: float) -> float:
    """A height Y such that theta_pair_gaussian_batch stays below floor at
    every y in [1/2, Y], whatever x, xi1 and xi2, by the bound at t = 0,
    H(y) = theta_pair_gaussian_bound(x, y, xi1, 0) = sqrt(y) (1 + csch(pi y))^2;
    -inf where floor is below H(1/2) (1 + 1e-9) = 1.4552.

    H bounds the batch at every shift t: by Poisson summation the Jacobi
    sum J(t) = sum_n exp(-pi (n - t)^2 y) of the terms' moduli is
    y^(-1/2) sum_k exp(-pi k^2 / y) cos(2 pi k t), largest at t = 0, and
    J(0) <= 1 + 2(e + e^3 + ...) = 1 + csch(pi y) with e = exp(-pi y), as
    n^2 >= 2n - 1. H falls, then rises: with u = pi y, d log H / dy has the
    sign of m(u) = tanh u (sinh u + 1) - 4u, where m(0) = 0, m'(0) = -3 and
    m'' = cosh u + (1 - 2 sinh u - sinh^2 u) / cosh^3 u > 0, as
    cosh^4 u + 1 - 2 sinh u - sinh^2 u = sinh^4 u + (sinh u - 1)^2 + 1.
    So H peaks on [1/2, Y] at an end, and H(2) < H(1/2). From Y = 2 each
    step Y <- (floor / ((1 + 1e-9) (1 + csch(pi Y))^2))^2 keeps
    H (1 + 1e-9) <= floor on [1/2, Y], as csch falls; Y is where the steps
    stop growing it. There the batch, at most H (1 + 1e-12), is below the
    floor, and homog.cusp_candidates drops, from their uniforms, draws
    that provably end at y <= Y.
    """
    margin = 1.0 + 1e-9

    def reach(y):  # the y' where sqrt(y') (1 + csch(pi y))^2 (1 + 1e-9) is floor
        e = math.exp(-math.pi * y)
        root = floor / (margin * (1.0 + 2.0 * e / (1.0 - e * e)) ** 2)
        return root * abs(root)  # negative below a negative floor

    if not reach(0.5) >= 0.5:
        return -math.inf
    height, step = 2.0, reach(2.0)
    while step > height:
        height, step = step, reach(step)
    return height


def theta_pair_gaussian_shift_screen(floor: float) -> float:
    """A shift t0 such that theta_pair_gaussian_bound B (1 + 1e-12) <= floor
    at every y >= Y = theta_pair_gaussian_screen_height(floor) and
    t0 <= |t| <= 1/2:

        t0 = c / (sqrt(floor / (1 + 1e-12)) - 2 g(Y))^2 (1 + 1e-9),
        g(y) = y^(1/4) exp(-pi y / 4) / (1 - exp(-2 pi y)),

    with c = exp(-1/2) / (2 sqrt(pi)) = 0.1711; inf where Y is not finite or
    the bracket is not positive. 0.0821 at the default grid's floor 2.25.

    Proof: sqrt(B) = y^(1/4) (exp(-pi t^2 y) + 2 exp(-pi (1 - |t|)^2 y) /
    (1 - exp(-2 pi y))). The first term is at most sqrt(c / |t|) at every y,
    as sqrt(y) exp(-2 pi t^2 y) peaks at y = 1 / (4 pi t^2) with the value
    c / |t|. The second is at most 2 g(y), as (1 - |t|)^2 >= 1/4, and g
    falls for y > 1/pi, so on y >= Y >= 2 it is at most 2 g(Y). The factor
    1 + 1e-9 covers the rounding of B. Where the cusp a sample ends in is
    known from its uniforms, homog.cusp_candidates, a sample with |t| >= t0
    ends at most at Y or has B (1 + 1e-12) <= floor: either way its
    pairing is at most floor.
    """
    height = theta_pair_gaussian_screen_height(floor)
    if not math.isfinite(height):
        return math.inf
    e = math.exp(-_TWO_PI * height)
    tail = 2.0 * height**0.25 * math.exp(-math.pi * height / 4.0) / (1.0 - e)
    bracket = math.sqrt(floor / (1.0 + 1e-12)) - tail
    if not bracket > 0:
        return math.inf
    c = math.exp(-0.5) / (2.0 * math.sqrt(math.pi))
    return c / (bracket * bracket) * (1.0 + 1e-9)


def theta_pair_gaussian_screened(x, y, xi1, xi2, floor: float) -> np.ndarray:
    """theta_pair_gaussian_batch on the samples, in order, but on those
    where theta_pair_gaussian_bound proves it at most floor (-inf keeps
    all): B (1 + 1e-12) <= floor, the batch's rounding margin. Every sample
    is range-checked first, and only once, so an invalid one raises and
    never drops out. The height screen is homog.cusp_candidates'."""
    chunk = _batch_args(x, y, xi1, xi2)
    kept = np.flatnonzero(_bound(chunk[1], chunk[3]) * (1.0 + 1e-12) > floor)
    return _batch(*(v.take(kept) for v in chunk))


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
    m1 = float(np.abs(w1.f_phi(point.phi, np.asarray([-theta])))[0])
    m2 = float(np.abs(w2.f_phi(point.phi, np.asarray([-theta])))[0])
    return math.sqrt(point.y) * m1 * m2


def bound_constant(eta: float) -> float:
    """C_eta = 2^(6 eta) zeta(eta)^2 in the cusp approximation estimate,
    for finite eta > 1 with 6 eta < 1024, beyond which 2^(6 eta) is no
    float."""
    eta = check_real("eta", eta, 1, 1024 / 6, strict=True)
    from scipy.special import zeta  # only here, to keep the package import light

    return 2.0 ** (6.0 * eta) * float(zeta(eta, 1.0)) ** 2


def cusp_bound(w1: WeightFunction, w2: WeightFunction, y: float, eta: float) -> float:
    """C_eta kappa_eta(f1) kappa_eta(f2) y^(-(eta-1)/2), valid for y >= 1/2
    and eta > 1; a weight with no finite kappa_eta (the sharp indicator)
    raises InvalidArgumentError."""
    check_real("y", y, 0.5)
    c_eta = bound_constant(eta)  # checks eta before any weight reads it
    kappa = w1.kappa_eta(eta) * w2.kappa_eta(eta)
    if not math.isfinite(kappa):
        raise InvalidArgumentError("cusp estimate needs eta-regular weights")
    return c_eta * kappa * y ** (-(eta - 1.0) / 2.0)
