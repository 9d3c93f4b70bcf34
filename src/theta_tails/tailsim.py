"""Deterministic Monte-Carlo estimation of the two tail regimes.

Both simulators draw in fixed chunks whose generators are derived from
(seed, chunk_index), evaluate one survival curve per chunk, and add up
integer exceedance counts in chunk order. The result is bit-identical for
any worker count and any machine with the same numpy/scipy builds, and a
re-run with the same seed reproduces it exactly.

The Weyl curve samples x from an absolutely continuous law, evaluates
|S_N(x) conj(S_{rN}(x))|/N through the batch kernel (a rotation recurrence
re-anchored on the exact phase every 64 terms), and counts exceedances of
R^2. The theta curve samples the invariant measure attached to
(alpha, beta) - Haar on the fundamental domain times uniform on the
finite orbit - maps samples in the cusp-at-1 horoball through the
conjugating element so every point has y >= sqrt(3)/2, and evaluates the
Gaussian pairing |Theta_f conj Theta_f| in a fixed 13-term lattice window.
Orbit points are drawn by rejection against the closed membership test and
the orbit size comes from its closed form, so the theta curve does no
O(q^2) work and runs at any denominator that factorize accepts (q < 10^12).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .arith import RationalPair, normalize_pair
from .constants import tail_constant
from .errors import InvalidArgumentError, UnsupportedOperationError
from .homog import (
    CHUNK_SIZE,
    DEFAULT_SEED,
    MuAbSampler,
    chunk_generator,
    open_uniforms,
    run_chunks,
)
from .orbits import leading_constant, orbit_size_formula
from .theta import GaussianWeight, gaussian_weight, theta_pair_gaussian_batch
from .weylsum import weyl_values_batch


@dataclass(frozen=True)
class SamplingLaw:
    """Absolutely continuous law for the x draws, as a uniform transform."""

    name: str

    def transform(self, u: np.ndarray) -> np.ndarray:
        if self.name == "normal":
            return ndtri(u)
        if self.name == "uniform01":
            return u
        raise InvalidArgumentError(f"unknown sampling law {self.name!r}")


def sampling_law(name: str) -> SamplingLaw:
    if name not in ("normal", "uniform01"):
        raise InvalidArgumentError(
            f"law must be 'normal' or 'uniform01', got {name!r}"
        )
    return SamplingLaw(name)


def default_thresholds(lo: float = 1.5, hi: float = 6.0, count: int = 20) -> np.ndarray:
    """Geometric grid of R values for survival curves."""
    if not (0 < lo < hi) or count < 2:
        raise InvalidArgumentError(f"bad threshold grid ({lo}, {hi}, {count})")
    return np.geomspace(lo, hi, count)


@dataclass
class TailCurve:
    """Empirical survival curve of |value| > R^2 with its prediction."""

    kind: str
    thresholds: np.ndarray
    counts: np.ndarray
    n_samples: int
    seed: int
    predicted_constant: float
    meta: dict = field(default_factory=dict)
    values: np.ndarray | None = None

    @property
    def survival(self) -> np.ndarray:
        return self.counts / float(self.n_samples)

    @property
    def predicted(self) -> np.ndarray:
        return self.predicted_constant * self.thresholds**-4.0

    def rows(self) -> list[tuple[float, float, float, int]]:
        return [
            (float(r), float(s), float(p), int(c))
            for r, s, p, c in zip(
                self.thresholds, self.survival, self.predicted, self.counts
            )
        ]


def _count_exceedances(values: np.ndarray, squared_thresholds: np.ndarray) -> np.ndarray:
    return np.count_nonzero(
        values[None, :] > squared_thresholds[:, None], axis=1
    ).astype(np.int64)


def simulate_weyl_tail(
    alpha,
    beta=0,
    *,
    N: int = 500,
    r: float = 1.0,
    law="normal",
    n_samples: int = 10**6,
    thresholds: np.ndarray | None = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    keep_values: bool = False,
) -> TailCurve:
    """Survival curve of |S_N conj(S_floor(rN))|/N under random x.

    The predicted constant is the closed-form coefficient of R^-4; for
    numerators making the pair compact-type it is zero.
    """
    pair = alpha if isinstance(alpha, RationalPair) else normalize_pair(alpha, beta)
    if n_samples < 1:
        raise InvalidArgumentError(f"n_samples must be >= 1, got {n_samples}")
    if N < 1:
        raise InvalidArgumentError(f"N must be >= 1, got {N}")
    if not (math.isfinite(r) and r >= 1):
        raise InvalidArgumentError(f"r must be finite and >= 1, got {r}")
    law_obj = sampling_law(law) if isinstance(law, str) else law
    thresholds = default_thresholds() if thresholds is None else np.asarray(thresholds, dtype=np.float64)
    squared = thresholds**2
    constant = tail_constant(pair, r=r).value

    def chunk(index: int, count: int):
        rng = chunk_generator(seed, index)
        u = open_uniforms(rng, CHUNK_SIZE)
        x = law_obj.transform(u)[:count]
        vals = weyl_values_batch(x, pair, N, r)
        return _count_exceedances(vals, squared), (vals if keep_values else None)

    results = run_chunks(n_samples, chunk, workers)
    counts = np.sum([c for c, _ in results], axis=0)
    values = (
        np.concatenate([v for _, v in results]) if keep_values else None
    )
    return TailCurve(
        kind="weyl",
        thresholds=thresholds,
        counts=counts,
        n_samples=n_samples,
        seed=seed,
        predicted_constant=constant,
        meta={
            "alpha": str(pair.alpha),
            "beta": str(pair.beta),
            "q": pair.q,
            "type": pair.kind,
            "N": N,
            "r": r,
            "law": law_obj.name,
        },
        values=values,
    )


def simulate_theta_tail(
    alpha,
    beta=0,
    *,
    w1=None,
    w2=None,
    n_samples: int = 10**6,
    thresholds: np.ndarray | None = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    keep_values: bool = False,
) -> TailCurve:
    """Survival curve of |Theta_f conj Theta_f| under the invariant measure.

    Implemented for the Gaussian pair, whose pairing modulus is phi-free
    and exactly sqrt(y) |sum_n exp(-pi w_n^2) e(theta_n)|^2. The predicted
    constant is (2|U| + |V|)/|S| * D / pi^2 with D = pi for this pair.
    """
    pair = alpha if isinstance(alpha, RationalPair) else normalize_pair(alpha, beta)
    if n_samples < 1:
        raise InvalidArgumentError(f"n_samples must be >= 1, got {n_samples}")
    w1 = gaussian_weight() if w1 is None else w1
    w2 = gaussian_weight() if w2 is None else w2
    if not (isinstance(w1, GaussianWeight) and isinstance(w2, GaussianWeight)):
        raise UnsupportedOperationError(
            "theta tail simulation is implemented for the Gaussian pair"
        )
    thresholds = default_thresholds() if thresholds is None else np.asarray(thresholds, dtype=np.float64)
    squared = thresholds**2
    sampler = MuAbSampler(pair, seed=seed)
    constant = float(leading_constant(pair)) / math.pi

    def chunk(index: int, count: int):
        data = sampler._chunk(index, count)
        x, y = data["x"], data["y"]
        xi1, xi2 = data["xi1"], data["xi2"]
        in_horoball = (x - 1.0) ** 2 + y * y < 1.0
        # conjugate the cusp-at-1 horoball to high cusp-at-infinity points:
        # z -> 1/(1-z), (xi1, xi2) -> (xi2, -xi1 + xi2 + 1/2)
        wr = 1.0 - x
        den = wr * wr + y * y
        x = np.where(in_horoball, wr / den, x)
        y = np.where(in_horoball, y / den, y)
        new_xi2 = -xi1 + xi2 + 0.5
        xi1 = np.where(in_horoball, xi2, xi1)
        xi2 = np.where(in_horoball, new_xi2, xi2)
        vals = theta_pair_gaussian_batch(x, y, xi1, xi2)
        return _count_exceedances(vals, squared), (vals if keep_values else None)

    results = run_chunks(n_samples, chunk, workers)
    counts = np.sum([c for c, _ in results], axis=0)
    values = (
        np.concatenate([v for _, v in results]) if keep_values else None
    )
    return TailCurve(
        kind="theta",
        thresholds=thresholds,
        counts=counts,
        n_samples=n_samples,
        seed=seed,
        predicted_constant=constant,
        meta={
            "alpha": str(pair.alpha),
            "beta": str(pair.beta),
            "q": pair.q,
            "type": pair.kind,
            "orbit_size": orbit_size_formula(pair),
            "weights": (w1.name, w2.name),
        },
        values=values,
    )


@dataclass(frozen=True)
class TailFit:
    constant: float
    stderr: float
    used_thresholds: np.ndarray


def fit_tail_constant(
    curve: TailCurve, window: tuple[float, float] | None = None
) -> TailFit:
    """Least-squares intercept of log survival against the fixed slope -4.

    Zero-count bins carry no information at this tail order and are
    excluded; fewer than three usable bins is an error. The standard error
    comes from a Poisson bootstrap. The counts are nested (each one includes
    every sample above the larger thresholds), so the bootstrap resamples
    the disjoint cells [R_i, R_{i+1}) and the remainder beyond the last R
    and accumulates them again; independent Poissons on the nested counts
    themselves would understate the error about threefold on the default
    grid.
    """
    mask = curve.counts > 0
    if window is not None:
        lo, hi = window
        mask &= (curve.thresholds >= lo) & (curve.thresholds <= hi)
    if np.count_nonzero(mask) < 3:
        raise InvalidArgumentError("need at least three nonzero bins to fit")
    order = np.argsort(curve.thresholds[mask], kind="stable")
    used_r = curve.thresholds[mask][order]
    used_counts = curve.counts[mask][order].astype(np.float64)
    cells = used_counts - np.append(used_counts[1:], 0.0)
    if np.any(cells < 0):
        raise InvalidArgumentError("exceedance counts must not increase with R")
    n = float(curve.n_samples)

    def intercepts(counts: np.ndarray) -> np.ndarray:
        # one geometric-mean intercept per row over its nonzero bins; a row
        # with none gives nan
        live = np.count_nonzero(counts, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(counts / n) + 4.0 * np.log(used_r)
            logs[counts == 0] = 0.0
            return np.exp(logs.sum(axis=1) / live)

    est = float(intercepts(used_counts[None, :])[0])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0x5EED, 0))))
    # 200 rounds in one call: the stream is the same as 200 calls of
    # rng.poisson(cells), row after row
    draws = rng.poisson(cells, size=(200, cells.size))
    resampled = np.cumsum(draws[:, ::-1], axis=1)[:, ::-1].astype(np.float64)
    boots = intercepts(resampled)
    boots = boots[~np.isnan(boots)]
    stderr = float(np.std(boots)) if boots.size > 1 else math.inf
    return TailFit(constant=est, stderr=stderr, used_thresholds=used_r)


def compact_support_report(values: np.ndarray) -> dict:
    """Dyadic summary used to eyeball compact support of the limit law.

    For a genuinely R^-4 tail the rescaled survival s(R) R^4 is flat in R;
    for a compactly supported limit it collapses. The verdict compares the
    rescaled survival at R = 4 against R = 2 with a factor-10 margin.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidArgumentError("no samples given")
    n = float(values.size)
    rows = []
    for r in (1.0, 2.0, 4.0, 8.0):
        surv = float(np.count_nonzero(values > r * r) / n)
        rows.append({"R": r, "survival": surv, "rescaled": surv * r**4})
    s2 = rows[1]["rescaled"]
    s4 = rows[2]["rescaled"]
    compact = s4 < 0.1 * s2 if s2 > 0 else True
    return {
        "max_value": float(np.max(values)),
        "rows": rows,
        "verdict": "compatible-with-compact-support" if compact else "heavy-tailed",
    }
