"""Deterministic Monte-Carlo estimation of the two tail regimes.

Both simulators run on one driver, _simulate: it draws in fixed chunks
whose generators are derived from (seed, chunk_index), evaluates a chunk
but what is proved at most the smallest R^2 (nothing, if values are kept),
counts the values above each R^2, and adds the counts in chunk order. The
result is bit-identical for any worker count and any machine with the
same numpy/scipy builds, and a re-run with the same seed reproduces it
exactly. A simulator only checks its own arguments and supplies the values
of a chunk, its predicted constant and its metadata.

The Weyl curve samples x from an absolutely continuous law and evaluates
|S_N(x) conj(S_{rN}(x))|/N through the batch kernel: a rotation recurrence
re-anchored on the exact phase every 64 terms, or, from
weylsum.CHIRP_MIN_TERMS terms on, sums of sqrt(rN)-term blocks by one FFT
convolution per sample. run_chunks gives each chunk a thread, and a
chunk's kernel call runs on it, so no more than `workers` threads run at
once and a one-chunk run uses one. The theta curve samples the invariant
measure attached to (alpha, beta) - Haar on the fundamental domain times
uniform on the finite orbit. A large value needs a point high in a cusp
and near its nearest lattice term, so theta_values works on one chunk in
five steps, and both screens read only uniforms and orbit candidates:
MuAbSampler.raw_chunk draws its uniforms of x and y (not phi, which the
pairing does not read) and its orbit candidates; homog.cusp_candidates
keeps, from the uniforms alone, the draws that can end above the screen
height (23% on the default grid) and says in which cusp; the shift screen
drops those whose shift t from Z in that cusp is at least
theta.theta_pair_gaussian_shift_screen (3.8% of the chunk are left);
MuAbSampler.points and homog.conjugate_horoball map only the rest, moving
the points in the cusp-at-1 horoball so every point has y >= sqrt(3)/2;
and theta.theta_pair_gaussian_batch, a rotation recurrence anchored at the
nearest lattice term, evaluates the Gaussian pairing |Theta_f conj Theta_f|
on every mapped point.
Orbit points are drawn in their parity class and kept by the closed
membership test, and the orbit size comes from its closed form, so the
theta curve does no O(q^2) work and runs at any q < 2^63 that factorize
accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .arith import normalize_pair
from .constants import tail_constant
from .errors import InvalidArgumentError, check_integer, check_real, short
from .homog import (
    CHUNK_SIZE,
    DEFAULT_SEED,
    MAX_SAMPLES,
    MAX_SEED,
    MuAbSampler,
    chunk_generator,
    conjugate_horoball,
    cusp_candidates,
    open_uniforms,
    run_chunks,
)
from .orbits import leading_constant, orbit_size_formula
from .theta import (
    theta_pair_gaussian_batch, theta_pair_gaussian_screen_height, theta_pair_gaussian_shift_screen,
)
from .weylsum import weyl_values_batch


class SamplingLaw(NamedTuple):
    """Absolutely continuous law for the x draws, as a uniform transform."""

    name: str
    transform: Callable[[np.ndarray], np.ndarray]


def _identity(u):
    return u


def sampling_law(name: str) -> SamplingLaw:
    """The law called name with its transform of uniforms u in (0, 1):
    "normal" is the inverse normal CDF (scipy.special loads here, not at
    package import, and not in a worker thread), "uniform01" is u itself.
    Any other name raises InvalidArgumentError."""
    if name == "normal":
        from scipy.special import ndtri

        return SamplingLaw(name, ndtri)
    if name == "uniform01":
        return SamplingLaw(name, _identity)
    raise InvalidArgumentError(f"law must be 'normal' or 'uniform01', got {short(name)}")


# the exceedance count compares a (grid, CHUNK_SIZE) array: 32 MB of bools
# per worker at this many thresholds
MAX_THRESHOLDS = 1024


def _check_grid(thresholds) -> np.ndarray:
    """thresholds as a float array, if a 1-D grid of 1 to MAX_THRESHOLDS R in
    1e-75 <= R <= 1e75 (R^4, R^-4 finite nonzero); else InvalidArgumentError."""
    grid = np.asarray(thresholds, dtype=object)  # holds any value, a huge int too
    if not (grid.ndim == 1 and 0 < grid.size <= MAX_THRESHOLDS):
        raise InvalidArgumentError(f"thresholds must be 1 to {MAX_THRESHOLDS} values in a 1-D grid")
    return np.array([check_real("R", r, 1e-75, 1e75) for r in grid])


def default_thresholds(lo: float = 1.5, hi: float = 6.0, count: int = 20) -> np.ndarray:
    """Geometric grid of R values for survival curves: 1e-75 <= lo < hi <=
    1e75 (_check_grid) and an integer 2 <= count <= MAX_THRESHOLDS."""
    check_integer("count", count, 2, MAX_THRESHOLDS)
    lo, hi = _check_grid([lo, hi])
    if not lo < hi:
        raise InvalidArgumentError(f"the threshold grid needs lo < hi, got {lo} and {hi}")
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
    """How many values exceed each squared threshold (any order). Only the
    values above the smallest threshold enter the (grid, n) comparison."""
    tail = values[values > squared_thresholds.min()]
    return np.count_nonzero(
        tail[None, :] > squared_thresholds[:, None], axis=1
    ).astype(np.int64)


def _simulate(kind, pair, values, constant, meta, n_samples, thresholds, seed, workers, keep_values):
    """The survival curve of values(index, count, floor), the values of
    each chunk but any it proves are at most floor (the smallest R^2, or
    -inf to keep all), with the checks, counts and metadata both share. Each
    R must lie in 1e-75 <= R <= 1e75; all is checked before any chunk runs."""
    check_integer("n_samples", n_samples, 1, MAX_SAMPLES)
    check_integer("seed", seed, 0, MAX_SEED)
    thresholds = default_thresholds() if thresholds is None else _check_grid(thresholds)
    squared = thresholds**2
    floor = -math.inf if keep_values else squared.min()

    def chunk(index: int, count: int):
        vals = values(index, count, floor)
        return _count_exceedances(vals, squared), (vals if keep_values else None)

    results = run_chunks(n_samples, chunk, workers)
    return TailCurve(
        kind=kind,
        thresholds=thresholds,
        counts=np.sum([c for c, _ in results], axis=0),
        n_samples=n_samples,
        seed=seed,
        predicted_constant=constant,
        meta={"alpha": str(pair.alpha), "beta": str(pair.beta), "q": pair.q, "type": pair.kind, **meta},
        values=np.concatenate([v for _, v in results]) if keep_values else None,
    )


def simulate_weyl_tail(
    alpha,
    beta=0,
    *,
    N: int = 500,
    r: float = 1.0,
    law: str = "normal",
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
    pair = normalize_pair(alpha, beta)
    transform = sampling_law(law).transform

    def values(index: int, count: int, floor: float) -> np.ndarray:
        u = open_uniforms(chunk_generator(seed, index), CHUNK_SIZE)
        return weyl_values_batch(transform(u)[:count], pair, N, r)

    return _simulate(
        "weyl", pair, values, tail_constant(pair, r=r).value,
        {"N": N, "r": r, "law": law},
        n_samples, thresholds, seed, workers, keep_values,
    )


def theta_values(sampler: MuAbSampler, index: int, count: int, floor: float) -> np.ndarray:
    """simulate_theta_tail's values: the Gaussian pairing on
    sampler.chunk(index, count), moved by conjugate_horoball, in chunk
    order, on the draws two screens keep from their uniforms before any map.
    cusp_candidates keeps those that can end above the screen height Y, as
    the bound at t = 0, and so the pairing, is at most floor below it; the
    shift screen then drops those whose shift t from Z, in the cusp they
    can end in, has |t| >= t0 = theta_pair_gaussian_shift_screen(floor).
    So the values above floor are those of the whole chunk, and some at
    most floor remain, which _count_exceedances drops."""
    u, cands = sampler.raw_chunk(index, count)
    kept, at_one = cusp_candidates(u[0, :count], u[1, :count], theta_pair_gaussian_screen_height(floor))
    rs = cands.take(kept)
    xi1, xi2 = sampler.window(rs)
    # conjugate_horoball's xi2 to the bit where at_one is 1, xi2 where it is
    # 0, NaN (kept) where the cusp is unknown
    end = -xi1 * at_one + xi2 + 0.5 * at_one
    near = np.flatnonzero(~(np.abs(end - np.round(end)) >= theta_pair_gaussian_shift_screen(floor)))
    data = sampler.points(u.take(kept.take(near), axis=1), rs.take(near, axis=1))
    moved = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
    return theta_pair_gaussian_batch(*moved)


def simulate_theta_tail(
    alpha,
    beta=0,
    *,
    n_samples: int = 10**6,
    thresholds: np.ndarray | None = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    keep_values: bool = False,
) -> TailCurve:
    """Survival curve of |Theta_f conj Theta_f| for the Gaussian pair f,
    under the invariant measure.

    The Gaussian pairing modulus is phi-free and exactly
    sqrt(y) |sum_n exp(-pi w_n^2) e(theta_n)|^2. The predicted constant is
    (2|U| + |V|)/|S| * D / pi^2 with D = pi for this pair. Runs at any q
    below 2^63 that factorize accepts; other pairs of weights have no batch
    evaluator here. Without keep_values the map and the batch run only on
    the draws that theta_values' two screens keep at the smallest R^2.
    """
    pair = normalize_pair(alpha, beta)
    sampler = MuAbSampler(pair, seed=seed)
    return _simulate(
        "theta", pair, partial(theta_values, sampler), float(leading_constant(pair)) / math.pi,
        {"orbit_size": orbit_size_formula(pair), "weights": ("gaussian", "gaussian")},
        n_samples, thresholds, seed, workers, keep_values,
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
    excluded; fewer than three usable bins is an error. The estimate is the
    geometric mean of c_i R_i^4 / n over the k used bins. Its standard error
    is the delta method on the nested Poisson counts: with the bins in
    ascending R, every sample above R_j is also above R_i for i < j, so
    Cov(c_i, c_j) = c_j and Cov(log c_i, log c_j) = 1 / c_min(i,j), which
    gives stderr = est sqrt(sum_i (2(k - i) - 1) / c_i) / k (i from 0).
    Treating the counts as independent would keep only the diagonal and
    understate the error about threefold on the default grid.
    """
    mask = curve.counts > 0
    if window is not None:
        lo, hi = window
        mask &= (curve.thresholds >= lo) & (curve.thresholds <= hi)
    k = np.count_nonzero(mask)
    if k < 3:
        raise InvalidArgumentError("need at least three nonzero bins to fit")
    order = np.argsort(curve.thresholds[mask], kind="stable")
    used_r = curve.thresholds[mask][order]
    used_counts = curve.counts[mask][order].astype(np.float64)
    if np.any(np.diff(used_counts) > 0):
        raise InvalidArgumentError("exceedance counts must not increase with R")
    logs = np.log(used_counts / float(curve.n_samples)) + 4.0 * np.log(used_r)
    est = float(np.exp(logs.sum() / k))
    stderr = est * math.sqrt(np.sum((2.0 * (k - np.arange(k)) - 1.0) / used_counts)) / k
    return TailFit(constant=est, stderr=stderr, used_thresholds=used_r)
