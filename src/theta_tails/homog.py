"""Haar measure on the fundamental domain of the theta group, and samplers.

The domain F is the region 0 <= x < 2 outside the open unit disks centred
at 0 and 2; both boundary circles meet at (1, 0) and the lowest interior
points away from the two cusps sit at height sqrt(3)/2. The hyperbolic area
is pi, so normalized Haar on F x [0, pi) factors as

    (1/pi) dx dy / y^2  *  (1/pi) dphi,

and both marginals invert in closed form: the x-marginal CDF is
arcsin(x)/pi on [0, 1] (mirror on [1, 2]), and conditionally on x the height
is h(x)/u for a uniform u. That gives an exact inverse-CDF sampler,
haar_from_uniforms: no rejection step, one uniform triple per point.

The cusp at 1 is carried to infinity by z -> 1/(1 - z), an SL(2, Z)
element outside the theta group (its xi action needs an extra half shift
in the second slot); images of the horoball |z - 1| < 1 in F have
y >= sqrt(3)/2. conjugate_horoball maps the horoball points of a batch,
z and xi together, in one pass over it. Whether a point can end above a
height Y in either cusp shows in its uniforms (u1, u2) already:
cusp_candidates keeps, before any map, a superset of those draws, so a
caller that needs only them maps no others.

Randomness is consumed in fixed-size chunks, each owning the generator
seeded by (seed, chunk_index), both below 2^64; results are concatenated
in chunk order, so the output stream is bit-identical no matter how many
threads execute the chunks, and a short draw is a prefix of a longer one.
MuAbSampler.chunk is one such chunk, the unit the tail simulators run on:
MuAbSampler.raw_chunk draws its uniforms of x and y, skips those of phi,
and draws its orbit candidates, of which OrbitCandidates.take gathers any
columns; MuAbSampler.points maps any columns of them, so mapping fewer
samples never changes the stream. Its orbit points are drawn in the pair's
parity class (RationalPair.diagonal), so a chunk of C samples draws about
C / 0.96 candidate pairs at q = 2000, and on average at most about C / 0.81
at any q.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .arith import normalize_pair
from .errors import InvalidArgumentError, check_integer
from .orbits import OrbitData, orbit_contains

DEFAULT_SEED = 0xC0FFEE
CHUNK_SIZE = 1 << 15
MAX_SEED = (1 << 64) - 1  # of a seed or a chunk index: one 64-bit word each
MAX_SAMPLES = (1 << 63) - 1  # of a sample count: the tail curves count in int64
MAX_WORKERS = 64  # threads of a run_chunks call

_BELOW_ONE = 1.0 - 2.0**-53
# cusp_candidates' slack: relative, for rounding, and absolute, for the
# computed floor height h
_MARGIN = 1.0 + 1e-9
_H_SLACK = 1e-15


def conjugate_horoball(x, y, xi1, xi2):
    """z -> 1/(1 - z), (xi1, xi2) -> (xi2, -xi1 + xi2 + 1/2) on the points of
    (x, y, xi1, xi2) in the horoball |z - 1| < 1, the rest unchanged; phi is
    left out, as the Gaussian pairing does not depend on it."""
    wr = 1.0 - x
    den = wr * wr + y * y
    inside = den < 1.0
    return (np.where(inside, wr / den, x), np.where(inside, y / den, y),
            np.where(inside, xi2, xi1), np.where(inside, -xi1 + xi2 + 0.5, xi2))


def chunk_generator(seed: int, index: int) -> np.random.Generator:
    """The generator owning chunk `index` of the stream rooted at `seed`,
    integers with 0 <= seed, index < 2^64."""
    check_integer("seed", seed, 0, MAX_SEED)
    check_integer("chunk index", index, 0, MAX_SEED)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def run_chunks(n_samples: int, chunk_fn, workers: int = 1) -> list:
    """chunk_fn(index, count) for the chunks 0, 1, ... that cover n_samples,
    each CHUNK_SIZE long but the last; results in chunk order.

    Runs on a pool of min(workers, chunks) threads, the only threads the
    package starts; workers must be an integer from 1 to MAX_WORKERS."""
    check_integer("workers", workers, 1, MAX_WORKERS)
    starts = range(0, n_samples, CHUNK_SIZE)
    plan = [(k, min(CHUNK_SIZE, n_samples - start)) for k, start in enumerate(starts)]
    workers = min(workers, len(plan))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda job: chunk_fn(*job), plan))
    return [chunk_fn(*job) for job in plan]


def open_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms in the open interval (0, 1): (k + 1/2) 2^-53 for the 53-bit
    integers k of rng.random, the top bits of one PCG64 output each, as
    rng.integers(0, 2^53) draws them. That rounds to 1.0 at k = 2^53 - 1
    alone, which is clamped to 1 - 2^-53, the largest double below 1.
    """
    u = rng.random(shape)
    u += 2.0**-54  # in place: each fresh chunk-sized array costs page faults
    return np.minimum(u, _BELOW_ONE, out=u)


def haar_from_uniforms(u1, u2, u3):
    """Map uniform triples to Haar-distributed (x, y, phi) on F x [0, pi).

    Inverse CDF throughout: x = sin(pi u1) on the left half (u1 < 1/2),
    mirrored through 2 on the right; the floor height comes out of the same
    evaluation as cos(pi u1), never via sqrt(1 - x^2), so the pair (x, h)
    is consistent to the last bit; y = h/u2; phi = pi u3.
    """
    return (*_haar_xy(u1, u2), np.pi * np.asarray(u3, dtype=np.float64))


def _haar_xy(u1, u2):
    """The (x, y) of haar_from_uniforms, whose phi the Gaussian pairing does
    not read."""
    u1 = np.asarray(u1, dtype=np.float64)
    angle = np.pi * np.minimum(u1, 1.0 - u1)  # 1 - u1 > u1 exactly when u1 < 1/2
    s, h = np.sin(angle), np.cos(angle)
    return np.where(u1 < 0.5, s, 2.0 - s), h / np.asarray(u2, dtype=np.float64)


def cusp_candidates(u1, u2, height: float) -> tuple[np.ndarray, np.ndarray]:
    """(kept, at_one): the indices, in order, of the uniform pairs (u1, u2)
    whose Haar point from haar_from_uniforms, moved by conjugate_horoball,
    can lie above height > 0, every index if height is not > 0 (-inf: keep
    all); and per kept index the cusp it can end in: 1.0 for the cusp at 1
    (a point inside the horoball, moved), 0.0 for the cusp at infinity, NaN
    where both tests below pass (a NaN uniform, or a height below 2) or
    there is no height.

    Proof of the superset. Write d = |u1 - 1/2|. Then the point's floor
    height is h = cos(pi min(u1, 1 - u1)) = sin(pi d), with
    2d <= h <= min(1, pi d) as sin is concave on [0, pi/2], and y = h/u2.
    With Y = height:
    - outside the horoball the point keeps y, and y > Y gives
      Y u2 < h <= min(1, pi d);
    - inside it, den = (1 - x)^2 + y^2 < 1 and den >= y^2, so y/den > Y
      gives 1/y > Y, and u2 > Y h >= 2 Y d.
    A pair is dropped only where both tests fail. y comes from h as
    computed, whose angle is off pi/2 - pi d by up to one ulp of pi/2: so
    at u1 = 1/2 - 2^-54, h is 1.6 pi d, but it is within 1e-15 of
    sin(pi d) everywhere (1.8e-16 at most against mpmath). Each test is
    widened by that 1e-15 and by a factor 1 + 1e-9 for the rounding of y,
    den, y/den and its own. A pair that fails one test can end above Y only
    on the other test's side of the horoball, in its cusp. Each test is
    written so that a NaN passes it: such a pair is kept, with at_one NaN,
    and reaches the range checks.

    At Y >= 2, as every finite theta_pair_gaussian_screen_height is, the
    two sets are disjoint (2Y d < u2 < pi d / Y has no solution), and
    uniform pairs land in them at rates (1 - 1/pi)/Y and 1/(2Y), against
    3/(pi Y) for the points that end above Y: 23.4% and 18.9% at the
    default grid's Y = 5.06.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if not height > 0:
        return np.arange(u1.size), np.full(u1.size, np.nan)
    d = np.abs(u1 - 0.5)
    scale = _MARGIN / height
    reach = d * (np.pi * scale)  # outside: (min(1, pi d) + 1e-15) (1 + 1e-9) / Y
    reach += _H_SLACK * scale
    fails_outside = u2 >= np.minimum(reach, (1.0 + _H_SLACK) * scale, out=reach)
    d *= 2.0 / scale  # inside: (2d - 1e-15) Y / (1 + 1e-9)
    d -= _H_SLACK / scale
    fails_inside = u2 <= d
    kept = np.flatnonzero(~(fails_outside & fails_inside))
    at_one = np.where(fails_inside[kept], 0.0, np.nan)
    at_one[fails_outside[kept]] = 1.0
    return kept, at_one


class OrbitCandidates(NamedTuple):
    """The accepted orbit candidates (r, s) of one chunk, as drawn: the
    first block `first` (2, CHUNK_SIZE), the positions `cols` of its
    accepted columns, and the accepted columns `extra` of the refill blocks
    in order. Accepted candidate k is first[:, cols[k]] for k < cols.size,
    else extra[:, k - cols.size]."""

    first: np.ndarray
    cols: np.ndarray
    extra: np.ndarray

    def take(self, kept) -> np.ndarray:
        """The accepted candidates at the ascending indices kept, as a
        (2, kept.size) int64 array."""
        split = np.searchsorted(kept, self.cols.size)
        head = self.first.take(self.cols.take(kept[:split]), axis=1)
        return np.concatenate((head, self.extra.take(kept[split:] - self.cols.size, axis=1)), axis=1)


class MuAbSampler:
    """Deterministic sampler for the lifted measure attached to (alpha, beta).

    Draws (z, phi) from Haar on F x [0, pi) and xi uniformly over the
    window coordinates of the orbit closure of (alpha, beta). No orbit is
    enumerated: xi comes from candidates (r, s) kept by the closed
    membership test orbit_contains, so any q < 2^63 that factorize accepts
    works. For even q a candidate is drawn uniform on (Z/q)^2 and moved
    into the pair's parity class: both odd by r |= 1, s |= 1, else s takes
    the other parity than r. Each map is 2-to-1 onto its class, so the draw
    stays uniform there, and only an odd prime p dividing q rejects: at
    least 0.81 of the candidates pass for any q (0.96 at q = 2000). A chunk's
    generator yields three rows of CHUNK_SIZE Haar uniforms, for x, y and
    phi, then a block of CHUNK_SIZE candidate pairs and after it blocks the
    size of the shortfall until CHUNK_SIZE are accepted. The block sizes do
    not depend on the count drawn, so draw(k) is a prefix of draw(k') for
    k < k', and worker count never changes the stream. raw_chunk draws the
    rows of x and y, skips the phi row with the generator's advance, and
    draws candidate blocks until count are accepted; points is the
    elementwise map from them to samples but phi; chunk adds phi, from a
    second generator advanced to its row.

    orbit, an enumerated orbit the caller already holds, must belong to the
    same pair; it is checked, never read, so the stream is the same with or
    without it. The candidates are int64 draws, so q must be below 2^63.
    """

    def __init__(
        self,
        alpha,
        beta=0,
        seed: int = DEFAULT_SEED,
        orbit: OrbitData | None = None,
    ):
        self.pair = normalize_pair(alpha, beta)
        check_integer("the sampler's q", self.pair.q, hi=(1 << 63) - 1)
        if orbit is not None and orbit.pair != self.pair:
            raise InvalidArgumentError(
                f"orbit of {orbit.pair} given for the pair {self.pair}"
            )
        check_integer("seed", seed, 0, MAX_SEED)
        self.seed = seed
        self._next_chunk = 0

    def raw_chunk(self, index: int, count: int) -> tuple[np.ndarray, OrbitCandidates]:
        """The draws of chunk `index` >= 0 before any map: its (2, CHUNK_SIZE)
        Haar uniforms of x and y, and orbit candidates holding at least its
        first 0 <= count <= CHUNK_SIZE accepted ones."""
        check_integer("count", count, 0, CHUNK_SIZE)
        rng = chunk_generator(self.seed, index)
        u = open_uniforms(rng, (2, CHUNK_SIZE))
        rng.bit_generator.advance(CHUNK_SIZE)  # the phi row, one 64-bit output a uniform
        pair, q = self.pair, self.pair.q
        blocks, accepted = [], 0
        while accepted < count:
            cand = rng.integers(0, q, size=(2, CHUNK_SIZE - accepted))
            if pair.diagonal:
                cand |= 1  # both odd
            elif q % 2 == 0:
                cand[1] ^= ~(cand[0] ^ cand[1]) & 1  # s of the other parity than r
            blocks.append((cand, np.flatnonzero(orbit_contains(pair, cand[0], cand[1]))))
            accepted += blocks[-1][1].size
        first, cols = blocks[0] if blocks else (np.empty((2, 0), np.int64), np.empty(0, np.intp))
        extra = [cand.take(k, axis=1) for cand, k in blocks[1:]]
        return u, OrbitCandidates(first, cols, np.concatenate([first[:, :0], *extra], axis=1))

    def window(self, rs) -> np.ndarray:
        """The xi of orbit candidates rs (2, n): (r, s) / q in the window
        [-1/2, 1/2)."""
        q = self.pair.q
        return (rs - q * (rs >= q - q // 2)) / float(q)  # 2 rs may overflow

    def points(self, u, rs) -> dict:
        """The samples but phi of uniform pairs u (2, n) and orbit candidates
        rs (2, n) from raw_chunk, as in draw: every map is elementwise, so
        the samples of any columns, in any order, are those columns of the
        whole."""
        x, y = _haar_xy(u[0], u[1])
        xi = self.window(rs)
        return {"x": x, "y": y, "xi1": xi[0], "xi2": xi[1]}

    def chunk(self, index: int, count: int) -> dict:
        """The first 0 <= count <= CHUNK_SIZE samples of chunk `index` >= 0,
        as in draw: those of points, and phi = pi u3 from the uniform row
        that raw_chunk skips."""
        u, cands = self.raw_chunk(index, count)
        data = self.points(u[:, :count], cands.take(np.arange(count)))
        rng = chunk_generator(self.seed, index)
        rng.bit_generator.advance(2 * CHUNK_SIZE)
        phi = np.pi * open_uniforms(rng, count)
        return {"x": data["x"], "y": data["y"], "phi": phi, "xi1": data["xi1"], "xi2": data["xi2"]}

    def draw(self, n: int) -> dict:
        """The next n samples, chunk by chunk on one worker, as a dict of
        arrays x, y, phi, xi1, xi2."""
        check_integer("sample count", n, 1, MAX_SAMPLES)
        parts = run_chunks(n, lambda k, count: self.chunk(self._next_chunk + k, count))
        self._next_chunk += len(parts)
        return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}

