"""Theta-tail chunks before and after the parity-class draw, the shortfall
refill and the height screen.

For (1/2000, 0), (1/2002, 1/2002) and (1/2003, 0) it times, on each of
--chunks chunks and alternating the two sides, MuAbSampler.chunk against
the sampler loop it replaced, and the whole values step of
simulate_theta_tail (tailsim.theta_values) against the step it replaced.
The old code is kept below as `before_chunk` and `before_values`: full
CHUNK_SIZE blocks of candidates drawn on all of (Z/q)^2 until a chunk is
filled, then the horoball map, theta_pair_gaussian_bound and the batch on
every sample. Per pair it reports the median over chunks of each side's
best ns per sample, the candidate pairs each side draws per sample, the
fraction of samples the height screen keeps and the fraction the batch
runs on (those the three-exp bound keeps after it), and whether the values above the default grid's smallest R^2 = 2.25
equal those of the batch on the whole chunk. q = 2003 is odd, so there the
two samplers give the same stream. Writes the JSON file --out (BENCH_24.json
holds a run) with those numbers, nproc, the python, numpy and scipy
versions and the line count of src/.

    python3 benchmarks/theta_chunk.py --out PATH [--chunks 16] [--repeats 5]

Runs from a checkout without installing: src/ is put on the import path.
"""
from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import harness

sys.path.insert(0, str(harness.SRC))

import numpy as np  # noqa: E402

from theta_tails import (  # noqa: E402
    CHUNK_SIZE,
    MuAbSampler,
    conjugate_horoball,
    default_thresholds,
    haar_from_uniforms,
    open_uniforms,
    orbit_contains,
    theta_pair_gaussian_batch,
    theta_pair_gaussian_bound,
)
from theta_tails import homog  # noqa: E402
from theta_tails.tailsim import theta_values  # noqa: E402
from theta_tails.theta import theta_pair_gaussian_screen_height  # noqa: E402

PAIRS = ((Fraction(1, 2000), 0), (Fraction(1, 2002), Fraction(1, 2002)), (Fraction(1, 2003), 0))
FLOOR = float(default_thresholds()[0] ** 2)  # the default grid's smallest R^2


def before_chunk(sampler: MuAbSampler, index: int, count: int) -> dict:
    """The old MuAbSampler.chunk: blocks of CHUNK_SIZE candidates on all of
    (Z/q)^2 until CHUNK_SIZE are accepted, the last block burnt in full."""
    rng = homog.chunk_generator(sampler.seed, index)
    u = open_uniforms(rng, (3, CHUNK_SIZE))
    x, y, phi = haar_from_uniforms(u[0], u[1], u[2])
    q = sampler.pair.q
    kept, accepted = [], 0
    while accepted < CHUNK_SIZE:
        cand = rng.integers(0, q, size=(2, CHUNK_SIZE))
        kept.append(np.compress(orbit_contains(sampler.pair, cand[0], cand[1]), cand, axis=1))
        accepted += kept[-1].shape[1]
    rs = np.concatenate(kept, axis=1)[:, :count]
    xi = (rs - q * (rs >= q - q // 2)) / float(q)
    sl = slice(0, count)
    return {"x": x[sl], "y": y[sl], "phi": phi[sl], "xi1": xi[0], "xi2": xi[1]}


def after_chunk(sampler: MuAbSampler, index: int, count: int) -> dict:
    return sampler.chunk(index, count)


def before_values(sampler: MuAbSampler, index: int, count: int, floor: float) -> np.ndarray:
    """The old values step: every sample conjugated and bounded."""
    data = before_chunk(sampler, index, count)
    chunk = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
    keep = theta_pair_gaussian_bound(*chunk) * (1.0 + 1e-12) > floor
    return theta_pair_gaussian_batch(*(v[keep] for v in chunk))


class CountingGenerator:
    """A Generator that adds the candidate pairs it draws (integer draws of
    shape (2, n)) to tally[0]."""

    def __init__(self, rng: np.random.Generator, tally: list):
        self.rng, self.tally = rng, tally

    def integers(self, low, high, size):
        if size[0] == 2:
            self.tally[0] += size[1]
        return self.rng.integers(low, high, size=size)


@contextmanager
def counting():
    """A one-item tally of the candidate pairs both samplers draw inside."""
    tally = [0]
    plain = homog.chunk_generator
    homog.chunk_generator = lambda seed, index: CountingGenerator(plain(seed, index), tally)
    try:
        yield tally
    finally:
        homog.chunk_generator = plain


def best_ns_per_sample(fns, args, repeats: int) -> list:
    """Fastest of `repeats` calls of each fn on args, the fns alternating."""
    walls = [[] for _ in fns]
    for _ in range(repeats):
        for fn, wall in zip(fns, walls):
            start = perf_counter()
            fn(*args)
            wall.append(perf_counter() - start)
    return [min(wall) / CHUNK_SIZE * 1e9 for wall in walls]


def side_row(before: list, after: list) -> dict:
    row = {"before_ns_per_sample": statistics.median(before),
           "after_ns_per_sample": statistics.median(after)}
    row["speedup"] = row["before_ns_per_sample"] / row["after_ns_per_sample"]
    return row


def pair_row(alpha, beta, chunks: int, repeats: int, seed: int) -> dict:
    sampler = MuAbSampler(alpha, beta, seed=seed)
    times = {"chunk": ([], []), "values": ([], [])}
    for index in range(chunks):
        for key, fns, args in (
            ("chunk", (before_chunk, after_chunk), (sampler, index, CHUNK_SIZE)),
            ("values", (before_values, theta_values), (sampler, index, CHUNK_SIZE, FLOOR)),
        ):
            for side, ns in zip(times[key], best_ns_per_sample(fns, args, repeats)):
                side.append(ns)
    pairs = {}
    for side, chunk in (("before", before_chunk), ("after", after_chunk)):
        with counting() as tally:
            for index in range(chunks):
                chunk(sampler, index, CHUNK_SIZE)
        pairs[side] = tally[0] / (chunks * CHUNK_SIZE)
    height, batch, exact = 0, 0, True
    screen = theta_pair_gaussian_screen_height(FLOOR)
    for index in range(chunks):
        data = sampler.chunk(index, CHUNK_SIZE)
        chunk = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
        high = chunk[1] > screen
        height += int(np.count_nonzero(high))
        batch += int(np.count_nonzero(
            high & (theta_pair_gaussian_bound(*chunk) * (1.0 + 1e-12) > FLOOR)
        ))
        full = theta_pair_gaussian_batch(*chunk)
        got = theta_values(sampler, index, CHUNK_SIZE, FLOOR)
        exact &= bool(np.array_equal(got[got > FLOOR], full[full > FLOOR]))
    samples = chunks * CHUNK_SIZE
    return {
        "chunk": side_row(*times["chunk"]),
        "values": side_row(*times["values"]),
        "candidate_pairs_per_sample": pairs,
        "screen_kept_fraction": height / samples,
        "batch_fraction": batch / samples,
        "counted_values_exact": exact,
    }


def main(argv=None) -> int:
    parser = harness.parser(__doc__)
    parser.add_argument("--chunks", type=harness.positive, default=16)
    parser.add_argument("--repeats", type=harness.positive, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    rows = {f"({a}, {b})": pair_row(a, b, args.chunks, args.repeats, args.seed) for a, b in PAIRS}
    for pair, row in rows.items():
        print(
            f"{pair}: chunk {row['chunk']['before_ns_per_sample']:.0f} -> "
            f"{row['chunk']['after_ns_per_sample']:.0f} ns per sample, values "
            f"{row['values']['before_ns_per_sample']:.0f} -> "
            f"{row['values']['after_ns_per_sample']:.0f}; candidate pairs per sample "
            f"{row['candidate_pairs_per_sample']['before']:.3f} -> "
            f"{row['candidate_pairs_per_sample']['after']:.3f}; screen keeps "
            f"{row['screen_kept_fraction']:.1%}, the batch runs on {row['batch_fraction']:.1%}; "
            f"counted values exact: {row['counted_values_exact']}"
        )
    report = {
        "benchmark": "theta-tail chunks: sampler and values step, before and after",
        "note": "per chunk the best of `repeats` calls, the sides alternating; medians "
        "over chunks. before is the old sampler loop and values step (inline in the "
        "script), after is MuAbSampler.chunk and tailsim.theta_values at floor 2.25",
        "chunks": args.chunks,
        "chunk_size": CHUNK_SIZE,
        "repeats": args.repeats,
        "seed": args.seed,
        "floor": FLOOR,
        "pairs": rows,
        **harness.host(),
        "src_lines": harness.src_lines(),
    }
    harness.write(args.out, report)
    return 0 if all(row["counted_values_exact"] for row in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
