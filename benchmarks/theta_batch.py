"""The Gaussian theta batch against the 13-term lattice formula it replaced.

Draws 32 chunks of the (1/2000, 0) sampler, moves them through
conjugate_horoball as the theta-tail simulation does, and times on each
chunk the plain 13-term formula (kept below as `before`: an exp, a cos and a
sin over the chunk per term) and the library's theta_pair_gaussian_batch,
alternating the two. Reports the median ns per sample of each over the
chunks, the largest deviation |after - before| / (1 + before), and the
median wall time of `import theta_tails` in 5 fresh interpreters with
whether scipy.integrate got loaded. Writes the JSON file --out
(BENCH_7.json holds one run) with those numbers, nproc, the python, numpy
and scipy versions and the line count of src/.

    python3 benchmarks/theta_batch.py --out PATH [--chunks 32] [--repeats 5]

Runs from a checkout without installing: src/ is put on the import path.
"""
from __future__ import annotations

import math
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import harness

sys.path.insert(0, str(harness.SRC))

import numpy as np  # noqa: E402

from theta_tails import (  # noqa: E402
    CHUNK_SIZE,
    MuAbSampler,
    conjugate_horoball,
    theta_pair_gaussian_batch,
)

IMPORT_PROBE = """
import json, sys, time
start = time.perf_counter()
import theta_tails
print(json.dumps([time.perf_counter() - start, "scipy.integrate" in sys.modules]))
"""


def before(x, y, xi1, xi2, halfwidth=6):
    """The 13-term formula: one exp, cos and sin over the chunk per term."""
    k0 = np.round(xi2)
    t = xi2 - k0
    acc_re = np.zeros_like(x)
    acc_im = np.zeros_like(x)
    for j in range(-halfwidth, halfwidth + 1):
        m = j - t
        amp = np.exp(-math.pi * m * m * y)
        ang = 2.0 * math.pi * (0.5 * m * m * x + (k0 + j) * xi1)
        acc_re += amp * np.cos(ang)
        acc_im += amp * np.sin(ang)
    return np.sqrt(y) * (acc_re * acc_re + acc_im * acc_im)


def best_ns_per_sample(fns, args, repeats: int) -> list:
    """Fastest of `repeats` calls of each fn on args, the fns alternating."""
    walls = [[] for _ in fns]
    for _ in range(repeats):
        for fn, wall in zip(fns, walls):
            start = perf_counter()
            fn(*args)
            wall.append(perf_counter() - start)
    return [min(wall) / args[0].size * 1e9 for wall in walls]


def import_probe(runs: int) -> dict:
    probes = [harness.probe(IMPORT_PROBE, harness.SRC) for _ in range(runs)]
    return {
        "median_s": statistics.median(seconds for seconds, _ in probes),
        "scipy_integrate_loaded": any(loaded for _, loaded in probes),
    }


def main(argv=None) -> int:
    parser = harness.parser(__doc__)
    parser.add_argument("--chunks", type=harness.positive, default=32)
    parser.add_argument("--repeats", type=harness.positive, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sampler = MuAbSampler(Fraction(1, 2000), 0, seed=args.seed)
    old_ns, new_ns, deviation = [], [], 0.0
    for index in range(args.chunks):
        data = sampler.chunk(index, CHUNK_SIZE)
        chunk = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
        old, new = best_ns_per_sample(
            (before, theta_pair_gaussian_batch), chunk, args.repeats
        )
        old_ns.append(old)
        new_ns.append(new)
        want = before(*chunk)
        got = theta_pair_gaussian_batch(*chunk)
        deviation = max(deviation, float(np.max(np.abs(got - want) / (1.0 + want))))
    batch = {
        "before_ns_per_sample": statistics.median(old_ns),
        "after_ns_per_sample": statistics.median(new_ns),
        "max_deviation": deviation,
    }
    batch["speedup"] = batch["before_ns_per_sample"] / batch["after_ns_per_sample"]
    imports = import_probe(5)
    print(
        f"batch: {batch['before_ns_per_sample']:.0f} -> "
        f"{batch['after_ns_per_sample']:.0f} ns per sample "
        f"(x{batch['speedup']:.2f}), max deviation {deviation:.2e} (1 + value); "
        f"import theta_tails {imports['median_s']:.3f} s, "
        f"scipy.integrate loaded: {imports['scipy_integrate_loaded']}"
    )
    report = {
        "benchmark": "Gaussian theta batch on conjugated (1/2000, 0) sampler chunks",
        "note": "per chunk the best of `repeats` calls; medians over chunks. "
        "before is the 13-term formula, after is theta_pair_gaussian_batch; "
        "max_deviation is |after - before| / (1 + before)",
        "chunks": args.chunks,
        "chunk_size": CHUNK_SIZE,
        "repeats": args.repeats,
        "seed": args.seed,
        "theta_batch": batch,
        "import_theta_tails": imports,
        **harness.host(),
        "src_lines": harness.src_lines(),
    }
    harness.write(args.out, report)
    return 0 if deviation <= 2e-15 and not imports["scipy_integrate_loaded"] else 1


if __name__ == "__main__":
    sys.exit(main())
