"""The Gaussian theta batch against the 13-term lattice formula it replaced.

Draws 32 chunks of the (1/2000, 0) sampler, moves them through
conjugate_horoball as the theta-tail simulation does, and times on each
chunk the plain 13-term formula (kept below as `before`: an exp, a cos and a
sin over the chunk per term) and the library's theta_pair_gaussian_batch,
alternating the two. Reports the median ns per sample of each over the
chunks, the largest deviation |after - before| / (1 + before), and the
median wall time of `import theta_tails` in 5 fresh interpreters with
whether scipy.integrate got loaded. Writes a JSON file (default BENCH_7.json
at the repository root) with those numbers, nproc, the python, numpy and
scipy versions and the line count of src/.

    python3 benchmarks/theta_batch.py [--chunks 32] [--repeats 5]

Runs from a checkout without installing: src/ is put on the import path.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from theta_tails import (  # noqa: E402
    CHUNK_SIZE,
    MuAbSampler,
    conjugate_horoball,
    theta_pair_gaussian_batch,
)

IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import theta_tails\n"
    "print(time.perf_counter() - start, 'scipy.integrate' in sys.modules)\n"
)


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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds, loaded = [], []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        ).stdout.split()
        seconds.append(float(out[0]))
        loaded.append(out[1] == "True")
    return {"median_s": statistics.median(seconds), "scipy_integrate_loaded": any(loaded)}


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chunks", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=str(ROOT / "BENCH_7.json"))
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
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": src_lines(),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if deviation <= 2e-15 and not imports["scipy_integrate_loaded"] else 1


if __name__ == "__main__":
    sys.exit(main())
