"""Cold start of the theta-large-q set-up: import, first factorize, orbit.

Runs the set-up that perfbench's child times for theta-large-q (import
theta_tails, normalize_pair, enumerate_orbit of (1/2000, 0), MuAbSampler)
in fresh interpreters and records, per interpreter:

- import_s: `import theta_tails`;
- factorize_s: the first factorize(2000), which builds the prime table;
- enumerate_s: enumerate_orbit((1/2000, 0)) wall time;
- setup_s: the whole sequence above, as the child times it;
- ru_maxrss_mb: peak resident set size after the set-up;
- enumerate_alloc_peak_mb: tracemalloc peak of a second enumerate_orbit
  call, made after ru_maxrss is read;
- scipy_special_loaded: whether the set-up loaded scipy.special.

With --src pointing at the src/ directory of another checkout (the parent
commit, say), the same probe runs on it as "before", interleaved with this
checkout's runs. Writes a JSON file (default BENCH_8.json at the
repository root) with the medians of each side, nproc, the python, numpy
and scipy versions and the line count of each src/.

    python3 benchmarks/cold_start.py [--src PARENT/src] [--runs 9]

Uses only the standard library and the package; src/ is put on the import
path of each probe, nothing needs installing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, resource, sys, tracemalloc
from fractions import Fraction
from time import perf_counter

start = perf_counter()
import theta_tails
import_s = perf_counter() - start
pair = theta_tails.normalize_pair(Fraction(1, 2000), Fraction(0))
mark = perf_counter()
theta_tails.factorize(2000)
factorize_s = perf_counter() - mark
mark = perf_counter()
orbit = theta_tails.enumerate_orbit(pair)
enumerate_s = perf_counter() - mark
theta_tails.MuAbSampler(pair, seed=1, orbit=orbit)
setup_s = perf_counter() - start
ru_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
scipy_special_loaded = "scipy.special" in sys.modules
del orbit
tracemalloc.start()
theta_tails.enumerate_orbit(pair)
alloc_peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({
    "import_s": import_s,
    "factorize_s": factorize_s,
    "enumerate_s": enumerate_s,
    "setup_s": setup_s,
    "ru_maxrss_mb": ru_maxrss_mb,
    "enumerate_alloc_peak_mb": alloc_peak / 1e6,
    "scipy_special_loaded": scipy_special_loaded,
}))
"""


def probe(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


def medians(runs: list[dict]) -> dict:
    out = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    out["scipy_special_loaded"] = any(run["scipy_special_loaded"] for run in runs)
    return out


def src_lines(src: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in src.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, help="src/ of the checkout to compare against")
    parser.add_argument("--runs", type=int, default=9, help="fresh interpreters per side")
    parser.add_argument("--out", default=str(ROOT / "BENCH_8.json"))
    args = parser.parse_args(argv)

    sides = {"after": ROOT / "src"}
    if args.src is not None:
        sides = {"before": args.src.resolve(), **sides}
    for src in sides.values():
        probe(src)  # discarded: the first run also pays for reading the files from disk
    runs = {name: [] for name in sides}
    for k in range(args.runs):
        # alternate which side goes first, so a drift in host speed hits both
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(probe(sides[name]))
    report = {
        "benchmark": "theta-large-q set-up in fresh interpreters: import theta_tails, "
        "factorize(2000), enumerate_orbit((1/2000, 0)), MuAbSampler",
        "note": "medians over `runs` fresh interpreters per side, the sides interleaved; "
        "enumerate_alloc_peak_mb is the tracemalloc peak of a second enumerate_orbit "
        "call; scipy_special_loaded is true if any run loaded it. One discarded "
        "warm-up run per side precedes the measured ones",
        "runs": args.runs,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }
    for name, src in sides.items():
        report[name] = {"src_lines": src_lines(src), **medians(runs[name])}
    for name in sides:
        side = report[name]
        print(
            f"{name}: setup {side['setup_s']:.3f} s (import {side['import_s']:.3f} s, "
            f"first factorize {side['factorize_s'] * 1e3:.2f} ms, enumerate "
            f"{side['enumerate_s']:.3f} s, alloc peak {side['enumerate_alloc_peak_mb']:.1f} MB), "
            f"ru_maxrss {side['ru_maxrss_mb']:.1f} MB, "
            f"scipy.special loaded: {side['scipy_special_loaded']}"
        )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
