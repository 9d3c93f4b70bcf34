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
checkout's runs. Writes the JSON file --out (BENCH_8.json holds one run)
with the medians of each side, nproc, the python, numpy and scipy versions
and the line count of each src/.

    python3 benchmarks/cold_start.py --out PATH [--src PARENT/src] [--runs 9]

Uses only the standard library and the package; src/ is put on the import
path of each probe, nothing needs installing.
"""
from __future__ import annotations

import sys

import harness

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


def main(argv=None) -> int:
    args = harness.parser(__doc__, runs=9).parse_args(argv)
    sides = harness.sides(args.src)
    runs = harness.interleave(
        list(sides), args.runs, lambda name: harness.probe(PROBE, sides[name])
    )
    report = {
        "benchmark": "theta-large-q set-up in fresh interpreters: import theta_tails, "
        "factorize(2000), enumerate_orbit((1/2000, 0)), MuAbSampler",
        "note": "medians over `runs` fresh interpreters per side, the sides interleaved; "
        "enumerate_alloc_peak_mb is the tracemalloc peak of a second enumerate_orbit "
        "call; scipy_special_loaded is true if any run loaded it. One discarded "
        "warm-up run per side precedes the measured ones",
        "runs": args.runs,
        **harness.host(),
    }
    for name, src in sides.items():
        report[name] = {
            "src_lines": harness.src_lines(src),
            **harness.medians(runs[name], skip=("scipy_special_loaded",)),
            "scipy_special_loaded": any(run["scipy_special_loaded"] for run in runs[name]),
        }
    for name in sides:
        side = report[name]
        print(
            f"{name}: setup {side['setup_s']:.3f} s (import {side['import_s']:.3f} s, "
            f"first factorize {side['factorize_s'] * 1e3:.2f} ms, enumerate "
            f"{side['enumerate_s']:.3f} s, alloc peak {side['enumerate_alloc_peak_mb']:.1f} MB), "
            f"ru_maxrss {side['ru_maxrss_mb']:.1f} MB, "
            f"scipy.special loaded: {side['scipy_special_loaded']}"
        )
    harness.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
