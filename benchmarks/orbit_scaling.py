"""Orbit enumeration as q grows: the BFS closure against enumerate_orbit.

For the largest orbit at each q, the class of (1/q, 0), this times
`_bfs_codes` (the frontier BFS that stays as the test oracle) and
`enumerate_orbit` (built from the closed membership rule), and measures the
tracemalloc peak of each in a separate call, so tracing does not inflate the
times. Both must give the same points. Writes the JSON file --out
(BENCH_5.json holds one run) with the numbers, nproc, the python, numpy
and scipy versions and the line count of src/.

    python3 benchmarks/orbit_scaling.py --out PATH [--q 250 500 1000 2000] [--repeats 3]

Runs from a checkout without installing: src/ is put on the import path.
"""
from __future__ import annotations

import statistics
import sys
import tracemalloc
from fractions import Fraction
from time import perf_counter

import harness

sys.path.insert(0, str(harness.SRC))

import numpy as np  # noqa: E402

from theta_tails import enumerate_orbit, normalize_pair  # noqa: E402
from theta_tails.orbits import _bfs_codes  # noqa: E402


def wall_and_peak(fn, repeats: int) -> dict:
    """Median wall seconds over `repeats` untraced calls, then the
    tracemalloc peak (MB) of one traced call."""
    walls = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        walls.append(perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"wall_s": statistics.median(walls), "alloc_peak_mb": peak / 1e6}


def main(argv=None) -> int:
    parser = harness.parser(__doc__)
    parser.add_argument("--q", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    rows = []
    for q in args.q:
        pair = normalize_pair(Fraction(1, q), 0)
        codes = _bfs_codes(q, [(pair.a, pair.b)])
        orbit = enumerate_orbit(pair)
        identical = np.array_equal(orbit.points, np.stack([codes // q, codes % q], axis=1))
        points = orbit.size_S
        del codes, orbit
        bfs = wall_and_peak(lambda: _bfs_codes(q, [(pair.a, pair.b)]), args.repeats)
        closed = wall_and_peak(lambda: enumerate_orbit(pair), args.repeats)
        rows.append(
            {
                "q": q,
                "points": points,
                "identical": bool(identical),
                "bfs_codes": bfs,
                "enumerate_orbit": closed,
                "speedup": bfs["wall_s"] / closed["wall_s"],
            }
        )
        print(
            f"q={q}: BFS {bfs['wall_s']:.3f} s, {bfs['alloc_peak_mb']:.1f} MB; "
            f"enumerate_orbit {closed['wall_s']:.4f} s, "
            f"{closed['alloc_peak_mb']:.1f} MB; identical={identical}"
        )
    report = {
        "benchmark": "orbit enumeration, class of (1/q, 0)",
        "note": "_bfs_codes returns the sorted codes only; enumerate_orbit "
        "also builds the (n, 2) points, |U|, |V| and both line minima",
        "repeats": args.repeats,
        **harness.host(),
        "src_lines": harness.src_lines(),
        "rows": rows,
    }
    harness.write(args.out, report)
    return 0 if all(row["identical"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
