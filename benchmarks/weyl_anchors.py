"""Where the Weyl batch kernel spends a call: anchor phases, phasors, recurrence.

Times weyl_values_batch in fresh interpreters at two shapes:

- wide: perfbench's weyl-wide chunk, the 32,768 normal-law draws of
  chunk 0 at the default seed, pair (1/2, 0), N = 500, r = 1;
- deep: perfbench's weyl-deep chunk, the first 512 uniform01 draws of
  chunk 0, pair (1/10, 1/10), N = 10^4, r = 2.

and records per interpreter and shape:

- ms_per_call: median wall of one kernel call at one worker, and
  minflt_per_call its ru_minflt per call over the same calls;
- phase_ms, phasor_ms, recurrence_ms: the split of one call, from a second
  set of calls with timers round the module's _phase_mod1 and _unit_phasor
  (the recurrence is the rest of that call's wall); split_ms is that wall
  and phasor_share the phasors' part of it;
- at the deep shape, ms_per_call_2_workers and workers_ratio, the
  two-worker over the one-worker median (1 would be no gain from the
  second thread, 0.5 a perfect split);
- ru_maxrss_mb: peak resident set size after all the calls.

With --src pointing at the src/ directory of another checkout (the parent
commit, say), the same probes run on it as "before", interleaved with this
checkout's runs, and the values of the first call at each shape are
compared as the largest |after - before| / (1 + before). Writes the JSON
file --out (BENCH_13.json holds one run) with the medians of each side and
shape, nproc, the python, numpy and scipy versions and the line count of
each src/.

    python3 benchmarks/weyl_anchors.py --out PATH [--src PARENT/src] [--runs 7] [--calls 20]

Uses only the standard library and the package; src/ is put on the import
path of each probe, nothing needs installing.
"""
from __future__ import annotations

import sys

import harness

SHAPES = {
    "wide": {"alpha": "1/2", "beta": "0", "N": 500, "r": 1.0, "law": "normal", "samples": 32768, "two_workers": 0},
    "deep": {"alpha": "1/10", "beta": "1/10", "N": 10_000, "r": 2.0, "law": "uniform01", "samples": 512, "two_workers": 1},
}

PROBE = """
import json, resource, statistics, sys
from fractions import Fraction
from time import perf_counter

from theta_tails import CHUNK_SIZE, DEFAULT_SEED, normalize_pair, sampling_law, weyl_values_batch
from theta_tails import weylsum
from theta_tails.homog import chunk_generator, open_uniforms

alpha, beta, law = sys.argv[1:4]
N, samples, two_workers, calls = map(int, sys.argv[4:8])
r = float(sys.argv[8])
pair = normalize_pair(Fraction(alpha), Fraction(beta))
u = open_uniforms(chunk_generator(DEFAULT_SEED, 0), CHUNK_SIZE)
xs = sampling_law(law).transform(u)[:samples]


def run(workers=1):
    return weyl_values_batch(xs, pair, N, r, **({"workers": workers} if workers > 1 else {}))


def walls(workers=1):
    out = []
    for _ in range(calls):
        mark = perf_counter()
        run(workers)
        out.append(perf_counter() - mark)
    return statistics.median(out)


values = run()
run()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
kernel_s = walls()
row = {
    "ms_per_call": kernel_s * 1e3,
    "minflt_per_call": (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / calls,
}
if two_workers:
    run(2)
    row["ms_per_call_2_workers"] = walls(2) * 1e3
    row["workers_ratio"] = row["ms_per_call_2_workers"] / row["ms_per_call"]

spent = {"_phase_mod1": 0.0, "_unit_phasor": 0.0}


def timer(name):
    real = getattr(weylsum, name)

    def wrapped(*args):
        mark = perf_counter()
        try:
            return real(*args)
        finally:
            spent[name] += perf_counter() - mark

    return wrapped


for name in spent:
    setattr(weylsum, name, timer(name))
split = []
for _ in range(calls):
    spent.update(dict.fromkeys(spent, 0.0))
    mark = perf_counter()
    run()
    wall = perf_counter() - mark
    split.append((wall, spent["_phase_mod1"], spent["_unit_phasor"]))
wall, phase, phasor = (statistics.median(column) for column in zip(*split))
row.update({
    "split_ms": wall * 1e3,
    "phase_ms": phase * 1e3,
    "phasor_ms": phasor * 1e3,
    "recurrence_ms": statistics.median(w - p - q for w, p, q in split) * 1e3,
    "phasor_share": statistics.median(q / w for w, p, q in split),
    "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    "values": values.tolist(),
})
print(json.dumps(row))
"""


def main(argv=None) -> int:
    parser = harness.parser(__doc__, runs=7)
    parser.add_argument("--calls", type=harness.positive, default=20, help="timed calls of each kind per interpreter")
    args = parser.parse_args(argv)

    sides = harness.sides(args.src)
    probes = [(name, shape) for name in sides for shape in SHAPES]

    def measure(job):
        name, shape = job
        s = SHAPES[shape]
        return harness.probe(
            PROBE, sides[name], s["alpha"], s["beta"], s["law"], s["N"], s["samples"],
            s["two_workers"], args.calls, s["r"],
        )

    runs = harness.interleave(probes, args.runs, measure)
    report = {
        "benchmark": "weyl_values_batch at perfbench's two Weyl shapes, with the call "
        "split into anchor phases (_phase_mod1), phasors (_unit_phasor) and the recurrence",
        "shapes": SHAPES,
        "note": "medians over `runs` fresh interpreters per side and shape, all interleaved; "
        "each interpreter makes two untimed calls, `calls` timed calls at one worker (and at "
        "two at the deep shape), then `calls` calls with timers round the two helpers. "
        "minflt counts are ru_minflt per timed one-worker call; ru_maxrss_mb is read after "
        "all calls. One discarded warm-up interpreter per probe precedes the measured ones",
        "runs": args.runs,
        "calls": args.calls,
        **harness.host(),
    }
    values = {}
    for name, src in sides.items():
        side = {"src_lines": harness.src_lines(src)}
        for shape in SHAPES:
            rows = runs[(name, shape)]
            values[(name, shape)] = rows[0]["values"]
            side[shape] = harness.medians(rows, skip=("values",))
        report[name] = side
    if "before" in sides:
        report["max_rel_change"] = {
            shape: max(
                abs(a - b) / (1 + b)
                for a, b in zip(values[("after", shape)], values[("before", shape)])
            )
            for shape in SHAPES
        }
    for name in sides:
        for shape in SHAPES:
            row = report[name][shape]
            line = (
                f"{name} {shape}: kernel {row['ms_per_call']:.1f} ms "
                f"({row['minflt_per_call']:.0f} faults/call); split of {row['split_ms']:.1f} ms: "
                f"phase {row['phase_ms']:.1f}, phasor {row['phasor_ms']:.1f}, "
                f"recurrence {row['recurrence_ms']:.1f}; ru_maxrss {row['ru_maxrss_mb']:.2f} MB"
            )
            if "workers_ratio" in row:
                line += f"; 2 workers {row['ms_per_call_2_workers']:.1f} ms (x{row['workers_ratio']:.2f})"
            print(line)
    for shape, change in report.get("max_rel_change", {}).items():
        print(f"max |after - before| / (1 + before) at {shape}: {change:.2e}")
    harness.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
