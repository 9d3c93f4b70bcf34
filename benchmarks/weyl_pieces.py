"""The Weyl batch kernel on one short chunk, at one and at two workers.

Times weyl_values_batch at the shape of perfbench's weyl-deep workload
(the first 512 uniform01 draws of chunk 0 at the default seed, pair
(1/10, 1/10), N = 10^4, r = 2) and the `theta-tails tail` call that runs
it, in fresh interpreters, and records per interpreter:

- ms_per_call, ns_per_term: median wall of one kernel call, and that over
  512 * floor(rN) terms;
- cli_samples_per_s: 512 / median wall of one in-process cli.main call
  with the workload's flags (JSON to a temporary file);
- minflt_per_call: ru_minflt over the timed kernel calls, per call, and
  cli_minflt_per_call the same over the cli.main calls;
- ru_maxrss_mb: peak resident set size after all the calls.

Each interpreter runs one worker count (1 or 2). A checkout whose kernel
has no `workers` keyword runs every call at one worker; its rows are its
baseline at both counts. With --src pointing at the src/ directory of
another checkout (the parent commit, say), the same probes run on it as
"before", interleaved with this checkout's runs. The values of the first
kernel call are compared: within a side across worker counts (they must
be identical) and, with --src, across the sides as the largest
|after - before| / (1 + before). Writes the JSON file --out
(BENCH_10.json holds one run) with the medians of each side and worker
count, nproc, the python, numpy and scipy versions and the line count of
each src/.

    python3 benchmarks/weyl_pieces.py --out PATH [--src PARENT/src] [--runs 7] [--calls 30]

Uses only the standard library and the package; src/ is put on the import
path of each probe, nothing needs installing.
"""
from __future__ import annotations

import sys

import harness

SAMPLES, N, R = 512, 10_000, 2.0

PROBE = """
import inspect, json, os, resource, statistics, sys, tempfile
from fractions import Fraction
from time import perf_counter

from theta_tails import CHUNK_SIZE, DEFAULT_SEED, normalize_pair, weyl_values_batch
from theta_tails.cli import main
from theta_tails.homog import chunk_generator, open_uniforms

workers, calls, samples, N = map(int, sys.argv[1:5])
r = float(sys.argv[5])
pair = normalize_pair(Fraction(1, 10), Fraction(1, 10))
xs = open_uniforms(chunk_generator(DEFAULT_SEED, 0), CHUNK_SIZE)[:samples]
keyword = "workers" in inspect.signature(weyl_values_batch).parameters
kw = {"workers": workers} if keyword else {}


def timed(call, count):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    walls = []
    for _ in range(count):
        mark = perf_counter()
        call()
        walls.append(perf_counter() - mark)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
    return statistics.median(walls), faults / count


values = weyl_values_batch(xs, pair, N, r, **kw)
for _ in range(2):
    weyl_values_batch(xs, pair, N, r, **kw)
kernel_s, kernel_faults = timed(lambda: weyl_values_batch(xs, pair, N, r, **kw), calls)
with tempfile.TemporaryDirectory() as tmp:
    argv = [
        "tail", "--alpha", "1/10", "--beta", "1/10", "--N", str(N), "--r", repr(r),
        "--law", "uniform01", "--samples", str(samples), "--workers", str(workers),
        "--format", "json", "--out", os.path.join(tmp, "out.json"),
    ]
    for _ in range(2):
        main(argv)
    cli_s, cli_faults = timed(lambda: main(argv), calls)
print(json.dumps({
    "workers_keyword": keyword,
    "ms_per_call": kernel_s * 1e3,
    "ns_per_term": kernel_s / (samples * int(N * r)) * 1e9,
    "minflt_per_call": kernel_faults,
    "cli_samples_per_s": samples / cli_s,
    "cli_minflt_per_call": cli_faults,
    "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    "values": values.tolist(),
}))
"""


def main(argv=None) -> int:
    parser = harness.parser(__doc__, runs=7)
    parser.add_argument("--calls", type=int, default=30, help="timed calls of each kind per interpreter")
    args = parser.parse_args(argv)

    sides = harness.sides(args.src)
    probes = [(name, workers) for name in sides for workers in (1, 2)]

    def measure(job):
        name, workers = job
        return harness.probe(PROBE, sides[name], workers, args.calls, SAMPLES, N, R)

    runs = harness.interleave(probes, args.runs, measure)
    report = {
        "benchmark": f"weyl_values_batch and `theta-tails tail` at the weyl-deep shape: "
        f"{SAMPLES} uniform01 samples, pair (1/10, 1/10), N = {N}, r = {R}",
        "note": "medians over `runs` fresh interpreters per side and worker count, all "
        "interleaved; each interpreter times `calls` kernel calls and `calls` cli.main "
        "calls after two warm-up calls of each. minflt counts are ru_minflt per call over "
        "the timed calls; ru_maxrss_mb is read after all calls. One discarded warm-up "
        "interpreter per probe precedes the measured ones",
        "runs": args.runs,
        "calls": args.calls,
        **harness.host(),
    }
    values = {}
    for name, src in sides.items():
        side = {"src_lines": harness.src_lines(src), "workers_keyword": runs[(name, 1)][0]["workers_keyword"]}
        for workers in (1, 2):
            rows = runs[(name, workers)]
            values[(name, workers)] = rows[0]["values"]
            side[f"workers_{workers}"] = harness.medians(rows, skip=("values", "workers_keyword"))
        side["values_equal_across_workers"] = values[(name, 1)] == values[(name, 2)]
        report[name] = side
    if "before" in sides:
        report["max_rel_change"] = max(
            abs(a - b) / (1 + b) for a, b in zip(values[("after", 1)], values[("before", 1)])
        )
    for name in sides:
        for workers in (1, 2):
            row = report[name][f"workers_{workers}"]
            print(
                f"{name} at {workers} worker(s): kernel {row['ms_per_call']:.1f} ms "
                f"({row['ns_per_term']:.2f} ns/term, {row['minflt_per_call']:.0f} faults/call), "
                f"cli {row['cli_samples_per_s']:.0f} samples/s "
                f"({row['cli_minflt_per_call']:.0f} faults/call), ru_maxrss {row['ru_maxrss_mb']:.2f} MB"
            )
    if "max_rel_change" in report:
        print(f"max |after - before| / (1 + before): {report['max_rel_change']:.2e}")
    harness.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
