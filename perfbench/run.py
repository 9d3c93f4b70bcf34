"""Benchmark for the theta-tails simulation commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weyl-wide --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one table
    python3 perfbench/run.py --self-test        # tiny sizes, both modes

The program is loaded from the checkout's src/ only. Every measurement runs
in a fresh interpreter (child.py), so import time and peak RSS are those a
user's process sees; this process only schedules, aggregates and prints.

--trace 0 prints the end-to-end metrics:
  samples_per_s  --samples / wall of one in-process cli.main call at nproc
                 workers, median over all calls
  setup_s        import theta_tails plus the pre-chunk calls, median over
                 the fresh interpreters
  peak_rss_mb    ru_maxrss of an interpreter that set up and made calls,
                 median over the fresh interpreters
--trace 1 prints the per-layer metrics of a single-worker run rebuilt from
the public layer functions (medians over the passes made in --seconds).

Both modes check every CLI output; failures are counted in `failed` and
reported as fail_ratio. The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, SECOND_SEED, TINY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s
# Fresh interpreters are started one after another for --seconds, at least
# MIN_CHILDREN of them; each times its set-up once and then
# calls the CLI for up to CHILD_SECONDS. Spreading set-ups and calls over the
# run evens out the host's speed swings, which last a few seconds.
MIN_CHILDREN = 3
CHILD_SECONDS = 5.0

END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "weylsum.kernel_s": "s",
    "weylsum.terms": "count",
    "weylsum.ns_per_term": "ns",
    "theta.batch_s": "s",
    "theta.ns_per_sample": "ns",
    "homog.draw_s": "s",
    "homog.ns_per_sample": "ns",
    "homog.sampler_init_s": "s",
    "orbits.enumerate_s": "s",
    "orbits.points": "count",
    "orbits.ns_per_point": "ns",
    "orbits.alloc_peak_mb": "MB",
    "constants.tail_constant_s": "s",
    "theta_tails.import_s": "s",
    "tailsim.chunks": "count",
    "tailsim.count_s": "s",
    "tailsim.conjugate_s": "s",
    "tailsim.fit_s": "s",
    "tailsim.self_s": "s",
    "tailsim.parallel_eff": "ratio",
    "cli.main_nproc_s": "s",
    "cli.main_1worker_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def run_child(config: dict, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("THETA_TAILS_SEED", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(config)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{config['mode']} child timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{config['mode']} child exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildFailed(f"theta_tails was imported from {result['module']}, not {SRC}")
    return result


class Tally:
    """Attempted and failed operations with the reasons for the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result.get("failed", bool(result["problems"]))
        self.problems += result["problems"]

    def crash(self, exc: ChildFailed) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(str(exc))


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """(result dict as printed, human-readable report lines) for one run."""
    w = (TINY if tiny else WORKLOADS)[name]
    workers = nproc()
    deadline = time.monotonic() + DEADLINE_S
    RUN_DIR.mkdir(exist_ok=True)
    base = {"workload": name, "tiny": tiny, "seed": seed, "seconds": seconds,
            "workers": workers, "outdir": str(RUN_DIR)}
    tally = Tally()
    metrics = {}
    lines = []
    if trace:
        try:
            result = run_child(dict(base, mode="trace"), deadline)
            tally.add(result)
            passes = result.get("passes", [])
            if passes:
                metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
                metrics["theta_tails.import_s"] = result["import_s"]
                lines.append(f"{name} traced ({len(passes)} passes, 1 worker; "
                             f"parallel_eff against {workers} workers):")
                lines += [f"  {k} = {metrics[k]:.6g} {PER_LAYER[k]}" for k in PER_LAYER]
        except ChildFailed as exc:
            tally.crash(exc)
        units = PER_LAYER
    else:
        runs = []
        start = time.monotonic()
        # stop before a child that would, at the mean child time, overrun
        while len(runs) < MIN_CHILDREN or (
            (time.monotonic() - start) * (1 + 1 / len(runs)) <= seconds
        ):
            try:
                result = run_child(
                    dict(base, mode="measure", seconds=min(seconds, CHILD_SECONDS)), deadline
                )
            except ChildFailed as exc:
                tally.crash(exc)
                break
            tally.add(result)
            if not result["walls"]:
                break
            runs.append(result)
        if len(runs) >= MIN_CHILDREN and not tally.failed:
            rates = [w.samples / wall for r in runs for wall in r["walls"]]
            metrics = {
                "samples_per_s": statistics.median(rates),
                "setup_s": statistics.median(r["setup_s"] for r in runs),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
            v = runs[0]["versions"]
            lines.append(
                f"{name} seed={seed:#x}: samples_per_s={metrics['samples_per_s']:.6g} 1/s "
                f"(median of {len(rates)} calls, {w.samples} samples each, "
                f"{workers} workers); setup_s={metrics['setup_s']:.4f} s and "
                f"peak_rss_mb={metrics['peak_rss_mb']:.1f} MB (medians of "
                f"{len(runs)} fresh interpreters)"
            )
            lines.append(
                f"  python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
                f"nproc {workers}, src lines {src_lines()}"
            )
        units = END_TO_END
    lines.append(f"  fail_ratio={tally.failed / tally.attempted:g} ratio "
                 f"({tally.failed} of {tally.attempted} operations failed)")
    correct = tally.failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    for problem in tally.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    return result, lines


def self_test() -> int:
    """Tiny runs of every workload: metric names and units as in
    BENCHMARK.json, no failed check, and the traced counts equal the CLI's
    at the default and the second seed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for name in WORKLOADS:
        for trace, seed in ((0, DEFAULT_SEED), (1, DEFAULT_SEED), (1, SECOND_SEED)):
            result, lines = run_workload(name, seed, 0.5, trace, tiny=True)
            print("\n".join(lines))
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            good = result["correct"] and printed == declared[trace]
            print(f"self-test {name} trace={trace} seed={seed:#x}: {'ok' if good else 'FAILED'}")
            ok &= good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "theta_tails" / "__init__.py").is_file():
        print(f"error: no theta_tails package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": m for n, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
