"""Every per-layer stage of theta_tails, timed in fresh interpreters.

Each interpreter imports theta_tails and times, in process and as the
fastest of --repeats calls after two untimed calls, each stage:

- import: `import theta_tails` (one per interpreter, so no repeats);
- draw_x: the x draws of perfbench's weyl-wide chunk, ns per sample;
- weyl wide, weyl deep: weyl_values_batch at perfbench's two Weyl shapes,
  ns per term per sample and ms and ru_minflt per call, and at the deep
  shape ru_maxrss read after both shapes;
- sweep m=M direct, sweep m=M chirp: weyl_values_batch at the deep shape's
  pair, law and r = 2 with N = M / 2, on SWEEP_SAMPLES samples, through
  each of its two paths (weylsum.CHIRP_MIN_TERMS set to M + 1 or 0), ns
  per term per sample, ms per call and the tracemalloc peak of one more
  call; the paths' crossover CHIRP_MIN_TERMS is read from these rows;
- chunk, theta_values, batch at each pair of PAIRS: MuAbSampler.chunk,
  tailsim.theta_values at the default grid's smallest R^2, and
  theta_pair_gaussian_batch on the whole conjugated chunk, ns per sample;
- count: _count_exceedances of the weyl-wide values on the default grid;
- fit: fit_tail_constant on exact T R^-4 counts of the default grid;
- orbit q=Q: enumerate_orbit of (1/Q, 0), wall and tracemalloc peak (of
  one more, traced call).

Each stage also records a digest of what it computed. A stage whose
function a checkout lacks (or calls otherwise) reads null.

With --src pointing at the src/ directory of another checkout (the parent
commit, say), the same interpreters run on it as "before", interleaved
with this checkout's as "after", and the report says per stage whether
both computed the same values and gives the after/before ratio of the
stage's first number. --src pointing at this checkout's own src/ is the
A/A control: its ratios show the host's spread. Writes the JSON file --out
with the medians over --runs interpreters per side, nproc, the python,
numpy and scipy versions and the line count of each src/.

    python3 benchmarks/layers.py --out PATH [--src OTHER/src] [--runs 5] [--repeats 5]

Uses only the standard library and the package; src/ is put on the import
path of each interpreter, nothing needs installing.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import harness

# the sizes each interpreter receives
WEYL = {
    "wide": {"alpha": "1/2", "beta": "0", "N": 500, "r": 1.0, "law": "normal",
             "samples": 32768},
    "deep": {"alpha": "1/10", "beta": "1/10", "N": 10_000, "r": 2.0, "law": "uniform01",
             "samples": 512},
}
SWEEP_M = [500, 1000, 2000, 3000, 5000, 10_000, 20_000, 100_000, 1_000_000]
SWEEP_SAMPLES = 512
PAIRS = [["1/2000", "0"], ["1/2002", "1/2002"], ["1/2003", "0"]]
THETA_SAMPLES = 1 << 15  # a full chunk, CHUNK_SIZE
ORBIT_Q = [250, 500, 1000, 2000]
SEED = 0xC0FFEE  # the CLI default: the weyl shapes are chunk 0 of perfbench's weyl runs

CHILD = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import layers
print(json.dumps(layers.child(json.loads(sys.argv[1]), int(sys.argv[2]))))
"""


def digest(*arrays) -> str:
    """The first 16 hex digits of the sha256 of the arrays' (or bytes') bytes."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(array if isinstance(array, bytes) else array.tobytes())
    return sha.hexdigest()[:16]


def timed(repeats: int, call) -> tuple:
    """(fastest wall s, ru_minflt per call, last result) over `repeats`
    calls after two untimed ones: the second weyl-wide kernel call still
    took about 700 minor faults that later calls did not."""
    call()
    out = call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    walls = []
    for _ in range(repeats):
        mark = perf_counter()
        out = call()
        walls.append(perf_counter() - mark)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return min(walls), faults / repeats, out


def child(config: dict, repeats: int) -> dict:
    """{stage: {number: value, ..., "digest": str} or None}, in one interpreter."""
    start = perf_counter()
    import theta_tails as tt
    names = sorted(name for name in dir(tt) if not name.startswith("_"))
    stages = {"import": {"s": perf_counter() - start, "digest": digest(" ".join(names).encode())}}
    from fractions import Fraction

    import numpy as np

    seed, samples, wide = config["seed"], config["theta_samples"], config["weyl"]["wide"]
    weyl_values = {}

    def per_sample(call, n: int) -> dict:
        wall, _, out = timed(repeats, call)
        return {"ns_per_sample": wall / n * 1e9,
                "digest": digest(*(out.values() if isinstance(out, dict) else [out]))}

    def xs_of(shape):
        from theta_tails.homog import chunk_generator, open_uniforms

        u = open_uniforms(chunk_generator(seed, 0), tt.CHUNK_SIZE)
        return tt.sampling_law(shape["law"]).transform(u)[: shape["samples"]]

    def weyl(name, shape):
        def run():
            pair = tt.normalize_pair(Fraction(shape["alpha"]), Fraction(shape["beta"]))
            call = partial(tt.weyl_values_batch, xs_of(shape), pair, shape["N"], shape["r"])
            wall, faults, values = timed(repeats, call)
            weyl_values[name] = values
            terms = max(shape["N"], int(shape["r"] * shape["N"]))
            row = {"ns_per_term_sample": wall / (terms * values.size) * 1e9,
                   "ms_per_call": wall * 1e3, "minflt_per_call": faults}
            if name == "deep":
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
                row["ru_maxrss_mb"] = peak * 1024 / 1e6
            return {**row, "digest": digest(values)}

        return run

    def sweep(m, path):
        def run():
            import tracemalloc

            from theta_tails import weylsum

            crossover = weylsum.__dict__.get("CHIRP_MIN_TERMS")
            if crossover is None and path == "chirp":
                raise AttributeError("this checkout has no chirp path")
            shape = config["weyl"]["deep"]
            pair = tt.normalize_pair(Fraction(shape["alpha"]), Fraction(shape["beta"]))
            xs = xs_of({**shape, "samples": config["sweep"]["samples"]})
            call = partial(tt.weyl_values_batch, xs, pair, m // 2, 2.0)
            weylsum.CHIRP_MIN_TERMS = 0 if path == "chirp" else m + 1
            try:
                wall, _, values = timed(repeats, call)
                row = {"ns_per_term_sample": wall / (m * values.size) * 1e9, "ms_per_call": wall * 1e3}
                tracemalloc.start()
                call()
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            finally:
                weylsum.CHIRP_MIN_TERMS = crossover
            return {**row, "alloc_peak_mb": peak / 1e6, "digest": digest(values)}

        return run

    def theta(kind, alpha, beta):
        def run():
            sampler = tt.MuAbSampler(Fraction(alpha), Fraction(beta), seed=seed)
            if kind == "chunk":
                return per_sample(partial(sampler.chunk, 0, samples), samples)
            if kind == "theta_values":
                from theta_tails.tailsim import theta_values

                floor = float(tt.default_thresholds()[0] ** 2)
                return per_sample(partial(theta_values, sampler, 0, samples, floor), samples)
            data = sampler.chunk(0, samples)
            moved = tt.conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
            return per_sample(partial(tt.theta_pair_gaussian_batch, *moved), samples)

        return run

    def count():
        from theta_tails.tailsim import _count_exceedances

        values, squared = weyl_values["wide"], tt.default_thresholds() ** 2
        return per_sample(partial(_count_exceedances, values, squared), values.size)

    def fit():
        grid, n = tt.default_thresholds(), 10**6
        curve = tt.TailCurve(
            kind="weyl", thresholds=grid, counts=np.floor(0.5 * n * grid**-4.0).astype(np.int64),
            n_samples=n, seed=0, predicted_constant=0.5,
        )
        wall, _, out = timed(repeats, partial(tt.fit_tail_constant, curve))
        return {"us_per_call": wall * 1e6, "digest": digest(np.array([out.constant, out.stderr]))}

    def orbit(q):
        def run():
            import tracemalloc

            pair = tt.normalize_pair(Fraction(1, q), Fraction(0))
            wall, _, out = timed(repeats, partial(tt.enumerate_orbit, pair))
            del out
            tracemalloc.start()
            out = tt.enumerate_orbit(pair)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return {"s": wall, "alloc_peak_mb": peak / 1e6, "points": len(out.points),
                    "digest": digest(out.points)}

        return run

    plan = [("draw_x", lambda: per_sample(partial(xs_of, wide), wide["samples"]))]
    plan += [(f"weyl {name}", weyl(name, shape)) for name, shape in config["weyl"].items()]
    plan += [(f"sweep m={m} {path}", sweep(m, path))
             for m in config["sweep"]["m"] for path in ("direct", "chirp")]
    plan += [
        (f"{kind} ({alpha}, {beta})", theta(kind, alpha, beta))
        for alpha, beta in config["pairs"] for kind in ("chunk", "theta_values", "batch")
    ]
    plan += [("count", count), ("fit", fit)]
    plan += [(f"orbit q={q}", orbit(q)) for q in config["orbit_q"]]
    for name, run in plan:
        try:
            stages[name] = run()
        except (AttributeError, ImportError, KeyError, TypeError):
            stages[name] = None  # the checkout lacks the function, or calls it otherwise
    return stages


def summarize(rows: list[dict]) -> dict:
    """Per stage the medians of its numbers over the interpreters, and its
    digest, or "differs between runs"; None where any run read null."""
    out = {}
    for name in rows[0]:
        runs = [row[name] for row in rows]
        if any(run is None for run in runs):
            out[name] = None
            continue
        digests = {run["digest"] for run in runs}
        out[name] = {
            **harness.medians(runs, skip=("digest",)),
            "digest": digests.pop() if len(digests) == 1 else "differs between runs",
        }
    return out


def first(row: dict) -> float:
    """A stage's first number, the one its after/before ratio compares."""
    return next(iter(row.values()))


def main(argv=None) -> int:
    parser = harness.parser(__doc__, runs=5)
    parser.add_argument("--repeats", type=harness.positive, default=5, help="timed calls per stage")
    args = parser.parse_args(argv)

    config = {"weyl": WEYL, "sweep": {"m": SWEEP_M, "samples": SWEEP_SAMPLES}, "pairs": PAIRS,
              "theta_samples": THETA_SAMPLES, "orbit_q": ORBIT_Q, "seed": SEED}
    sides = harness.sides(args.src)
    runs = harness.interleave(
        list(sides), args.runs,
        lambda name: harness.probe(CHILD, sides[name], json.dumps(config), args.repeats),
    )
    report = {
        "benchmark": "every per-layer stage of theta_tails, in fresh interpreters",
        "note": "per interpreter each stage's fastest of `repeats` calls after two untimed "
        "calls (import: one call); medians over `runs` interpreters per side, the sides "
        "interleaved after one discarded interpreter each. A digest is the sha256 of a "
        "stage's outputs; null marks a stage the side's src/ lacks",
        "runs": args.runs,
        "repeats": args.repeats,
        "config": config,
        **harness.host(),
    }
    for name, src in sides.items():
        report[name] = {"src_lines": harness.src_lines(src), "stages": summarize(runs[name])}
    after = report["after"]["stages"]
    before = report.get("before", {}).get("stages", {})
    both = [name for name, row in after.items() if row and before.get(name)]
    if "before" in sides:
        report["same_values"] = dict.fromkeys(after)
        report["after_over_before"] = dict.fromkeys(after)
        for name in both:
            report["same_values"][name] = after[name]["digest"] == before[name]["digest"]
            report["after_over_before"][name] = first(after[name]) / first(before[name])
    for name, row in after.items():
        line = ", ".join(f"{key} {value:.4g}" for key, value in (row or {}).items()
                         if key != "digest") or "null"
        if name in both:
            line += (f"; after/before {report['after_over_before'][name]:.3f}, "
                     f"same values {report['same_values'][name]}")
        elif "before" in sides and before[name] is None:
            line += "; before null"
        print(f"{name}: {line}")
    harness.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
