"""One fresh interpreter's share of a benchmark run.

run.py starts this as `python child.py '<json config>'` with PYTHONPATH set
to the checkout's src/ and reads the JSON object on its last stdout line.
Modes:

- measure: time `import theta_tails` plus the workload's pre-chunk calls,
  then call `cli.main` at nproc workers until the time is up, checking
  every output; report the set-up time, the call walls and the peak RSS.
- trace: per-layer passes. Each pass makes two untraced CLI calls (nproc
  workers, then one) and rebuilds the run at one worker from the public
  layer calls, with a span around each. The rebuilt counts must equal both
  CLI curves bit for bit.

theta_tails is imported inside the functions only, so that the first import
happens where it is timed.
"""
from __future__ import annotations

import json
import math
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import TINY, WORKLOADS, check_payload, curve_counts


class Tracer:
    """Spans kept in memory: [name, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.alloc_peak = 0  # bytes, tracemalloc peak of the orbit enumeration

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, parent, perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = perf_counter()

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def self_time(self, names) -> float:
        """Time inside spans called `names` not covered by a child span."""
        own = 0.0
        for index, (name, _, start, end) in enumerate(self.spans):
            if name in names:
                children = sum(e - s for _, p, s, e in self.spans if p == index)
                own += end - start - children
        return own


def pair_of(w):
    from theta_tails import normalize_pair

    return normalize_pair(Fraction(w.alpha), Fraction(w.beta))


def orbit_problems(pair, orbit) -> list[str]:
    from theta_tails import count_U_formula, count_V_formula, orbit_size_formula

    got = (orbit.size_S, orbit.size_U, orbit.size_V)
    want = (orbit_size_formula(pair), count_U_formula(pair), count_V_formula(pair))
    return [] if got == want else [f"enumerated |S|,|U|,|V| {got} != formulas {want}"]


def expected_values(w) -> dict:
    from theta_tails import leading_constant, orbit_size_formula, tail_constant

    pair = pair_of(w)
    if w.is_weyl:
        return {"predicted": tail_constant(pair, r=w.r).value}
    return {
        "predicted": float(leading_constant(pair)) / math.pi,
        "orbit_size": orbit_size_formula(pair),
    }


def setup(w, seed: int) -> tuple[float, list[str]]:
    """Seconds for `import theta_tails` plus the pre-chunk calls, and any
    problem with what they built."""
    start = perf_counter()
    import theta_tails

    pair = theta_tails.normalize_pair(Fraction(w.alpha), Fraction(w.beta))
    if w.is_weyl:
        theta_tails.tail_constant(pair, r=w.r)
        return perf_counter() - start, []
    orbit = theta_tails.enumerate_orbit(pair)
    theta_tails.MuAbSampler(pair, seed=seed, orbit=orbit)
    return perf_counter() - start, orbit_problems(pair, orbit)


class CliRunner:
    """Calls cli.main in-process the way a user runs the command."""

    def __init__(self, w, seed: int, outdir: Path):
        from theta_tails import cli

        self.main = cli.main
        self.w = w
        self.seed = seed
        self.out = outdir / f"{w.name}-{seed}-{id(self)}.json"
        self.expected = expected_values(w)

    def call(self, workers: int):
        """(payload, wall seconds, problems); payload is None on failure."""
        argv = self.w.cli_args(self.seed, workers, str(self.out))
        start = perf_counter()
        try:
            code = self.main(argv)
        except Exception as exc:  # a crash is a failed run, not a dead benchmark
            return None, None, [f"cli raised {type(exc).__name__}: {exc}"]
        wall = perf_counter() - start
        if code != 0:
            return None, wall, [f"cli exit code {code}"]
        with open(self.out) as fh:
            payload = json.load(fh)
        self.out.unlink()
        return payload, wall, check_payload(self.w, payload, self.seed, self.expected)


def measure(w, seed: int, seconds: float, workers: int, outdir: Path) -> dict:
    """Set-up once, then CLI calls at `workers` for up to `seconds`."""
    setup_s, problems = setup(w, seed)
    import resource

    import numpy
    import scipy

    runner = CliRunner(w, seed, outdir)
    walls, failed = [], int(bool(problems))
    reference = None
    attempted = 1  # the set-up
    start = perf_counter()
    # stop before a call that would, at the mean call time, overrun `seconds`
    while not walls or (perf_counter() - start) * (1 + 1 / len(walls)) <= seconds:
        attempted += 1
        payload, wall, errors = runner.call(workers)
        if payload is not None:
            counts = curve_counts(payload)
            if reference is None:
                reference = counts
            elif counts != reference:
                errors.append("a rerun with the same seed changed the counts")
        if errors:
            failed += 1
            problems += errors
            break
        walls.append(wall)
    return {
        "setup_s": setup_s,
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def mirror(w, seed: int, tracer: Tracer):
    """The CLI's simulation rebuilt from public layer calls, at one worker.

    Returns the exceedance counts and the orbit (None for Weyl workloads).
    The horoball conjugation and the exceedance count have no public
    function, so they copy simulate_theta_tail and _count_exceedances.
    """
    import numpy as np

    from theta_tails import (
        CHUNK_SIZE,
        InvalidArgumentError,
        MuAbSampler,
        TailCurve,
        chunk_generator,
        default_thresholds,
        enumerate_orbit,
        fit_tail_constant,
        leading_constant,
        open_uniforms,
        sampling_law,
        tail_constant,
        theta_pair_gaussian_batch,
        weyl_values_batch,
    )

    span = tracer.span
    pair = pair_of(w)
    orbit = None
    with span("tailsim.run"):
        thresholds = default_thresholds()
        squared = thresholds**2
        if w.is_weyl:
            with span("constants.tail_constant"):
                predicted = tail_constant(pair, r=w.r).value
            law = sampling_law(w.law)

            def chunk(index, count):
                with span("homog.draw"):
                    rng = chunk_generator(seed, index)
                    x = law.transform(open_uniforms(rng, CHUNK_SIZE))[:count]
                with span("weylsum.kernel"):
                    return weyl_values_batch(x, pair, w.N, w.r)
        else:
            with span("orbits.enumerate"):
                tracemalloc.start()
                try:
                    orbit = enumerate_orbit(pair)
                    tracer.alloc_peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            with span("homog.sampler_init"):
                sampler = MuAbSampler(pair, seed=seed, orbit=orbit)
            with span("constants.tail_constant"):
                predicted = float(leading_constant(pair)) / math.pi

            def chunk(index, count):
                with span("homog.draw"):
                    data = sampler.draw(count)
                with span("tailsim.conjugate"):
                    x, y = data["x"], data["y"]
                    xi1, xi2 = data["xi1"], data["xi2"]
                    inside = (x - 1.0) ** 2 + y * y < 1.0
                    wr = 1.0 - x
                    den = wr * wr + y * y
                    x = np.where(inside, wr / den, x)
                    y = np.where(inside, y / den, y)
                    new_xi2 = -xi1 + xi2 + 0.5
                    xi1 = np.where(inside, xi2, xi1)
                    xi2 = np.where(inside, new_xi2, xi2)
                with span("theta.batch"):
                    return theta_pair_gaussian_batch(x, y, xi1, xi2)

        counts = np.zeros(squared.size, dtype=np.int64)
        for index, start in enumerate(range(0, w.samples, CHUNK_SIZE)):
            with span("tailsim.chunk"):
                values = chunk(index, min(CHUNK_SIZE, w.samples - start))
                with span("tailsim.count"):
                    counts += np.count_nonzero(
                        values[None, :] > squared[:, None], axis=1
                    )
        curve = TailCurve(
            kind="weyl" if w.is_weyl else "theta",
            thresholds=thresholds,
            counts=counts,
            n_samples=w.samples,
            seed=seed,
            predicted_constant=predicted,
        )
        with span("tailsim.fit"):
            try:
                fit_tail_constant(curve)
            except InvalidArgumentError:  # too few nonzero bins; the CLI reports no fit
                pass
    return [int(c) for c in counts], orbit


def trace_pass(w, seed: int, workers: int, runner: CliRunner, trace_file: Path) -> dict:
    """Untraced CLI calls at `workers` and at one worker, then the traced
    rebuild; three operations, each failed by a crash or a check."""
    payload_n, wall_n, errors_n = runner.call(workers)
    payload_1, wall_1, errors_1 = runner.call(1)
    problems = errors_n + errors_1
    failed = bool(errors_n) + bool(errors_1)
    tracer = Tracer()
    try:
        counts, orbit = mirror(w, seed, tracer)
    except Exception as exc:  # reported as a failed pass
        problems.append(f"traced run raised {type(exc).__name__}: {exc}")
        return {"attempted": 3, "failed": failed + 1, "problems": problems}
    trace_file.write_text(json.dumps(
        [{"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in tracer.spans]
    ))
    traced_errors = [] if orbit is None else orbit_problems(orbit.pair, orbit)
    for label, payload in (("nproc", payload_n), ("1-worker", payload_1)):
        if payload is None or curve_counts(payload) != counts:
            traced_errors.append(f"traced counts differ from the {label} CLI counts")
    problems += traced_errors
    failed += bool(traced_errors)
    if failed:
        return {"attempted": 3, "failed": failed, "problems": problems}

    samples = w.samples
    traced_wall = tracer.total("tailsim.run")
    terms = samples * int(w.N * w.r) if w.is_weyl else 0
    points = orbit.size_S if orbit is not None else 0
    kernel_s = tracer.total("weylsum.kernel")
    batch_s = tracer.total("theta.batch")
    draw_s = tracer.total("homog.draw")
    enumerate_s = tracer.total("orbits.enumerate")
    metrics = {
        "weylsum.kernel_s": kernel_s,
        "weylsum.terms": terms,
        "weylsum.ns_per_term": kernel_s / terms * 1e9 if terms else 0.0,
        "theta.batch_s": batch_s,
        "theta.ns_per_sample": 0.0 if w.is_weyl else batch_s / samples * 1e9,
        "homog.draw_s": draw_s,
        "homog.ns_per_sample": draw_s / samples * 1e9,
        "homog.sampler_init_s": tracer.total("homog.sampler_init"),
        "orbits.enumerate_s": enumerate_s,
        "orbits.points": points,
        "orbits.ns_per_point": enumerate_s / points * 1e9 if points else 0.0,
        "orbits.alloc_peak_mb": tracer.alloc_peak / 1e6,
        "constants.tail_constant_s": tracer.total("constants.tail_constant"),
        "tailsim.chunks": tracer.count("tailsim.chunk"),
        "tailsim.count_s": tracer.total("tailsim.count"),
        "tailsim.conjugate_s": tracer.total("tailsim.conjugate"),
        "tailsim.fit_s": tracer.total("tailsim.fit"),
        "tailsim.self_s": tracer.self_time({"tailsim.run", "tailsim.chunk"}),
        "tailsim.parallel_eff": wall_1 / (workers * wall_n),
        "cli.main_nproc_s": wall_n,
        "cli.main_1worker_s": wall_1,
        "trace.overhead_s": traced_wall - wall_1,
    }
    return {"attempted": 3, "failed": 0, "problems": [], "metrics": metrics}


def trace(w, seed: int, seconds: float, workers: int, outdir: Path) -> dict:
    start = perf_counter()
    import theta_tails  # noqa: F401

    import_s = perf_counter() - start
    runner = CliRunner(w, seed, outdir)
    passes = []
    start = perf_counter()
    while not passes or (perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        passes.append(trace_pass(w, seed, workers, runner, outdir / f"trace-{w.name}-{seed}.json"))
        if "metrics" not in passes[-1]:
            break
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [msg for p in passes for msg in p["problems"]],
        "import_s": import_s,
    }
    if all("metrics" in p for p in passes):
        result["passes"] = [p["metrics"] for p in passes]
    return result


def main() -> int:
    config = json.loads(sys.argv[1])
    w = (TINY if config["tiny"] else WORKLOADS)[config["workload"]]
    seed = config["seed"]
    outdir = Path(config["outdir"])
    if config["mode"] == "measure":
        result = measure(w, seed, config["seconds"], config["workers"], outdir)
    else:
        result = trace(w, seed, config["seconds"], config["workers"], outdir)
    import theta_tails

    result["module"] = theta_tails.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
