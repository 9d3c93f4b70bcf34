"""Smoke tests of the benchmarks/ scripts and the harness they share."""

import importlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.stem for p in (ROOT / "benchmarks").glob("*.py") if p.stem != "harness")
# the scripts layers.py replaced (their BENCH_<n>.json files stay as records),
# each with what layers.py's --help names of the job it took over; a case
# under a retired name runs layers.py
RETIRED = {
    "cold_start": ["`import theta_tails`", "enumerate_orbit"],
    "orbit_scaling": ["enumerate_orbit", "tracemalloc peak"],
    "theta_batch": ["theta_pair_gaussian_batch"],
    "theta_chunk": ["MuAbSampler.chunk", "tailsim.theta_values"],
    "weyl_anchors": ["weyl_values_batch", "ru_maxrss"],
}


@pytest.fixture
def load(monkeypatch):
    """Import a benchmarks/ module as `python3 benchmarks/NAME.py` sees it."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module


@pytest.fixture(scope="module")
def a_a(tmp_path_factory):
    """layers.py's A/A report at sizes small enough for a smoke test: both
    sides run this checkout, and the interpreters receive the shrunk module
    constants, which the report's config holds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "benchmarks"))
        module = importlib.import_module("layers")
        for shape in module.WEYL.values():
            patch.setitem(shape, "N", 70)
            patch.setitem(shape, "samples", 64)
            patch.setitem(shape, "law", "uniform01")
        patch.setattr(module, "SWEEP_M", [40, 90])
        patch.setattr(module, "SWEEP_SAMPLES", 16)
        patch.setattr(module, "THETA_SAMPLES", 256)
        patch.setattr(module, "ORBIT_Q", [12, 20])
        out = tmp_path_factory.mktemp("layers") / "aa.json"
        argv = ["--src", str(ROOT / "src"), "--runs", "1", "--repeats", "1", "--out", str(out)]
        assert module.main(argv) == 0
        return json.loads(out.read_text())


def rows(report: dict, prefix: str) -> dict:
    """{stage: row} of the after side's stages whose name starts with prefix,
    after checking that the before side computed the same values."""
    out = {name: row for name, row in report["after"]["stages"].items()
           if name.startswith(prefix)}
    assert out and all(report["same_values"][name] for name in out)
    return out


@pytest.mark.parametrize("name", SCRIPTS + sorted(RETIRED))
def test_each_script_has_help_and_requires_out(load, capsys, name):
    # with a default --out, a bare run would overwrite a committed BENCH_<n>.json
    main = load("layers" if name in RETIRED else name).main
    for argv, code in ((["--help"], 0), ([], 2)):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == code
    out, err = capsys.readouterr()
    assert "--out" in err
    assert all(text in out for text in RETIRED.get(name, []))


# layers.py's own count flags, and those of the retired scripts that it kept
@pytest.mark.parametrize("name, flag", [
    ("cold_start", "--runs"), ("layers", "--runs"), ("layers", "--repeats"),
    ("orbit_scaling", "--repeats"), ("theta_batch", "--repeats"), ("theta_chunk", "--repeats"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_count_flags_take_positive_ints_only(load, capsys, name, flag, value):
    # --runs 0 once reached medians() with no rows and raised IndexError
    with pytest.raises(SystemExit) as stop:
        load("layers" if name in RETIRED else name).main(["--out", "unused.json", flag, value])
    assert stop.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


def test_interleave_warms_each_job_once_then_alternates_the_order(load):
    harness = load("harness")
    calls = []

    def measure(job):
        calls.append(job)
        return len(calls)

    runs = harness.interleave(["a", "b", "c"], 4, measure)
    assert calls == list("abc" "abc" "cba" "abc" "cba")
    assert runs == {"a": [4, 9, 10, 15], "b": [5, 8, 11, 14], "c": [6, 7, 12, 13]}


def test_sides_put_the_other_checkout_first(load, tmp_path):
    harness = load("harness")
    assert harness.sides(None) == {"after": harness.SRC}
    assert list(harness.sides(tmp_path)) == ["before", "after"]


def test_layers_a_a_run_reports_every_stage_with_equal_digests(load, a_a):
    config = a_a["config"]
    stages = ["import", "draw_x", "weyl wide", "weyl deep", "count", "fit"]
    stages += [f"orbit q={q}" for q in config["orbit_q"]]
    stages += [f"sweep m={m} {path}" for m in config["sweep"]["m"] for path in ("direct", "chirp")]
    stages += [
        f"{kind} ({a}, {b})" for a, b in config["pairs"] for kind in ("chunk", "theta_values", "batch")
    ]
    assert config["orbit_q"] == [12, 20] and config["pairs"] == load("layers").PAIRS
    assert config["sweep"] == {"m": [40, 90], "samples": 16}
    for side in ("before", "after"):
        assert a_a[side]["src_lines"] == a_a["after"]["src_lines"] > 0
        assert sorted(a_a[side]["stages"]) == sorted(stages)
        assert all(row is not None for row in a_a[side]["stages"].values())
    assert a_a["same_values"] == dict.fromkeys(a_a["after"]["stages"], True)
    assert {"nproc", "python", "numpy", "scipy"} <= set(a_a)


# The keys of a retired script's BENCH_<n>.json that the ROADMAP and README
# cite live on in the rows of layers.py's stages for the same layer; each
# test below checks those rows in the A/A report and, where a digest can be
# recomputed here, that the stage timed the values it names.


def test_orbit_scaling_writes_the_key_tree_of_its_bench_file(a_a):
    from theta_tails import enumerate_orbit, normalize_pair

    committed = json.loads((ROOT / "BENCH_5.json").read_text())["rows"][0]
    assert {"wall_s", "alloc_peak_mb"} <= set(committed["enumerate_orbit"])
    orbit = rows(a_a, "orbit q=")
    assert sorted(orbit) == [f"orbit q={q}" for q in a_a["config"]["orbit_q"]]
    for name, row in orbit.items():
        q = int(name.removeprefix("orbit q="))
        assert row["s"] > 0 and row["alloc_peak_mb"] > 0
        assert row["points"] == len(enumerate_orbit(normalize_pair(Fraction(1, q), 0)).points)


def test_weyl_anchors_writes_the_key_tree_of_its_bench_file(a_a):
    # the deep-shape numbers the ROADMAP's pool and arena notes cite; the
    # two-worker ones went with the kernel's own threads
    cited = {"ms_per_call", "minflt_per_call", "ru_maxrss_mb"}
    two_workers = {"ms_per_call_2_workers", "cpu_ms_per_call_2_workers"}
    committed = json.loads((ROOT / "BENCH_20.json").read_text())
    assert cited | two_workers <= set(committed["after"]["deep"])
    weyl = rows(a_a, "weyl ")
    assert sorted(weyl) == ["weyl deep", "weyl wide"]
    assert cited <= set(weyl["weyl deep"]) and not two_workers & set(weyl["weyl deep"])
    assert {"ns_per_term_sample", "ms_per_call", "minflt_per_call"} <= set(weyl["weyl wide"])
    assert weyl["weyl deep"]["ms_per_call"] > 0 and weyl["weyl deep"]["ru_maxrss_mb"] > 0


def test_weyl_sweep_writes_the_key_tree_of_its_bench_file(load, a_a, monkeypatch):
    # each path's rows, and the crossover read from them: in BENCH_32.json
    # the chirp path is slower than the direct one at every m of the sweep
    # below CHIRP_MIN_TERMS and faster at every m from it on
    from theta_tails import CHUNK_SIZE, normalize_pair, sampling_law, weyl_values_batch, weylsum
    from theta_tails.homog import chunk_generator, open_uniforms

    cited = {"ns_per_term_sample", "ms_per_call", "alloc_peak_mb"}
    committed = json.loads((ROOT / "BENCH_32.json").read_text())
    after, before = committed["after"]["stages"], committed["before"]["stages"]
    for m in committed["config"]["sweep"]["m"]:
        direct, chirp = after[f"sweep m={m} direct"], after[f"sweep m={m} chirp"]
        assert cited <= set(direct) and cited <= set(chirp) and before[f"sweep m={m} chirp"] is None
        faster = chirp["ns_per_term_sample"] < direct["ns_per_term_sample"]
        assert faster == (m >= weylsum.CHIRP_MIN_TERMS)
    config = a_a["config"]
    sweep = rows(a_a, "sweep ")
    assert sorted(sweep) == sorted(
        f"sweep m={m} {path}" for m in config["sweep"]["m"] for path in ("direct", "chirp")
    )
    shape = config["weyl"]["deep"]
    pair = normalize_pair(Fraction(shape["alpha"]), Fraction(shape["beta"]))
    u = open_uniforms(chunk_generator(config["seed"], 0), CHUNK_SIZE)
    xs = sampling_law(shape["law"]).transform(u)[: config["sweep"]["samples"]]
    for m in config["sweep"]["m"]:
        for path, crossover in (("direct", m + 1), ("chirp", 0)):
            row = sweep[f"sweep m={m} {path}"]
            assert row["ns_per_term_sample"] > 0 and row["alloc_peak_mb"] > 0
            assert cited <= set(row)
            monkeypatch.setattr(weylsum, "CHIRP_MIN_TERMS", crossover)
            assert row["digest"] == load("layers").digest(weyl_values_batch(xs, pair, m // 2, 2.0))


def test_theta_batch_writes_the_key_tree_of_its_bench_file(load, a_a):
    from theta_tails import MuAbSampler, conjugate_horoball, theta_pair_gaussian_batch

    committed = json.loads((ROOT / "BENCH_21.json").read_text())
    assert "after_ns_per_sample" in committed["theta_batch"]
    config = a_a["config"]
    batch = rows(a_a, "batch (")
    assert sorted(batch) == sorted(f"batch ({a}, {b})" for a, b in config["pairs"])
    for (alpha, beta) in config["pairs"]:
        sampler = MuAbSampler(Fraction(alpha), Fraction(beta), seed=config["seed"])
        data = sampler.chunk(0, config["theta_samples"])
        moved = conjugate_horoball(data["x"], data["y"], data["xi1"], data["xi2"])
        row = batch[f"batch ({alpha}, {beta})"]
        assert row["ns_per_sample"] > 0
        assert row["digest"] == load("layers").digest(theta_pair_gaussian_batch(*moved))


def test_theta_chunk_writes_the_key_tree_of_its_bench_file(load, a_a):
    from theta_tails import MuAbSampler, default_thresholds
    from theta_tails.tailsim import theta_values

    committed = json.loads((ROOT / "BENCH_24.json").read_text())
    for row in committed["pairs"].values():
        assert "after_ns_per_sample" in row["chunk"] and "after_ns_per_sample" in row["values"]
    config, floor = a_a["config"], float(default_thresholds()[0] ** 2)
    chunk, values = rows(a_a, "chunk ("), rows(a_a, "theta_values (")
    assert len(chunk) == len(values) == len(config["pairs"])
    for (alpha, beta) in config["pairs"]:
        sampler = MuAbSampler(Fraction(alpha), Fraction(beta), seed=config["seed"])
        n = config["theta_samples"]
        row = chunk[f"chunk ({alpha}, {beta})"]
        assert row["ns_per_sample"] > 0
        assert row["digest"] == load("layers").digest(*sampler.chunk(0, n).values())
        row = values[f"theta_values ({alpha}, {beta})"]
        assert row["ns_per_sample"] > 0
        assert row["digest"] == load("layers").digest(theta_values(sampler, 0, n, floor))
