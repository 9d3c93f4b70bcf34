"""Smoke tests of the benchmarks/ scripts and the harness they share."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.stem for p in (ROOT / "benchmarks").glob("*.py") if p.stem != "harness")


@pytest.fixture
def load(monkeypatch):
    """Import a benchmarks/ module as `python3 benchmarks/NAME.py` sees it."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module


def key_tree(value):
    """The nested keys of a JSON value; a list stands for its first item."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [key_tree(item) for item in value[:1]]
    return None


@pytest.mark.parametrize("name", SCRIPTS)
def test_each_script_has_help_and_requires_out(load, capsys, name):
    # with a default --out, a bare run would overwrite a committed BENCH_<n>.json
    main = load(name).main
    for argv, code in ((["--help"], 0), ([], 2)):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == code
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("name, flag", [
    ("cold_start", "--runs"), ("orbit_scaling", "--repeats"), ("theta_batch", "--chunks"),
    ("theta_batch", "--repeats"), ("theta_chunk", "--chunks"), ("theta_chunk", "--repeats"),
    ("weyl_anchors", "--calls"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_count_flags_take_positive_ints_only(load, capsys, name, flag, value):
    # --runs 0 once reached medians() with no rows and raised IndexError
    with pytest.raises(SystemExit) as stop:
        load(name).main(["--out", "unused.json", flag, value])
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


def test_orbit_scaling_writes_the_key_tree_of_its_bench_file(load, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert load("orbit_scaling").main(["--q", "12", "--repeats", "1", "--out", str(out)]) == 0
    committed = json.loads((ROOT / "BENCH_5.json").read_text())
    assert key_tree(json.loads(out.read_text())) == key_tree(committed)


def test_weyl_anchors_writes_the_key_tree_of_its_bench_file(load, monkeypatch, tmp_path, capsys):
    # both sides run this checkout, at shapes small enough for a smoke test;
    # each shape's probe runs in one fresh interpreter and its row stands
    # for every other run of that shape, so the test starts 2 interpreters
    # rather than 8
    module = load("weyl_anchors")
    for shape in module.SHAPES.values():
        monkeypatch.setitem(shape, "N", 70)
        monkeypatch.setitem(shape, "samples", 64)
    rows = {}

    def probe_once(code, src, *args):
        if args not in rows:
            rows[args] = harness_probe(code, src, *args)
        return rows[args]

    harness_probe = module.harness.probe
    monkeypatch.setattr(module.harness, "probe", probe_once)
    out = tmp_path / "bench.json"
    argv = ["--src", str(ROOT / "src"), "--runs", "1", "--calls", "1", "--out", str(out)]
    assert module.main(argv) == 0
    report = json.loads(out.read_text())
    committed = json.loads((ROOT / "BENCH_20.json").read_text())
    assert key_tree(report) == key_tree(committed)
    assert report["max_rel_change"] == {"wide": 0.0, "deep": 0.0}
    assert len(rows) == 2


def test_theta_batch_writes_the_key_tree_of_its_bench_file(load, monkeypatch, tmp_path, capsys):
    # one chunk per pair; the import probe's fresh interpreters are stubbed out
    module = load("theta_batch")
    monkeypatch.setattr(module.harness, "probe", lambda code, src: [0.1, False])
    out = tmp_path / "bench.json"
    assert module.main(["--chunks", "1", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert key_tree(report) == key_tree(json.loads((ROOT / "BENCH_21.json").read_text()))
    for row in report["bound"].values():
        assert row["values_over_bound"] == 0 and row["kept_values_bit_identical"]


def test_theta_chunk_writes_the_key_tree_of_its_bench_file(load, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert load("theta_chunk").main(["--chunks", "1", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert key_tree(report) == key_tree(json.loads((ROOT / "BENCH_24.json").read_text()))
    for row in report["pairs"].values():
        drawn = row["candidate_pairs_per_sample"]
        assert row["counted_values_exact"] and 1.0 <= drawn["after"] <= drawn["before"]
