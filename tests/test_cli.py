"""End-to-end checks of the command-line surface and its exit codes."""

import csv
import io
import json
from fractions import Fraction

import pytest

from theta_tails import (
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
    ThetaTailsError,
    UnsupportedOperationError,
    cli,
    count_U_formula,
    count_V_formula,
    normalize_pair,
    orbit_partition,
    orbit_size_formula,
)
from theta_tails.errors import short
from theta_tails.weylsum import WeylSumSpec, partial_sums

from oracles import RECIPROCAL_C_FIRST_100


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_constants_csv_matches_the_table(capsys):
    rc, out = run_cli(capsys, ["constants", "--q-max", "20"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "one_over_C", "C"]
    assert rows[1] == ["1", "1/2", "2"]
    assert rows[5] == ["5", "3", "0.333333333"]
    assert rows[12] == ["12", "8", "0.125"]
    got = [Fraction(row[1]) for row in rows[1:]]
    assert got == RECIPROCAL_C_FIRST_100[:20]


def test_constants_json_to_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    rc, out = run_cli(capsys, ["constants", "--q-max", "3", "--format", "json", "--out", str(path)])
    assert rc == 0 and out == ""
    rows = json.loads(path.read_text())
    assert rows[0] == {"q": 1, "one_over_C": "1/2", "C": 2.0}
    assert rows[2] == {"q": 3, "one_over_C": "2", "C": 0.5}


def test_orbit_report_json(capsys):
    rc, out = run_cli(capsys, ["orbit", "--alpha", "1/6", "--points"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["pair"] == {
        "alpha": "1/6", "beta": "0", "a": 1, "b": 0, "q": 6, "kind": "H",
    }
    assert rep["sizes"] == {"S": 16, "U": 2, "V": 4}
    assert rep["leading_constant"] == "1/2"
    assert rep["C_of_q"] == "1/2"
    assert len(rep["points"]) == 16
    # without the flag the point list stays out of the payload
    rc, out = run_cli(capsys, ["orbit", "--alpha", "1/6"])
    assert "points" not in json.loads(out)


def test_partition_formats(capsys):
    rc, out = run_cli(capsys, ["partition", "--q", "5"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["representative", "size", "size_U", "size_V"]
    assert len(rows) == 3  # header + two classes
    sizes = sorted(int(r[1]) for r in rows[1:])
    assert sizes == [1, 24]
    rc, out = run_cli(capsys, ["partition", "--q", "5", "--format", "json"])
    payload = json.loads(out)
    assert payload["q"] == 5 and payload["total"] == 25
    assert {c["representative"] for c in payload["classes"]} == {"Origin", "Rep10(5)"}


@pytest.mark.parametrize("q", range(1, 61))
def test_partition_rows_equal_the_bfs_partition(capsys, q):
    rc, out = run_cli(capsys, ["partition", "--q", str(q)])
    assert rc == 0
    classes, _ = orbit_partition(q)
    want = [[str(c.representative), str(c.size), str(c.size_U), str(c.size_V)] for c in classes]
    assert list(csv.reader(io.StringIO(out)))[1:] == want


def test_partition_answers_far_beyond_the_orbit_cap(capsys):
    rc, out = run_cli(capsys, ["partition", "--q", "1000000", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["total"] == 10**12
    assert payload["classes"][0] == {
        "representative": "Rep10(1000000)",
        "size": orbit_size_formula(normalize_pair(Fraction(1, 10**6), 0)),
        "size_U": 400000,
        "size_V": 0,
    }


def test_curlicue_rows_match_the_partial_sums(capsys):
    rc, out = run_cli(capsys, ["curlicue", "--x", "1/3", "--alpha", "1/7", "--N", "8"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "re", "im"]
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 9))
    spec = WeylSumSpec(alpha=Fraction(1, 7), beta=Fraction(0), zeta=0.0, N=8)
    sums = partial_sums(float(Fraction(1, 3)), spec)
    for row, val in zip(rows[1:], sums):
        assert float(row[1]) == pytest.approx(val.real, abs=1e-8)
        assert float(row[2]) == pytest.approx(val.imag, abs=1e-8)


TINY = ["--samples", "20000", "--thresholds", "2:4:4", "--seed", "5"]


def test_tail_csv_with_out_file_prints_a_summary(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    rc, out = run_cli(
        capsys,
        ["tail", "--alpha", "1/2", "--N", "50", *TINY, "--out", str(path)],
    )
    assert rc == 0
    summary = json.loads(out)  # summary JSON goes to stdout
    assert summary["kind"] == "weyl"
    assert summary["seed"] == 5
    assert summary["meta"]["q"] == 2
    assert summary["verdict"] == "heavy-tail"
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["R", "survival", "predicted", "count"]
    assert len(rows) == 5
    counts = [int(r[3]) for r in rows[1:]]
    assert counts == sorted(counts, reverse=True)


def test_tail_json_single_document(capsys):
    rc, out = run_cli(
        capsys,
        ["tail", "--alpha", "1/2", "--N", "50", *TINY, "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["curve"]) == 4
    assert payload["curve"][0]["R"] == 2.0
    assert payload["n_samples"] == 20000
    assert payload["fit"] is None or payload["fit"]["bins"] >= 3


def test_theta_tail_json(capsys):
    rc, out = run_cli(
        capsys,
        ["theta-tail", "--alpha", "0", *TINY, "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["kind"] == "theta"
    assert payload["predicted_constant"] == pytest.approx(2 / 3.141592653589793, rel=1e-8)
    assert payload["meta"]["orbit_size"] == 1


def test_theta_tail_runs_above_the_orbit_cap(capsys):
    rc, out = run_cli(
        capsys,
        ["theta-tail", "--alpha", "1/2003", *TINY, "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    want = orbit_size_formula(normalize_pair(Fraction(1, 2003), 0))
    assert payload["meta"]["orbit_size"] == want == 2003**2 - 1


def summary_seed(capsys, argv):
    rc, out = run_cli(capsys, argv + ["--format", "json"])
    assert rc == 0
    return json.loads(out)["seed"]


SMALL = ["tail", "--alpha", "1/2", "--N", "20", "--samples", "1000", "--thresholds", "2:3:3"]


def test_seed_precedence(capsys, monkeypatch):
    monkeypatch.delenv("THETA_TAILS_SEED", raising=False)
    assert summary_seed(capsys, SMALL) == 0xC0FFEE
    monkeypatch.setenv("THETA_TAILS_SEED", "123")
    assert summary_seed(capsys, SMALL) == 123
    assert summary_seed(capsys, SMALL + ["--seed", "0x7"]) == 7
    monkeypatch.setenv("THETA_TAILS_SEED", "not-a-seed")
    assert cli.main(SMALL) == 2


def test_argparse_rejects_bad_rationals(capsys):
    # decimal strings are exact rationals; words and 1/0 are not
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbit", "--alpha", "x/y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbit", "--alpha", "1/0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["tail", "--thresholds", "2-4-4"])
    assert exc.value.code == 2
    capsys.readouterr()
    # grids must keep R^4 and R^-4 finite and nonzero and hold at most
    # MAX_THRESHOLDS values; a range error is one error line, not the usage
    # block (1e-300 once wrote "predicted": Infinity, 1e308 squared to inf)
    for grid in ("1:inf:5", "1:1e400:3", "1:2:100000000", "1e-300:1e-299:3", "1:1e308:3"):
        assert cli.main(["tail", "--thresholds", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_exit_code_for_resource_limits(capsys):
    # the cap guards the point list, whose length grows like q^2
    rc = cli.main(["orbit", "--alpha", "1/211", "--orbit-cap", "100", "--points"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    rc = cli.main(["orbit", "--alpha", "1/2003", "--points"])  # default cap is 2000
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "cap, message",
    [("0", "cap must be >= 1, got 0"), ("-1", "cap must be >= 1, got -1"),
     (str(10**23), "cap must be < 2^63, got 1.00e+23")],
)
def test_orbit_points_reject_a_cap_out_of_range_with_exit_2(capsys, cap, message):
    # a cap below 1 is an invalid argument, not a resource limit (exit 3);
    # one past int64 once let q = 2^62 * 10 reach numpy's arange, whose
    # ValueError ended the command in a traceback
    argv = ["orbit", "--alpha", f"1/{2**62 * 10}", "--points", "--orbit-cap", cap]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("message", ["Unable to allocate 931. GiB for an array", ""])
def test_out_of_memory_exits_3_with_one_error_line(capsys, monkeypatch, message):
    # a numpy allocation past the machine's memory raises MemoryError; it is
    # raised here without allocating, since a host that overcommits would
    # rather be killed than raise
    def exhaust(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "enumerate_orbit", exhaust)
    assert cli.main(["orbit", "--alpha", "1/6", "--points"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message or 'MemoryError'}\n"


@pytest.mark.parametrize("q", [2003, 10**9 + 7])
def test_orbit_answers_above_the_cap_without_points(capsys, q):
    rc, out = run_cli(capsys, ["orbit", "--alpha", f"1/{q}"])
    assert rc == 0
    rep = json.loads(out)
    pair = normalize_pair(Fraction(1, q), 0)
    assert rep["sizes"] == {
        "S": orbit_size_formula(pair),
        "U": count_U_formula(pair),
        "V": count_V_formula(pair),
    }
    assert rep["sizes"]["S"] == q**2 - 1  # q is prime
    assert (rep["theta_min_infty"], rep["theta_min_one"]) == (f"1/{q}", f"1/{2 * q}")
    assert "points" not in rep


def test_exit_code_for_invalid_arguments(capsys):
    rc = cli.main(["constants", "--q-max", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--N", "0"], ["--N", "-5"], ["--r", "inf"], ["--N", "95000001"],
        ["--N", "5", "--r", "1e308"], ["--N", "5", "--r", "1e300"],
    ],
    ids=["N0", "N-5", "r-inf", "N-beyond-phase-range", "rN-beyond-a-float", "rN-of-301-digits"],
)
def test_tail_rejects_out_of_range_inputs(capsys, flags):
    rc = cli.main(["tail", "--alpha", "1/2", "--samples", "100", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    # one short line: r N = 5e300 used to print as a 301-digit integer
    assert captured.err.count("\n") == 1 and len(captured.err) < 120


@pytest.mark.parametrize("workers", ["0", "-4"])
@pytest.mark.parametrize("command", ["tail", "theta-tail"])
def test_simulations_reject_fewer_than_one_worker(capsys, command, workers):
    rc = cli.main([command, "--samples", "100", "--workers", workers])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["tail", "theta-tail"])
def test_simulations_reject_more_than_max_workers(capsys, command):
    rc = cli.main([command, "--samples", "100", "--workers", "65"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: workers must be 1 to 64, got 65" in captured.err


@pytest.mark.parametrize("command", ["tail", "theta-tail"])
def test_simulations_reject_a_negative_seed(capsys, monkeypatch, command):
    monkeypatch.delenv("THETA_TAILS_SEED", raising=False)
    argv = [command, "--samples", "100"]
    for env, flags in ((None, ["--seed", "-1"]), ("-1", [])):
        if env is not None:
            monkeypatch.setenv("THETA_TAILS_SEED", env)
        assert cli.main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["tail", "theta-tail"])
def test_simulations_reject_a_seed_of_2_to_the_64_or_more(capsys, monkeypatch, command):
    # a seed of 4000 hex digits once ran, then failed to print its JSON
    # "seed" past Python's 4300-digit int-to-str limit, leaving half a file
    monkeypatch.delenv("THETA_TAILS_SEED", raising=False)
    argv = [command, "--samples", "10", "--format", "json"]
    for seed in (hex(2**64), "0x" + "f" * 4000):
        for env, flags in ((None, ["--seed", seed]), (seed, [])):
            if env is not None:
                monkeypatch.setenv("THETA_TAILS_SEED", env)
            assert cli.main(argv + flags) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: seed must be < 2^64, got ")
            assert captured.err.count("\n") == 1 and len(captured.err) < 200
        monkeypatch.delenv("THETA_TAILS_SEED")
    rc, out = run_cli(capsys, argv + ["--seed", hex(2**64 - 1)])
    assert rc == 0 and json.loads(out)["seed"] == 2**64 - 1


@pytest.mark.parametrize(
    "argv",
    [["tail", "--samples"], ["theta-tail", "--workers"], ["constants", "--q-max"],
     ["partition", "--q"], ["orbit", "--points", "--orbit-cap"],
     ["curlicue", "--x", "0.3", "--N"], ["tail", "--N"]],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
@pytest.mark.parametrize("value", ["1" * 5000, "-" + "9" * 5000, "12x"], ids=["5000 digits", "-5000 digits", "12x"])
def test_integer_flags_reject_a_non_integer_in_one_short_line(capsys, argv, value):
    # past Python's 4300-digit limit int() fails, and argparse once wrote
    # the whole value back in a 5000-character error line
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0]) < 200
    assert errors[0].endswith(f"argument {argv[-1]}: not an integer of at most 4300 digits: {short(value)}")


@pytest.mark.parametrize(
    "argv", [["curlicue", "--N", "10", "--x"], ["tail", "--samples", "100", "--r"]],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
def test_real_flags_reject_junk_in_one_short_line(capsys, argv):
    # --r once parsed with float() and wrote a 5000-character value back
    # in a 5,351-byte error line
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "x" * 5000])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0]) < 200


@pytest.mark.parametrize(
    "argv", [["tail", "--law"], ["tail", "--format"], []], ids=["--law", "--format", "command"],
)
def test_choices_reject_junk_in_one_short_line(capsys, argv):
    # argparse's own choices check wrote the value back in a line of about
    # 5.1 KB
    junk = "x" * 5000
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, junk])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0].encode()) < 200
    assert f"invalid choice: {short(junk)} (choose from " in errors[0]


def test_help_lists_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tail", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--law {normal,uniform01}" in out and "--format {csv,json}" in out


def test_tail_takes_a_rational_r(capsys):
    rc, out = run_cli(capsys, ["tail", "--r", "3/2", "--samples", "100", "--format", "json"])
    assert rc == 0 and json.loads(out)["meta"]["r"] == 1.5


@pytest.mark.parametrize(
    "argv",
    [["curlicue", "--x", "0.3", "--N", "10"], ["tail", "--samples", "100"],
     ["theta-tail", "--samples", "100"]],
    ids=["curlicue", "tail", "theta-tail"],
)
def test_a_denominator_beyond_int64_exits_2(capsys, argv):
    rc = cli.main([*argv, "--alpha", f"1/{2**70}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_curlicue_rejects_a_non_finite_x(capsys, x):
    rc = cli.main(["curlicue", "--x", x, "--N", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_curlicue_rejects_x_beyond_the_phase_range(capsys):
    # unchecked, x = 1e300 gives wrong rows and exit 0; 1e400 overflows a
    # float and must reach the same check as inf, not raise OverflowError
    for x in ("1e300", "1e400"):
        rc = cli.main(["curlicue", "--x", x, "--alpha", "1/3", "--N", "10"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: x must be finite with |x| < 2^30\n"


def test_exit_code_for_an_unwritable_output_path(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "table.csv"
    rc = cli.main(["constants", "--q-max", "3", "--out", str(path)])
    assert rc == 5
    assert "error:" in capsys.readouterr().err
    assert not path.exists()


def test_exit_code_for_numeric_failures(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericFailureError("synthetic loss of precision")

    monkeypatch.setattr(cli, "simulate_weyl_tail", explode)
    rc = cli.main(SMALL)
    assert rc == 4
    assert "synthetic loss of precision" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (InvalidArgumentError, 2),
        (UnsupportedOperationError, 2),
        (ResourceLimitError, 3),
        (NumericFailureError, 4),
        (OSError, 5),
        (ThetaTailsError, 2),
    ],
)
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "table_reciprocal_C", fail)
    assert cli.main(["constants", "--q-max", "3"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: synthetic failure\n"
