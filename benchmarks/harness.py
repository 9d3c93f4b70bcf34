"""What the benchmarks/ scripts share: paths, host block, probes, report.

A script builds its parser with `parser`, runs its fresh-interpreter
probes through `probe` and `interleave` (or times in process), and writes
one JSON report with `write`; every report carries `host()` and the line
count of each src/ it ran. The scripts run from a checkout without
installing anything.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def positive(text: str) -> int:
    """argparse type of the count flags (--runs, --calls, --repeats,
    --chunks): an int >= 1, else a one-line usage error and exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive int, got {text!r}")
    return value


def parser(doc: str, runs: int | None = None) -> argparse.ArgumentParser:
    """The shared flags: a required --out and, given a default number of
    runs, --src (another checkout's src/, run as "before") and --runs."""
    out = argparse.ArgumentParser(description=doc.splitlines()[0])
    out.add_argument("--out", required=True, help="JSON report to write")
    if runs is not None:
        out.add_argument("--src", type=Path, help="src/ of the checkout to compare against")
        out.add_argument("--runs", type=positive, default=runs, help="fresh interpreters per probe")
    return out


def host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def src_lines(src: Path = SRC) -> int:
    return sum(len(path.read_text().splitlines()) for path in src.rglob("*.py"))


def sides(src: Path | None) -> dict:
    """{"after": this checkout's src/}, preceded by "before": src if given."""
    if src is None:
        return {"after": SRC}
    return {"before": src.resolve(), "after": SRC}


def probe(code: str, src: Path, *args) -> dict:
    """Run `python -c code args` with src on PYTHONPATH; the JSON it prints
    on its last line."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, check=True, timeout=600,
    )
    return json.loads(out.stdout.splitlines()[-1])


def interleave(jobs: list, runs: int, measure) -> dict:
    """{job: [measure(job) for each of `runs` rounds]}.

    One discarded call per job comes first: the first run also pays for
    reading the files from disk. The rounds then alternate the order of
    the jobs, so a drift in host speed hits every job alike.
    """
    for job in jobs:
        measure(job)
    results = {job: [] for job in jobs}
    for k in range(runs):
        for job in jobs if k % 2 == 0 else jobs[::-1]:
            results[job].append(measure(job))
    return results


def medians(rows: list[dict], skip: tuple = ()) -> dict:
    """The median of each key of the rows, but those in skip."""
    return {
        key: statistics.median(row[key] for row in rows)
        for key in rows[0] if key not in skip
    }


def write(path: str, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
