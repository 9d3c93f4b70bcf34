"""The benchmark's workloads and the checks their outputs must pass.

A workload is one `theta-tails` simulation command with fixed flags; the
seed is the only input that varies between runs. The checks read the CLI's
JSON summary, so they see exactly what a user sees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

CHUNK = 1 << 15  # samples per chunk, the program's CHUNK_SIZE
DEFAULT_SEED = 0xC0FFEE
SECOND_SEED = 12345
# default CLI threshold grid: geomspace(1.5, 6.0, 20)
GRID_BINS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "tail" or "theta-tail"
    alpha: str
    samples: int
    why: str
    beta: str = "0"
    N: int = 0
    r: float = 1.0
    law: str = "normal"

    @property
    def is_weyl(self) -> bool:
        return self.command == "tail"

    def cli_args(self, seed: int, workers: int, out: str) -> list[str]:
        args = [self.command, "--alpha", self.alpha, "--beta", self.beta]
        if self.is_weyl:
            args += ["--N", str(self.N), "--r", repr(self.r), "--law", self.law]
        return args + [
            "--samples", str(self.samples),
            "--seed", str(seed),
            "--workers", str(workers),
            "--format", "json",
            "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="weyl-wide",
            command="tail",
            alpha="1/2",
            N=500,
            r=1.0,
            law="normal",
            samples=4 * CHUNK,
            why="The user default tail run (criterion 7's pair, N=500): full "
            "chunks that the workers share, nearly all time in the batch "
            "phase kernel's vector work.",
        ),
        Workload(
            name="weyl-deep",
            command="tail",
            alpha="1/10",
            beta="1/10",
            N=10_000,
            r=2.0,
            law="uniform01",
            samples=512,
            why="The same kernel at large N on one short chunk: per-term "
            "interpreter overhead dominates, a second worker idles, and it "
            "covers r > 1 and the compact-type pair.",
        ),
        Workload(
            name="theta-large-q",
            command="theta-tail",
            alpha="1/2000",
            samples=32 * CHUNK,
            why="The theta pairing at q = DEFAULT_ORBIT_CAP (|S| = 1.92M): "
            "the only workload where orbit enumeration, the Haar/xi sampler "
            "and the Gaussian theta batch do any work.",
        ),
    )
}

# Same code paths at a size that runs in seconds, for the self-test.
TINY = {
    "weyl-wide": replace(WORKLOADS["weyl-wide"], samples=4096),
    "weyl-deep": replace(WORKLOADS["weyl-deep"], N=1000, samples=64),
    "theta-large-q": replace(WORKLOADS["theta-large-q"], alpha="1/200", samples=4096),
}


def curve_counts(payload: dict) -> list[int]:
    return [row["count"] for row in payload["curve"]]


def check_payload(w: Workload, payload: dict, seed: int, expected: dict) -> list[str]:
    """Problems with one CLI JSON summary; an empty list means it passed.

    `expected` holds values computed in the run from the library's closed
    forms: "predicted" (the CLI's constant before rounding) and, for the
    theta workload, "orbit_size".
    """
    problems = []
    rows = payload["curve"]
    counts = curve_counts(payload)
    if payload["n_samples"] != w.samples or payload["seed"] != seed:
        problems.append("summary does not echo --samples/--seed")
    if len(rows) != GRID_BINS:
        problems.append(f"{len(rows)} curve bins, expected {GRID_BINS}")
    if any(b > a for a, b in zip(counts, counts[1:])):
        problems.append("exceedance counts increase with R")
    predicted = payload["predicted_constant"]
    if predicted != float(format(expected["predicted"], ".9g")):
        problems.append(f"predicted constant {predicted} != {expected['predicted']}")

    if w.name == "weyl-wide":
        # criterion 7's law: T = 4 log 2 / pi^2 for (1/2, 0) at r = 1
        T = 4.0 * math.log(2.0) / math.pi**2
        if abs(expected["predicted"] - T) > 1e-12:
            problems.append(f"tail constant {expected['predicted']} != 4 log 2/pi^2")
        for row in rows:
            R = row["R"]
            if not 2.0 <= R <= 3.0:
                continue
            mean = w.samples * T * R**-4.0
            ratio = row["count"] / mean
            # finite-N and finite-R bias measured under 4%, plus 5 sigma
            tol = 0.06 + 5.0 / math.sqrt(mean)
            if abs(ratio - 1.0) > tol:
                problems.append(f"survival/predicted {ratio:.4f} at R={R:.3f} (tol {tol:.3f})")
    elif w.name == "weyl-deep":
        if predicted != 0.0:
            problems.append(f"compact-type pair predicts {predicted}, not 0")
        if payload["verdict"] != "compact-support":
            problems.append(f"verdict {payload['verdict']!r}")
        if any(row["count"] for row in rows if row["R"] >= 4.0):
            problems.append("nonzero count at R >= 4 for a compact-type pair")
    else:
        if payload["meta"]["orbit_size"] != expected["orbit_size"]:
            problems.append(
                f"orbit size {payload['meta']['orbit_size']} != formula {expected['orbit_size']}"
            )
    return problems
