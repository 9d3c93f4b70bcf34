"""Command-line front door: tables, orbit reports, curlicues, tail curves.

Every command is deterministic given its flags; the Monte-Carlo seed
defaults to 0xC0FFEE and can be overridden by --seed or the
THETA_TAILS_SEED environment variable (flag wins). Exact rationals are
printed as "p/q" strings, floats at 9 significant digits.

`orbit` and `partition` answer from closed forms at any denominator; only
`orbit --points` enumerates, under --orbit-cap.

Exit codes: 0 success, 2 invalid arguments or unsupported request,
3 resource limit (`orbit --points`, whose point list is capped) or out of
memory, 4 numeric failure, 5 operating-system error such as an --out path
that cannot be written.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .arith import normalize_pair
from .constants import table_reciprocal_C
from .errors import InvalidArgumentError, NumericFailureError, ResourceLimitError, ThetaTailsError, short
from .homog import DEFAULT_SEED
from .orbits import (
    DEFAULT_ORBIT_CAP,
    count_U_formula,
    count_V_formula,
    enumerate_orbit,
    orbit_report,
    orbit_representatives,
    which_representative,
)
from .tailsim import default_thresholds, fit_tail_constant, simulate_theta_tail, simulate_weyl_tail
from .weylsum import WeylSumSpec, partial_sums

FLOAT_DIGITS = ".9g"
# exit codes other than 2, the code of every other ThetaTailsError
_EXIT_CODES = ((ResourceLimitError, 3), (MemoryError, 3), (NumericFailureError, 4), (OSError, 5))


def _fmt(value) -> str:
    return format(float(value), FLOAT_DIGITS)


def _json_float(value) -> float:
    return float(_fmt(value))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {short(text)}")


def _real(text: str) -> float:
    """Exact rationals pass through Fraction; anything else parses as float,
    which also takes a value too large for one (1e400 gives inf)."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        try:
            return float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a real number: {short(text)}")


def _integer(text: str) -> int:
    """A decimal integer; the commands range-check it. Past Python's
    4300-digit limit int() refuses it too, and the message stays short."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer of at most 4300 digits: {short(text)}")


def _seed_value(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer seed: {short(text)}")


def _thresholds(text: str) -> tuple[float, float, int]:
    """Split 'lo:hi:steps'; the commands range-check it by default_thresholds,
    so a bad range exits 2 with one error line, not the usage block."""
    try:
        lo, hi, steps = text.split(":")
        return float(lo), float(hi), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"thresholds must be 'lo:hi:steps', got {short(text)}"
        )


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a value outside `choices` (a subcommand name,
    --law, --format) shows in the error line through short, where argparse
    writes it back in full. A type function cannot do this for the
    subcommand: argparse applies a subparsers action's type to every
    argument after it too."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            listed = ", ".join(map(str, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {short(value)} (choose from {listed})")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("THETA_TAILS_SEED")
    try:
        return DEFAULT_SEED if env is None else int(env, 0)
    except ValueError:
        raise InvalidArgumentError(f"THETA_TAILS_SEED is not an integer: {short(env)}") from None


@contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _pair_of(args):
    return normalize_pair(args.alpha, args.beta)


def _emit(args, header, rows, wrap=None) -> int:
    """Rows of raw values as CSV under header, or as JSON records keyed by
    header (passed through wrap when given), to --out or stdout.

    Floats print at FLOAT_DIGITS in both formats. Both are built from the
    same rows, one at a time, so neither builds the other's output.
    """
    with _output(args.out) as fh:
        if args.format == "json":
            records = [
                {k: _json_float(v) if isinstance(v, float) else v for k, v in zip(header, row)}
                for row in rows
            ]
            json.dump(records if wrap is None else wrap(records), fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    return 0


def cmd_constants(args) -> int:
    table = table_reciprocal_C(args.q_max)
    rows = ((q, str(inv), float(Fraction(1) / inv)) for q, inv in enumerate(table, start=1))
    return _emit(args, ["q", "one_over_C", "C"], rows)


def cmd_orbit(args) -> int:
    pair = _pair_of(args)
    points = enumerate_orbit(pair, cap=args.orbit_cap).points if args.points else None
    report = orbit_report(pair, points)
    report["C_of_q"] = report["leading_constant"]
    with _output(args.out) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def cmd_partition(args) -> int:
    # closed forms only, so any q below the factorization range answers at once
    reps = orbit_representatives(args.q)
    rows = [
        (str(which_representative(pair)), size, count_U_formula(pair), count_V_formula(pair))
        for pair, size in reps
    ]
    total = sum(size for _, size in reps)
    return _emit(
        args, ["representative", "size", "size_U", "size_V"], rows,
        lambda classes: {"q": args.q, "classes": classes, "total": total},
    )


def cmd_curlicue(args) -> int:
    spec = WeylSumSpec(alpha=args.alpha, beta=args.beta, zeta=0.0, N=args.N)
    sums = partial_sums(args.x, spec)
    rows = ((k, float(v.real), float(v.imag)) for k, v in enumerate(sums, start=1))
    return _emit(args, ["k", "re", "im"], rows)


def _curve_summary(curve) -> dict:
    try:
        fit = fit_tail_constant(curve)
        fit_payload = {
            "constant": _json_float(fit.constant),
            "stderr": _json_float(fit.stderr),
            "bins": int(fit.used_thresholds.size),
        }
    except InvalidArgumentError:
        fit_payload = None
    return {
        "kind": curve.kind,
        "meta": curve.meta,
        "n_samples": curve.n_samples,
        "seed": curve.seed,
        "predicted_constant": _json_float(curve.predicted_constant),
        "verdict": "compact-support" if curve.meta.get("type") == "C" else "heavy-tail",
        "fit": fit_payload,
    }


def _emit_curve(curve, args) -> int:
    _emit(
        args, ["R", "survival", "predicted", "count"], curve.rows(),
        lambda rows: {**_curve_summary(curve), "curve": rows},
    )
    # a CSV curve in a file leaves stdout to the run summary, as JSON
    if args.format == "csv" and args.out is not None:
        json.dump(_curve_summary(curve), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_tail(args) -> int:
    pair = _pair_of(args)
    curve = simulate_weyl_tail(
        pair,
        N=args.N,
        r=args.r,
        law=args.law,
        n_samples=args.samples,
        thresholds=default_thresholds(*(args.thresholds or ())),
        seed=_resolve_seed(args),
        workers=args.workers,
    )
    return _emit_curve(curve, args)


def cmd_theta_tail(args) -> int:
    pair = _pair_of(args)
    curve = simulate_theta_tail(
        pair,
        n_samples=args.samples,
        thresholds=default_thresholds(*(args.thresholds or ())),
        seed=_resolve_seed(args),
        workers=args.workers,
    )
    return _emit_curve(curve, args)


def _add_pair_flags(parser) -> None:
    parser.add_argument("--alpha", type=_fraction, default=Fraction(0), help="exact rational, e.g. 1/8")
    parser.add_argument("--beta", type=_fraction, default=Fraction(0), help="exact rational, e.g. 0")


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_sim_flags(parser) -> None:
    parser.add_argument("--samples", type=_integer, default=10**6)
    parser.add_argument("--seed", type=_seed_value, default=None, help="default 0xC0FFEE or THETA_TAILS_SEED")
    parser.add_argument("--thresholds", type=_thresholds, default=None, help="grid 'lo:hi:steps'")
    parser.add_argument("--workers", type=_integer, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="theta-tails",
        description="Arithmetic constants and tail experiments for quadratic Weyl sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "constants",
        help="reciprocal tail constants 1/C(q)",
        description="Table of q, 1/C(q), C(q). For even q with a single factor "
        "of 2 the table lists the generic branch; numerators that are both odd "
        "give C = 0 and are not tabulated.",
    )
    p.add_argument("--q-max", type=_integer, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("orbit", help="orbit report for a rational pair (JSON)")
    _add_pair_flags(p)
    p.add_argument("--points", action="store_true", help="include the full point list")
    p.add_argument("--orbit-cap", type=_integer, default=DEFAULT_ORBIT_CAP)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("partition", help="orbit classes of the q-division points")
    p.add_argument("--q", type=_integer, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("curlicue", help="partial-sum trajectory of a Weyl sum")
    _add_pair_flags(p)
    p.add_argument("--x", type=_real, required=True)
    p.add_argument("--N", type=_integer, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_curlicue)

    p = sub.add_parser("tail", help="Monte-Carlo tail of |S_N conj(S_rN)|/N")
    _add_pair_flags(p)
    p.add_argument("--N", type=_integer, default=500)
    p.add_argument("--r", type=_real, default=1.0)
    p.add_argument("--law", choices=("normal", "uniform01"), default="normal")
    _add_sim_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("theta-tail", help="Monte-Carlo tail of the theta pairing")
    _add_pair_flags(p)
    _add_sim_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_theta_tail)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ThetaTailsError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 2)


if __name__ == "__main__":
    sys.exit(main())
