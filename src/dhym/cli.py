"""Batch command-line front end.

Every subcommand reads JSON, writes one JSON report to stdout and exits
with 0 when all checks pass, 1 when an inequality is violated, and 2 on
degenerate or invalid input (origin hits, bad JSON, precondition
failures).  Output is deterministic: same argv means byte-identical
stdout.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from .charge import (
    analytic_angle_from_integrals,
    check_chern_n3,
    check_chern_n4,
    integrated_sigma_chain,
    kt_chain,
    winding_report,
    winding_trace,
)
from .errors import DegeneratePathError, DhymError, DomainError
from .models import consistency_suite
from .serialize import dumps, load_json, parse_model_spec, parse_pair, parse_profile, trace_csv
from .suites import identity_suite, kt_suite, theorem_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2

#: largest --samples and --count accepted; README.md states the peak RSS of
#: each command at these bounds
MAX_SAMPLES = 100_000
MAX_COUNT = 1_000_000


def _seed(args) -> int:
    """--seed, a non-negative integer (default 0)."""
    if args.seed < 0:
        raise DomainError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _check_sizes(args) -> None:
    """--samples in 2..MAX_SAMPLES and --count at most MAX_COUNT; the suites
    reject a count below 1 themselves."""
    samples = getattr(args, "samples", None)
    if samples is not None and not 2 <= samples <= MAX_SAMPLES:
        raise DomainError(f"--samples must be in 2..{MAX_SAMPLES}, got {samples}")
    count = getattr(args, "count", None)
    if count is not None and count > MAX_COUNT:
        raise DomainError(f"--count must be at most {MAX_COUNT}, got {count}")


def _print_json(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _print_report(report: dict) -> int:
    _print_json(report)
    return EXIT_OK if report["pass"] else EXIT_VIOLATION


def _print_reports(profile, reports) -> int:
    _print_json({"profile": profile.to_dict(), "reports": [r.to_dict() for r in reports]})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def _cmd_check(args) -> int:
    profile = parse_profile(load_json(args.profile))
    if profile.n == 4:
        return _print_reports(profile, [check_chern_n4(profile)])
    if profile.n == 3:
        return _print_reports(profile, [check_chern_n3(profile)])
    raise DomainError(f"no Chern checks for n={profile.n}")


def _cmd_path(args) -> int:
    profile = parse_profile(load_json(args.profile))
    report, trace = winding_trace(profile, args.samples)
    if args.out:
        _write(args.out, trace_csv(trace))
    winding = {**report.to_dict(), "arg_lift": [[t, a] for t, _, _, a in trace]}
    out = {"profile": profile.to_dict(), "winding": winding}
    if args.out:
        out["csv"] = args.out
    _print_json(out)
    return EXIT_OK


def _cmd_angle(args) -> int:
    profile = parse_profile(load_json(args.profile))
    analytic = analytic_angle_from_integrals(profile)
    report = winding_report(profile)
    _print_json(
        {
            "profile": profile.to_dict(),
            "analytic_angle": analytic,
            "theta_alg": report.theta_alg,
            "t_star": report.t_star,
        }
    )
    return EXIT_OK


def _cmd_sample(args) -> int:
    return _print_report(theorem_suite(args.count, _seed(args), args.theta, args.theta))


def _cmd_identity(args) -> int:
    return _print_report(identity_suite(args.count, _seed(args)))


def _cmd_kt(args) -> int:
    if args.profile:
        profile = parse_profile(load_json(args.profile))
        return _print_reports(profile, [kt_chain(profile), integrated_sigma_chain(profile)])
    return _print_report(kt_suite(args.count, _seed(args)))


def _cmd_model(args) -> int:
    doc = parse_model_spec(load_json(args.spec)).to_dict()
    if args.out:
        _write(args.out, dumps(doc) + "\n")
    _print_json(doc)
    return EXIT_OK


def _parse_lambda(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse eigenvalues {text!r}: {exc}") from exc


def _cmd_consistency(args) -> int:
    if args.pair is None:
        return _print_report(consistency_suite(_parse_lambda(args.eigenvalues)))
    pair = parse_pair(load_json(args.pair))
    spectrum, _, residual_rel = pair.eigensystem
    out = consistency_suite(spectrum)
    passed = out.pop("pass")
    cond_g = float(np.linalg.cond(pair.G))
    _print_json({**out, "residual_rel": residual_rel, "cond_G": cond_g, "pass": passed})
    return EXIT_OK if passed else EXIT_VIOLATION


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building it takes about as long as a 1000-sample suite
    parser = argparse.ArgumentParser(
        prog="dhym",
        description="Verification toolkit for dHYM Chern-number inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="dimension-appropriate Chern inequality checks")
    p.add_argument("--profile", required=True, help="intersection profile JSON file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("path", help="central-charge trace and winding report")
    p.add_argument("--profile", required=True)
    p.add_argument(
        "--samples", type=int, default=129, help=f"trace sample count, 2..{MAX_SAMPLES}"
    )
    p.add_argument("--out", help="CSV output path (t,re,im,arg_lift)")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("angle", help="analytic and algebraic lifted angles")
    p.add_argument("--profile", required=True)
    p.set_defaults(func=_cmd_angle)

    p = sub.add_parser("sample", help="level-set Monte Carlo theorem suite")
    p.add_argument("--theta", type=float, required=True, help="target lifted angle")
    p.add_argument("--count", type=int, default=1000, help=f"1..{MAX_COUNT}")
    p.add_argument("--seed", type=int, default=0, help="non-negative (default: 0)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("identity", help="random-tuple identity suite")
    p.add_argument("--count", type=int, default=100000, help=f"1..{MAX_COUNT}")
    p.add_argument("--seed", type=int, default=0, help="non-negative (default: 0)")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("kt", help="Khovanskii-Teissier chains")
    p.add_argument("--profile", help="profile JSON; omit to run the random suite")
    p.add_argument("--count", type=int, default=10000, help=f"1..{MAX_COUNT}")
    p.add_argument("--seed", type=int, default=0, help="non-negative (default: 0)")
    p.set_defaults(func=_cmd_kt)

    p = sub.add_parser("model", help="materialise a profile from a model spec")
    p.add_argument("--spec", required=True, help="model spec JSON file")
    p.add_argument("--out", help="also write the profile JSON here")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("consistency", help="pointwise vs integrated cross-checks")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--lambda",
        dest="eigenvalues",
        metavar="A,B,C,D",
        help="comma-separated eigenvalues of a constant model",
    )
    source.add_argument(
        "--pair",
        metavar="FILE",
        help="matrix pair JSON file (metric G, form A); checks the eigenvalues of G^-1 A",
    )
    # read "-0.5,1,2,3" (a mid-branch tuple) as a value, not as an unknown option
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.set_defaults(func=_cmd_consistency)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_sizes(args)
        return args.func(args)
    except DegeneratePathError as exc:
        _print_json(
            {
                "error": "degenerate-path",
                "message": str(exc),
                "origin_hit": exc.t_origin,
            }
        )
        return EXIT_INVALID
    except (DhymError, OSError) as exc:
        _print_json({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
