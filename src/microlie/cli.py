"""Command-line interface: law verification suites and bracket computation.

Exit codes: 0 all laws pass, 1 at least one law fails, 2 usage or
configuration error (including a ``bracket`` field above degree 3, or a
``bracket`` groupoid outside the ``verify`` bounds: dimension 1-3, ``deg`` 0-3).

The ``argparse`` parser is built once per process, on the first call of
:func:`main`, and reused; parsing keeps no state in it, so each call
behaves as it would alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .groupoids import MAX_FIELD_DEGREE, AGSection, PairGroupoid
from .harness import (
    MUTATIONS,
    SUITE_IDS,
    ConfigError,
    SuiteConfig,
    parse_groupoid_spec,
    run_suite,
)
from .liealg import bracket
from .vfexpr import VectorFieldSyntaxError, format_vector_field, parse_vector_field


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microlie",
        description="Exact verification of bisection-flow and Lie bracket laws on groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="all", choices=("all",) + SUITE_IDS)
    verify.add_argument(
        "--groupoid",
        default="pair:dim=2:deg=2",
        help="pair:dim=N:deg=D or gauge:base=M:k=K",
    )
    verify.add_argument("--trials", type=int, default=25)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", default="text", choices=("text", "json"))
    verify.add_argument(
        "--mutate",
        default="none",
        choices=MUTATIONS,
        help="inject a documented defect (smoke test: the suite must fail)",
    )

    brk = sub.add_parser("bracket", help="print the bracket of two polynomial vector fields")
    brk.add_argument("--groupoid", default="pair:dim=2", help="pair:dim=N")
    brk.add_argument("--x", required=True, help="vector field expression, e.g. '-x1; x0'")
    brk.add_argument("--y", required=True, help="vector field expression")
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    groupoid, degree = parse_groupoid_spec(args.groupoid)
    config = SuiteConfig(
        suite=args.suite, groupoid=groupoid, degree=degree, trials=args.trials, seed=args.seed
    )
    report = run_suite(config, mutation=args.mutate)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_bracket(args: argparse.Namespace) -> int:
    groupoid, degree = parse_groupoid_spec(args.groupoid)
    if not isinstance(groupoid, PairGroupoid):
        raise ConfigError("the bracket command works on the pair groupoid (pair:dim=N)")
    problem = groupoid.bounds_error(degree)
    if problem:
        raise ConfigError(problem)
    x = AGSection(groupoid, parse_vector_field(args.x, groupoid.dim, MAX_FIELD_DEGREE))
    y = AGSection(groupoid, parse_vector_field(args.y, groupoid.dim, MAX_FIELD_DEGREE))
    print(format_vector_field(bracket(x, y).data))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bracket(args)
    except (ConfigError, VectorFieldSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
