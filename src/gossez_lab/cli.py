"""Command-line driver: run the check catalog, emit deterministic reports.

Exit codes: 0 all selected checks reach their expected status, 1 a check
failed (first failure named on stderr), 2 usage error, 3 I/O failure, 4
internal error (an unexpected exception while running the checks or
serializing the report, named in one ``internal error:`` line on stderr, so
it never passes for a failed check; nothing is emitted).
Report bytes go to --out or stdout; per-check timing goes to stderr only,
keeping the emitted artifact reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

from .checks import (
    CATALOG,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    SCAN_CAP,
    CheckConfig,
    UnknownCheckError,
    emit,
    run_checks,
)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ValueError``, for ``main`` to report in one line."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gossez-lab",
        description="Verification laboratory for Gossez's skew operator: "
        "exact checks of its monotonicity, duality and range properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run checks and emit a report")
    run_parser.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or 'all' (see `gossez-lab list`)",
    )
    window = "the window: every decision and random draw reads indices 1..N; the annihilators, "
    window += f"gstar's model kernel and dichotomy read min(N, {SCAN_CAP})"
    run_parser.add_argument("--truncation", type=int, default=64, metavar="N", help=window)
    run_parser.add_argument("--trials", type=int, default=1000)
    run_parser.add_argument("--seed", type=int, default=0, help="randomness seed")
    run_parser.add_argument("--scale-max", type=int, default=10**6)
    run_parser.add_argument("--format", choices=("json", "csv", "md"), default="json")
    run_parser.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_parser("list", help="print the check catalog")
    return parser


def _list_catalog() -> int:
    for spec in CATALOG:
        print(f"{spec.name:<10} expected={spec.expected_status}")
        print(f"    {spec.title}")
        print(f"    {spec.claim}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list":
            return _list_catalog()
        names = tuple(part.strip() for part in args.checks.split(",") if part.strip())
        config = CheckConfig(
            checks=names or ("all",),
            truncation=args.truncation,
            trials=args.trials,
            seed=args.seed,
            scale_max=args.scale_max,
            out_format=args.format,
            out_path=args.out,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_checks(config)
        payload = emit(report, args.format)
    except UnknownCheckError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    for result in report.results:
        flag = " ok " if result.passed else "FAIL"
        print(
            f"[{flag}] {result.name:<10} {result.status} "
            f"(expected {result.expected_status}) {result.wallclock_s:.2f}s",
            file=sys.stderr,
        )

    if args.out is not None:
        try:
            with open(args.out, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()

    if not report.all_passed:
        print(f"first failing check: {report.first_failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
