"""Command-line front end: list checks, run them, emit reports.

Exit codes: 0 all executed checks verified, 1 at least one refuted,
2 internal error (in a check or in the front end), 3 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from .errors import UnknownCheck
from .harness import Report, make_report, registry, run_all, run_check

SYNOPSIS = (
    "usage: hooklab list\n"
    "       hooklab run --id ID [--bound K=V]... [--format json|csv|text] [--out PATH]\n"
    "       hooklab run --all [--budget-seconds S] [--jobs N] [--format ...] [--out PATH]"
)

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit 2 on bad usage; the contract wants 3."""

    def error(self, message):
        print(SYNOPSIS, file=sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hooklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print every check id with its source location")

    run = sub.add_parser("run", help="run one check or the whole registry")
    run.add_argument("--id", dest="check_id", help="run a single check by id")
    run.add_argument("--all", action="store_true", help="run every registered check")
    run.add_argument(
        "--bound",
        action="append",
        default=[],
        metavar="K=V",
        help="override one bound knob (repeatable, --id only)",
    )
    run.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="global time budget for --all, in seconds",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for --all, the calling process included (default: 1)",
    )
    run.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv", "text"),
        default="text",
    )
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "status", "bounds", "elapsed_ms", "witness"])
    for r in report.checks:
        bounds = " ".join(f"{k}={v}" for k, v in sorted(r.bounds_used.items()))
        writer.writerow([r.id, r.status, bounds, r.elapsed_ms, r.witness or ""])
    return buf.getvalue()


def render_text(report: Report) -> str:
    lines = [f"started {report.started_at}"]
    for r in report.checks:
        line = f"{r.id:<8} {r.status:<9} {r.elapsed_ms:>7} ms"
        if r.witness:
            line += f"  witness: {r.witness}"
        if r.notes:
            line += f"  ({r.notes})"
        lines.append(line)
    s = report.summary
    lines.append(
        f"verified {s['verified']}  refuted {s['refuted']}"
        f"  error {s['error']}  skipped {s['skipped']}"
    )
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def _emit(report: Report, fmt: str, out: Optional[str]) -> None:
    text = _RENDERERS[fmt](report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _exit_code(report: Report) -> int:
    if report.summary["error"]:
        return 2
    if report.summary["refuted"]:
        return 1
    return 0


def _parse_bounds(pairs: Sequence[str], parser: argparse.ArgumentParser) -> dict[str, int]:
    bounds: dict[str, int] = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        if not sep or not key:
            parser.error(f"--bound wants K=V, got {pair!r}")
        try:
            bounds[key] = int(val)
        except ValueError:
            parser.error(f"--bound {key} wants an integer, got {val!r}")
    return bounds


def _cmd_list() -> int:
    for check in registry():
        print(f"{check.id:<8} {check.location:<10} {check.description}")
    return 0


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.all == (args.check_id is not None):
        parser.error("run wants exactly one of --id or --all")
    if args.check_id is not None:
        if args.budget_seconds is not None:
            parser.error("--budget-seconds only applies to --all")
        if args.jobs is not None:
            parser.error("--jobs only applies to --all")
        result = run_check(args.check_id, _parse_bounds(args.bound, parser))
        report = make_report([result])
    else:
        if args.bound:
            parser.error("--bound only applies to --id")
        budget = args.budget_seconds
        if budget is not None and not budget >= 0:  # also false for NaN
            parser.error(f"--budget-seconds wants a number >= 0, got {budget}")
        jobs = 1 if args.jobs is None else args.jobs
        if jobs < 1:
            parser.error(f"--jobs wants an integer >= 1, got {jobs}")
        report = run_all(budget_seconds=budget, parallelism=jobs)
    _emit(report, args.fmt, args.out)
    return _exit_code(report)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # glued to its flag, a value such as -inf is not read as an unknown option
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--budget-seconds":
            argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args, parser)
    except SystemExit as exc:
        # argparse signals usage problems this way; fold into the return code
        return exc.code if isinstance(exc.code, int) else 3
    except UnknownCheck as exc:
        print(SYNOPSIS, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # front-end bug or broken check wiring
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
