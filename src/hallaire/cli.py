"""Command-line harness: refinement studies and reference-table self-checks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .study import (
    TABLE2_DEFAULT_NT,
    ConvergenceReport,
    StudyConfig,
    build_config,
    deep_order_check,
    emit_report,
    parse_config_file,
    run_study,
    self_check,
    table1_config,
    table2_config,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hallaire",
        description="Convergence-study harness for the loaded time-fractional "
        "moisture-transfer solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a refinement study and emit a report")
    run_p.add_argument("--config", default=None, help="flat key-value config file")
    run_p.add_argument("--mode", choices=("spatial", "temporal"), default=None)
    run_p.add_argument("--alpha", default=None, help="comma-separated fractional orders")
    run_p.add_argument("--nx", default=None,
                       help="comma-separated interval counts or steps (e.g. 6,12,24 or 1/6,1/12)")
    run_p.add_argument("--nt", default=None,
                       help="comma-separated step counts or steps (e.g. 10,20 or 1/10,1/20)")
    run_p.add_argument("--problem", default=None)
    run_p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    run_p.add_argument("--out", default=None, help="write the report to this path")

    check_p = sub.add_parser(
        "self-check",
        help="reproduce a bundled reference table and compare it cell by cell",
    )
    check_p.add_argument("--table", choices=("1", "2"), default="1")
    check_p.add_argument("--deep", action="store_true",
                         help="include the costly fine time rungs of table 2")
    check_p.add_argument("--config", default=None,
                         help="run a custom config (with a reference) instead of a preset")
    check_p.add_argument("--out", default=None, help="write the computed report to this path")
    return parser


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    try:
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write report to {path}: {exc}") from exc


def _config_from_args(args) -> StudyConfig:
    values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "mode": args.mode,
        "alpha": args.alpha,
        "nx": args.nx,
        "nt": args.nt,
        "problem": args.problem,
        "out": args.out,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    return build_config(values)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    report = run_study(config)
    _write_or_print(emit_report(report, args.format), config.out)
    return 0


def _cmd_self_check(args) -> int:
    if args.config:
        if args.deep:
            raise ValueError(
                "--deep applies to the bundled --table 2 preset; spell the full "
                "ladder out in the config file instead"
            )
        config = build_config(parse_config_file(args.config))
        if config.reference is None:
            raise ValueError("self-check configs need a 'reference' entry")
    elif args.table == "1":
        config = table1_config()
    else:
        config = table2_config(deep=args.deep)
    report = run_study(config)
    deep_line = None
    if args.table == "2" and args.deep and not args.config:
        # strict cell comparison covers the default rungs; the deep rungs are
        # judged by the qualitative order gate instead
        default_labels = {f"1/{nt}" for nt in TABLE2_DEFAULT_NT}
        strict_rows = tuple(r for r in report.rows if r.step_label in default_labels)
        strict = ConvergenceReport(report.mode, report.problem, strict_rows)
        result = self_check(config, report=strict)
        deep_ok, detail = deep_order_check(report)
        deep_line = f"deep rungs {'ok' if deep_ok else 'FAIL'}: {detail}"
        passed = result.passed and deep_ok
    else:
        result = self_check(config, report=report)
        passed = result.passed
    if args.out:
        _write_or_print(emit_report(report, "csv"), args.out)
    print(result.summary())
    if deep_line:
        print(deep_line)
    return 0 if passed else CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_self_check(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
