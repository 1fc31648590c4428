"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit codes: 0 — clean; 1 — diagnostics reported; 2 — bad invocation
(unknown rule id, missing path).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Sequence

from .engine import all_rules, run_lint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Project-specific AST linter: enforces the repro conventions "
            "(crash-safety excepts, deterministic experiments, lock "
            "discipline, ...)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rule ids (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_ids(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, cls in all_rules().items():
            print(f"{rule_id}  {cls.summary}")
        return 0

    paths = [pathlib.Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    try:
        diagnostics = run_lint(
            paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for diag in diagnostics:
        print(diag.render())
    if diagnostics:
        print(
            f"{len(diagnostics)} problem(s) found", file=sys.stderr
        )
        return 1
    return 0
