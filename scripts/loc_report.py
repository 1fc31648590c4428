#!/usr/bin/env python
"""Line-count report — ROADMAP item 3's trend line, report only, no gate.

Usage::

    python scripts/loc_report.py [--markdown] [ROOT | FILE.py ...]

For each root (default ``src`` and ``tests``) prints, per package and in
total, the physical lines of its ``*.py`` files (what ``wc -l`` counts,
the figure ROADMAP and CHANGES.md quote) and the code lines among them
(not blank, not a ``#`` comment).  ``.py`` file arguments are reported
together, one row each plus their total — the per-file figures an issue
quotes.  ``--markdown`` emits tables for the CI job summary.
"""

from __future__ import annotations

import pathlib
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent


def count(path: pathlib.Path) -> Tuple[int, int]:
    """``(physical lines, code lines)`` of one source file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    code = sum(
        1 for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def package_of(path: pathlib.Path, root: pathlib.Path) -> str:
    """The package a file is reported under: its directory below the
    root, with the one-package ``src/repro`` prefix folded away."""
    parts = path.relative_to(root).parts[:-1]
    if parts[:1] == ("repro",):
        parts = parts[1:] or ("repro",)
    return parts[0] if parts else "."


def report(keyed: List[Tuple[str, pathlib.Path]]) -> List[Tuple[str, int, int, int]]:
    """Rows ``(key, files, lines, code)`` over ``(key, file)`` pairs,
    keys sorted, total last."""
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for name, path in keyed:
        lines, code = count(path)
        for key in (name, "total"):
            row = totals[key]
            row[0] += 1
            row[1] += lines
            row[2] += code
    names = sorted(name for name in totals if name != "total") + ["total"]
    return [(name, *totals[name]) for name in names]


def main(argv: List[str]) -> int:
    markdown = "--markdown" in argv
    args = [arg for arg in argv if arg != "--markdown"] or ["src", "tests"]
    files = [arg for arg in args if arg.endswith(".py")]
    tables = [
        (f"{root}/", [
            (package_of(path, REPO / root), path)
            for path in sorted((REPO / root).rglob("*.py"))
        ])
        for root in args if root not in files
    ]
    if files:
        tables.append(("files", [(name, REPO / name) for name in files]))
    for name, keyed in tables:
        rows = report(keyed)
        if markdown:
            print(f"### `{name}` line counts\n")
            print("| package | files | lines | code lines |")
            print("|---|---:|---:|---:|")
            for row in rows:
                print("| {} | {} | {} | {} |".format(*row))
            print()
        else:
            print(name)
            for package, n_files, lines, code in rows:
                print(
                    f"  {package:<14} {n_files:>4} files {lines:>7} lines "
                    f"{code:>7} code"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
