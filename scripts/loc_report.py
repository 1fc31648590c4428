#!/usr/bin/env python
"""Line-count report — ROADMAP item 3's trend line, report only, no gate.

Usage::

    python scripts/loc_report.py [--markdown] [ROOT ...]

For each root (default ``src`` and ``tests``) prints, per package and in
total, the physical lines of its ``*.py`` files (what ``wc -l`` counts,
the figure ROADMAP and CHANGES.md quote) and the code lines among them
(not blank, not a ``#`` comment).  ``--markdown`` emits tables for the CI
job summary.
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


def report(root: pathlib.Path) -> List[Tuple[str, int, int, int]]:
    """Rows ``(package, files, lines, code)``, packages sorted, total last."""
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path)
        for key in (package_of(path, root), "total"):
            row = totals[key]
            row[0] += 1
            row[1] += lines
            row[2] += code
    names = sorted(name for name in totals if name != "total") + ["total"]
    return [(name, *totals[name]) for name in names]


def main(argv: List[str]) -> int:
    markdown = "--markdown" in argv
    roots = [arg for arg in argv if arg != "--markdown"] or ["src", "tests"]
    for name in roots:
        rows = report(REPO / name)
        if markdown:
            print(f"### `{name}/` line counts\n")
            print("| package | files | lines | code lines |")
            print("|---|---:|---:|---:|")
            for row in rows:
                print("| {} | {} | {} | {} |".format(*row))
            print()
        else:
            print(f"{name}/")
            for package, files, lines, code in rows:
                print(
                    f"  {package:<14} {files:>4} files {lines:>7} lines "
                    f"{code:>7} code"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
