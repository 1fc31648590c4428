#!/usr/bin/env python
"""Line-count report — ROADMAP item 3's trend line, report only, no gate.

Usage::

    python scripts/loc_report.py [--markdown] [--options] [ROOT | FILE.py ...]

An unknown flag or a root or file that does not exist prints this usage
line and exits 2.

For each root (default ``src`` and ``tests``) prints, per package and in
total, the physical lines of its ``*.py`` files (what ``wc -l`` counts,
the figure ROADMAP and CHANGES.md quote) and the code lines among them
(not blank, not a ``#`` comment).  ``.py`` file arguments are reported
together, one row each plus their total — the per-file figures an issue
quotes.  ``--options`` counts options instead of lines: the parameters
with a default in the public signatures (see :func:`count_options`), the
figure behind ROADMAP item 7's "no new option".  ``--markdown`` emits
tables for the CI job summary.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Callable, Dict, List, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
USAGE = (
    "usage: python scripts/loc_report.py [--markdown] [--options] "
    "[ROOT | FILE.py ...]"
)


def count(path: pathlib.Path) -> Tuple[int, ...]:
    """``(physical lines, code lines)`` of one source file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    code = sum(
        1 for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def count_options(path: pathlib.Path) -> Tuple[int, ...]:
    """``(options,)`` of one source file: the parameters with a default
    in its public signatures — the module-level functions and the
    methods of module-level classes (``__init__`` included) whose names
    and whose class's names do not start with ``_``."""
    options = 0
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                continue
            defs = node.body
        else:
            defs = [node]
        for fn in defs:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                fn.name == "__init__" or not fn.name.startswith("_")
            ):
                options += len(fn.args.defaults) + sum(
                    default is not None for default in fn.args.kw_defaults
                )
    return (options,)


def package_of(path: pathlib.Path, root: pathlib.Path) -> str:
    """The package a file is reported under: its directory below the
    root, with the one-package ``src/repro`` prefix folded away."""
    parts = path.relative_to(root).parts[:-1]
    if parts[:1] == ("repro",):
        parts = parts[1:] or ("repro",)
    return parts[0] if parts else "."


def report(
    keyed: List[Tuple[str, pathlib.Path]],
    measure: Callable[[pathlib.Path], Tuple[int, ...]],
) -> List[Tuple]:
    """Rows ``(key, files, *measure)`` over ``(key, file)`` pairs, keys
    sorted, total last."""
    totals: Dict[str, List[int]] = {}
    for name, path in keyed:
        counts = (1, *measure(path))
        for key in (name, "total"):
            before = totals.get(key, [0] * len(counts))
            totals[key] = [a + b for a, b in zip(before, counts)]
    names = sorted(name for name in totals if name != "total") + ["total"]
    return [(name, *totals[name]) for name in names]


def main(argv: List[str]) -> int:
    markdown = "--markdown" in argv
    options = "--options" in argv
    flags = ("--markdown", "--options")
    args = [arg for arg in argv if arg not in flags] or ["src", "tests"]
    files = [arg for arg in args if arg.endswith(".py")]
    for arg in args:
        found = (REPO / arg).is_file() if arg in files else (REPO / arg).is_dir()
        if arg.startswith("-") or not found:
            print(USAGE, file=sys.stderr)
            return 2
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
        rows = report(keyed, count_options if options else count)
        if markdown:
            what = "option" if options else "line"
            columns = "options |" if options else "lines | code lines |"
            print(f"### `{name}` {what} counts\n")
            print(f"| package | files | {columns}")
            print("|---|---:|---:|" + ("" if options else "---:|"))
            for row in rows:
                print("| " + " | ".join(map(str, row)) + " |")
            print()
        else:
            print(name)
            for package, n_files, *counts in rows:
                tail = (
                    f"{counts[0]:>5} options" if options
                    else f"{counts[0]:>7} lines {counts[1]:>7} code"
                )
                print(f"  {package:<14} {n_files:>4} files {tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
