"""The lint engine: file collection, AST parsing, rule dispatch.

The engine is deliberately dependency-free: files are parsed with
:mod:`ast` and every rule receives a :class:`FileContext` carrying the
parsed tree, the raw source lines, and the path split into segments (the
rules scope themselves by segment, e.g. *applies under* ``experiments/``
or *exempt under* ``crashsim/``, so the same rules work on the real
source tree and on test fixtures arranged in the same shape).

Rules come in two flavours:

* **per-file** rules implement ``check(ctx)`` and yield
  ``(line, col, message)`` tuples for one file at a time;
* **project** rules additionally implement ``check_project(contexts)``
  and see every scanned file at once (the lock-order graph joins the
  nestings of every module before it looks for a cycle).
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from .diagnostics import Diagnostic, SuppressionIndex, sort_key

#: Reserved id for files the engine itself cannot parse; it is not a
#: registered rule and cannot be suppressed.
SYNTAX_ERROR_ID = "REP000"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: pathlib.Path
    display: str
    parts: Tuple[str, ...]
    source: str
    lines: List[str]
    tree: ast.Module
    suppressions: SuppressionIndex

    @property
    def filename(self) -> str:
        return self.parts[-1] if self.parts else ""

    def in_segment(self, *segments: str) -> bool:
        """Whether any of ``segments`` appears as a path component."""
        return any(segment in self.parts for segment in segments)


class LintRule:
    """Base class for rules; subclasses register via :func:`register`."""

    rule_id: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        """Yield ``(line, col, message)`` findings for one file."""
        return iter(())

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Tuple[FileContext, int, int, str]]:
        """Cross-file findings: yield ``(ctx, line, col, message)``."""
        return iter(())


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[LintRule]]:
    """The registered rules, id -> class (import side effect: ensure the
    built-in rule modules are loaded)."""
    from . import concurrency as _concurrency  # noqa: F401  (registers)
    from . import rules as _rules  # noqa: F401  (registers on import)

    return dict(sorted(_REGISTRY.items()))


def collect_files(paths: Iterable[pathlib.Path]) -> List[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[pathlib.Path] = []
    seen: Set[pathlib.Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[pathlib.Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            key = candidate.resolve()
            if key in seen:
                continue
            seen.add(key)
            out.append(candidate)
    return out


def load_context(path: pathlib.Path) -> Optional[FileContext]:
    """Parse one file into a :class:`FileContext`.

    Returns ``None`` when the file cannot be parsed — the caller emits a
    :data:`SYNTAX_ERROR_ID` diagnostic instead.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    return FileContext(
        path=path,
        display=str(path),
        parts=path.parts,
        source=source,
        lines=lines,
        tree=tree,
        suppressions=SuppressionIndex(lines),
    )


def run_lint(
    paths: Sequence[pathlib.Path],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Lint ``paths`` and return the surviving diagnostics, sorted.

    ``select`` restricts to the named rule ids; ``ignore`` drops the
    named ids.  Suppression comments are honoured per rule and line.
    Unknown ids in either list raise ``ValueError`` so a typo in a CI
    invocation cannot silently disable the gate.
    """
    registry = all_rules()
    for name in list(select or []) + list(ignore or []):
        if name not in registry:
            raise ValueError(f"unknown rule id {name!r}")
    active = {
        rule_id: cls()
        for rule_id, cls in registry.items()
        if (select is None or rule_id in select)
        and (ignore is None or rule_id not in ignore)
    }

    contexts: List[FileContext] = []
    diagnostics: List[Diagnostic] = []
    for path in collect_files(paths):
        try:
            ctx = load_context(path)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id=SYNTAX_ERROR_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        if ctx is not None:
            contexts.append(ctx)

    for ctx in contexts:
        found: List[Diagnostic] = []
        for rule in active.values():
            for line, col, message in rule.check(ctx):
                found.append(
                    Diagnostic(ctx.display, line, col, rule.rule_id, message)
                )
        diagnostics.extend(ctx.suppressions.filter(found))

    for rule in active.values():
        project_found: Dict[int, List[Diagnostic]] = {}
        for ctx, line, col, message in rule.check_project(contexts):
            project_found.setdefault(id(ctx), []).append(
                Diagnostic(ctx.display, line, col, rule.rule_id, message)
            )
        for ctx in contexts:
            batch = project_found.get(id(ctx))
            if batch:
                diagnostics.extend(ctx.suppressions.filter(batch))

    diagnostics.sort(key=sort_key)
    return diagnostics
