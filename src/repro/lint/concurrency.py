"""Concurrency-correctness lint rules (REP011–REP015).

These rules mechanise the lock discipline documented in
``docs/CONCURRENCY.md``:

* **REP011** — every explicit ``*.acquire_read()`` / ``*.acquire_write()``
  / ``*.acquire()`` *statement* must be release-paired on all paths: the
  acquire must sit inside a ``try`` whose ``finally`` releases the same
  receiver, or be immediately followed by such a ``try``.  (``with``
  blocks never trigger the rule — the context manager pairs for you;
  conditional try-lock idioms assign the result and are out of scope.)
* **REP012** — a project-wide lock-order graph is built from
  syntactically nested ``with``-statements over lock-like expressions
  (names matching lock/latch/mutex/guard/cond, ``.read()`` /
  ``.write()`` latch holds, and ``GranularLockManager.locked`` call
  sites).  Any cycle in the graph is an error: two threads taking the
  same pair of locks in opposite orders is a deadlock waiting for load.
* **REP013** — attributes annotated ``# guarded-by: <lock>`` on their
  defining assignment may only be accessed inside a ``with`` block
  holding that lock, or in a method annotated ``# holds: <lock>``
  (a documented caller-holds contract).  Constructors and the
  ``attach_obs`` cascade are exempt — they run before the object is
  shared.
* **REP014** — no blocking I/O while holding a stamp-counter lock.  The
  stamp lock is the hottest latch in the system (every update takes
  it); a page read under it would serialise the whole update path.
* **REP015** — ``threading`` synchronisation primitives may only be
  constructed inside :mod:`repro.concurrency` (tests exempt).  Going
  through :func:`repro.concurrency.primitives.make_lock` keeps every
  lock visible to the Eraser race detector.

Scoping follows the engine convention: by path segment, so fixtures
arranged like the real tree lint identically.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import FileContext, LintRule, register

Finding = Tuple[int, int, str]

#: Explicit acquire methods and their matching releases (REP011).
_ACQUIRE_TO_RELEASE = {
    "acquire": "release",
    "acquire_read": "release_read",
    "acquire_write": "release_write",
}

#: Identifier fragments that mark an expression as lock-like (REP012).
_LOCKISH_RE = re.compile(r"(lock|latch|mutex|guard|cond)", re.IGNORECASE)

#: ``# guarded-by: <lock>`` trailing an attribute's defining assignment.
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: ``# holds: <lock>`` on (or directly above) a ``def`` line.
_HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Methods REP013 never checks: they run before the object is shared
#: (construction) or are the instrumentation cascade itself, whose
#: gauge lambdas legitimately read guarded state at registration time.
_GUARD_EXEMPT_METHODS = {
    "__init__",
    "__new__",
    "__del__",
    "attach_obs",
}

#: Call names that block on I/O (REP014).
_BLOCKING_CALLS = {
    "read_page",
    "write_page",
    "fsync",
    "sync",
    "flush",
    "force",
    "open",
}

#: threading primitives that must be built via repro.concurrency (REP015).
_THREADING_PRIMITIVES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
}


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain (subscripts are skipped)."""
    if isinstance(node, ast.Subscript):
        return _dotted(node.value)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _peel_calls(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Call):
        node = node.func
    return node


def _is_test_context(ctx: FileContext) -> bool:
    return (
        ctx.in_segment("tests")
        or ctx.filename.startswith("test_")
        or ctx.filename == "conftest.py"
    )


@register
class ReleasePairingRule(LintRule):
    """REP011: explicit acquires must be release-paired on all paths.

    A statement-level ``x.acquire*()`` escapes pairing on any exception
    between it and the release; the only constructs that pair on *all*
    paths are ``with`` (preferred) and ``try/finally``.  The rule
    accepts an acquire whose matching ``release*()`` on the same
    receiver appears in the ``finally`` of an enclosing ``try`` or of
    the ``try`` that immediately follows the acquire statement.
    """

    rule_id = "REP011"
    summary = (
        "explicit lock acquire without a with-block or try/finally "
        "release on the same receiver"
    )

    def _releases(
        self, try_node: ast.Try, release_name: str, receiver_key: str
    ) -> bool:
        for stmt in try_node.finalbody:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == release_name
                    and ast.dump(node.func.value) == receiver_key
                ):
                    return True
        return False

    def _scan(
        self,
        stmts: Sequence[ast.stmt],
        try_stack: List[ast.Try],
        out: List[Finding],
    ) -> None:
        for index, stmt in enumerate(stmts):
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr in _ACQUIRE_TO_RELEASE
            ):
                attr = stmt.value.func.attr
                release = _ACQUIRE_TO_RELEASE[attr]
                key = ast.dump(stmt.value.func.value)
                follower = stmts[index + 1] if index + 1 < len(stmts) else None
                paired = any(
                    self._releases(t, release, key) for t in try_stack
                )
                if (
                    not paired
                    and isinstance(follower, ast.Try)
                    and self._releases(follower, release, key)
                ):
                    paired = True
                if not paired:
                    out.append(
                        (
                            stmt.lineno,
                            stmt.col_offset,
                            f"'{attr}' is not paired with '{release}' in a "
                            "finally block (use a with-block, or follow the "
                            "acquire with try/finally releasing the same "
                            "lock)",
                        )
                    )
            # Descend.  A function boundary resets the try stack: an
            # enclosing finally does not run around a *later* call of a
            # nested function.
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self._scan(stmt.body, [], out)
            elif isinstance(stmt, ast.Try):
                inner = try_stack + [stmt]
                self._scan(stmt.body, inner, out)
                for handler in stmt.handlers:
                    self._scan(handler.body, inner, out)
                self._scan(stmt.orelse, inner, out)
                self._scan(stmt.finalbody, try_stack, out)
            elif isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
                self._scan(stmt.body, try_stack, out)
                self._scan(stmt.orelse, try_stack, out)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._scan(stmt.body, try_stack, out)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        out: List[Finding] = []
        self._scan(ctx.tree.body, [], out)
        return iter(out)


def _lock_node_name(expr: ast.expr, class_name: Optional[str]) -> Optional[str]:
    """Canonical graph-node name for a lock-like with-item, else None.

    ``self.rw_latch.write()`` -> ``Class.rw_latch``;
    ``self.locks.locked(reqs)`` -> ``Class.locks``; names are syntactic
    (scoped by the enclosing class), which can split one runtime lock
    into several nodes but never merges two distinct locks into one —
    the graph stays sound for cycle detection, just not complete.
    """
    node = _peel_calls(expr)
    stripped: Optional[str] = None
    if isinstance(node, ast.Attribute) and node.attr in (
        "read",
        "write",
        "locked",
    ):
        stripped = node.attr
        node = _peel_calls(node.value)
    dotted = _dotted(node)
    if dotted is None:
        return None
    base = dotted
    if base.startswith("self."):
        base = base[len("self."):]
        canonical = f"{class_name}.{base}" if class_name else base
    else:
        canonical = base
    tail = base.rsplit(".", 1)[-1]
    if stripped == "locked" or _LOCKISH_RE.search(tail):
        return canonical
    return None


@register
class LockOrderRule(LintRule):
    """REP012: the project-wide lock-order graph must be acyclic.

    Edges are collected from syntactic nesting only (an outer ``with``
    over one lock enclosing an inner ``with`` over another); calls into
    helper functions do not contribute edges, so the graph understates
    the true order — which is the safe direction for a deadlock check
    gate (no false cycles from merged nodes, see
    :func:`_lock_node_name`).  Self-edges are skipped: re-acquisition
    of one lock is the reentrancy contract's problem (no lock is
    re-entered, docs/CONCURRENCY.md), not an ordering problem.
    """

    rule_id = "REP012"
    summary = "lock-order graph has a cycle (potential deadlock)"

    def _collect(
        self,
        node: ast.AST,
        class_name: Optional[str],
        held: List[str],
        ctx: FileContext,
        edges: Dict[Tuple[str, str], Tuple[FileContext, int, int]],
    ) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._collect(child, node.name, held, ctx, edges)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.body:
                self._collect(child, class_name, [], ctx, edges)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            names: List[str] = []
            for item in node.items:
                name = _lock_node_name(item.context_expr, class_name)
                if name is not None:
                    for outer in held:
                        if outer != name:
                            edge = (outer, name)
                            edges.setdefault(
                                edge,
                                (ctx, node.lineno, node.col_offset),
                            )
                    names.append(name)
            held.extend(names)
            for child in node.body:
                self._collect(child, class_name, held, ctx, edges)
            del held[len(held) - len(names):]
            return
        for child in ast.iter_child_nodes(node):
            self._collect(child, class_name, held, ctx, edges)

    def _path(
        self,
        start: str,
        goal: str,
        adjacency: Dict[str, Set[str]],
    ) -> Optional[List[str]]:
        frontier = [start]
        parents: Dict[str, str] = {}
        seen = {start}
        while frontier:
            current = frontier.pop(0)
            if current == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            for nxt in sorted(adjacency.get(current, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = current
                    frontier.append(nxt)
        return None

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Tuple[FileContext, int, int, str]]:
        edges: Dict[Tuple[str, str], Tuple[FileContext, int, int]] = {}
        for ctx in contexts:
            self._collect(ctx.tree, None, [], ctx, edges)
        adjacency: Dict[str, Set[str]] = {}
        for outer, inner in edges:
            adjacency.setdefault(outer, set()).add(inner)
        for (outer, inner), (ctx, line, col) in sorted(
            edges.items(), key=lambda kv: (kv[1][0].display, kv[1][1])
        ):
            back = self._path(inner, outer, adjacency)
            if back is not None:
                cycle = " -> ".join([outer] + back)
                yield (
                    ctx,
                    line,
                    col,
                    f"lock-order cycle: '{outer}' is acquired before "
                    f"'{inner}' here, closing the cycle {cycle}",
                )


@register
class GuardedByRule(LintRule):
    """REP013: guarded attributes are only touched under their lock.

    The defining assignment carries ``# guarded-by: <lock>``; every
    other ``self.<attr>`` access in the class must then sit inside a
    ``with`` whose expression mentions ``<lock>``, or in a method whose
    ``def`` line (or the comment line above it) declares
    ``# holds: <lock>`` — the documented caller-holds contract.
    """

    rule_id = "REP013"
    summary = "guarded attribute accessed without holding its lock"

    def _method_holds(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Set[str]:
        holds: Set[str] = set()
        for lineno in (fn.lineno, fn.lineno - 1):
            if 1 <= lineno <= len(ctx.lines):
                holds.update(_HOLDS_RE.findall(ctx.lines[lineno - 1]))
        return holds

    def _scan_method(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        guards: Dict[str, str],
        out: List[Finding],
    ) -> None:
        holds = self._method_holds(ctx, fn)
        with_stack: List[str] = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                texts = [ast.unparse(i.context_expr) for i in node.items]
                with_stack.extend(texts)
                for child in node.body:
                    visit(child)
                del with_stack[len(with_stack) - len(texts):]
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guards
            ):
                lock = guards[node.attr]
                if lock not in holds and not any(
                    lock in text for text in with_stack
                ):
                    out.append(
                        (
                            node.lineno,
                            node.col_offset,
                            f"'self.{node.attr}' is guarded-by '{lock}' "
                            "but accessed without holding it (wrap in "
                            f"'with ...{lock}...' or annotate the method "
                            f"'# holds: {lock}')",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child)

        for stmt in fn.body:
            visit(stmt)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        out: List[Finding] = []
        for klass in ast.walk(ctx.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            guards: Dict[str, str] = {}
            for node in ast.walk(klass):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and 1 <= node.lineno <= len(ctx.lines)
                    ):
                        match = _GUARDED_RE.search(ctx.lines[node.lineno - 1])
                        if match:
                            guards[target.attr] = match.group(1)
            if not guards:
                continue
            for member in klass.body:
                if not isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if member.name in _GUARD_EXEMPT_METHODS:
                    continue
                self._scan_method(ctx, member, guards, out)
        return iter(out)


@register
class StampLockIORule(LintRule):
    """REP014: no blocking I/O while holding a stamp-counter lock.

    Stamp-lock blocks are recognised syntactically: a ``with`` whose
    expression mentions ``stamp`` (``locks.locked([("stamp_counter",
    ...)])``, a ``stamp_latch``, ...), or any lock-like ``with`` inside
    a class whose name contains ``Stamp``.
    """

    rule_id = "REP014"
    summary = "blocking I/O call under the stamp-counter lock"

    def _is_stamp_lock(self, text: str, class_name: Optional[str]) -> bool:
        lowered = text.lower()
        if "stamp" in lowered:
            return True
        return (
            class_name is not None
            and "Stamp" in class_name
            and _LOCKISH_RE.search(lowered) is not None
        )

    def _blocking_calls(self, body: Sequence[ast.stmt]) -> Iterator[Finding]:
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name: Optional[str] = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name is None:
                    continue
                if name in _BLOCKING_CALLS or name.startswith("append_"):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"blocking call '{name}' while holding a "
                        "stamp-counter lock (stamp latches are pure "
                        "latches: increment and get out)",
                    )

    def _scan(
        self,
        node: ast.AST,
        class_name: Optional[str],
        out: List[Finding],
        seen: Set[Tuple[int, int]],
    ) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._scan(child, node.name, out, seen)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            self._is_stamp_lock(ast.unparse(i.context_expr), class_name)
            for i in node.items
        ):
            for finding in self._blocking_calls(node.body):
                key = (finding[0], finding[1])
                if key not in seen:
                    seen.add(key)
                    out.append(finding)
        for child in ast.iter_child_nodes(node):
            self._scan(child, class_name, out, seen)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        out: List[Finding] = []
        self._scan(ctx.tree, None, out, set())
        return iter(out)


@register
class ThreadingPrimitiveRule(LintRule):
    """REP015: threading primitives are built only in repro.concurrency.

    Everything else goes through
    :func:`repro.concurrency.primitives.make_lock` (or ``make_rlock`` /
    ``make_condition``), which hands out race-detector-tracked wrappers
    when the checker is active.  A raw ``threading.Lock()`` elsewhere is
    invisible to the detector: accesses under it look unprotected and
    the lockset algorithm reports false races — or worse, the lock
    silently exempts itself from the discipline the linter enforces.
    Tests are exempt (they build scaffolding locks freely).
    """

    rule_id = "REP015"
    summary = (
        "threading primitive constructed outside repro.concurrency "
        "(use primitives.make_lock and friends)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_segment("concurrency") or _is_test_context(ctx):
            return iter(())
        module_aliases: Set[str] = set()
        imported: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "threading":
                        module_aliases.add(alias.asname or "threading")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "threading":
                    for alias in node.names:
                        if alias.name in _THREADING_PRIMITIVES:
                            imported.add(alias.asname or alias.name)
        if not module_aliases and not imported:
            return iter(())
        out: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged: Optional[str] = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases
                and func.attr in _THREADING_PRIMITIVES
            ):
                flagged = f"threading.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in imported:
                flagged = func.id
            if flagged is not None:
                out.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"'{flagged}()' constructed outside "
                        "repro.concurrency — use repro.concurrency."
                        "primitives.make_lock/make_rlock/make_condition",
                    )
                )
        return iter(out)
