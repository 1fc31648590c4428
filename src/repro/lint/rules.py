"""The project-specific lint rules (REP001, REP004–REP008, REP010).

Each rule enforces one convention whose violation can pass every test
(``docs/LINT.md`` names a planted one per rule).  Scoping is by path *segment* (e.g.
"under ``experiments/``", "exempt under ``crashsim/``"), so the rules
apply identically to the real tree and to test fixtures arranged in the
same directory shape.  See ``docs/LINT.md`` for the catalogue with
examples and suppression syntax.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import FileContext, LintRule, register

Finding = Tuple[int, int, str]


def _walk_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class BroadExceptRule(LintRule):
    """``except:`` / ``except BaseException`` can swallow SimulatedCrash.

    :class:`~repro.storage.faults.SimulatedCrash` is a ``BaseException``
    precisely so that library code cannot swallow it by accident — but a
    bare ``except:`` or an ``except BaseException:`` still can, and
    would turn a simulated process death into silently-continuing
    execution, voiding every durability check built on it.  Broad
    ``except Exception`` cannot catch SimulatedCrash but is flagged too:
    it hides real defects behind the same pattern.  The crash harness
    itself (``crashsim/``) and the injector (``faults.py``) are exempt —
    catching the crash is their job.
    """

    rule_id = "REP001"
    summary = (
        "no bare except / except BaseException / except Exception in "
        "library code (crashsim/ and faults.py exempt)"
    )

    _BROAD = {"BaseException", "Exception"}

    def _names(self, node: Optional[ast.expr]) -> List[Optional[str]]:
        if node is None:
            return [None]
        if isinstance(node, ast.Tuple):
            return [name for e in node.elts for name in self._names(e)]
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return []

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_segment("crashsim") or ctx.filename == "faults.py":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for name in self._names(node.type):
                if name is None:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "bare 'except:' swallows SimulatedCrash (and "
                        "everything else); catch specific exceptions",
                    )
                elif name == "BaseException":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "'except BaseException' swallows SimulatedCrash; "
                        "catch specific exceptions or re-raise",
                    )
                elif name == "Exception":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "'except Exception' is too broad for library "
                        "code; catch the exceptions the block can raise",
                    )


@register
class DeterminismRule(LintRule):
    """Experiments and workloads must be reproducible.

    Results in ``experiments/`` and ``workload/`` are compared across
    runs, machines, and CI; a stray ``time.time()`` or an unseeded
    ``random.Random()`` / module-level ``random.random()`` makes figures
    irreproducible.  All randomness must flow from an explicitly seeded
    ``random.Random(seed)``.  CPU timing (``time.process_time``,
    ``time.perf_counter``) is reporting-only and allowed.
    """

    rule_id = "REP004"
    summary = (
        "no wall-clock time.time() or unseeded randomness in "
        "experiments/ and workload/"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_segment("experiments", "workload"):
            return
        # local name -> (module, original name) for from-imports.
        from_imports: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time",
                "random",
                "datetime",
            ):
                for alias in node.names:
                    from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            found = self._classify(node, from_imports)
            if found is not None:
                yield (node.lineno, node.col_offset, found)

    def _classify(
        self,
        call: ast.Call,
        from_imports: Dict[str, Tuple[str, str]],
    ) -> Optional[str]:
        func = call.func
        module: Optional[str] = None
        name: Optional[str] = None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module, name = func.value.id, func.attr
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Attribute
        ):
            # datetime.datetime.now()
            if (
                isinstance(func.value.value, ast.Name)
                and func.value.value.id == "datetime"
            ):
                module, name = "datetime", func.attr
        elif isinstance(func, ast.Name) and func.id in from_imports:
            module, name = from_imports[func.id]

        if module == "time" and name == "time":
            return (
                "wall-clock time.time() in a deterministic experiment; "
                "use time.process_time()/perf_counter() for reporting "
                "only, never for behaviour"
            )
        if module == "datetime" and name in ("now", "utcnow", "today"):
            return (
                f"datetime.{name}() makes the experiment depend on the "
                "wall clock; thread a fixed value through instead"
            )
        if module == "random":
            if name == "Random":
                if not call.args and not call.keywords:
                    return (
                        "random.Random() without a seed is "
                        "irreproducible; pass an explicit seed"
                    )
                return None
            if name == "seed":
                return None
            return (
                f"module-level random.{name}() draws from the shared "
                "unseeded RNG; use an explicitly seeded random.Random"
            )
        return None


@register
class MutableDefaultRule(LintRule):
    """No mutable default arguments.

    A ``def f(x=[])`` default is created once and shared by every call —
    state leaks across invocations.  Use ``None`` plus an inside-the-
    function default instead.
    """

    rule_id = "REP005"
    summary = "no mutable default arguments (list/dict/set literals or calls)"

    _CTORS = {"list", "dict", "set"}

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._CTORS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _walk_functions(ctx.tree):
            defaults = list(fn.args.defaults) + [
                d for d in fn.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield (
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {fn.name}(); use "
                        "None and create the value inside the function",
                    )


@register
class NoPrintRule(LintRule):
    """Library code must not print.

    Diagnostics go through ``repro.obs`` (events, exporters, the logging
    sink); stdout belongs to the CLIs.  Report renderers
    (``experiments/``), ``__main__.py`` entry points, and ``cli.py``
    modules are exempt — emitting text is their purpose.
    """

    rule_id = "REP006"
    summary = (
        "no print() in library code (experiments/, __main__.py and "
        "cli.py exempt); route output through repro.obs"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_segment("experiments"):
            return
        if ctx.filename in ("__main__.py", "cli.py"):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "print() in library code; emit an obs event or use "
                    "an exporter instead",
                )


@register
class ObsPropagationRule(LintRule):
    """Instrumented classes must expose ``attach_obs``.

    The observability cascade works because every component that caches
    bound instruments (``self._obs_* = ...``) also implements
    ``attach_obs(obs)`` so attaching — and, crucially, *detaching* with
    ``None`` — reaches it.  A class that binds instruments
    without the method would silently fall out of the cascade and keep
    stale instruments after a detach.
    """

    rule_id = "REP007"
    summary = (
        "classes in storage/ and core/ that bind _obs_* instruments "
        "must define attach_obs(obs)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_segment("storage", "core"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            has_attach = False
            binds_obs = False
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name == "attach_obs":
                    has_attach = len(item.args.args) >= 2
                for sub in ast.walk(item):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and sub.attr.startswith("_obs")
                    ):
                        binds_obs = True
            if binds_obs and not has_attach:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"class {node.name} binds _obs_* instruments but "
                    "defines no attach_obs(obs); it would fall out of "
                    "the observability cascade",
                )


@register
class NoAssertRule(LintRule):
    """``assert`` is not runtime validation in library code.

    Asserts vanish under ``python -O``, so a structural check written as
    an assert is a check that production can silently skip.  Library
    code must raise a real exception
    (:class:`~repro.lint.invariants.InvariantViolation`, ``ValueError``,
    ...); tests keep using ``assert`` freely (test files are exempt and
    normally not scanned at all).
    """

    rule_id = "REP008"
    summary = (
        "no assert for runtime validation in library code (stripped "
        "under python -O); raise a real exception"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        name = ctx.filename
        if name.startswith("test_") or name == "conftest.py":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield (
                    node.lineno,
                    node.col_offset,
                    "assert used for runtime validation; it disappears "
                    "under python -O — raise an exception instead",
                )


@register
class ObsBoundInstrumentRule(LintRule):
    """Hot-path code reaches telemetry only through ``attach_obs``.

    Code in ``rtree/``, ``core/`` and ``storage/`` counts in plain ints of
    its own, kept whether or not obs is attached; ``attach_obs`` publishes
    those tallies to the registry (which reads them at snapshot time) and
    binds the few instruments a capture path feeds (histograms, the
    flight recorder).  A registry lookup (``reg.counter("x")`` — a dict
    lookup plus instrument construction) or a ``get_default_obs()`` call
    on the hot path re-introduces per-operation name hashing that the
    A/B bench cannot see until it regresses.  Registry methods are
    therefore only allowed inside an ``attach_obs`` definition in these
    segments; ``obs/``, ``experiments/``, and ``analysis/`` are not
    scanned (they are the cold side).
    """

    rule_id = "REP010"
    summary = (
        "rtree/, core/ and storage/ must reach the registry and flight "
        "recorder only via instruments bound inside attach_obs"
    )

    _REGISTRY_METHODS = {"counter", "gauge", "histogram"}
    _REGISTRY_NAMES = {"reg", "registry"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_segment("rtree", "core", "storage"):
            return
        allowed: Set[int] = set()
        for fn in _walk_functions(ctx.tree):
            if fn.name == "attach_obs":
                for sub in ast.walk(fn):
                    allowed.add(id(sub))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "get_default_obs"
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "get_default_obs"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "get_default_obs() outside attach_obs on a hot-path "
                    "module; bind instruments in attach_obs instead",
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._REGISTRY_METHODS
            ):
                recv = func.value
                if (
                    isinstance(recv, ast.Name)
                    and recv.id in self._REGISTRY_NAMES
                ) or (
                    isinstance(recv, ast.Attribute)
                    and recv.attr == "registry"
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"registry lookup '.{func.attr}()' outside "
                        "attach_obs on a hot-path module; bind the "
                        "instrument once in attach_obs and use the bound "
                        "reference",
                    )


#: Ordered rule-id -> one-line summary (docs and ``--list-rules``).
def rule_catalog() -> Dict[str, str]:
    from .engine import all_rules

    return {
        rule_id: cls.summary for rule_id, cls in all_rules().items()
    }
