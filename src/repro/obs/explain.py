"""EXPLAIN/ANALYZE: an observer on the real traversal, and its report.

``tree.explain_query(window)`` / ``explain_knn`` / ``explain_update``
execute the *real* operation body against the real buffer (ANALYZE
semantics: the I/O they report is I/O they actually charged) with a
:class:`TraversalObserver` installed for the duration.  Nothing is
re-implemented for the sake of explaining it: the tree's own traversal
loops report each node they inspect, and the observer taps the buffer
pool for what the tree cannot know.  The resulting trace holds

* one :class:`NodeVisit` per node a traversal inspected, with the
  node's level, the buffer residency the page was served from, entries
  tested vs matched by the kernel call, and the **exact** I/O delta of
  that single fetch;
* per-phase residual I/O for mutating ops (everything the operation
  charged that was not a traversal fetch: write-backs, splits, cleaning);
* memo inspection counts for RUM trees;
* the mirror-vs-traversal serving decision the live query path would
  have taken.

The defining invariant — pinned by tests — is that the trace reconciles
*exactly* with the global :class:`~repro.storage.iostats.IOStats` delta
of the operation: per-visit I/O plus per-phase residuals sum to
``io_delta``, in the PR 2 span tradition of never reporting estimated
I/O where exact accounting is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import kernels
from repro.storage.iostats import IOSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtree.base import RTreeBase
    from repro.rtree.node import Node

#: Schema tag stamped on every :meth:`ExplainReport.as_dict`.
SCHEMA = "explain/v1"


@dataclass(frozen=True)
class NodeVisit:
    """One node inspection during an explained traversal."""

    page_id: int
    level: int  # leaves are level 0
    is_leaf: bool
    entries_tested: int  # rows the kernel call scanned
    entries_matched: int  # rows that passed the predicate
    residency: str  # buffer layer the page came from ("internal"/"op"/"lru"/"disk")
    io: IOSnapshot  # exact I/O charged by this single visit

    def as_dict(self) -> Dict[str, Any]:
        return {
            "page_id": self.page_id,
            "level": self.level,
            "is_leaf": self.is_leaf,
            "entries_tested": self.entries_tested,
            "entries_matched": self.entries_matched,
            "residency": self.residency,
            "io": self.io.as_dict(),
        }


@dataclass
class ExplainReport:
    """Structured result of an EXPLAIN/ANALYZE run."""

    op: str  # "query" | "knn" | "update"
    tree: str
    backend: str
    params: Dict[str, Any] = field(default_factory=dict)
    served_by: Optional[str] = None  # queries: "mirror" | "traversal"
    visits: List[NodeVisit] = field(default_factory=list)
    #: Residual I/O not claimed by a visit (e.g. the leaf write-back and
    #: split writes of an insert, or cleaner steps), keyed by phase name.
    #: Empty for read-only ops.
    phases: Dict[str, IOSnapshot] = field(default_factory=dict)
    io_delta: IOSnapshot = field(default_factory=IOSnapshot)
    results: int = 0
    memo: Dict[str, int] = field(default_factory=dict)
    mirror: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    # -- derived views -----------------------------------------------------

    def nodes_per_level(self) -> Dict[int, int]:
        """Nodes visited per level (level 0 = leaves)."""
        out: Dict[int, int] = {}
        for v in self.visits:
            out[v.level] = out.get(v.level, 0) + 1
        return out

    @property
    def entries_tested(self) -> int:
        return sum(v.entries_tested for v in self.visits)

    @property
    def entries_matched(self) -> int:
        return sum(v.entries_matched for v in self.visits)

    def visit_io_total(self) -> IOSnapshot:
        total = IOSnapshot()
        for v in self.visits:
            total = total + v.io
        return total

    def accounted_io(self) -> IOSnapshot:
        """Per-visit I/O plus per-phase residuals."""
        total = self.visit_io_total()
        for phase_io in self.phases.values():
            total = total + phase_io
        return total

    def reconciles(self) -> bool:
        """True iff the trace accounts for the op's I/O *exactly*."""
        return self.accounted_io() == self.io_delta

    # -- export ------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "op": self.op,
            "tree": self.tree,
            "backend": self.backend,
            "params": dict(self.params),
            "served_by": self.served_by,
            "visits": [v.as_dict() for v in self.visits],
            "phases": {k: v.as_dict() for k, v in self.phases.items()},
            "io": self.io_delta.as_dict(),
            "results": self.results,
            "memo": dict(self.memo),
            "mirror": None if self.mirror is None else dict(self.mirror),
            "nodes_per_level": {
                str(k): v for k, v in sorted(self.nodes_per_level().items())
            },
            "entries_tested": self.entries_tested,
            "entries_matched": self.entries_matched,
            "reconciles": self.reconciles(),
            "extra": dict(self.extra),
        }

    def render(self) -> str:
        """Human-readable multi-line text form."""
        lines: List[str] = []
        header = f"EXPLAIN ANALYZE {self.op} on {self.tree} (backend={self.backend}"
        if self.served_by is not None:
            header += f", served_by={self.served_by}"
        header += ")"
        lines.append(header)
        for key, value in self.params.items():
            lines.append(f"  {key}: {value}")
        for level, count in sorted(self.nodes_per_level().items(), reverse=True):
            tested = sum(
                v.entries_tested for v in self.visits if v.level == level
            )
            matched = sum(
                v.entries_matched for v in self.visits if v.level == level
            )
            kind = "leaf" if level == 0 else "internal"
            lines.append(
                f"  level {level} ({kind}): {count} node(s), "
                f"{tested} entries tested, {matched} matched"
            )
        for v in self.visits:
            lines.append(
                f"    [L{v.level}] page {v.page_id} ({v.residency}) "
                f"tested={v.entries_tested} matched={v.entries_matched} "
                f"io={_io_brief(v.io)}"
            )
        for name, phase_io in self.phases.items():
            lines.append(f"  phase {name}: io={_io_brief(phase_io)}")
        if self.memo:
            memo_bits = ", ".join(
                f"{k}={v}" for k, v in sorted(self.memo.items())
            )
            lines.append(f"  memo: {memo_bits}")
        if self.mirror is not None:
            mirror_bits = ", ".join(
                f"{k}={v}" for k, v in sorted(self.mirror.items())
            )
            lines.append(f"  mirror: {mirror_bits}")
        io = self.io_delta
        lines.append(
            f"  io: {_io_brief(io)} (leaf_total={io.leaf_total}, "
            f"counted_total={io.counted_total})"
        )
        lines.append(f"  results: {self.results}")
        lines.append(f"  reconciles with IOStats delta: {self.reconciles()}")
        return "\n".join(lines)


class TraversalObserver:
    """Watches one real operation of ``tree`` for the span of a ``with``.

    Three sources, none of which costs the un-observed path more than an
    ``is None`` test per visited node:

    * the tree's traversal loops (range descent, best-first kNN, the
      top-down deletion search, ChooseSubtree) call :meth:`visit` for
      each node they inspect, through ``tree._watch``;
    * ``buffer.get_node`` is tapped on the pool instance, so the
      residency before and the exact I/O across every fetch are known —
      a visit claims the fetch that produced its node, fetches nobody
      claims (ring maintenance, cleaning steps) stay in the phase;
    * a mutating body marks its phase boundaries, through
      ``tree._watch`` too: each :meth:`end_phase` ends the current phase
      of ``phases`` until one name is left, which takes the rest.  The
      RUM-tree's ``("memo", "insert", "clean")`` thus reads: up to the
      insertion, the insertion, then the cleaner's steps and the
      write's closing leaf flush.  With no names (read-only operations)
      every charged page is a visit's.

    A phase's I/O is its residual — what it charged minus what its
    visits claimed — so visits plus phases equal ``io_delta`` exactly.
    Attribution assumes the tree is not operated on concurrently.
    """

    def __init__(self, tree: "RTreeBase", phases: Sequence[str] = ()) -> None:
        self.tree = tree
        self.visits: List[NodeVisit] = []
        self.phases: Dict[str, IOSnapshot] = {}
        self.io_delta = IOSnapshot()
        self._names = list(phases)
        self._fetched: Optional[Tuple[int, str, IOSnapshot]] = None
        self._claimed = IOSnapshot()

    def __enter__(self) -> "TraversalObserver":
        buffer = self.tree.buffer
        # An instance-level patch already in place (the stack benchmark's
        # tracer) is what the tap calls through to and what exit restores.
        self._untapped = vars(buffer).get("get_node")
        self._get_node = buffer.get_node
        buffer.get_node = self._fetch  # type: ignore[method-assign]
        self.tree._watch = self
        self._start = self._phase_start = self.tree.stats.snapshot()
        return self

    def __exit__(self, *exc: object) -> None:
        buffer = self.tree.buffer
        self.tree._watch = None
        if self._untapped is None:
            delattr(buffer, "get_node")
        else:
            buffer.get_node = self._untapped  # type: ignore[method-assign]
        if self._names:
            self._close_phase()
        self.io_delta = self.tree.stats.snapshot() - self._start

    def _fetch(self, page_id: int) -> "Node":
        buffer = self.tree.buffer
        residency = buffer.residency(page_id)
        before = buffer.stats.snapshot()
        node: "Node" = self._get_node(page_id)
        self._fetched = (
            page_id, residency, buffer.stats.snapshot() - before
        )
        return node

    def end_phase(self) -> None:
        """A boundary the observed body marks: the current phase ends,
        unless it is the last one left, which takes the rest."""
        if len(self._names) > 1:
            self._close_phase()

    def _close_phase(self) -> None:
        now = self.tree.stats.snapshot()
        self.phases[self._names.pop(0)] = (
            now - self._phase_start - self._claimed
        )
        self._phase_start = now
        self._claimed = IOSnapshot()

    def visit(self, node: "Node", tested: int, matched: int) -> None:
        """One node inspected by a traversal loop, right after its fetch:
        ``tested`` rows scanned, ``matched`` passed the predicate."""
        if self._fetched is None or self._fetched[0] != node.page_id:
            raise RuntimeError(
                f"visit of page {node.page_id} does not follow its fetch"
            )
        page_id, residency, io = self._fetched
        self._fetched = None
        tree = self.tree
        level = tree.height - 1
        while page_id != tree.root_id:
            page_id = tree.parent[page_id]
            level -= 1
        self._claimed = self._claimed + io
        self.visits.append(
            NodeVisit(
                page_id=node.page_id,
                level=level,
                is_leaf=node.is_leaf,
                entries_tested=tested,
                entries_matched=matched,
                residency=residency,
                io=io,
            )
        )


def analyze(
    tree: "RTreeBase",
    op: str,
    params: Dict[str, Any],
    run: Callable[[], Optional[Sequence[Any]]],
    phases: Sequence[str] = (),
) -> ExplainReport:
    """Run ``run()`` — a real operation body of ``tree`` — under a
    :class:`TraversalObserver` and report what it saw.  ``results`` is
    the size of the answer ``run`` returns (1 for a mutation)."""
    with TraversalObserver(tree, phases) as seen:
        answer = run()
    return ExplainReport(
        op=op,
        tree=tree.name,
        backend=kernels.BACKEND,
        params=params,
        visits=seen.visits,
        phases=seen.phases,
        io_delta=seen.io_delta,
        results=1 if answer is None else len(answer),
    )


def _io_brief(io: IOSnapshot) -> str:
    """Compact non-zero-fields rendering, e.g. ``leaf_reads=2+log_writes=1``;
    ``-`` when the snapshot is all zeros."""
    bits: List[Tuple[str, int]] = [
        (name, value) for name, value in io.as_dict().items() if value
    ]
    if not bits:
        return "-"
    return "+".join(f"{name}={value}" for name, value in bits)
