"""Shared experiment machinery: tree construction, loading, measurement.

Every figure driver uses the same primitives so that all trees see
identical workloads and all metrics are computed the same way:

* :func:`make_tree` — build one of the four evaluated index variants
  ("rstar", "fur", "rum_token", "rum_touch") on a fresh storage stack;
* :func:`load_tree` — bulk-load the initial object population;
* :func:`measure_updates` — average per-update disk accesses and CPU time
  over an update stream;
* :func:`measure_queries` — average per-query disk accesses;
* :func:`run_trace` — replay a mixed update/query trace.

The paper's absolute workload sizes (2M–20M objects, 100k queries) are far
beyond a pure-Python simulator's single-run budget; the drivers default to
thousands of objects and scale every count by ``REPRO_BENCH_SCALE``
(float, default 1.0), so the suite can be run larger when time allows.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.rum import RUMTree
from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.obs import Observability, get_default_obs
from repro.storage.iostats import IOSnapshot
from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import Operation, UpdateOp

#: Names of the evaluated index variants (Section 5 terminology).
TREE_KINDS = ("rstar", "fur", "rum_token", "rum_touch")

TREE_LABELS = {
    "rstar": "R*-tree",
    "fur": "FUR-tree",
    "rum_token": "RUM-tree(token)",
    "rum_touch": "RUM-tree(touch)",
}

#: Side of the square range queries of Figures 12–14 and the drift
#: report (the paper's standard 0.01 window).
QUERY_SIDE = 0.01


#: Malformed ``REPRO_BENCH_SCALE`` values already warned about, so a bad
#: setting produces exactly one warning per process, not one per call.
_warned_bench_scales: set = set()


def bench_scale() -> float:
    """Global workload multiplier from the ``REPRO_BENCH_SCALE`` env var.

    A value that does not parse as a float falls back to 1.0 with a
    one-time :class:`RuntimeWarning` naming the offending value — a typo
    in the variable should not silently run the full-size workload.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        return max(0.01, float(raw))
    except ValueError:
        if raw not in _warned_bench_scales:
            _warned_bench_scales.add(raw)
            warnings.warn(
                f"ignoring malformed REPRO_BENCH_SCALE={raw!r}; "
                f"using scale 1.0",
                RuntimeWarning,
                stacklevel=2,
            )
        return 1.0


def scaled(count: int, scale: Optional[float] = None) -> int:
    """Scale a workload count, keeping it at a sane minimum."""
    factor = bench_scale() if scale is None else scale
    return max(16, int(count * factor))


def make_tree(
    kind: str,
    node_size: int = 8192,
    inspection_ratio: float = 0.2,
    fur_extension: float = 0.01,
    obs: Optional[Observability] = None,
    **extra,
):
    """Construct one evaluated index variant on a fresh storage stack.

    When no ``obs`` is given, the process-default observability (set by
    the CLI's ``--obs-out``/``--obs-level``) is attached, so every figure
    driver emits telemetry without threading a parameter through.
    """
    if obs is None:
        obs = get_default_obs()
    if obs is not None:
        extra.setdefault("obs", obs)
    if kind == "rstar":
        return build_rstar_tree(node_size=node_size, **extra)
    if kind == "fur":
        return build_fur_tree(
            node_size=node_size, extension=fur_extension, **extra
        )
    if kind == "rum_token":
        return build_rum_tree(
            node_size=node_size,
            inspection_ratio=inspection_ratio,
            clean_upon_touch=False,
            **extra,
        )
    if kind == "rum_touch":
        return build_rum_tree(
            node_size=node_size,
            inspection_ratio=inspection_ratio,
            clean_upon_touch=True,
            **extra,
        )
    raise ValueError(f"unknown tree kind {kind!r}; expected {TREE_KINDS}")


def load_tree(tree, initial: Iterable) -> int:
    """Insert the initial population; returns the number of objects."""
    count = 0
    for oid, rect in initial:
        tree.insert_object(oid, rect)
        count += 1
    return count


@dataclass
class Measurement:
    """What one measured replay cost: the counted I/O and CPU time of
    the ``updates`` + ``queries`` operations it ran, averaged per
    operation (a pure stream's per-operation cost is its per-update or
    per-query cost)."""

    io: IOSnapshot
    cpu_seconds: float = 0.0
    updates: int = 0
    queries: int = 0
    #: Objects returned over all queries.
    results: int = 0

    @property
    def operations(self) -> int:
        return self.updates + self.queries

    def _per_operation(self, total: float) -> float:
        return total / self.operations if self.operations else 0.0

    @property
    def io_per_operation(self) -> float:
        return self._per_operation(self.io.counted_total)

    @property
    def leaf_io_per_operation(self) -> float:
        return self._per_operation(self.io.leaf_total)

    @property
    def cpu_ms_per_operation(self) -> float:
        return self._per_operation(1000.0 * self.cpu_seconds)


@contextmanager
def _measuring(tree) -> Iterator[Measurement]:
    """The one measured body: I/O snapshot and CPU clock around the
    block, which replays its operations against ``tree`` and tallies
    them on the measurement it is handed."""
    measurement = Measurement(io=tree.stats.snapshot())
    started = time.process_time()
    yield measurement
    measurement.cpu_seconds = time.process_time() - started
    measurement.io = tree.stats.snapshot() - measurement.io
    obs = getattr(tree, "obs", None)
    if obs is not None:
        obs.event("measure", tree=tree.name, **asdict(measurement))


def measure_updates(tree, objects, count: int) -> Measurement:
    """Replay ``count`` updates and average their cost."""
    with _measuring(tree) as cost:
        for oid, old_rect, new_rect in objects.updates(count):
            tree.update_object(oid, old_rect, new_rect)
        cost.updates = count
    return cost


def measure_queries(
    tree, queries: RangeQueryGenerator, count: int
) -> Measurement:
    """Evaluate ``count`` range queries and average their cost."""
    with _measuring(tree) as cost:
        for window in queries.queries(count):
            cost.results += len(tree.search(window))
        cost.queries = count
    return cost


def run_trace(tree, trace: Sequence[Operation]) -> Measurement:
    """Replay a prepared mixed trace against one tree."""
    with _measuring(tree) as cost:
        for op in trace:
            if isinstance(op, UpdateOp):
                tree.update_object(op.oid, op.old_rect, op.new_rect)
                cost.updates += 1
            else:
                tree.search(op.window)
                cost.queries += 1
    return cost


def auxiliary_size_bytes(tree) -> int:
    """Size of the tree's auxiliary structure (Figures 12d/13d/14d):
    the Update Memo for the RUM-tree, the secondary index for the
    FUR-tree, nothing for the R*-tree."""
    if isinstance(tree, RUMTree):
        return tree.memo_size_bytes()
    index = getattr(tree, "index", None)
    if index is not None:
        return index.size_bytes()
    return 0


@dataclass
class ExperimentResult:
    """Uniform container every figure driver returns.

    ``rows`` is a list of dicts (one per measured configuration); the
    registry's tables render them and EXPERIMENTS.md records them.
    """

    experiment: str
    description: str
    rows: List[Dict] = field(default_factory=list)

    def column(self, key: str) -> List:
        return [row[key] for row in self.rows]
