"""Concurrent-throughput experiment (Section 5.6, Figure 16).

The paper runs 100 threads of mixed updates/queries against the RUM-tree
and the R*-tree and reports throughput as the update share grows: with
queries only the two trees are on par, but the R*-tree falls behind as
updates dominate because *"an update requires fewer locks than a query in
the RUM-tree, while it is not the case for the R*-tree"*.

This module reproduces that lock-granularity asymmetry with a discrete
simulation over real threads, in two parts: one lock policy
(:class:`GranuleLockedTree`) and one multi-client driver
(:class:`LoadDriver`).

**The lock policy.**

* the unit square is partitioned into spatial **cell granules** managed by
  a :class:`GranularLockManager` (standing in for DGL's node granules);
* a **query** read-locks the cells its window intersects;
* a **RUM-tree update** briefly latches the stamp counter and its memo
  bucket (in-memory structures, released before any disk time) and then
  write-locks only the single cell of the new position — the memo-based
  approach touches one insertion path;
* an **R*-tree update** write-locks the whole neighbourhood of cells its
  top-down deletion search may visit (multiple paths!) plus the insertion
  cell, and holds them across its disk I/O;
* a **batch** write-locks every cell its updates land in, and a
  **cleaning cycle** takes no spatial granule at all (the cleaner walks
  the whole leaf ring under the structure latch) — the two extra
  mutation paths the race detector's stress mix
  (:func:`build_mixed_ops`) puts beside updates and queries.

Each operation executes against the real tree under the tree's own
structure latch, a mutex that queries and mutations alike hold: a search
fills the buffer pool's caches and, over a spilled memo, moves run-file
positions, so it writes what the latch guards (docs/CONCURRENCY.md).
Granule locks keep their read mode — that is where the paper's
query/update asymmetry lives.  The operation then *holds its granule
locks* while sleeping for its simulated I/O time —
the number of leaf accesses it actually incurred times ``io_latency``,
read inside the latch, where that delta of the shared counters is
exactly its own.  Python's GIL is released during sleeps, so lock
contention, not compute, determines throughput, exactly the effect
Figure 16 measures.

**The driver.**  :meth:`LoadDriver.run` replays a workload from N client
threads.  With ``rate=None`` it is the **closed loop** Figure 16 needs:
a client takes the next unclaimed operation when its previous one
completes, and a latency sample is a service time.  With a rate it is
the serving layer's **open loop**: arrivals are scheduled on a
fixed-rate clock that never waits for completions — exactly how
external client traffic behaves — and each operation's latency is
measured from its *scheduled* arrival, so queueing delay shows up in
the percentiles instead of being silently absorbed, avoiding classic
coordinated omission.

**Race detection.**  With ``REPRO_RACECHECK=1`` (or an explicitly
activated :mod:`~repro.concurrency.racecheck` checker) every probe in the
tree reports to the detector, and the driver brackets every client
thread with fork/join happens-before edges.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

from repro.core.memo import N_BUCKETS
from repro.core.rum import RUMTree
from repro.rtree.geometry import Rect
from repro.storage.iostats import IOStats
from repro.workload.trace import QueryOp, UpdateOp

from . import racecheck
from .locks import READ, WRITE, GranularLockManager
from .primitives import LockLike

#: The spatial granules of the lock policy: a ``GRID`` x ``GRID`` grid
#: of cells over the unit square.
GRID = 8

#: How far past the old position an R*-tree update's deletion search
#: write-locks: the neighbourhood its multi-path descent may visit.
SEARCH_LOCK_PAD = 0.12


def _cells_for(
    rect: Rect, grid: int, pad: float = 0.0
) -> List[Hashable]:
    """All grid-cell granules intersecting ``rect`` grown by ``pad``."""
    xmin = max(0, int(math.floor((rect.xmin - pad) * grid)))
    ymin = max(0, int(math.floor((rect.ymin - pad) * grid)))
    xmax = min(grid - 1, int(math.floor((rect.xmax + pad) * grid)))
    ymax = min(grid - 1, int(math.floor((rect.ymax + pad) * grid)))
    return [
        ("cell", cx, cy)
        for cx in range(xmin, xmax + 1)
        for cy in range(ymin, ymax + 1)
    ]


#: Granule lock requests, as :meth:`GranularLockManager.locked` takes them.
Requests = List[Tuple[Hashable, str]]

#: What the lock policy performs: an ``UpdateOp``, a ``QueryOp``, or one
#: of the tagged tuples :func:`build_mixed_ops` adds for the race
#: detector — ``("batch", [(oid, rect), ...])`` (one ``tree.apply_batch``
#: of updates) and ``("clean", n)`` (``n`` full cleaning cycles).
StressOp = Any


class GranuleLockedTree:
    """One tree behind the Figure-16 granule locks (the lock policy)."""

    def __init__(
        self,
        tree: Any,
        *,
        io_latency: float = 0.0005,
    ) -> None:
        self.tree = tree
        self.io_latency = io_latency
        self.locks = GranularLockManager()
        # Structure serialisation: the tree's own latch, so two policies
        # (or a policy and a router) over one tree exclude each other.
        self.tree_latch: LockLike = tree.latch
        self._is_rum = isinstance(tree, RUMTree)
        racecheck.from_env()

    # -- lock footprints -----------------------------------------------------

    def _brief_requests(self, oids: Iterable[int]) -> Requests:
        """Latch-like locks held only for an instant (Section 3.5): the
        stamp counter and the memo buckets are in-memory structures — a
        RUM-tree update locks them for the increment and the memo write,
        not for the duration of its disk I/O.  The R*-tree has none."""
        if not self._is_rum:
            return []
        brief: Requests = [("stamp_counter", WRITE)]
        brief.extend((("memo_bucket", oid % N_BUCKETS), WRITE) for oid in oids)
        return brief

    def footprint(self, op: StressOp) -> Tuple[Requests, Requests]:
        """``(brief, held)`` granule requests of one operation: the
        in-memory latches released before any disk time, and the spatial
        granules kept across it."""
        if isinstance(op, QueryOp):
            return [], [(cell, READ) for cell in _cells_for(op.window, GRID)]
        if isinstance(op, UpdateOp):
            # The insertion cell.  For a memo-based update that is all:
            # a single insertion path, one spatial granule held while
            # its page I/O completes.
            cells = _cells_for(op.new_rect, GRID)
            if not self._is_rum:
                # Top-down update: the deletion search follows multiple
                # paths, write-locking the old position's whole
                # neighbourhood.
                cells += _cells_for(op.old_rect, GRID, pad=SEARCH_LOCK_PAD)
            return (
                self._brief_requests([op.oid]),
                [(cell, WRITE) for cell in cells],
            )
        kind, payload = op
        if kind == "batch":
            return (
                self._brief_requests(oid for oid, _rect in payload),
                [
                    (cell, WRITE)
                    for _oid, rect in payload
                    for cell in _cells_for(rect, GRID)
                ],
            )
        if kind == "clean":
            return [], []
        raise ValueError(f"unknown stress op kind {kind!r}")

    # -- execution ---------------------------------------------------------------

    def _execute(self, op: StressOp) -> int:  # holds: tree_latch
        """Run the operation on the real tree, returning its leaf I/O.

        The caller holds ``tree_latch``, queries included
        (the lock-order discipline is *granule locks, then structure
        latch* — see docs/CONCURRENCY.md), so no other operation moves
        the shared counters between the two readings.
        """
        tree = self.tree
        stats: IOStats = tree.stats
        before = stats.leaf_reads + stats.leaf_writes
        if isinstance(op, UpdateOp):
            tree.update_object(op.oid, op.old_rect, op.new_rect)
        elif isinstance(op, QueryOp):
            tree.search(op.window)
        elif op[0] == "batch":
            tree.apply_batch([("update", oid, rect) for oid, rect in op[1]])
        else:  # "clean": footprint() has rejected every other kind
            for _ in range(op[1]):
                tree.cleaner.run_full_cycle()
        return stats.leaf_reads + stats.leaf_writes - before

    def perform(self, op: StressOp) -> None:
        """Lock, execute, and hold the locks for the simulated I/O time."""
        brief, held = self.footprint(op)
        if brief:
            # Acquired and released before any simulated disk time.
            with self.locks.locked(brief):
                pass
        with self.locks.locked(held):
            with self.tree_latch:
                leaf_io = self._execute(op)
            if self.io_latency > 0:
                time.sleep(leaf_io * self.io_latency)


def build_mixed_ops(
    n_objects: int,
    n_ops: int,
    *,
    update_fraction: float = 0.5,
    batch_every: int = 12,
    batch_size: int = 8,
    clean_every: int = 40,
    seed: int = 7,
) -> Tuple[List[Tuple[int, Rect]], List[StressOp]]:
    """A seeded mixed workload for the race detector's beat cop.

    Returns ``(initial, ops)``: ``initial`` is the ``(oid, rect)`` load
    to insert before starting threads; ``ops`` interleaves updates,
    range queries, batches and cleaning at the requested cadence, so
    every mutation path the RUM-tree offers — memo insert, WAL append,
    buffer writeback, cleaner drain, batch plan — executes under
    contention while the checker watches the annotated fields.
    """
    rng = random.Random(seed)

    def rect_at(x: float, y: float, w: float = 0.01) -> Rect:
        x = min(max(x, 0.0), 1.0 - w)
        y = min(max(y, 0.0), 1.0 - w)
        return Rect(x, y, x + w, y + w)

    positions: Dict[int, Rect] = {
        oid: rect_at(rng.random(), rng.random()) for oid in range(n_objects)
    }
    initial = sorted(positions.items())
    ops: List[StressOp] = []
    for i in range(n_ops):
        if clean_every and i and i % clean_every == 0:
            ops.append(("clean", 1))
            continue
        if batch_every and i and i % batch_every == 0:
            pairs: List[Tuple[int, Rect]] = []
            for _ in range(batch_size):
                oid = rng.randrange(n_objects)
                new = rect_at(rng.random(), rng.random())
                pairs.append((oid, new))
                positions[oid] = new
            ops.append(("batch", pairs))
            continue
        if rng.random() < update_fraction:
            oid = rng.randrange(n_objects)
            new = rect_at(rng.random(), rng.random())
            ops.append(UpdateOp(oid, positions[oid], new))
            positions[oid] = new
        else:
            x, y = rng.random() * 0.9, rng.random() * 0.9
            ops.append(QueryOp(Rect(x, y, x + 0.1, y + 0.1)))
    return initial, ops


# ---------------------------------------------------------------------------
# The load driver (Figure 16's closed loop, the serving layer's open loop)
# ---------------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted data (the same
    estimator as the obs registry histogram and bench_compare)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class LoadResult:
    """Outcome of one driven run.

    ``latencies_ms`` is sorted ascending.  In an open-loop run each
    sample measures completion minus *scheduled* arrival, so time an
    operation spent queued behind a saturated server counts against it
    (no coordinated omission); in a closed-loop run it is the service
    time of the operation alone.
    """

    n_clients: int
    operations: int
    #: Scheduled arrival rate (ops/s); ``inf`` = every arrival due
    #: immediately (the saturation probe); ``None`` = closed loop.
    offered_rate: Optional[float]
    elapsed_seconds: float
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        """Completions per second over the whole run."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.operations / self.elapsed_seconds

    def percentile_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    def report(self) -> Dict[str, float]:
        """The latency percentiles a serving run publishes."""
        return {
            "p50_ms": self.percentile_ms(0.50),
            "p95_ms": self.percentile_ms(0.95),
            "p99_ms": self.percentile_ms(0.99),
            "max_ms": self.latencies_ms[-1] if self.latencies_ms else 0.0,
        }


#: Applies one workload operation; returned by the client factory.
ExecuteFn = Callable[[Any], None]


class LoadDriver:
    """Multi-client load generator, closed or open loop.

    ``client_factory(k)`` is called once inside each of the
    ``n_clients`` worker threads and returns that client's execute
    function — the place to open a per-client socket connection (or to
    close over a shared in-process tree: ``lambda k: locked.perform``).

    **Closed loop** (``rate=None``): the clients share one cursor over
    the workload, each taking the next unclaimed operation when its
    previous one completes, so the trace executes in (nearly) trace
    order however unevenly the operations cost.

    **Open loop** (a rate): operation ``i`` is scheduled at
    ``start + i / rate`` and handed to client ``i % n_clients``; a
    client that falls behind its schedule executes late arrivals
    immediately, and the lateness is charged to their latency.  With
    ``rate=float("inf")`` every arrival is due at the start, which turns
    the run into a saturation probe: the achieved rate is the system's
    capacity at this concurrency.
    """

    def __init__(
        self,
        client_factory: Callable[[int], ExecuteFn],
        *,
        n_clients: int = 8,
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        self.client_factory = client_factory
        self.n_clients = n_clients
        racecheck.from_env()

    def run(
        self, operations: Sequence[Any], rate: Optional[float] = None
    ) -> LoadResult:
        """Replay ``operations`` (at ``rate`` ops/s when given)."""
        interval: Optional[float] = None  # closed loop: no schedule
        if rate is not None:
            if rate <= 0:
                raise ValueError("rate must be positive (use inf to saturate)")
            interval = 0.0 if math.isinf(rate) else 1.0 / rate
        n = len(operations)
        per_client: List[List[float]] = [[] for _ in range(self.n_clients)]
        errors: List[BaseException] = []
        cursor = iter(range(n))
        cursor_lock = threading.Lock()
        started: List[float] = []

        def claim() -> Optional[int]:
            with cursor_lock:
                return next(cursor, None)

        # The clock starts when the last client has built its connection
        # (the barrier's action runs once, before anyone is released),
        # so connection setup never counts as scheduling lateness.
        ready = threading.Barrier(
            self.n_clients, action=lambda: started.append(time.perf_counter())
        )

        def client(k: int) -> None:
            try:
                execute = self.client_factory(k)
                latencies = per_client[k]
                ready.wait()
                turns: Iterable[int] = (
                    iter(claim, None) if interval is None
                    else range(k, n, self.n_clients)
                )
                for i in turns:
                    if errors:
                        return  # another client failed: stop at this op
                    begin = time.perf_counter()
                    if interval is not None:
                        due = started[0] + i * interval
                        if begin < due:
                            time.sleep(due - begin)
                        begin = due
                    execute(operations[i])
                    latencies.append((time.perf_counter() - begin) * 1000.0)
            except threading.BrokenBarrierError:
                return  # another client's factory failed before the start
            # Client threads must capture every failure (including
            # SimulatedCrash) so the coordinator can re-raise the first
            # one after joining; nothing is swallowed.
            # lint: disable=REP001
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)
                ready.abort()  # release clients still waiting to start

        threads = [
            threading.Thread(target=client, args=(k,), name=f"load-{k}")
            for k in range(self.n_clients)
        ]
        for thread in threads:
            # Fork edge: the workload built so far happens-before the
            # client, so the detector never flags the build phase.
            if (checker := racecheck.ACTIVE) is not None:
                checker.note_fork(thread)
            thread.start()
        for thread in threads:
            thread.join()
            if (checker := racecheck.ACTIVE) is not None:
                checker.note_join(thread)
        if errors:
            raise errors[0]
        elapsed = time.perf_counter() - started[0]
        merged = sorted(
            sample for samples in per_client for sample in samples
        )
        return LoadResult(
            n_clients=self.n_clients,
            operations=n,
            offered_rate=rate,
            elapsed_seconds=elapsed,
            latencies_ms=merged,
        )
