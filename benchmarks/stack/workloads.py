"""The four ``bench_stack`` workloads: inputs, stacks and output checks.

Everything the program under test sees is generated here from ``--seed``;
the program gets rectangles and windows, never the seed.  README.md says
why each workload exists.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.memo_lsm import SpillingUpdateMemo
from repro.core.recovery import RecoveryReport, recover_option_iii
from repro.core.rum import RUMTree
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect
from repro.rtree.node import RUM_LEAF_ENTRY_BYTES
from repro.serving import ServingClient, ShardRouter, ShardServer
from repro.storage.iostats import IOSnapshot
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

from hostspeed import HostSpeed

# Sizing is fixed here and nowhere else: the benchmark takes none of it
# from the environment (README.md, "Ground rules").
N_OBJECTS = 20_000
SMOKE_OBJECTS = 1_000
NODE_SIZE = 2048            # the router's default shard node size
MOVING_DISTANCE = 0.02
QUERY_SIDE = 0.05
INSPECTION_RATIO = 0.2
N_SHARDS = 4
BATCH = 64
PRELOAD_BATCH = 4096
MEMO_SPILL_BUDGET = 4096    # bytes of RAM tier; steady-state memo is ~3x this
VERIFY_WINDOWS = 200
COVER_TILES = 4

UPDATE, QUERY = 0, 1        # op classes
Call = Tuple[int, Any]      # (class, payload); a batch payload is a list of ops


@dataclass(frozen=True)
class Spec:
    """One workload: what a segment holds and which tail it supports.

    A segment has an exact number of calls of each class (their order is
    shuffled from the seed), so every segment has the same sample count.
    ``*_tail`` is the percentile reported as the tail of that class; the
    latency distributions have cliffs (an update either triggers a split
    or does not), and README.md says how each was placed on a plateau.
    """

    name: str
    why: str
    updates: int            # single updates per segment
    queries: int
    update_tail: float
    query_tail: float
    served: bool = False    # through client -> server -> router
    batch: int = 0          # >0: updates go through apply_batch in groups

    @property
    def update_calls(self) -> int:
        return self.updates // self.batch if self.batch else self.updates

    @property
    def ops(self) -> int:
        return self.updates + self.queries


SPECS: Tuple[Spec, ...] = (
    Spec(
        "serve_mix",
        "client -> socket server -> 4-shard router at 50/50 update/query: "
        "the only workload on which the serving layers work",
        updates=1500, queries=1500, update_tail=99, query_tail=95,
        served=True,
    ),
    Spec(
        "tree_update",
        "95% direct RUMTree.update_object (the paper's premise), 5% search: "
        "serving, mirror and WAL do nothing here",
        updates=9500, queries=500, update_tail=99, query_tail=90,
    ),
    Spec(
        "tree_query_churn",
        "85% search beside 15% updates on one tree: garbage, cleaner and "
        "mirror rebuilds seen from the query side",
        updates=225, queries=1275, update_tail=90, query_tail=99.5,
    ),
    Spec(
        "durable_batch",
        "Option-III WAL + spilled memo 3x its RAM tier, updates in "
        "apply_batch groups of 64, then crash + recovery + full check",
        updates=56 * BATCH, queries=400, update_tail=80, query_tail=90,
        batch=BATCH,
    ),
)
SPEC_BY_NAME = {spec.name: spec for spec in SPECS}


def smoke_spec(spec: Spec) -> Spec:
    """A tenth of the segment, for the self-test; never compared."""
    if spec.batch:
        updates = 8 * spec.batch
    else:
        updates = max(40, spec.updates // 10)
    return replace(spec, updates=updates, queries=max(40, spec.queries // 10))


def derive_seed(seed: int, label: str) -> int:
    """An independent 31-bit seed for one input stream."""
    return random.Random(f"bench_stack/{seed}/{label}").getrandbits(31)


class Trace:
    """The seeded input stream of one run, and the oracle it implies.

    The oracle (oid -> latest rectangle) is advanced when a segment is
    *generated*: every generated call is executed, and a call that fails
    then shows up twice — as a failed op and as a verification mismatch.
    """

    def __init__(self, spec: Spec, seed: int, n_objects: int) -> None:
        self.spec = spec
        self.n_objects = n_objects
        # The repository's standard road network; where the objects start
        # and how they move on it comes from the seed.
        self.objects = default_network_workload(
            n_objects, moving_distance=MOVING_DISTANCE,
            seed=derive_seed(seed, "objects"),
        )
        self.windows = RangeQueryGenerator(
            side=QUERY_SIDE, seed=derive_seed(seed, "windows")
        )
        self.mix = random.Random(derive_seed(seed, "mix"))
        self.verify_seed = derive_seed(seed, "verify")
        self.initial: List[Tuple[int, Rect]] = list(self.objects.initial())
        self.oracle: Dict[int, Rect] = dict(self.initial)

    def segment(self) -> List[Call]:
        spec = self.spec
        classes = [UPDATE] * spec.update_calls + [QUERY] * spec.queries
        self.mix.shuffle(classes)
        calls: List[Call] = []
        for klass in classes:
            if klass == QUERY:
                calls.append((QUERY, self.windows.next_query()))
            elif spec.batch:
                calls.append((UPDATE, [self._move() for _ in range(spec.batch)]))
            else:
                calls.append((UPDATE, self._move()[1:]))
        return calls

    def _move(self) -> Tuple[str, int, Rect]:
        oid, _old, new = self.objects.next_update()
        self.oracle[oid] = new
        return ("update", oid, new)


# ---------------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------------


class Stack:
    """A built system under test.

    ``ops()`` looks the entry points up afresh, so a segment started after
    the tracer patched them runs the traced ones.
    """

    trees: List[RUMTree]
    memo_dir: Optional[Path] = None

    def ops(self) -> Tuple[Callable[[Any], Any], Callable[[Rect], Any]]:
        raise NotImplementedError

    def count(self) -> Optional[int]:
        """The server's own object count, where it has one."""
        return None

    def crash_and_recover(self) -> Tuple[RecoveryReport, float]:
        raise NotImplementedError("only the durable stack can recover")

    def close(self) -> None:
        pass

    # -- counters and end-state, summed over the stack's trees -------------

    def io(self) -> IOSnapshot:
        total = IOSnapshot()
        for tree in self.trees:
            total = total + tree.stats.snapshot()
        return total

    def leaf_io_reader(self) -> Callable[[], int]:
        """``() -> leaf accesses so far``, from the plain-int counters:
        it runs between every two operations."""
        stats = [tree.stats for tree in self.trees]
        if len(stats) == 1:
            only = stats[0]
            return lambda: only.leaf_reads + only.leaf_writes
        return lambda: sum(s.leaf_reads + s.leaf_writes for s in stats)

    def end_state(self, n_objects: int) -> Dict[str, float]:
        """Space-side metrics.  Uses only uncounted introspection: no
        I/O counter and no memo tally moves."""
        entries = sum(tree.num_leaf_entries() for tree in self.trees)
        pages = sum(tree.buffer.disk.num_pages() for tree in self.trees)
        run_bytes = 0
        if self.memo_dir is not None:
            run_bytes = sum(
                p.stat().st_size for p in self.memo_dir.rglob("*") if p.is_file()
            )
        live_bytes = n_objects * RUM_LEAF_ENTRY_BYTES
        return {
            # Every live object has exactly one latest entry and nothing
            # is ever deleted for good, so the rest is garbage.
            "garbage_ratio": (entries - n_objects) / n_objects,
            "memo_bytes": float(
                sum(tree.memo_size_bytes() for tree in self.trees)
            ),
            "space_amp": (pages * NODE_SIZE + run_bytes) / live_bytes,
        }


def settle(tree: RUMTree) -> None:
    """Finish what loading left half-done.

    Under the memo approach an insert is an update, so the preload leaves
    one phantom memo entry per object; only the second full cleaning
    cycle after it may purge them (Lemma 1).  A long-running index is
    past that point, and a workload with few updates would otherwise
    report how far the first purge happened to have got.
    """
    tree.cleaner.run_full_cycle()
    tree.cleaner.run_full_cycle()


class TreeStack(Stack):
    """One RUM-tree called directly; optionally durable (WAL + spilled memo)."""

    def __init__(
        self, initial: Sequence[Tuple[int, Rect]], spec: Spec, workdir: Path
    ) -> None:
        self.spec = spec
        self.workdir = workdir
        kwargs: Dict[str, Any] = {}
        if spec.batch:
            self.memo_dir = workdir / "memo"
            kwargs.update(
                recovery_option="III",
                memo_dir=str(self.memo_dir),
                memo_spill_budget=MEMO_SPILL_BUDGET,
            )
        self.tree = build_rum_tree(
            node_size=NODE_SIZE,
            leaf_cache_pages=0,
            inspection_ratio=INSPECTION_RATIO,
            clean_upon_touch=True,
            **kwargs,
        )
        self.trees = [self.tree]
        if spec.batch:
            # One insert at a time would spill the 4 KiB memo tier every
            # 170 objects and probe the runs 280k times: a bulk load in
            # large batches reaches the same population in a third of
            # the time, and set-up runs three times per measurement.
            ops = [("insert", oid, rect) for oid, rect in initial]
            for i in range(0, len(ops), PRELOAD_BATCH):
                self.tree.apply_batch(ops[i:i + PRELOAD_BATCH])
        else:
            for oid, rect in initial:
                self.tree.insert_object(oid, rect)
        settle(self.tree)

    def ops(self) -> Tuple[Callable[[Any], Any], Callable[[Rect], Any]]:
        tree = self.tree
        if self.spec.batch:
            return tree.apply_batch, tree.search
        update_object = tree.update_object

        def update(payload: Tuple[int, Rect]) -> None:
            update_object(payload[0], None, payload[1])

        return update, tree.search

    def crash_and_recover(self) -> Tuple[RecoveryReport, float]:
        """Lose everything volatile, keep only flushed bytes, recover.

        Returns the recovery's own report and how long it took, in
        host-normalised ns.
        """
        tree = self.tree
        if tree.wal is None:
            raise RuntimeError("only the durable stack can recover")
        tree.wal.crash_truncate()
        tree.crash()
        with HostSpeed() as host:
            t0 = time.perf_counter_ns()
            report = recover_option_iii(tree)
            elapsed = time.perf_counter_ns() - t0
        return report, elapsed * host.factor

    def close(self) -> None:
        memo = self.tree.memo
        if isinstance(memo, SpillingUpdateMemo):
            memo.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()  # the shared parent, once empty
        except OSError:
            pass


class ServeStack(Stack):
    """Client -> in-process socket server -> 4-shard router, TCP loopback."""

    def __init__(self, initial: Sequence[Tuple[int, Rect]]) -> None:
        self.router = ShardRouter(
            N_SHARDS,
            node_size=NODE_SIZE,
            io_latency=0.0,
            leaf_cache_pages=0,
            inspection_ratio=INSPECTION_RATIO,
            clean_upon_touch=True,
        )
        self.trees = [shard.tree for shard in self.router.shards]
        for oid, rect in initial:
            self.router.upsert(oid, rect)
        for tree in self.trees:
            settle(tree)
        self.server = ShardServer(self.router)
        host, port = self.server.start()
        self.client = ServingClient(host, port)

    def ops(self) -> Tuple[Callable[[Any], Any], Callable[[Rect], Any]]:
        upsert = self.client.upsert

        def update(payload: Tuple[int, Rect]) -> Any:
            return upsert(payload[0], payload[1])

        return update, self.client.query

    def count(self) -> Optional[int]:
        return self.client.count()

    def close(self) -> None:
        self.client.close()
        self.server.stop()


def build_stack(
    spec: Spec, initial: Sequence[Tuple[int, Rect]], workdir: Path
) -> Stack:
    if spec.served:
        return ServeStack(initial)
    return TreeStack(initial, spec, workdir)


# ---------------------------------------------------------------------------
# Output verification
# ---------------------------------------------------------------------------


def verify(
    stack: Stack, oracle: Dict[int, Rect], verify_seed: int
) -> Tuple[int, int]:
    """Check the stack's answers against a brute force over the oracle.

    ``COVER_TILES`` x ``COVER_TILES`` tiles that together cover the unit
    square (so every object is checked; one full-square answer would not
    fit the wire protocol's 1 MiB frame), ``VERIFY_WINDOWS`` seeded windows
    and, where the server counts objects itself, that count.  Returns
    ``(checks made, checks failed)``; a query that raises is a failed check.
    """
    oids = np.fromiter(oracle.keys(), dtype=np.int64, count=len(oracle))
    coords = np.array([tuple(oracle[int(o)]) for o in oids], dtype=np.float64)
    xmin, ymin, xmax, ymax = coords.T
    _update, query = stack.ops()
    step = 1.0 / COVER_TILES
    windows = [
        Rect(i * step, j * step, (i + 1) * step, (j + 1) * step)
        for i in range(COVER_TILES) for j in range(COVER_TILES)
    ]
    windows.extend(
        RangeQueryGenerator(side=QUERY_SIDE, seed=verify_seed).queries(
            VERIFY_WINDOWS
        )
    )
    checks = failed = 0
    for window in windows:
        checks += 1
        hit = (
            (xmin <= window.xmax) & (window.xmin <= xmax)
            & (ymin <= window.ymax) & (window.ymin <= ymax)
        )
        expected = {
            (int(o), tuple(c)) for o, c in zip(oids[hit], coords[hit].tolist())
        }
        try:
            rows = query(window)
        except Exception:  # a failed check, not a crashed benchmark
            failed += 1
            continue
        got = [(int(oid), tuple(rect)) for oid, rect in rows]
        if len(got) != len(expected) or set(got) != expected:
            failed += 1
    try:
        count = stack.count()
    except Exception:
        count = -1
    if count is not None:
        checks += 1
        failed += count != len(oracle)
    return checks, failed
