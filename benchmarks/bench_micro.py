#!/usr/bin/env python
"""Tracked micro-benchmarks for the simulator's hot paths.

Unlike the ``bench_fig*`` experiment replays, these measure the raw
throughput of single layers every experiment sits on — the page codec,
the columnar kernels, the buffer pool, the update memo, the serving
layers around a router that does nothing and the router around shards
that do nothing.  Every end-to-end number (ops/s, latency, counted I/O
of a whole stack) comes from ``benchmarks/stack/bench_stack.py``, which
verifies its answers.
Run it directly::

    PYTHONPATH=src python benchmarks/bench_micro.py [output.json]

It prints one line per metric and writes ``BENCH_micro.json`` at the repo
root (or to the path given as the first argument) with the schema::

    {
      "schema": "bench_micro/v1",
      "scale": <REPRO_BENCH_SCALE in effect>,
      "node_size": 8192,
      "metrics": {
        "<name>": {"ops_per_sec": <float>, "iterations": <int>},
        ...
      }
    }

Metric names are stable identifiers; ``scripts/bench_compare.py`` diffs
two such files and flags regressions.  Iteration counts scale with
``REPRO_BENCH_SCALE`` so the CI smoke run stays fast.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import pathlib
import random
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro import kernels
from repro.concurrency.primitives import make_lock
from repro.core.batch import plan_batch
from repro.core.memo import UpdateMemo
from repro.core.memo_lsm import SpillingUpdateMemo
from repro.experiments.harness import (
    bench_scale,
    load_tree,
    make_tree,
    scaled,
)
from repro.rtree.base import RTreeBase
from repro.rtree.geometry import Rect
from repro.rtree.node import IndexEntry, LeafEntry, Node
from repro.serving import ServingClient, ShardRouter, ShardServer
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec
from repro.storage.disk import DiskManager
from repro.storage.iostats import IOStats
from repro.workload.objects import default_network_workload

SCHEMA = "bench_micro/v1"
NODE_SIZE = 8192
DEFAULT_OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_micro.json"


def _timed(fn: Callable[[], None], iterations: int) -> float:
    """Run ``fn`` ``iterations`` times; ops/sec of one ``fn`` call."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    elapsed = time.perf_counter() - t0
    return iterations / elapsed if elapsed > 0 else float("inf")


def _random_rect(rng: random.Random) -> Rect:
    x1, x2 = sorted((rng.random(), rng.random()))
    y1, y2 = sorted((rng.random(), rng.random()))
    return Rect(x1, y1, x2, y2)


def _full_leaf(codec: NodeCodec, rng: random.Random) -> Node:
    entries = [
        LeafEntry(_random_rect(rng), oid=i, stamp=3 * i)
        for i in range(codec.leaf_cap)
    ]
    return Node(1, True, entries, prev_leaf=7, next_leaf=9)


def _full_index(codec: NodeCodec, rng: random.Random) -> Node:
    entries = [
        IndexEntry(_random_rect(rng), child_id=i + 1)
        for i in range(codec.index_cap)
    ]
    return Node(2, False, entries)


def bench_codec(metrics: Dict, iters: int) -> None:
    rng = random.Random(7)
    for label, rum_leaves, maker in (
        ("classic_leaf", False, _full_leaf),
        ("rum_leaf", True, _full_leaf),
        ("index", False, _full_index),
    ):
        codec = NodeCodec(NODE_SIZE, rum_leaves=rum_leaves)
        node = maker(codec, rng)

        def encode() -> None:
            node.cached_bytes = None  # defeat the clean-page cache
            codec.encode(node)

        metrics[f"codec.encode_{label}"] = {
            "ops_per_sec": _timed(encode, iters), "iterations": iters,
        }
        if node.is_leaf:
            continue  # a leaf decode is header-only: measured once, below
        page = codec.encode(node)

        def decode() -> None:  # internal pages decode eagerly
            codec.decode(2, page)

        metrics[f"codec.decode_{label}"] = {
            "ops_per_sec": _timed(decode, iters), "iterations": iters,
        }
    # A leaf decode is header-only whatever the entry layout; what a
    # query then reads is the bulk column block of the same page.
    codec = NodeCodec(NODE_SIZE, rum_leaves=True)
    page = codec.encode(_full_leaf(codec, rng))
    lazy_iters = iters * 10

    def decode_lazy() -> None:
        codec.decode(1, page)

    metrics["codec.decode_lazy_header"] = {
        "ops_per_sec": _timed(decode_lazy, lazy_iters),
        "iterations": lazy_iters,
    }
    count = codec.leaf_cap

    def decode_bulk() -> None:
        codec.decode_block(count, page)

    metrics["codec.decode_bulk"] = {
        "ops_per_sec": _timed(decode_bulk, lazy_iters),
        "iterations": lazy_iters,
    }


def bench_kernels(metrics: Dict, iters: int) -> None:
    """Columnar kernel hot loops in isolation (see docs/KERNELS.md).

    ``geometry.bulk_intersect`` runs the range-search predicate over a
    buffer-born block (the one queries consume, lifted off a page image);
    ``split.margin_scan`` runs the R* axis-choice scan — a stable argsort
    plus running-bounds tables per coordinate column — over an entry-born
    block of a full leaf, the exact shape the split path feeds it;
    ``geometry.choose_subtree_*`` run the insertion's ChooseSubtree
    decision over a full directory node, on its short and its long path,
    and ``geometry.choose_subtree_grown`` grows one child of a leaf parent
    before deciding on it (the patched block and rows, ``_set_child``).
    ``geometry.leaf_filter_rect_vs_kernel`` answers one window over a
    full 2 048-byte RUM leaf (36 entries) with a ``Rect.intersects``
    comprehension (its rate, ``rect_us``) and with
    ``kernels.intersect_indices`` over the leaf's block, cached
    (``kernel_cached_us``) and rebuilt first (``kernel_rebuilt_us``).
    """
    rng = random.Random(13)
    codec = NodeCodec(NODE_SIZE, rum_leaves=True)
    node = _full_leaf(codec, rng)
    page = codec.encode(node)
    count = len(node.entries)
    block = codec.decode_block(count, page)
    wrng = random.Random(17)
    windows = []
    for _ in range(64):
        x, y = wrng.random() * 0.99, wrng.random() * 0.99
        windows.append((x, y, x + 0.01, y + 0.01))

    def bulk_intersect() -> None:
        for wx1, wy1, wx2, wy2 in windows:
            kernels.intersect_indices(block, wx1, wy1, wx2, wy2)

    rounds = max(5, iters // 10)
    metrics["geometry.bulk_intersect"] = {
        "ops_per_sec": _timed(bulk_intersect, rounds) * len(windows),
        "iterations": rounds * len(windows),
    }

    entry_block = kernels.block_from_entries(node.entries)
    min_entries = max(2, count * 2 // 5)

    def margin_scan() -> None:
        for dim in range(4):
            order = kernels.argsort(entry_block, dim)
            kernels.split_tables(entry_block, order, min_entries)

    metrics["split.margin_scan"] = {
        "ops_per_sec": _timed(margin_scan, rounds) * 4,
        "iterations": rounds * 4,
    }

    small_codec = NodeCodec(2048, rum_leaves=True)
    small_leaf = _full_leaf(small_codec, random.Random(19))
    small_entries = small_leaf.entries
    small_block = kernels.block_from_entries(small_entries)
    window = Rect(*windows[0])
    wx1, wy1, wx2, wy2 = windows[0]
    leaf_iters = iters * 10

    def rect_filter() -> None:
        [e for e in small_entries if e.rect.intersects(window)]

    def kernel_cached() -> None:
        kernels.intersect_indices(small_block, wx1, wy1, wx2, wy2)

    def kernel_rebuilt() -> None:
        kernels.intersect_indices(
            kernels.block_from_entries(small_entries), wx1, wy1, wx2, wy2
        )

    rect_rate = _timed(rect_filter, leaf_iters)
    metrics["geometry.leaf_filter_rect_vs_kernel"] = {
        "ops_per_sec": rect_rate,
        "iterations": leaf_iters,
        "rect_us": 1e6 / rect_rate,
        "kernel_cached_us": 1e6 / _timed(kernel_cached, leaf_iters),
        "kernel_rebuilt_us": 1e6 / _timed(kernel_rebuilt, leaf_iters),
    }

    # ChooseSubtree at the leaf parents, on a full directory node: a
    # rectangle one child covers costs the least-enlargement pass alone;
    # one beside every child (all must grow, into each other) ranks the
    # whole candidate list.
    index_codec = NodeCodec(NODE_SIZE)
    directory = _full_index(index_codec, rng)
    tree = RTreeBase(BufferPool(DiskManager(NODE_SIZE), index_codec, IOStats()))
    for label, rect in (
        ("covered", Rect.from_point(*directory.entries[0].rect.center())),
        ("ranked", Rect(1.5, 1.5, 1.6, 1.6)),
    ):
        def choose_subtree() -> None:
            tree._choose_child_index(directory, rect, True)

        metrics[f"geometry.choose_subtree_{label}"] = {
            "ops_per_sec": _timed(choose_subtree, iters), "iterations": iters,
        }

    # A leaf parent (38 children, as at 2 048 B) sees one child grow, the
    # edit ``_adjust_upward`` makes after an insertion, then decides the
    # next insertion's ChooseSubtree: children on a 0.1 grid, each in turn
    # widened by 0.005 and back, a probe point inside child 17.
    cells = [
        Rect(0.1 * (i % 7), 0.1 * (i // 7), 0.1 * (i % 7) + 0.11,
             0.1 * (i // 7) + 0.11)
        for i in range(38)
    ]
    leaf_parent = Node(3, False, [
        IndexEntry(r, child_id=1000 + i) for i, r in enumerate(cells)
    ])
    edits = itertools.cycle([
        (i, IndexEntry(Rect(r.xmin, r.ymin, r.xmax + grow, r.ymax), 1000 + i))
        for grow in (0.005, 0.0) for i, r in enumerate(cells)
    ])
    probe = Rect.from_point(*cells[17].center())

    def grow_and_choose() -> None:
        i, entry = next(edits)
        tree._set_child(leaf_parent, i, entry)
        tree._choose_child_index(leaf_parent, probe, True)

    metrics["geometry.choose_subtree_grown"] = {
        "ops_per_sec": _timed(grow_and_choose, iters), "iterations": iters,
    }


def bench_batch(metrics: Dict, iters: int) -> None:
    """A one-op ``apply_batch`` against ``update_object`` on one tree in
    ``bench_stack``'s ``tree_update`` shape (network objects, 2 048-byte
    nodes, ir 0.2, touch cleaning).  Both run the one write body, with
    its page scope and spill hold; only the batch plans its op.

    Three legs take turns update by update (the first leg rotates), so all
    see the same tree and host: ``update_object`` alone, a one-op
    ``apply_batch``, and ``update_object`` behind ``plan_batch`` of its op
    (fold, no Z-order for one upsert).  ``ops_per_sec`` is the batch of
    one's rate; ``update_us`` and ``batch_of_one_us`` are medians,
    ``gap_us`` their difference, ``plan_batch_us`` its leg's median minus
    ``update_us`` — the planning's cost where it runs, between insertions
    that evict it from the CPU caches — and ``other_us`` the rest of the
    gap (calls, the leaf-tally deltas, the ``BatchResult``).
    """
    workload = default_network_workload(
        scaled(20_000), moving_distance=0.02, seed=11
    )
    tree = make_tree("rum_touch", node_size=2048, inspection_ratio=0.2)
    load_tree(tree, workload.initial())
    update_object, apply_batch = tree.update_object, tree.apply_batch

    def update(oid: int, rect: Rect) -> None:
        update_object(oid, None, rect)

    def batch_of_one(oid: int, rect: Rect) -> None:
        apply_batch([("update", oid, rect)])

    def plan_batch_part(oid: int, rect: Rect) -> None:
        plan_batch([("update", oid, rect)])
        update_object(oid, None, rect)

    legs = {
        "update": update,
        "batch_of_one": batch_of_one,
        "plan_batch": plan_batch_part,
    }
    order = list(legs.items())
    times: Dict[str, List[float]] = {name: [] for name in legs}
    moves = iter(workload.updates(len(order) * iters))
    clock = time.perf_counter
    gc.collect()
    gc.disable()
    try:
        for k in range(iters):
            for j in range(len(order)):
                name, leg = order[(k + j) % len(order)]
                oid, _old, new = next(moves)
                t0 = clock()
                leg(oid, new)
                times[name].append(clock() - t0)
    finally:
        gc.enable()
    us = {name: statistics.median(t) * 1e6 for name, t in times.items()}
    gap = us["batch_of_one"] - us["update"]
    plan = us["plan_batch"] - us["update"]
    metrics["batch.update_vs_batch_of_one"] = {
        "ops_per_sec": 1e6 / us["batch_of_one"],
        "iterations": iters,
        "update_us": us["update"],
        "batch_of_one_us": us["batch_of_one"],
        "gap_us": gap,
        "plan_batch_us": plan,
        "other_us": gap - plan,
    }


def bench_buffer(metrics: Dict, iters: int) -> None:
    rng = random.Random(11)
    codec = NodeCodec(2048, rum_leaves=True)
    disk = DiskManager(2048)
    buf = BufferPool(disk, codec, IOStats())
    page_ids = []
    for _ in range(32):
        node = buf.new_node(is_leaf=True)
        node.entries.extend(
            LeafEntry(_random_rect(rng), oid=i, stamp=i)
            for i in range(codec.leaf_cap // 2)
        )
        buf.mark_dirty(node)
        page_ids.append(node.page_id)

    def get_pages() -> None:
        with buf.operation():
            for pid in page_ids:
                _ = buf.get_node(pid).entries  # materialise lazy leaves

    def get_dirty_flush() -> None:
        with buf.operation():
            for pid in page_ids:
                buf.mark_dirty(buf.get_node(pid))

    n_pages = len(page_ids)
    metrics["buffer.get_node"] = {
        "ops_per_sec": _timed(get_pages, iters) * n_pages,
        "iterations": iters * n_pages,
    }
    metrics["buffer.get_dirty_flush"] = {
        "ops_per_sec": _timed(get_dirty_flush, iters) * n_pages,
        "iterations": iters * n_pages,
    }


def bench_memo(metrics: Dict, iters: int) -> None:
    memo = UpdateMemo()
    n_oids = 512
    stamp = 0

    def memo_cycle() -> None:
        # One record + one query + one clean per oid: the per-update
        # pattern of the RUM-tree hot path.
        nonlocal stamp
        for oid in range(n_oids):
            stamp += 1
            memo.record_update(oid, stamp)
            memo.check_status(oid, stamp)
            if memo.is_obsolete(oid, stamp - 1):
                memo.note_cleaned(oid)

    rounds = max(1, iters // 50)
    metrics["memo.update_check_clean"] = {
        "ops_per_sec": _timed(memo_cycle, rounds) * n_oids,
        "iterations": rounds * n_oids,
    }

    # The query's CheckStatus: one filter_latest per 30-slot id column
    # (a leaf's hits), every other oid known to the memo — in RAM here,
    # in the runs of the spilled memo below.  Ops are entries filtered.
    for oid in range(0, 2 * n_oids, 2):
        memo.record_update(oid, oid)
        memo.record_update(oid, oid + 1)
    columns = [
        (list(range(lo, lo + 30)), [oid + oid % 3 for oid in range(lo, lo + 30)])
        for lo in range(0, 2 * n_oids - 30, 30)
    ]
    n_slots = 30 * len(columns)

    def filter_columns(target: UpdateMemo) -> None:
        for oids, stamps in columns:
            target.filter_latest(oids, stamps)

    metrics["memo.filter_column"] = {
        "ops_per_sec": _timed(lambda: filter_columns(memo), rounds) * n_slots,
        "iterations": rounds * n_slots,
    }

    # The clean-upon-touch sweep's shape: 28-slot leaf columns, one or two
    # oids of each known to the memo, at their latest stamp so nothing is
    # removed and every round sweeps the same memo.  Ops are slots swept.
    sweep_columns = []
    for k in range(len(columns)):
        base = 4 * n_oids + 28 * k  # beyond every oid the memo holds
        oids = list(range(base, base + 28))
        stamps = [0] * 28
        known = [2 * k] if k % 2 == 0 else [2 * k, 2 * k + 2]
        for j, oid in enumerate(known):
            slot = (k + 14 * j) % 28
            oids[slot], stamps[slot] = oid, oid + 1
        sweep_columns.append((oids, stamps))

    def sweep_columns_once() -> None:
        for oids, stamps in sweep_columns:
            memo.sweep_obsolete(oids, stamps, 28)

    metrics["memo.sweep_column"] = {
        "ops_per_sec": _timed(sweep_columns_once, rounds) * 28 * len(columns),
        "iterations": rounds * 28 * len(columns),
    }

    # latest_stamp against the LSM-tiered memo with the RAM tier pinned
    # far below the population, so nearly every probe walks the sorted
    # runs and the Bloom filters above the oldest — the CheckStatus cost
    # a spilled memo adds to query filtering and cleaning.
    from repro.storage.wal import UM_ENTRY_BYTES

    with tempfile.TemporaryDirectory(prefix="bench-memo-") as tmp:
        spilled = SpillingUpdateMemo(tmp, spill_budget=32 * UM_ENTRY_BYTES)
        for oid in range(0, 2 * n_oids, 2):
            spilled.record_update(oid, oid + 1)

        def probe_spilled() -> None:
            for oid in range(0, 2 * n_oids, 2):
                spilled.latest_stamp(oid)

        # The common case of a leaf sweep above a tier (nine probes in
        # ten on bench_stack's durable_batch): an oid inside the runs'
        # key range that no run holds — the odd ones here.
        def probe_absent() -> None:
            for oid in range(1, 2 * n_oids, 2):
                spilled.latest_stamp(oid)

        for name, probe, ops in (
            ("memo.probe_spilled", probe_spilled, n_oids),
            ("memo.probe_absent", probe_absent, n_oids),
            ("memo.filter_column_spilled",
             lambda: filter_columns(spilled), n_slots),
        ):
            metrics[name] = {
                "ops_per_sec": _timed(probe, rounds) * ops,
                "iterations": rounds * ops,
            }

        # A clean above the tier (last: it writes).  Untimed, every even
        # oid is updated twice and spilled as one run of DELTAs; timed, each
        # 30-slot column is swept with both stale entries of every oid in
        # it.  An oid's first removal misses RAM: CheckStatus reads its
        # newest run record and the fold for N_old goes on from there, down
        # to the ABSOLUTE the round before left; the second counts down in
        # place.  Spills are held back, so the time is the removals' own.
        clean_stamp = 4 * n_oids
        clean_columns = [
            [oid for oid in range(lo, lo + 60, 2) for _ in (0, 1)]
            for lo in range(0, 2 * n_oids - 60, 60)
        ]
        n_removals = 60 * len(clean_columns)
        stale = [0] * 60
        elapsed = 0.0
        for _ in range(rounds):
            with spilled.defer_spills():
                for oids in clean_columns:
                    for oid in oids:
                        clean_stamp += 1
                        spilled.record_update(oid, clean_stamp)
            with spilled.defer_spills():
                t0 = time.perf_counter()
                for oids in clean_columns:
                    spilled.sweep_obsolete(oids, stale, 60)
                elapsed += time.perf_counter() - t0
        metrics["memo.clean_spilled"] = {
            "ops_per_sec": rounds * n_removals / elapsed,
            "iterations": rounds * n_removals,
        }

        # A batch's sweep of a leaf swept whole since the run set last
        # changed (docs/MEMO.md, "Settled leaves").  The table spilled,
        # then 28-slot columns over the runs' key range, one or two oids
        # of each back in RAM, every slot at its latest stamp so nothing
        # is removed.  `memo.sweep_spilled` probes every slot, as an
        # unsettled sweep must; `memo.sweep_settled_spilled` only the
        # slots the table holds.  Spills are held; ops are slots swept.
        spilled.flush_ram()
        settled_columns = []
        with spilled.defer_spills():
            for lo in range(0, 2 * n_oids - 28, 28):
                oids = list(range(lo, lo + 28))
                for oid in oids[: 1 + lo // 28 % 2]:
                    clean_stamp += 1
                    spilled.record_update(oid, clean_stamp)
                settled_columns.append(
                    (oids, [spilled.latest_stamp(oid) or 0 for oid in oids])
                )
            n_swept = 28 * len(settled_columns)
            for name, settled in (
                ("memo.sweep_spilled", False),
                ("memo.sweep_settled_spilled", True),
            ):
                def sweep_settled_columns(settled: bool = settled) -> None:
                    for oids, stamps in settled_columns:
                        spilled.sweep_obsolete(oids, stamps, 28, settled)

                metrics[name] = {
                    "ops_per_sec": (
                        _timed(sweep_settled_columns, rounds) * n_swept
                    ),
                    "iterations": rounds * n_swept,
                }
        spilled.close()


class _NullRouter:
    """Answers a constant: what is left of a round trip is the serving
    layers' own — two frames each way, dispatch, two thread wake-ups."""

    ACK = {"shard": 1, "migrated": False}
    ANSWER = [(oid, 0.1, 0.1, 0.2, 0.2) for oid in range(47)]

    def upsert(self, oid: int, rect: Rect) -> Dict:
        return self.ACK

    def query(self, window: Rect) -> List[tuple]:
        return self.ANSWER

    def close(self) -> None:
        pass


class _StubTree:
    """A shard tree that does nothing behind a real latch: what is left of
    ``ShardRouter.upsert`` / ``query`` is routing, directory, latch and
    tallies (``serving.router.self`` in bench_stack's ledger).  It has no
    ``stats``: nothing reads a shard's I/O tally while ``io_latency`` is 0.
    Its memo is an empty RAM one, for ``ShardRouter.close`` to close."""

    def __init__(self) -> None:
        self.latch = make_lock()
        self.memo = UpdateMemo()

    def update_object(self, oid: int, old: None, rect: Rect) -> None:
        pass

    def insert_object(self, oid: int, rect: Rect) -> None:
        pass

    def delete_object(self, oid: int) -> None:
        pass

    def search_rows(self, window: Rect, stamped: bool) -> List:
        return []


def bench_serving(metrics: Dict, iters: int) -> None:
    """The serving layers by themselves, as bench_stack's ``serve_mix``
    runs them: TCP loopback, client and connection thread on one CPU.

    ``serving.round_trip_update`` / ``_query47`` are a 45 B / 10 B and a
    37 B / 1 889 B exchange with a router that answers a constant (a bare
    echo of those sizes between two threads is 8-9 us on the reference
    host; the 47-row codec alone is ~27 us of the query).
    ``router.route_self`` alternates ``upsert`` and ``query`` on a
    four-shard router whose shard trees do nothing.
    """
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(affinity)})
    try:
        rect = Rect(0.3, 0.3, 0.31, 0.31)
        with ShardServer(_NullRouter()) as server:  # type: ignore[arg-type]
            with ServingClient(*server.address) as client:
                for name, call, n in (
                    ("update", lambda: client.upsert(7, rect), iters * 5),
                    ("query47", lambda: client.query(rect), iters * 2),
                ):
                    call()  # the connection thread is up
                    metrics[f"serving.round_trip_{name}"] = {
                        "ops_per_sec": _timed(call, n), "iterations": n,
                    }
        rng = random.Random(5)
        rects = [
            Rect(x, y, x + 0.01, y + 0.01)
            for x, y in (
                (rng.random() * 0.98, rng.random() * 0.98) for _ in range(256)
            )
        ]
        with ShardRouter(4) as router:
            for shard in router.shards:
                shard.tree = _StubTree()  # type: ignore[assignment]
            for oid, r in enumerate(rects):
                router.upsert(oid, r)

            def route() -> None:
                for oid, r in enumerate(rects):
                    router.upsert(oid, r)
                    router.query(r)

            rounds = max(2, iters // 50)
            metrics["router.route_self"] = {
                "ops_per_sec": _timed(route, rounds) * 2 * len(rects),
                "iterations": rounds * 2 * len(rects),
            }
    finally:
        if pinned:
            os.sched_setaffinity(0, affinity)


def run(output: pathlib.Path = DEFAULT_OUTPUT) -> Dict:
    scale = bench_scale()
    iters = max(50, int(2000 * scale))
    metrics: Dict = {}
    bench_codec(metrics, iters)
    bench_kernels(metrics, iters)
    bench_buffer(metrics, max(10, iters // 10))
    bench_memo(metrics, iters)
    bench_batch(metrics, iters)
    bench_serving(metrics, iters)
    report = {
        "schema": SCHEMA,
        "scale": scale,
        "node_size": NODE_SIZE,
        "metrics": metrics,
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]['ops_per_sec']:12.1f} ops/s")
    gap = metrics["batch.update_vs_batch_of_one"]
    print(
        "batch of one vs update_object: "
        + ", ".join(f"{k} {v:.2f}" for k, v in gap.items() if k.endswith("_us"))
    )
    print(f"wrote {output}")
    return report


if __name__ == "__main__":
    run(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUTPUT)
