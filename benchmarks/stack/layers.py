"""Which boundary calls the traced pass wraps, and the per-layer metrics.

A span is named ``<layer>.<call>``; the layer is everything before the
last dot and is the name of the module the callee lives in.  The wrapped
calls are exactly the ones README.md lists per layer.
"""

from __future__ import annotations

import json
import socket
import time
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import repro.core.batch
import repro.kernels
import repro.rtree.base
import repro.rtree.mirror
from repro.core.memo_lsm import SpillingUpdateMemo
from repro.serving.protocol import recv_frame, send_frame

from hostspeed import PIECES_INSIDE, HostSpeed
from spans import Fold, Recorder
from workloads import QUERY, UPDATE, ServeStack, Stack

BUFFER_CALLS = (
    ("get_node", "get_node"),
    ("mark_dirty", "mark_dirty"),
    ("new_node", "new_node"),
    ("free_node", "free_node"),
    # operation() and batch_scope() both end in this write-back.
    ("_flush_op_cache", "flush"),
)
CODEC_CALLS = (
    "encode", "decode", "decode_block", "decode_entries_at",
    "decode_entries", "verify_page",
)
DISK_CALLS = ("read_page", "write_page", "allocate", "free")
MEMO_CALLS = (
    "record_update", "latest_stamp", "check_status", "is_obsolete",
    "note_cleaned",
)
WAL_CALLS = (
    "append", "append_memo_change", "append_stamp_lease",
    "append_checkpoint", "force",
)
TREE_CALLS = (
    "update_object", "insert_object", "delete_object", "apply_batch",
    "search", "clean_leaf",
)
DECODE_SPANS = tuple(
    f"storage.codec.{call}" for call in CODEC_CALLS if call != "encode"
)


def instrument(rec: Recorder, stack: Stack, tallies: Counter) -> None:
    """Patch every boundary call of ``stack``; ``rec.restore()`` undoes it."""
    kernels = repro.kernels
    for call in kernels.__all__:
        if callable(getattr(kernels, call)):
            rec.patch(kernels, call, f"kernels.{call}")
    base = repro.rtree.base
    rec.patch(base, "choose_reinsert_entries",
              "rtree.split.choose_reinsert_entries")
    mirror = repro.rtree.mirror
    rec.patch(mirror, "build_mirror", "rtree.mirror.build_mirror")
    # QueryMirror has __slots__: its search is patched on the class.
    rec.patch(mirror.QueryMirror, "search", "rtree.mirror.search")
    rec.patch(repro.core.batch, "plan_batch", "core.batch.plan_batch")

    def cleaned(removed: int) -> None:
        tallies["clean_leaf_hits"] += removed > 0

    def batched(result: Any) -> None:
        tallies["batches"] += 1
        tallies["batch_ops"] += result.total_ops
        tallies["batch_deduped"] += result.deduped
        tallies["batch_coalesced"] += result.coalesced_writes

    for tree in stack.trees:
        buffer = tree.buffer
        for call, span in BUFFER_CALLS:
            rec.patch(buffer, call, f"storage.buffer.{span}")
        for call in CODEC_CALLS:
            rec.patch(buffer.codec, call, f"storage.codec.{call}")
        for call in DISK_CALLS:
            rec.patch(buffer.disk, call, f"storage.disk.{call}")
        memo = tree.memo
        spilled = isinstance(memo, SpillingUpdateMemo)
        memo_layer = "core.memo_lsm" if spilled else "core.memo"
        for call in MEMO_CALLS:
            rec.patch(memo, call, f"{memo_layer}.{call}")
        if spilled:
            rec.patch(memo, "flush_ram", "core.memo_lsm.flush_ram")
        if tree.wal is not None:
            for call in WAL_CALLS:
                rec.patch(tree.wal, call, f"storage.wal.{call}")
        rec.patch(tree.cleaner, "on_update", "core.cleaner.on_update")
        rec.patch(tree.cleaner, "on_batch", "core.cleaner.on_batch")
        for call in TREE_CALLS:
            rec.patch(
                tree, call, f"core.rum.{call}",
                cleaned if call == "clean_leaf"
                else batched if call == "apply_batch" else None,
            )
        rec.patch(tree, "range_search", "rtree.base.range_search")
        # The tree bound its split function at construction.
        rec.patch(tree, "split_fn", "rtree.split.split")
    if isinstance(stack, ServeStack):
        def migrated(result: Dict[str, Any]) -> None:
            tallies["migrations"] += bool(result["migrated"])

        rec.patch(stack.router, "upsert", "serving.router.upsert", migrated)
        rec.patch(stack.router, "query", "serving.router.query")
        rec.patch(stack.client, "request", "serving.server.request")


def counters(stack: Stack) -> Counter:
    """The program's own tallies the per-layer metrics are ratios of;
    read before and after the traced segments."""
    io = stack.io()
    memos = [tree.memo for tree in stack.trees]
    return Counter(
        memo_lookups=sum(memo.lookup_count for memo in memos),
        memo_hits=sum(memo.hit_count for memo in memos),
        memo_reads=io.memo_reads,
        memo_writes=io.memo_writes,
        log_writes=io.log_writes,
        wal_bytes=sum(
            tree.wal.total_bytes() for tree in stack.trees if tree.wal
        ),
    )


class ProtocolReplay:
    """Times the wire protocol alone, on a socketpair.

    Each served op's real request and response are replayed through
    ``send_frame``/``recv_frame`` with the bytes already buffered, so no
    thread has to be woken: what is left is JSON, framing and the socket
    calls — the part of a round trip the protocol module owns.
    """

    def __init__(self) -> None:
        self.left, self.right = socket.socketpair()
        self.ns = [0.0, 0.0]   # host-normalised, per op class
        self.ops = [0, 0]
        self.bytes = 0

    def replay(
        self, frames: Sequence[Tuple[int, Dict[str, Any], Dict[str, Any]]]
    ) -> None:
        """``frames`` are ``(op class, request, response)``."""
        if not frames:
            return
        now = time.perf_counter_ns
        left, right = self.left, self.right
        stride = max(1, len(frames) // PIECES_INSIDE)
        host = HostSpeed()
        measured = [0, 0]
        for index, (klass, message, response) in enumerate(frames):
            if index % stride == 0:
                host.sample()
            t0 = now()
            send_frame(left, message)
            recv_frame(right)
            send_frame(right, response)
            recv_frame(left)
            measured[klass] += now() - t0
            self.ops[klass] += 1
        for klass in (UPDATE, QUERY):
            self.ns[klass] += measured[klass] * host.factor
        for _klass, message, response in frames:
            for frame in (message, response):
                self.bytes += 4 + len(
                    json.dumps(frame, separators=(",", ":")).encode("utf-8")
                )

    def close(self) -> None:
        self.left.close()
        self.right.close()


class Ledger:
    """Per-span-name totals summed over the traced segments; times are
    host-normalised ns."""

    def __init__(self, empty_in_ns: float, empty_out_ns: float) -> None:
        self.empty_in_ns = empty_in_ns
        self.empty_out_ns = empty_out_ns
        self.names: List[str] = []
        self.self_ns = np.zeros((0, 2))
        self.max_ns = np.zeros((0, 2))
        self.calls = np.zeros((0, 2), dtype=np.int64)
        self.children = np.zeros((0, 2), dtype=np.int64)
        self.under: Counter = Counter()
        self.root_ns = 0.0
        self.spans = 0

    def add(self, fold: Fold, host_factor: float) -> None:
        grow = len(fold.names) - len(self.names)
        if grow:
            self.self_ns = np.vstack((self.self_ns, np.zeros((grow, 2))))
            self.max_ns = np.vstack((self.max_ns, np.zeros((grow, 2))))
            pad = np.zeros((grow, 2), dtype=np.int64)
            self.calls = np.vstack((self.calls, pad))
            self.children = np.vstack((self.children, pad))
            self.names = list(fold.names)
        self.self_ns += fold.self_ns * host_factor
        np.maximum(self.max_ns, fold.max_ns * host_factor, out=self.max_ns)
        self.calls += fold.calls
        self.children += fold.children
        self.under.update(fold.under)
        self.root_ns += fold.root_ns * host_factor
        self.spans += fold.spans

    def _rows(self, prefixes: Sequence[str]) -> List[int]:
        return [
            i for i, name in enumerate(self.names)
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        ]

    def us(self, klass: int, *prefixes: str) -> float:
        """Self time in µs of the spans under ``prefixes``, with the
        calibrated cost of the tracer's own spans taken out."""
        rows = self._rows(prefixes)
        raw = float(self.self_ns[rows, klass].sum())
        tracer = (
            self.calls[rows, klass].sum() * self.empty_in_ns
            + self.children[rows, klass].sum() * self.empty_out_ns
        )
        return max(0.0, raw - tracer) / 1000.0

    def n(self, klass: int, *prefixes: str) -> int:
        return int(self.calls[self._rows(prefixes), klass].sum())

    def longest_us(self, *prefixes: str) -> float:
        rows = self._rows(prefixes)
        return float(self.max_ns[rows].max()) / 1000.0 if rows else 0.0

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Self time per layer and op class, in ns, tracer cost still
        inside: the ledger that must add up to the traced wall time."""
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.names):
            if not self.calls[i].any():
                continue
            layer = name.rsplit(".", 1)[0]
            row = out.setdefault(layer, {"update_ns": 0.0, "query_ns": 0.0})
            row["update_ns"] += float(self.self_ns[i, UPDATE])
            row["query_ns"] += float(self.self_ns[i, QUERY])
        return out


def per_layer_metrics(
    ledger: Ledger,
    tallies: Counter,
    updates: int,
    queries: int,
    traced_wall_ns: float,
    overhead_ratio: float,
    protocol: ProtocolReplay,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``updates`` counts single updates (a batch of 64 is 64), ``queries``
    queries, both over the traced segments.  A layer that is not on this
    workload's path reports 0.
    """
    U, Q = UPDATE, QUERY
    ops = updates + queries

    def per(value: float, count: int, scale: float = 1.0) -> float:
        return scale * value / count if count else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    us, n = ledger.us, ledger.n
    probes = ("latest_stamp", "check_status", "is_obsolete")
    proto_us = [
        per(protocol.ns[k] / 1000.0, protocol.ops[k]) for k in (U, Q)
    ]
    get_nodes = n(U, "storage.buffer.get_node") + n(Q, "storage.buffer.get_node")
    disk_reads_under_get = ledger.under[
        ("storage.disk.read_page", "storage.buffer.get_node")
    ]
    cleaner = ("core.cleaner",)
    m: Dict[str, Tuple[float, str]] = {}

    m["serving.protocol.us_per_update"] = (proto_us[U], "us")
    m["serving.protocol.us_per_query"] = (proto_us[Q], "us")
    m["serving.protocol.bytes_per_op"] = (
        per(protocol.bytes, sum(protocol.ops)), "bytes")
    # What is left of the round trip once the router's span and the
    # protocol's own work are taken out: thread hand-overs and dispatch.
    m["serving.server.us_per_update"] = (
        max(0.0, per(us(U, "serving.server"), updates) - proto_us[U]), "us")
    m["serving.server.us_per_query"] = (
        max(0.0, per(us(Q, "serving.server"), queries) - proto_us[Q]), "us")
    m["serving.router.self_us_per_update"] = (
        per(us(U, "serving.router"), updates), "us")
    m["serving.router.self_us_per_query"] = (
        per(us(Q, "serving.router"), queries), "us")
    m["serving.router.shards_per_query"] = (
        per(n(Q, "rtree.base.range_search"), queries)
        if n(Q, "serving.router") else 0.0, "count")
    m["serving.router.migrations_per_kupdate"] = (
        per(tallies["migrations"], updates, 1000.0), "count")

    tree_updates = tuple(
        f"core.rum.{c}"
        for c in ("update_object", "insert_object", "delete_object",
                  "apply_batch")
    )
    clean_calls = n(U, "core.rum.clean_leaf") + n(Q, "core.rum.clean_leaf")
    m["core.rum.self_us_per_update"] = (
        per(us(U, *tree_updates), updates), "us")
    m["core.rum.self_us_per_query"] = (
        per(us(Q, "core.rum.search"), queries), "us")
    m["core.rum.clean_leaf_us_per_update"] = (
        per(us(U, "core.rum.clean_leaf"), updates), "us")
    m["core.rum.clean_leaf_calls_per_update"] = (
        per(n(U, "core.rum.clean_leaf"), updates), "count")
    m["core.rum.clean_leaf_hit_ratio"] = (
        ratio(tallies["clean_leaf_hits"], clean_calls), "ratio")
    m["rtree.base.self_us_per_query"] = (
        per(us(Q, "rtree.base"), queries), "us")

    m["kernels.us_per_update"] = (per(us(U, "kernels"), updates), "us")
    m["kernels.calls_per_update"] = (per(n(U, "kernels"), updates), "count")
    m["kernels.us_per_query"] = (per(us(Q, "kernels"), queries), "us")
    m["kernels.calls_per_query"] = (per(n(Q, "kernels"), queries), "count")
    m["rtree.split.us_per_update"] = (
        per(us(U, "rtree.split"), updates), "us")
    m["rtree.split.splits_per_kupdate"] = (
        per(n(U, "rtree.split.split"), updates, 1000.0), "count")
    m["rtree.mirror.build_us_per_query"] = (
        per(us(Q, "rtree.mirror.build_mirror"), queries), "us")
    m["rtree.mirror.builds_per_kquery"] = (
        per(n(Q, "rtree.mirror.build_mirror"), queries, 1000.0), "count")
    m["rtree.mirror.served_ratio"] = (
        ratio(n(Q, "rtree.mirror.search"), n(Q, "rtree.base.range_search")),
        "ratio")

    # RAM memo: the three probe calls are independent.  Spilled memo:
    # check_status and is_obsolete both go through latest_stamp.
    m["core.memo.us_per_update"] = (per(us(U, "core.memo"), updates), "us")
    m["core.memo.us_per_query"] = (per(us(Q, "core.memo"), queries), "us")
    m["core.memo.probes_per_update"] = (
        per(sum(n(U, f"core.memo.{p}") for p in probes), updates), "count")
    m["core.memo.probes_per_query"] = (
        per(sum(n(Q, f"core.memo.{p}") for p in probes), queries), "count")
    m["core.memo.probe_hit_ratio"] = (
        ratio(tallies["memo_hits"], tallies["memo_lookups"]), "ratio")
    m["core.memo_lsm.us_per_update"] = (
        per(us(U, "core.memo_lsm"), updates), "us")
    m["core.memo_lsm.us_per_query"] = (
        per(us(Q, "core.memo_lsm"), queries), "us")
    m["core.memo_lsm.probes_per_update"] = (
        per(n(U, "core.memo_lsm.latest_stamp"), updates), "count")
    lsm_probes = (
        n(U, "core.memo_lsm.latest_stamp") + n(Q, "core.memo_lsm.latest_stamp")
    )
    m["core.memo_lsm.run_pages_read_per_probe"] = (
        per(tallies["memo_reads"], lsm_probes), "pages")
    m["core.memo_lsm.flushes_per_kupdate"] = (
        per(n(U, "core.memo_lsm.flush_ram") + n(Q, "core.memo_lsm.flush_ram"),
            updates, 1000.0), "count")
    m["core.memo_lsm.pages_written_per_kupdate"] = (
        per(tallies["memo_writes"], updates, 1000.0), "pages")
    m["core.memo_lsm.pages_per_op"] = (
        per(tallies["memo_reads"] + tallies["memo_writes"], ops), "pages")

    m["core.cleaner.us_per_update"] = (per(us(U, *cleaner), updates), "us")
    m["core.cleaner.max_us"] = (ledger.longest_us(*cleaner), "us")
    m["core.batch.plan_us_per_update"] = (
        per(us(U, "core.batch"), updates), "us")
    m["core.batch.dedup_ratio"] = (
        ratio(tallies["batch_deduped"], tallies["batch_ops"]), "ratio")
    m["core.batch.coalesced_writes_per_batch"] = (
        per(tallies["batch_coalesced"], tallies["batches"]), "count")

    m["storage.buffer.self_us_per_update"] = (
        per(us(U, "storage.buffer"), updates), "us")
    m["storage.buffer.self_us_per_query"] = (
        per(us(Q, "storage.buffer"), queries), "us")
    m["storage.buffer.get_node_per_update"] = (
        per(n(U, "storage.buffer.get_node"), updates), "count")
    m["storage.buffer.get_node_per_query"] = (
        per(n(Q, "storage.buffer.get_node"), queries), "count")
    m["storage.buffer.hit_ratio"] = (
        ratio(get_nodes - disk_reads_under_get, get_nodes), "ratio")
    m["storage.buffer.flush_us_per_update"] = (
        per(us(U, "storage.buffer.flush"), updates), "us")

    m["storage.codec.encode_us_per_update"] = (
        per(us(U, "storage.codec.encode"), updates), "us")
    m["storage.codec.decode_us_per_update"] = (
        per(us(U, *DECODE_SPANS), updates), "us")
    m["storage.codec.decode_us_per_query"] = (
        per(us(Q, *DECODE_SPANS), queries), "us")
    m["storage.codec.encodes_per_update"] = (
        per(n(U, "storage.codec.encode"), updates), "count")
    m["storage.codec.decodes_per_update"] = (
        per(n(U, *DECODE_SPANS), updates), "count")
    m["storage.codec.decodes_per_query"] = (
        per(n(Q, *DECODE_SPANS), queries), "count")

    m["storage.disk.us_per_op"] = (
        per(us(U, "storage.disk") + us(Q, "storage.disk"), ops), "us")
    m["storage.disk.reads_per_op"] = (
        per(n(U, "storage.disk.read_page") + n(Q, "storage.disk.read_page"),
            ops), "pages")
    m["storage.disk.writes_per_op"] = (
        per(n(U, "storage.disk.write_page") + n(Q, "storage.disk.write_page"),
            ops), "pages")

    m["storage.wal.us_per_update"] = (
        per(us(U, "storage.wal"), updates), "us")
    m["storage.wal.bytes_per_update"] = (
        per(tallies["wal_bytes"], updates), "bytes")
    m["storage.wal.pages_per_update"] = (
        per(tallies["log_writes"], updates), "pages")
    m["storage.wal.forces_per_kupdate"] = (
        per(n(U, "storage.wal.force"), updates, 1000.0), "count")
    m["storage.wal.checkpoints"] = (
        float(n(U, "storage.wal.append_checkpoint")), "count")

    m["core.recovery.us"] = (tallies["recovery_ns"] / 1000.0, "us")
    m["core.recovery.records_replayed"] = (
        float(tallies["recovery_records"]), "count")
    m["core.recovery.io_pages"] = (float(tallies["recovery_io"]), "pages")

    m["trace.unattributed_share"] = (
        ratio(traced_wall_ns - ledger.root_ns, traced_wall_ns), "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
