#!/usr/bin/env python
"""Batch-size sweep for the batched update ingestion pipeline.

For each batch size the same seeded update stream is applied to a fresh
RUM-tree through :meth:`RUMTree.apply_batch`, and the sweep reports how
throughput, leaf I/O, writeback coalescing, and (with recovery Option
III) WAL log writes respond to the batch size.  Batch size 1 is the
degenerate case — one operation per batch — so every other row divided
by it is the pure batching speedup on identical work.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py [out.json]

It prints one row per (mode, batch size) and writes ``BENCH_batch.json``
at the repo root (or to the given path) with the schema::

    {
      "schema": "bench_batch/v1",
      "scale": <REPRO_BENCH_SCALE in effect>,
      "node_size": 2048,
      "updates": <updates applied per configuration>,
      "rows": [
        {"mode": "plain" | "wal_iii", "batch_size": <int>,
         "ops_per_sec": <float>, "leaf_io_per_update": <float>,
         "write_marks": <int>, "pages_written": <int>,
         "coalesced_writes": <int>, "dedup_ratio": <float>,
         "log_writes_per_update": <float | null>},
        ...
      ]
    }

Workload sizes scale with ``REPRO_BENCH_SCALE`` like every other
benchmark; all randomness is seeded so reruns sweep identical streams.
See ``docs/BATCHING.md`` for how to read the sweep when picking a batch
size.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.experiments.harness import bench_scale, populate, scaled
from repro.factory import build_rum_tree
from repro.workload.objects import default_network_workload

SCHEMA = "bench_batch/v1"
NODE_SIZE = 2048
WORKLOAD_SEED = 13
DEFAULT_OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_batch.json"

#: Swept batch sizes; 1 is the sequential-equivalent baseline row.
BATCH_SIZES = (1, 4, 16, 64, 256, 1024)


def _make_tree(mode: str):
    recovery = "III" if mode == "wal_iii" else None
    return build_rum_tree(
        node_size=NODE_SIZE,
        inspection_ratio=0.2,
        clean_upon_touch=True,
        recovery_option=recovery,
        checkpoint_interval=10_000,
    )


def sweep_one(mode: str, batch_size: int, n_updates: int) -> Dict:
    """Apply the seeded update stream in ``batch_size`` groups; one row."""
    workload = default_network_workload(
        scaled(2000), moving_distance=0.01, seed=WORKLOAD_SEED
    )
    tree = _make_tree(mode)
    populate(tree, workload.initial())
    log_before = tree.stats.log_writes if tree.wal is not None else 0

    before = tree.stats.snapshot()
    write_marks = pages_written = deduped = total_ops = 0
    started = time.process_time()
    batch: List = []
    for oid, old_rect, new_rect in workload.updates(n_updates):
        batch.append(("update", oid, new_rect, old_rect))
        if len(batch) >= batch_size:
            result = tree.apply_batch(batch)
            write_marks += result.write_marks
            pages_written += result.pages_written
            deduped += result.deduped
            total_ops += result.total_ops
            batch = []
    if batch:
        result = tree.apply_batch(batch)
        write_marks += result.write_marks
        pages_written += result.pages_written
        deduped += result.deduped
        total_ops += result.total_ops
    cpu = time.process_time() - started
    io = tree.stats.snapshot() - before

    log_per_update: Optional[float] = None
    if tree.wal is not None:
        log_per_update = (tree.stats.log_writes - log_before) / n_updates
    return {
        "mode": mode,
        "batch_size": batch_size,
        "ops_per_sec": n_updates / cpu if cpu > 0 else float("inf"),
        "leaf_io_per_update": io.leaf_total / n_updates,
        "write_marks": write_marks,
        "pages_written": pages_written,
        "coalesced_writes": max(0, write_marks - pages_written),
        "dedup_ratio": deduped / total_ops if total_ops else 0.0,
        "log_writes_per_update": log_per_update,
    }


def run(output: pathlib.Path = DEFAULT_OUTPUT) -> Dict:
    scale = bench_scale()
    n_updates = scaled(4000)
    rows = [
        sweep_one(mode, size, n_updates)
        for mode in ("plain", "wal_iii")
        for size in BATCH_SIZES
    ]
    report = {
        "schema": SCHEMA,
        "scale": scale,
        "node_size": NODE_SIZE,
        "updates": n_updates,
        "rows": rows,
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    header = (
        f"{'mode':8s} {'batch':>6s} {'ops/s':>10s} {'leafIO/up':>10s} "
        f"{'coalesced':>10s} {'dedup':>6s} {'logW/up':>9s}"
    )
    print(header)
    for row in rows:
        logw = row["log_writes_per_update"]
        print(
            f"{row['mode']:8s} {row['batch_size']:6d} "
            f"{row['ops_per_sec']:10.1f} {row['leaf_io_per_update']:10.3f} "
            f"{row['coalesced_writes']:10d} {row['dedup_ratio']:6.3f} "
            f"{logw if logw is not None else float('nan'):9.3f}"
        )
    print(f"wrote {output}")
    return report


if __name__ == "__main__":
    run(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUTPUT)
