"""Figure 16 — throughput under concurrent accesses (RUM-tree vs R*-tree).

Threads run mixed workloads whose update share sweeps from 0% (queries
only) to 100% (updates only).  Expected shape (Section 5.6): comparable
throughput at 0% updates; as the update share rises, the R*-tree's
throughput falls — its top-down updates exclusively lock the whole
neighbourhood that the multi-path deletion search may visit — while the
RUM-tree's rises, because a memo-based update locks a single insertion
path plus one memo bucket.  The FUR-tree is not measured, matching the
paper ("insufficient knowledge about concurrency control in the
FUR-tree").
"""

from __future__ import annotations

import gc
from typing import Sequence

from repro.concurrency.throughput import GranuleLockedTree, LoadDriver
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import mixed_trace

from .harness import (
    ExperimentResult,
    TREE_LABELS,
    load_tree,
    make_tree,
    scaled,
)

DEFAULT_UPDATE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Side of the square range queries in the mixed traces.
QUERY_SIDE = 0.05


def run_fig16(
    num_objects: int = 2000,
    node_size: int = 2048,
    total_ops: int = 800,
    n_threads: int = 16,
    io_latency: float = 0.0004,
    update_fractions: Sequence[float] = DEFAULT_UPDATE_FRACTIONS,
    moving_distance: float = 0.02,
    seed: int = 47,
) -> ExperimentResult:
    """One row per (update fraction, tree) with the measured throughput."""
    result = ExperimentResult(
        experiment="Figure 16",
        description="throughput vs update percentage under concurrent access",
    )
    n = scaled(num_objects)
    ops = scaled(total_ops)

    def cell(fraction: float, kind: str):
        """One closed-loop replay on a fresh tree."""
        workload = default_network_workload(
            n, moving_distance=moving_distance, seed=seed
        )
        tree = make_tree(kind, node_size=node_size)
        load_tree(tree, workload.initial())
        trace = mixed_trace(
            workload,
            RangeQueryGenerator(side=QUERY_SIDE, seed=53),
            ops,
            fraction,
            seed=59,
        )
        locked = GranuleLockedTree(tree, io_latency=io_latency)
        driver = LoadDriver(lambda k: locked.perform, n_clients=n_threads)
        # A cyclic-GC pass stops every thread, and one over the dead
        # trees of earlier cells takes 20-100 ms against a ~60 ms cell:
        # collect before the clock starts, not at random inside it.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            return driver.run(trace)
        finally:
            if gc_was_enabled:
                gc.enable()

    # Whichever cell runs first in the process also pays one-time costs
    # (an 80-160 ms stall, in either tree order): warm up unmeasured.
    cell(0.5, "rum_touch")
    for fraction in update_fractions:
        for kind in ("rum_touch", "rstar"):
            outcome = cell(fraction, kind)
            result.rows.append(
                {
                    "update_pct": round(100 * fraction),
                    "tree": TREE_LABELS[kind],
                    "ops_per_s": outcome.achieved_rate,
                    "elapsed_s": outcome.elapsed_seconds,
                    "threads": n_threads,
                    "operations": ops,
                }
            )
    return result
