"""Figure 11 — effect of the node size on the RUM-tree.

Sweeps the node (page) size over the paper's values 1024–8192 bytes and
reports (a) the average update I/O, (b) the average update CPU time, and
(c) the garbage ratio.  The paper's shape (Section 5.1.2): larger nodes
give slightly lower update I/O (fewer splits), higher CPU (the cleaner
checks more entries per node), and a sharply lower garbage ratio — which
is why it fixes 8192 bytes for the remaining experiments.  (a) and (c)
reproduce; (b) is flat here (EXPERIMENTS.md: the cleaner sweeps page-image
columns and no longer pays per entry).
"""

from __future__ import annotations

from typing import Sequence

from repro.workload.objects import default_network_workload

from .harness import (
    ExperimentResult,
    TREE_LABELS,
    load_tree,
    make_tree,
    measure_updates,
    scaled,
)

DEFAULT_NODE_SIZES = (1024, 2048, 4096, 8192)


def run_fig11(
    node_sizes: Sequence[int] = DEFAULT_NODE_SIZES,
    num_objects: int = 8000,
    updates_per_object: float = 3.0,
    inspection_ratio: float = 0.2,
    moving_distance: float = 0.01,
    seed: int = 13,
) -> ExperimentResult:
    """Run the Figure-11 sweep; one row per (node size, RUM variant)."""
    result = ExperimentResult(
        experiment="Figure 11",
        description="RUM-tree update I/O, update CPU and garbage ratio vs node size",
    )
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    for node_size in node_sizes:
        for kind in ("rum_token", "rum_touch"):
            workload = default_network_workload(
                n, moving_distance=moving_distance, seed=seed
            )
            tree = make_tree(
                kind, node_size=node_size, inspection_ratio=inspection_ratio
            )
            load_tree(tree, workload.initial())
            cost = measure_updates(tree, workload, n_updates)
            result.rows.append(
                {
                    "node_size": node_size,
                    "tree": TREE_LABELS[kind],
                    "update_io": cost.io_per_operation,
                    "update_cpu_ms": cost.cpu_ms_per_operation,
                    "garbage_ratio": tree.garbage_ratio(n),
                    "leaves": tree.num_leaf_nodes(),
                }
            )
    return result
