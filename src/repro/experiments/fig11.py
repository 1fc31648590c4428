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

from repro.workload.objects import default_network_workload

from . import harness
from .harness import (
    ExperimentResult,
    TREE_LABELS,
    make_tree,
    measure_updates,
    populate,
    scaled,
)

#: The node sizes (bytes) swept.
NODE_SIZES = (1024, 2048, 4096, 8192)
NUM_OBJECTS = 8000
UPDATES_PER_OBJECT = 3.0
SEED = 13


def run_fig11() -> ExperimentResult:
    """Run the Figure-11 sweep; one row per (node size, RUM variant)."""
    result = ExperimentResult(
        experiment="Figure 11",
        description="RUM-tree update I/O, update CPU and garbage ratio vs node size",
    )
    n = scaled(NUM_OBJECTS)
    n_updates = max(16, int(n * UPDATES_PER_OBJECT))
    for node_size in NODE_SIZES:
        for kind in ("rum_token", "rum_touch"):
            workload = default_network_workload(
                n, moving_distance=harness.MOVING_DISTANCE, seed=SEED
            )
            tree = make_tree(kind, node_size=node_size)
            populate(tree, workload.initial())
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
