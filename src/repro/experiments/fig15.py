"""Figure 15 — update I/O under the three logging options.

The RUM-tree processes the same update stream under recovery Option I (no
log), Option II (UM checkpoint every C updates) and Option III (checkpoints
plus a forced log write per memo change).  Expected shape (Section 5.5):
Option I cheapest, Option II barely above it, Option III roughly 50% more
expensive — the cost model says the surcharge is ``N·E/(ir·P·C)`` for
Option II and one extra forced write per update for Option III.
"""

from __future__ import annotations

from repro.workload.objects import default_network_workload

from .harness import (
    ExperimentResult,
    load_tree,
    make_tree,
    measure_updates,
    scaled,
)

OPTIONS = ("I", "II", "III")


def run_fig15(
    num_objects: int = 6000,
    node_size: int = 2048,
    updates_per_object: float = 3.0,
    checkpoint_interval: int = 2000,
    inspection_ratio: float = 0.2,
    moving_distance: float = 0.01,
    seed: int = 41,
) -> ExperimentResult:
    """One row per logging option with its per-update cost breakdown."""
    result = ExperimentResult(
        experiment="Figure 15",
        description="RUM-tree update I/O under logging options I/II/III",
    )
    n = scaled(num_objects)
    n_updates = max(16, int(n * updates_per_object))
    for option in OPTIONS:
        workload = default_network_workload(
            n, moving_distance=moving_distance, seed=seed
        )
        tree = make_tree(
            "rum_touch",
            node_size=node_size,
            inspection_ratio=inspection_ratio,
            recovery_option=option,
            checkpoint_interval=checkpoint_interval,
        )
        load_tree(tree, workload.initial())
        cost = measure_updates(tree, workload, n_updates)
        result.rows.append(
            {
                "option": option,
                "update_io": cost.io_per_operation,
                "leaf_io": cost.leaf_io_per_operation,
                "log_io": cost.io.log_total / cost.updates,
                "checkpoint_interval": checkpoint_interval,
            }
        )
    return result
