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

from . import harness
from .harness import (
    ExperimentResult,
    make_tree,
    measure_updates,
    populate,
    scaled,
)

OPTIONS = ("I", "II", "III")
NUM_OBJECTS = 6000
UPDATES_PER_OBJECT = 3.0
#: Updates between two Update-Memo checkpoints (Options II and III).
CHECKPOINT_INTERVAL = 2000
SEED = 41


def run_fig15() -> ExperimentResult:
    """One row per logging option with its per-update cost breakdown."""
    result = ExperimentResult(
        experiment="Figure 15",
        description="RUM-tree update I/O under logging options I/II/III",
    )
    n = scaled(NUM_OBJECTS)
    n_updates = max(16, int(n * UPDATES_PER_OBJECT))
    for option in OPTIONS:
        workload = default_network_workload(
            n, moving_distance=harness.MOVING_DISTANCE, seed=SEED
        )
        tree = make_tree(
            "rum_touch",
            recovery_option=option,
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )
        populate(tree, workload.initial())
        cost = measure_updates(tree, workload, n_updates)
        result.rows.append(
            {
                "option": option,
                "update_io": cost.io_per_operation,
                "leaf_io": cost.leaf_io_per_operation,
                "log_io": cost.io.log_total / cost.updates,
                "checkpoint_interval": CHECKPOINT_INTERVAL,
            }
        )
    return result
