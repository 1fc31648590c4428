"""Table 2 — recovery cost of the three options.

Three identically loaded RUM-trees (same workload seed), each running its
own logging option, crash after the same update stream; each then recovers
its Update Memo with its option's procedure.  The table reports the number
of disk accesses each recovery needed.

Expected shape (Section 5.5.2): Option I is by far the most expensive (its
intermediate per-object table spills to disk), Option II costs roughly one
read per leaf node plus the checkpoint, Option III only reads the
checkpoint and the log tail.  After an Option II recovery, the memo is a
*superset* of the truth (phantoms), which a cleaning cycle plus phantom
inspection then removes — the driver verifies that too.
"""

from __future__ import annotations

from repro.core.recovery import (
    recover_option_i,
    recover_option_ii,
    recover_option_iii,
)
from repro.workload.objects import default_network_workload

from . import harness
from .harness import (
    ExperimentResult,
    make_tree,
    measure_updates,
    populate,
    scaled,
)

#: Share of the object population whose intermediate-table slots fit in
#: memory during an Option I rebuild (the paper's point is that this
#: table, unlike the memo itself, scales with the number of objects and
#: does not fit).
SPILL_BUDGET_FRACTION = 0.1

NUM_OBJECTS = 6000
UPDATES_PER_OBJECT = 2.0
#: Updates between two Update-Memo checkpoints (Options II and III).
CHECKPOINT_INTERVAL = 2000
SEED = 43


def run_table2() -> ExperimentResult:
    """One row per option with its recovery disk accesses."""
    result = ExperimentResult(
        experiment="Table 2",
        description="number of I/Os to recover the Update Memo after a crash",
    )
    n = scaled(NUM_OBJECTS)
    n_updates = max(16, int(n * UPDATES_PER_OBJECT))
    procedures = {
        "I": lambda tree: recover_option_i(
            tree, memory_budget_entries=max(1, int(n * SPILL_BUDGET_FRACTION))
        ),
        "II": recover_option_ii,
        "III": recover_option_iii,
    }
    for option, recover in procedures.items():
        workload = default_network_workload(
            n, moving_distance=harness.MOVING_DISTANCE, seed=SEED
        )
        tree = make_tree(
            "rum_touch",
            recovery_option=option if option != "I" else None,
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )
        populate(tree, workload.initial())
        measure_updates(tree, workload, n_updates)
        memo_before = {e.oid: (e.s_latest, e.n_old) for e in tree.memo}
        tree.crash()
        report = recover(tree)
        memo_after = {e.oid: (e.s_latest, e.n_old) for e in tree.memo}
        exact = memo_after == memo_before
        superset = all(
            oid in memo_after and memo_after[oid][0] >= s_latest
            for oid, (s_latest, _n) in memo_before.items()
        )
        result.rows.append(
            {
                "option": option,
                "recovery_io": report.disk_accesses,
                "leaf_reads": report.io.leaf_reads,
                "log_reads": report.io.log_reads,
                "spill_io": report.spill_accesses,
                "memo_entries": report.memo_entries_after,
                "memo_exact": exact,
                "memo_superset": superset,
            }
        )
    return result
