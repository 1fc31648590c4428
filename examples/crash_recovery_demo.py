"""Crash-recovery walkthrough for the Update Memo (Section 3.4).

Runs the same update stream under the three logging options, crashes each
tree (the on-disk pages survive, the in-memory memo and stamp counter are
lost), recovers with the matching procedure, and prints the logging cost
paid during normal operation against the disk accesses needed to recover —
the trade-off of Figure 15 and Table 2.

Run with::

    python examples/crash_recovery_demo.py
"""

from repro import Rect
from repro.core.recovery import (
    recover_option_i,
    recover_option_ii,
    recover_option_iii,
)
from repro.experiments.harness import make_tree, measure_updates, populate
from repro.workload.objects import default_network_workload

NUM_OBJECTS = 1500
UPDATES = 4000
CHECKPOINT_EVERY = 1000


def main() -> None:
    procedures = {
        "I": ("no log", lambda t: recover_option_i(
            t, memory_budget_entries=NUM_OBJECTS // 10)),
        "II": ("UM checkpoints", recover_option_ii),
        "III": ("checkpoints + memo log", recover_option_iii),
    }
    print(
        f"{NUM_OBJECTS} objects, {UPDATES} updates, checkpoint every "
        f"{CHECKPOINT_EVERY} updates\n"
    )
    header = (
        f"{'option':<7}{'strategy':<26}{'log I/O':>9}{'recovery I/O':>14}"
        f"{'memo entries':>14}"
    )
    print(header)
    print("-" * len(header))

    for option, (label, recover) in procedures.items():
        workload = default_network_workload(
            NUM_OBJECTS, moving_distance=0.02, seed=11
        )
        tree = make_tree(
            "rum_touch",
            node_size=2048,
            recovery_option=option if option != "I" else None,
            checkpoint_interval=CHECKPOINT_EVERY,
        )
        populate(tree, workload.initial())
        measure_updates(tree, workload, UPDATES)
        logging_io = tree.stats.log_writes

        tree.crash()  # memo + stamp counter gone; disk pages intact
        report = recover(tree)

        print(
            f"{option:<7}{label:<26}{logging_io:>9,}"
            f"{report.disk_accesses:>14,}{report.memo_entries_after:>14,}"
        )

        # Prove the recovered tree still answers correctly.
        window = Rect(0.4, 0.4, 0.6, 0.6)
        hits = tree.search(window)
        oracle = sum(
            1
            for oid in range(NUM_OBJECTS)
            if workload.rect(oid).intersects(window)
        )
        assert len(hits) >= oracle  # superset recovery may keep phantoms
        tree.cleaner.run_full_cycle()  # one cycle restores exactness
        assert len(tree.search(window)) == oracle

    print(
        "\nOption I pays nothing while running but its recovery scan"
        "\nspills the per-object table to disk; Option III pays one forced"
        "\nlog write per update but recovers from the log alone."
    )


if __name__ == "__main__":
    main()
