"""Head-to-head comparison of the three update approaches.

Replays the same moving-object workload against the R*-tree (top-down
updates), the FUR-tree (bottom-up updates with a secondary index) and the
RUM-tree (memo-based updates), then prints a per-approach cost breakdown —
a miniature of the paper's Figure 12 that runs in seconds.

Run with::

    python examples/compare_update_approaches.py [moving_distance]
"""

import sys

from repro.experiments.harness import (
    auxiliary_size_bytes,
    make_tree,
    measure_queries,
    measure_updates,
    populate,
)
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

NUM_OBJECTS = 3000
UPDATES = 6000
QUERIES = 200
NODE_SIZE = 2048


def main() -> None:
    distance = float(sys.argv[1]) if len(sys.argv) > 1 else 0.04
    print(
        f"{NUM_OBJECTS} objects, {UPDATES} updates at moving distance "
        f"{distance}, {QUERIES} range queries, {NODE_SIZE}-byte nodes\n"
    )
    header = (
        f"{'approach':<18}{'update I/O':>11}{'search I/O':>11}"
        f"{'aux bytes':>11}{'garbage':>9}"
    )
    print(header)
    print("-" * len(header))

    for kind, label in (
        ("rstar", "top-down (R*)"),
        ("fur", "bottom-up (FUR)"),
        ("rum_touch", "memo (RUM)"),
    ):
        workload = default_network_workload(
            NUM_OBJECTS, moving_distance=distance, seed=7
        )
        tree = make_tree(kind, node_size=NODE_SIZE)
        populate(tree, workload.initial())
        update_cost = measure_updates(tree, workload, UPDATES)
        query_cost = measure_queries(
            tree, RangeQueryGenerator(side=0.01, seed=8), QUERIES
        )
        garbage = (
            f"{tree.garbage_count()}" if hasattr(tree, "garbage_count")
            else "-"
        )
        print(
            f"{label:<18}"
            f"{update_cost.io_per_operation:>11.2f}"
            f"{query_cost.io_per_operation:>11.2f}"
            f"{auxiliary_size_bytes(tree):>11,}"
            f"{garbage:>9}"
        )

    print(
        "\nupdate I/O counts leaf accesses plus each approach's auxiliary"
        "\nstructure traffic (secondary index for the FUR-tree); internal"
        "\nnodes are cached, as in Section 4 of the paper."
    )


if __name__ == "__main__":
    main()
