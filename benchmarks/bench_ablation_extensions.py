"""Generality ablation: the memo approach on B+-trees, quadtrees and grid files.

The paper's conclusion claims the memo-based update approach carries over
to other index families; this bench verifies that the transplants beat
their classic-update counterparts on the same update-heavy workload.
"""

from conftest import archive, run_experiment

from repro.experiments import format_table
from repro.experiments.ablation_extensions import run_extension_ablation


def test_extension_ablation(benchmark):
    result = run_experiment(benchmark, run_extension_ablation)
    headers = [
        "structure", "approach", "update_io", "entries", "garbage",
        "memo_entries", "memo_kb",
    ]
    archive(
        "ablation_extensions",
        [
            "Memo-based vs classic updates beyond R-trees (Section 6 claim)",
            format_table(
                headers,
                [[row.get(h, "") for h in headers] for row in result.rows],
            ),
        ],
    )
    cost = {
        (row["structure"], row["approach"]): row["update_io"]
        for row in result.rows
    }
    # The memo variant updates cheaper on all three structures.
    assert cost[("B+-tree", "memo")] < cost[("B+-tree", "classic")]
    assert cost[("quadtree", "memo")] < cost[("quadtree", "classic")]
    assert cost[("grid file", "memo")] < cost[("grid file", "classic")]
    # ... and its memo follows the garbage, not the objects (Section 4.1):
    # the shared cleaner's phantom inspection purges the entry every
    # insert leaves behind.
    for row in result.rows:
        if row["approach"] == "memo":
            assert row["memo_entries"] < row["objects"] / 10, row
