"""Figure 12 — performance vs. the moving distance between updates.

The paper's primary comparison: the R*-tree (top-down updates), FUR-tree
(bottom-up updates), and RUM-tree process the same workload while the
distance an object travels between two consecutive updates grows from 0 to
0.16.  Panels: (a) update I/O, (b) search I/O, (c) overall I/O per
operation as the update:query ratio grows from 1:100 to 10000:1, (d) size
of the auxiliary structure (secondary index vs. Update Memo).

Expected shapes (Section 5.2): the R*-tree is the most expensive updater at
every distance; the FUR-tree degrades rapidly with distance (fewer in-place
placements); the RUM-tree is flat and cheapest.  The FUR-tree's search cost
peaks at intermediate distances where leaf-MBR extension bloats the nodes.
The RUM-tree's search cost sits ~10% above the R*-tree's (smaller leaf
fanout).  The memo is far smaller than the secondary index.

Scale note: the paper indexes 2M objects, giving leaf MBRs of side ≈0.01;
at the simulator's population the leaves are larger, so the in-place →
top-down transition of the FUR-tree happens at proportionally larger
distances, but the ordering and monotonicity are preserved (DESIGN.md).
"""

from __future__ import annotations

from repro.workload.objects import default_network_workload

from . import harness
from .comparison import overall_comparison, sweep_comparison
from .harness import ExperimentResult, scaled

#: The moving distances swept in panels (a), (b) and (d).
DISTANCES = (0.0, 0.01, 0.02, 0.04, 0.08, 0.16)
NUM_OBJECTS = 8000
#: Objects in panel (c), before scaling.
OVERALL_NUM_OBJECTS = 6000
SEED = 19


def run_fig12() -> ExperimentResult:
    """Panels (a), (b), (d): sweep the moving distance."""
    n = scaled(NUM_OBJECTS)

    def factory(distance: float):
        return (
            default_network_workload(n, moving_distance=distance, seed=SEED),
            n,
        )

    return sweep_comparison(
        "Figure 12(a,b,d)",
        "update I/O, search I/O and auxiliary size vs moving distance",
        "moving_distance",
        DISTANCES,
        factory,
    )


def run_fig12_overall() -> ExperimentResult:
    """Panel (c): overall cost vs update:query ratio at the default
    moving distance."""
    n = scaled(OVERALL_NUM_OBJECTS)
    moving_distance = harness.MOVING_DISTANCE

    def factory():
        return (
            default_network_workload(
                n, moving_distance=moving_distance, seed=SEED
            ),
            n,
        )

    return overall_comparison(
        "Figure 12(c)",
        "overall I/O per operation vs update:query ratio "
        f"(moving distance {moving_distance})",
        factory,
        ops_factor=2.0,
    )
