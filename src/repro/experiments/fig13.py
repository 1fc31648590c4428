"""Figure 13 — performance vs. the extent of the indexed objects.

Objects become squares whose side (the *extent*) grows from 0 (points)
upwards.  Expected shapes (Section 5.3): the R*-tree's update cost grows
with the extent (larger MBRs → more paths searched by the top-down
deletion); the FUR-tree's update cost does not grow (larger node MBRs →
more in-place updates); the RUM-tree is flat and cheapest (14–25% of the
R*-tree in the paper).  The Update-Memo size decreases with the extent
because clean-upon-touch hits the original node more often.

Scale note: the paper sweeps extents up to 0.01 ≈ 1.2x its leaf-MBR side
(2M objects).  At the simulator's population the leaves are larger, so
the default sweep extends to 0.04 to cover the same extent-to-leaf-size
regime (see DESIGN.md on scale substitution).
"""

from __future__ import annotations

from repro.workload.objects import default_network_workload

from . import harness
from .comparison import overall_comparison, sweep_comparison
from .harness import ExperimentResult, scaled

#: The object extents swept in panels (a), (b) and (d).
EXTENTS = (0.0, 0.01, 0.02, 0.04)
NUM_OBJECTS = 8000
#: Objects in panel (c), before scaling, and their extent there.
OVERALL_NUM_OBJECTS = 6000
OVERALL_EXTENT = 0.01
SEED = 31


def run_fig13() -> ExperimentResult:
    """Panels (a), (b), (d): sweep the object extent."""
    n = scaled(NUM_OBJECTS)

    def factory(extent: float):
        return (
            default_network_workload(
                n,
                moving_distance=harness.MOVING_DISTANCE,
                extent=extent,
                seed=SEED,
            ),
            n,
        )

    return sweep_comparison(
        "Figure 13(a,b,d)",
        "update I/O, search I/O and auxiliary size vs object extent",
        "extent",
        EXTENTS,
        factory,
    )


def run_fig13_overall() -> ExperimentResult:
    """Panel (c): overall cost vs update:query ratio at extent 0.01."""
    n = scaled(OVERALL_NUM_OBJECTS)

    def factory():
        return (
            default_network_workload(
                n,
                moving_distance=harness.MOVING_DISTANCE,
                extent=OVERALL_EXTENT,
                seed=SEED,
            ),
            n,
        )

    return overall_comparison(
        "Figure 13(c)",
        "overall I/O per operation vs update:query ratio "
        f"(extent {OVERALL_EXTENT})",
        factory,
        ops_factor=2.0,
    )
