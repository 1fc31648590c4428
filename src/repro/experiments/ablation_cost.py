"""Cost-model validation (Section 4 ablation).

Not a figure of the paper, but the check that makes the analysis section
reproducible: measure each approach's per-update leaf I/O and compare it
against the Section-4 estimator fed with the *actual* tree statistics —

* top-down: Lemma 2 over the measured leaf MBR sides, + 3;
* bottom-up: the 3/6/7 mix weighted by the measured placement mix;
* memo-based: ``2·(1+ir)``;

and verify the steady-state garbage ratio / memo size against the
Section 4.1 bounds.
"""

from __future__ import annotations

from repro.analysis.bounds import (
    garbage_ratio_upper_bound,
    um_size_upper_bound,
)
from repro.analysis.cost_model import (
    expected_bottomup_update_io,
    expected_memo_update_io,
    expected_topdown_update_io,
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

NUM_OBJECTS = 6000
UPDATES_PER_OBJECT = 2.0
MOVING_DISTANCE = 0.02
SEED = 61


def run_cost_validation() -> ExperimentResult:
    """One row per approach: measured vs predicted per-update leaf I/O."""
    result = ExperimentResult(
        experiment="Cost-model validation",
        description="measured vs Section-4 predicted update I/O",
    )
    n = scaled(NUM_OBJECTS)
    n_updates = max(16, int(n * UPDATES_PER_OBJECT))
    inspection_ratio = harness.INSPECTION_RATIO

    # --- top-down (R*-tree) ------------------------------------------------
    workload = default_network_workload(
        n, moving_distance=MOVING_DISTANCE, seed=SEED
    )
    rstar = make_tree("rstar")
    populate(rstar, workload.initial())
    measured = measure_updates(rstar, workload, n_updates)
    predicted = expected_topdown_update_io(rstar.leaf_mbr_sides())
    result.rows.append(
        {
            "approach": "top-down (R*)",
            "measured_io": measured.leaf_io_per_operation,
            "predicted_io": predicted,
        }
    )

    # --- bottom-up (FUR-tree) -----------------------------------------------
    workload = default_network_workload(
        n, moving_distance=MOVING_DISTANCE, seed=SEED
    )
    fur = make_tree("fur")
    populate(fur, workload.initial())
    fur.updates_in_place = fur.updates_to_sibling = fur.updates_top_down = 0
    measured = measure_updates(fur, workload, n_updates)
    in_place, sibling, top_down = fur.update_case_mix()
    total = max(1, in_place + sibling + top_down)
    predicted = expected_bottomup_update_io(
        in_place / total, sibling / total
    )
    result.rows.append(
        {
            "approach": "bottom-up (FUR)",
            "measured_io": measured.io_per_operation,
            "predicted_io": predicted,
            "case_mix": f"{in_place}/{sibling}/{top_down}",
        }
    )

    # --- memo-based (RUM-tree) -------------------------------------------------
    workload = default_network_workload(
        n, moving_distance=MOVING_DISTANCE, seed=SEED
    )
    rum = make_tree("rum_token", inspection_ratio=inspection_ratio)
    populate(rum, workload.initial())
    measured = measure_updates(rum, workload, n_updates)
    predicted = expected_memo_update_io(inspection_ratio)
    n_leaves = rum.num_leaf_nodes()
    result.rows.append(
        {
            "approach": f"memo-based (RUM, ir={inspection_ratio})",
            "measured_io": measured.leaf_io_per_operation,
            "predicted_io": predicted,
            "garbage_ratio": rum.garbage_ratio(n),
            "garbage_bound": garbage_ratio_upper_bound(
                n_leaves, inspection_ratio, n
            ),
            "memo_bytes": rum.memo_size_bytes(),
            "memo_bound_bytes": um_size_upper_bound(
                n_leaves, inspection_ratio
            ),
        }
    )
    return result
