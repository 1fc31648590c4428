"""The crash matrix: every fault-point occurrence × its modes × every
recovery option, with the memo's run tier off and on.

Not a figure from the paper — an executable version of its Section 3.4
durability claims.  The scenarios are derived, not listed
(:func:`~repro.crashsim.derive_scenarios`): each is run through the
crash–recover–verify harness — the workload is killed or damaged at one
occurrence of one registered fault point, the store is reopened, the
scenario's recovery option runs, and every consistency property is
asserted.  A row is one (option, tier, point, mode) cell: how many
occurrences ran and how many ended in each outcome.  The experiment
*raises* on the first violated guarantee, so "the table printed" means
"the matrix is green".

Run it with::

    python -m repro.experiments crashmatrix
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict

from repro.crashsim import OUTCOMES, derive_scenarios, run_scenario
from repro.obs import get_default_obs

from .harness import ExperimentResult


def run_crash_matrix() -> ExperimentResult:
    """Run every derived scenario; raise ``CrashSimError`` on any
    violation."""
    obs = get_default_obs()
    cells: Dict[str, dict] = {}
    for scenario in derive_scenarios():
        with tempfile.TemporaryDirectory(prefix="crashsim-") as tmp:
            outcome = run_scenario(scenario, Path(tmp), obs=obs)
        row = cells.setdefault(scenario.cell, {
            "option": scenario.option,
            "tier": "on" if scenario.tier else "off",
            "fault_point": scenario.point or "(clean shutdown)",
            "mode": scenario.mode,
            "occurrences": 0,
            **{kind: 0 for kind in OUTCOMES},
        })
        row["occurrences"] += 1
        row[outcome.kind] += 1
    return ExperimentResult(
        experiment="crashmatrix",
        description=(
            "Crash matrix: every fault-point occurrence x mode x recovery "
            "option I/II/III, memo tier off and on (every scenario's "
            "guarantees asserted)"
        ),
        rows=list(cells.values()),
    )
