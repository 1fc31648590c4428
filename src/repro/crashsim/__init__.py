"""Crash-simulation harness: fault injection, recovery, verification.

See :mod:`repro.crashsim.harness` for the model and
:mod:`repro.storage.faults` for the injection machinery.
"""

from .harness import (
    FULL_WINDOW,
    OUTCOMES,
    SPILL_BUDGET,
    CrashOutcome,
    CrashScenario,
    CrashSimError,
    WorkloadConfig,
    derive_scenarios,
    discover,
    run_scenario,
    verify_pages,
)

__all__ = [
    "FULL_WINDOW",
    "OUTCOMES",
    "SPILL_BUDGET",
    "CrashOutcome",
    "CrashScenario",
    "CrashSimError",
    "WorkloadConfig",
    "derive_scenarios",
    "discover",
    "run_scenario",
    "verify_pages",
]
