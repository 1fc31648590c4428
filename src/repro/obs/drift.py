"""Cost-model drift monitor — predicted vs measured I/O per op class.

Section 4 of the paper derives closed-form expected disk accesses per
operation (``repro.analysis.cost_model``).  The drift monitor turns that
static analysis into a *live* signal: for each op class it keeps

* an **EWMA of measured counted I/O** per operation, fed from the same
  attach-time-bound hook as the flight recorder (cheap float math on the
  hot path);
* a **predicted I/O** gauge whose value is computed lazily — only when
  the registry is snapshotted or exported — by a predictor callback fed
  with live tree statistics (leaf MBR sides, inspection ratio, bottom-up
  case mix, observed query-window extents);
* a **drift ratio** gauge (measured / predicted): ~1.0 while the model
  still tells the truth about the running tree, drifting away as the
  workload leaves the model's assumptions.  This ratio is the direct
  input the ROADMAP's adaptive self-tuning item consumes.

Gauges are registered as ``drift.<op>.predicted_io`` /
``.measured_io`` / ``.ratio`` / ``.samples`` and ride the existing
Prometheus/JSONL exporters unchanged.

The module is deliberately free of tree and cost-model imports: trees
construct predictors (closures over themselves and
``repro.analysis.cost_model``) in ``attach_obs`` and hand them to
:meth:`DriftMonitor.track`.  That keeps the hot-path feed a single bound
method call and keeps this module strict-typed without dragging the
whole tree layer into the checked import graph.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from .metrics import MetricsRegistry, Publication

#: EWMA smoothing factor (weight of the newest sample).
ALPHA = 0.05

#: A predictor receives its tracker (for the window-extent EWMAs) and
#: returns the model's expected counted I/O per operation.
Predictor = Callable[["OpDriftTracker"], float]


class OpDriftTracker:
    """Measured-I/O EWMA plus model inputs for one op class.

    ``observe`` is the hot-path feed; everything else is read lazily by
    the gauges.  Query trackers additionally smooth the observed query
    window extents (``observe_window``) so the predictor can evaluate
    the model at the workload's actual window size.
    """

    __slots__ = (
        "op",
        "samples",
        "measured",
        "window_samples",
        "window_w",
        "window_h",
        "_predictor",
    )

    def __init__(self, op: str, predictor: Predictor) -> None:
        self.op = op
        self.samples = 0
        self.measured = 0.0
        self.window_samples = 0
        self.window_w = 0.0
        self.window_h = 0.0
        self._predictor = predictor

    # -- hot-path feeds ----------------------------------------------------

    def observe(self, measured_io: float) -> None:
        """Fold one operation's counted I/O into the EWMA."""
        n = self.samples
        if n == 0:
            self.measured = measured_io
        else:
            self.measured += ALPHA * (measured_io - self.measured)
        self.samples = n + 1

    def observe_window(self, width: float, height: float) -> None:
        """Fold one query's window extents into the window EWMAs."""
        n = self.window_samples
        if n == 0:
            self.window_w = width
            self.window_h = height
        else:
            self.window_w += ALPHA * (width - self.window_w)
            self.window_h += ALPHA * (height - self.window_h)
        self.window_samples = n + 1

    # -- lazy gauge reads --------------------------------------------------

    def predicted(self) -> float:
        """The model's expected counted I/O at current tree state."""
        return self._predictor(self)

    def ratio(self) -> float:
        """Measured EWMA / predicted; 0.0 before any samples or when the
        model predicts nothing."""
        if self.samples == 0:
            return 0.0
        predicted = self.predicted()
        if predicted <= 0.0:
            return 0.0
        return self.measured / predicted


class DriftMonitor:
    """Registers and owns the per-op-class drift trackers of one tree."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.trackers: Dict[str, OpDriftTracker] = {}
        self._published: List[Publication] = []

    def track(self, op: str, predictor: Predictor) -> OpDriftTracker:
        """Create (or replace) the tracker for ``op`` and bind its gauges.

        Returns the tracker so ``attach_obs`` can cache it as the
        hot-path instrument.  Re-attaching (or attaching a second tree to
        the same registry) rebinds the gauge callbacks to the newest
        tracker — the same last-attach-wins behaviour as every other
        ``set_function`` gauge in the stack.
        """
        tracker = OpDriftTracker(op, predictor)
        self.trackers[op] = tracker
        self._published.append(self.registry.publish({}, {
            f"drift.{op}.predicted_io": tracker.predicted,
            f"drift.{op}.measured_io": lambda: tracker.measured,
            f"drift.{op}.ratio": tracker.ratio,
            f"drift.{op}.samples": lambda: float(tracker.samples),
        }))
        return tracker

    def withdraw(self) -> None:
        """Freeze every gauge still reading one of these trackers."""
        for publication in self._published:
            publication.withdraw()

    def get(self, op: str) -> Optional[OpDriftTracker]:
        return self.trackers.get(op)

    def rows(self) -> List[Dict[str, Union[str, float, int]]]:
        """One report row per tracked op class (the ``drift`` experiment
        and tests read these instead of scraping gauge names)."""
        out: List[Dict[str, Union[str, float, int]]] = []
        for op in sorted(self.trackers):
            t = self.trackers[op]
            out.append(
                {
                    "op": op,
                    "predicted_io": t.predicted(),
                    "measured_io": t.measured,
                    "drift_ratio": t.ratio(),
                    "samples": t.samples,
                }
            )
        return out
