"""``repro.obs`` — metrics, op records, and event tracing for the storage/RUM stack.

The package bundles three layers behind one façade:

* a **metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges,
  and fixed-bucket histograms with ``IOSnapshot``-style snapshot/delta;
* a **flight recorder** (:mod:`repro.obs.recorder`) — one record per
  operation with its exact I/O delta; at ``trace`` each record is also
  the operation's ``span`` event;
* **event sinks and exporters** (:mod:`repro.obs.events`,
  :mod:`repro.obs.export`) — JSONL event stream, Prometheus text
  exposition, and a structured ``logging`` debug channel.

An :class:`Observability` object selects a level and wires the three
together; components count in plain ints of their own, which
``attach_obs(obs)`` publishes (see :mod:`repro.obs.metrics`), and
``attach_obs(None)`` — no telemetry — freezes what was published and
leaves the capture path one ``None`` check::

    obs = Observability(level="trace", sink=JsonlEventSink("events.jsonl"))
    tree = build_rum_tree(obs=obs)
    ... workload ...
    print(prometheus_text(obs.registry))

Levels
------
``metrics``
    Counters/gauges/histograms and the (sampled) flight recorder — no
    events.
``trace``
    Metrics, every operation recorded and emitted as a ``span`` event,
    plus coarse events (cleaner cycles, checkpoints).
``debug``
    Everything, including per-token-step events; intended for the
    ``logging`` channel and small runs.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro.storage.iostats import IO_FIELDS

from .events import (
    EventSink,
    JsonlEventSink,
    ListEventSink,
    LoggingEventSink,
    NullEventSink,
    TeeEventSink,
)
from . import recorder as recorder_mod
from .drift import DriftMonitor, OpDriftTracker
from .explain import ExplainReport, NodeVisit
from .export import metrics_json, prometheus_text, write_prometheus
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from .recorder import FlightRecorder, OpRecord

#: Recognised observability levels, least to most verbose.
LEVELS = ("metrics", "trace", "debug")


class Observability:
    """Facade bundling one registry, one flight recorder, and one event
    sink.  No telemetry is ``obs=None``, not an instance.

    ``tracing`` / ``debug`` are plain booleans so instrumentation sites
    can branch without string comparisons.
    """

    def __init__(
        self,
        level: str = "trace",
        sink: Optional[EventSink] = None,
        registry: Optional[MetricsRegistry] = None,
        recorder: Optional[FlightRecorder] = None,
        recorder_capacity: Optional[int] = None,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown obs level {level!r}; expected one of {LEVELS}"
            )
        self.level = level
        self.tracing = level in ("trace", "debug")
        self.debug = level == "debug"
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink: EventSink = sink if sink is not None else NullEventSink()
        # A pre-built recorder (shared across Observability instances)
        # wins over recorder_capacity.
        self.recorder: FlightRecorder
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = FlightRecorder(
                recorder_capacity
                if recorder_capacity is not None
                else recorder_mod.DEFAULT_CAPACITY
            )

    # -- convenience pass-throughs ----------------------------------------

    def record(
        self,
        op: str,
        tree: str,
        dur_s: float,
        io10: Tuple[int, ...],
        memo_lookups: int = 0,
        memo_hits: int = 0,
        served_by: str = "-",
        error: bool = False,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one operation in the flight recorder and, at ``trace``,
        emit the same record as the operation's ``span`` event.

        The event carries the record's ``seq``, op (as ``name``), tree,
        duration, I/O and memo columns, plus the call's ``attrs`` and
        ``error: true`` when the operation raised.
        """
        seq = self.recorder.record(
            op, tree, dur_s, io10, memo_lookups, memo_hits, served_by
        )
        if self.tracing:
            event: Dict[str, Any] = {
                "type": "span",
                "ts": time.time(),
                "name": op,
                "tree": tree,
                "seq": seq,
                "dur_ms": dur_s * 1000.0,
                "io": dict(zip(IO_FIELDS, io10)),
                "memo_lookups": memo_lookups,
                "memo_hits": memo_hits,
                "served_by": served_by,
            }
            if error:
                event["error"] = True
            if attrs:
                event.update(attrs)
            self.sink.emit(event)

    def event(self, event_type: str, **fields: Any) -> None:
        """Emit one structured event (dropped below ``trace``)."""
        if self.tracing:
            event: Dict[str, Any] = {"type": event_type, "ts": time.time()}
            event.update(fields)
            self.sink.emit(event)

    def close(self) -> None:
        self.sink.close()


# ---------------------------------------------------------------------------
# Process-default instance: lets the experiment CLI switch on telemetry for
# every tree the harness builds without threading a parameter through all
# figure drivers.
# ---------------------------------------------------------------------------

_default_obs: Optional[Observability] = None


def set_default_obs(obs: Optional[Observability]) -> None:
    """Install (or clear, with ``None``) the process-default instance."""
    global _default_obs
    _default_obs = obs


def get_default_obs() -> Optional[Observability]:
    """The process-default instance, or ``None`` when telemetry is off."""
    return _default_obs


__all__ = [
    "LEVELS",
    "Observability",
    "set_default_obs",
    "get_default_obs",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    # flight recorder / explain / drift
    "FlightRecorder",
    "OpRecord",
    "ExplainReport",
    "NodeVisit",
    "DriftMonitor",
    "OpDriftTracker",
    # events
    "EventSink",
    "JsonlEventSink",
    "ListEventSink",
    "LoggingEventSink",
    "NullEventSink",
    "TeeEventSink",
    # exporters
    "prometheus_text",
    "write_prometheus",
    "metrics_json",
]
