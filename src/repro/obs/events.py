"""Event sinks: where spans and structured events go.

Every event is a flat-ish dict with at least ``type`` and ``ts`` (wall
clock, seconds).  Sinks are deliberately dumb — formatting decisions live
here so instrumentation sites emit plain dicts and never touch files or
loggers directly.
"""

from __future__ import annotations

import io
import json
import logging
import os
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Union

#: The logger :class:`LoggingEventSink` writes to.
LOGGER = logging.getLogger("repro.obs")


class EventSink:
    """Interface: receive one event dict."""

    def emit(self, event: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further emits are undefined."""


class NullEventSink(EventSink):
    """Discards everything (placeholder when only metrics are wanted)."""

    def emit(self, event: Dict[str, Any]) -> None:
        pass


class ListEventSink(EventSink):
    """Collects events in memory — tests and the exactness checks use it."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e.get("type") == event_type]


class JsonlEventSink(EventSink):
    """Appends one compact JSON object per line to a file.

    Accepts a path (opened lazily, parent directories created) or any
    text file object.  Events are written as they arrive; :meth:`close`
    flushes and closes only streams this sink opened itself.
    """

    def __init__(
        self, target: Union[str, "os.PathLike[str]", io.TextIOBase]
    ) -> None:
        self._own_file = isinstance(target, (str, os.PathLike))
        if isinstance(target, (str, os.PathLike)):
            path = pathlib.Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file: io.TextIOBase = open(path, "a", encoding="utf-8")
            self.path: Optional[pathlib.Path] = path
        else:
            self._file = target
            self.path = None
        self.emitted = 0

    def emit(self, event: Dict[str, Any]) -> None:
        self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._own_file and not self._file.closed:
            self._file.flush()
            self._file.close()
        elif not self._own_file:
            self._file.flush()


class LoggingEventSink(EventSink):
    """Routes events to the stdlib :mod:`logging` debug channel.

    Each event becomes one ``DEBUG`` record on the ``repro.obs`` logger
    (message = the event type, the full payload in ``extra`` under
    ``obs_event`` and rendered compactly in the message tail), so any
    logging configuration — handlers, filters, level thresholds — applies
    unchanged.
    """

    def emit(self, event: Dict[str, Any]) -> None:
        if LOGGER.isEnabledFor(logging.DEBUG):
            payload = {k: v for k, v in event.items() if k != "type"}
            LOGGER.debug(
                "%s %s",
                event.get("type", "event"),
                json.dumps(payload, sort_keys=True, default=str),
                extra={"obs_event": event},
            )


class TeeEventSink(EventSink):
    """Fans one event out to several sinks (JSONL file + debug log)."""

    def __init__(self, sinks: Sequence[EventSink]) -> None:
        self.sinks = list(sinks)

    def emit(self, event: Dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
