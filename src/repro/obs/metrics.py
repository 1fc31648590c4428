"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The registry follows the same snapshot/delta discipline as
:class:`repro.storage.iostats.IOStats`: live instruments are mutable and
cheap to update (``inc()`` is one attribute add), while
:meth:`MetricsRegistry.snapshot` captures an immutable
:class:`MetricsSnapshot` whose difference against an earlier snapshot
yields per-interval values::

    before = registry.snapshot()
    run_workload()
    delta = registry.snapshot() - before
    print(delta.counters["wal.appends"])

Hot-path cost discipline
------------------------
Components never touch an instrument to count.  Each keeps its counts
as plain ints whether or not telemetry is attached (one integer add per
event at every level), and ``attach_obs`` publishes them
(:meth:`MetricsRegistry.publish`): a counter counts from the attach,
sums every component published under its name (a router's shards add
up) and keeps what it counted when the component detaches.  Sizes are
callback gauges, read only at snapshot time; a gauge reads the
component attached last and freezes when that component detaches.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Observability

#: Quantiles reported by ``percentiles()`` and the Prometheus exposition.
PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def _bucket_percentile(
    buckets: Sequence[float], counts: Sequence[int], count: int, q: float
) -> float:
    """Interpolated quantile from cumulative bucket counts.

    Prometheus-style: the value is linearly interpolated inside the
    bucket that contains the requested rank (observations assumed
    uniform within a bucket); the first bucket collapses to its bound
    and anything in the overflow bucket is clamped to the last bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count == 0:
        return 0.0
    rank = q * count
    cumulative = 0.0
    for i in range(len(buckets)):
        in_bucket = counts[i]
        prev = cumulative
        cumulative += in_bucket
        if cumulative >= rank and in_bucket:
            hi = buckets[i]
            if i == 0:
                return hi
            lo = buckets[i - 1]
            return lo + (hi - lo) * ((rank - prev) / in_bucket)
    return buckets[-1]


class Counter:
    """A monotonically increasing integer metric: what :meth:`inc` added
    plus what each component published into it counted since attach."""

    __slots__ = ("name", "_settled", "_live")

    def __init__(self, name: str) -> None:
        self.name = name
        self._settled = 0
        #: Publication -> (tally reader, its reading at the attach).
        self._live: Dict["Publication", Tuple[Callable[[], int], int]] = {}

    def inc(self, amount: int = 1) -> None:
        self._settled += amount

    @property
    def value(self) -> int:
        return self._settled + sum(
            read() - base for read, base in list(self._live.values())
        )

    def _settle(self, publication: "Publication") -> None:
        read, base = self._live.pop(publication)
        self._settled += read() - base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value, set directly or sampled via a callback.

    A callback gauge (:meth:`set_function`) is evaluated lazily at
    snapshot/exposition time, so wiring one to an expensive size
    computation costs nothing on the instrumented hot path.
    """

    __slots__ = ("name", "value", "_fn")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self.value = value

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    def read(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.read()})"


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are upper bounds (inclusive, ascending); one overflow
    bucket catches everything above the last bound, so ``counts`` has
    ``len(buckets) + 1`` cells.  ``observe`` is a bisect plus two adds.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total")

    #: Default bounds suited to per-operation I/O and millisecond
    #: latencies alike (decade-ish spacing, small values resolved).
    DEFAULT_BUCKETS: Tuple[float, ...] = (
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0,
    )

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bucket bounds must be ascending")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated quantile of the observed distribution."""
        return _bucket_percentile(self.buckets, self.counts, self.count, q)

    def percentiles(self) -> Dict[str, float]:
        """The standard report quantiles (:data:`PERCENTILES`)."""
        return {name: self.percentile(q) for name, q in PERCENTILES}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable copy of one histogram's state."""

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    count: int
    total: float

    def __sub__(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.buckets != other.buckets:
            raise ValueError("cannot subtract histograms with different buckets")
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(a - b for a, b in zip(self.counts, other.counts)),
            count=self.count - other.count,
            total=self.total - other.total,
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated quantile of the observed distribution."""
        return _bucket_percentile(self.buckets, self.counts, self.count, q)

    def percentiles(self) -> Dict[str, float]:
        """The standard report quantiles (:data:`PERCENTILES`)."""
        return {name: self.percentile(q) for name, q in PERCENTILES}


@dataclass(frozen=True)
class MetricsSnapshot:
    """All registry values at one instant; subtraction gives deltas.

    Gauges are point-in-time readings, so a delta keeps the *newer*
    gauge values rather than subtracting them.
    """

    counters: Mapping[str, int] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramSnapshot] = field(default_factory=dict)

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = {
            name: value - other.counters.get(name, 0)
            for name, value in self.counters.items()
        }
        histograms: Dict[str, HistogramSnapshot] = {}
        for name, hist in self.histograms.items():
            prev = other.histograms.get(name)
            histograms[name] = hist - prev if prev is not None else hist
        return MetricsSnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=histograms
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-data form for JSON export."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "percentiles": h.percentiles(),
                }
                for name, h in self.histograms.items()
            },
        }


class Publication:
    """What one component publishes into one registry.  :meth:`withdraw`
    is its detach: each counter keeps what the component counted, each
    gauge it still feeds keeps its last reading."""

    def __init__(self) -> None:
        self.counters: List[Counter] = []
        self.gauges: List[Tuple[Gauge, Callable[[], float]]] = []

    def withdraw(self) -> None:
        for counter in self.counters:
            counter._settle(self)
        for gauge, read in self.gauges:
            if gauge._fn is read:
                gauge.set(read())
        self.counters, self.gauges = [], []


#: What a detached component holds: nothing to withdraw.
UNPUBLISHED = Publication()


def republish(
    old: Publication,
    obs: Optional["Observability"],
    counters: Mapping[str, Callable[[], int]],
    gauges: Optional[Mapping[str, Callable[[], float]]] = None,
) -> Publication:
    """An ``attach_obs``: withdraw ``old``, then publish ``counters``
    (tally readers) and ``gauges`` (size readers) unless ``obs`` is
    ``None``."""
    old.withdraw()
    if obs is None:
        return UNPUBLISHED
    return obs.registry.publish(counters, gauges)


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Asking twice for the same name returns the same object, so every
    component that publishes ``wal.appends`` lands in one counter.
    Re-registering a name as a different instrument kind is an error.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: Mapping[str, object]) -> None:
        for store in (self._counters, self._gauges, self._histograms):
            if store is not kind and name in store:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_unique(name, self._counters)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_unique(name, self._gauges)
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            self._check_unique(name, self._histograms)
            hist = self._histograms[name] = Histogram(name, buckets)
        elif buckets is not None and tuple(buckets) != hist.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return hist

    def publish(
        self,
        counters: Mapping[str, Callable[[], int]],
        gauges: Optional[Mapping[str, Callable[[], float]]] = None,
    ) -> Publication:
        """Count each tally reader of ``counters`` from now on, summed
        with every other reader published under its name, and point each
        gauge of ``gauges`` at its reader."""
        publication = Publication()
        for name, read in counters.items():
            counter = self.counter(name)
            counter._live[publication] = (read, read())
            publication.counters.append(counter)
        for name, size in (gauges or {}).items():
            gauge = self.gauge(name)
            gauge.set_function(size)
            publication.gauges.append((gauge, size))
        return publication

    # -- read side ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of every instrument (gauge callbacks sampled now)."""
        return MetricsSnapshot(
            counters={n: c.value for n, c in self._counters.items()},
            gauges={n: g.read() for n, g in self._gauges.items()},
            histograms={
                n: HistogramSnapshot(
                    buckets=h.buckets,
                    counts=tuple(h.counts),
                    count=h.count,
                    total=h.total,
                )
                for n, h in self._histograms.items()
            },
        )

    def names(self) -> Tuple[str, ...]:
        return tuple(
            sorted([*self._counters, *self._gauges, *self._histograms])
        )
