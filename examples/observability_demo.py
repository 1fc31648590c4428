"""Observability: trace a RUM-tree workload and export its metrics.

Runs a small insert/update/query workload with the ``repro.obs`` layer
switched on, then dumps the three export formats:

* ``events.jsonl`` — one JSON object per event; every operation's flight-
  recorder record is its ``span`` event (the full trace);
* ``metrics.prom`` — Prometheus text exposition of every counter,
  gauge, and histogram;
* a per-interval metrics delta printed to stdout.

Run with::

    PYTHONPATH=src python examples/observability_demo.py [output-dir]

The same telemetry is available for every experiment via
``python -m repro.experiments fig10 --obs-out DIR``.
"""

import json
import pathlib
import sys

from repro import Rect, build_rum_tree
from repro.obs import (
    JsonlEventSink,
    Observability,
    prometheus_text,
    write_prometheus,
)


def main(out_dir: pathlib.Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / "events.jsonl"
    events_path.unlink(missing_ok=True)  # fresh trace on every run

    # One Observability object wires a metrics registry, a flight
    # recorder, and the JSONL sink together; attach_obs cascades it through the
    # whole storage stack (disk, buffer, memo, cleaner).
    obs = Observability(level="trace", sink=JsonlEventSink(events_path))
    tree = build_rum_tree(node_size=2048, inspection_ratio=0.25, obs=obs)

    print("Loading 400 objects ...")
    for oid in range(400):
        x = (oid * 37 % 400) / 400.0
        y = (oid * 91 % 400) / 400.0
        tree.insert_object(oid, Rect.from_point(x, y))

    # Snapshot the registry, run the measured interval, and diff — the
    # same delta discipline as IOStats.
    before = obs.registry.snapshot()
    print("Updating every object once and running 50 queries ...")
    for oid in range(400):
        x = (oid * 53 % 400) / 400.0
        y = (oid * 17 % 400) / 400.0
        tree.update_object(oid, None, Rect.from_point(x, y))
    for i in range(50):
        lo = (i % 10) / 10.0
        tree.search(Rect(lo, lo, lo + 0.2, lo + 0.2))
    delta = obs.registry.snapshot() - before

    print("\nPer-interval counters:")
    for name in (
        "tree.updates",
        "tree.queries",
        "disk.page_reads",
        "disk.page_writes",
        "buffer.hits",
        "buffer.misses",
        "cleaner.cycles",
        "cleaner.entries_removed",
    ):
        print(f"  {name:28s} {delta.counters.get(name, 0)}")
    update_io = delta.histograms["tree.update_leaf_io"]
    print(
        f"  mean leaf I/O per update     {update_io.mean:.2f} "
        f"({update_io.count} updates)"
    )

    prom_path = write_prometheus(obs.registry, out_dir / "metrics.prom")
    obs.close()

    # The trace is plain JSONL: every span event is one op record and
    # carries its exact I/O delta.
    spans = [
        json.loads(line)
        for line in events_path.read_text().splitlines()
        if json.loads(line).get("type") == "span"
    ]
    updates = [s for s in spans if s["name"] == "update"]
    total_leaf_io = sum(
        s["io"]["leaf_reads"] + s["io"]["leaf_writes"] for s in updates
    )
    print(f"\nTrace: {len(spans)} spans in {events_path}")
    print(
        f"  {len(updates)} update spans accounting "
        f"{total_leaf_io} leaf I/Os"
    )

    print(f"\nPrometheus exposition ({prom_path}), first lines:")
    for line in prometheus_text(obs.registry).splitlines()[:6]:
        print(f"  {line}")


if __name__ == "__main__":
    main(
        pathlib.Path(sys.argv[1])
        if len(sys.argv) > 1
        else pathlib.Path("obs_demo")
    )
