#!/usr/bin/env python
"""Observability smoke check — tiny workload at ``trace``, validated dump.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py [OUT_DIR]

Runs a small RUM-tree workload (inserts, updates, range queries, kNN)
with the observability layer at ``trace`` level, then asserts the flight
recorder captured it:

* the dump is schema-tagged ``flight_recorder/v1`` and JSON-serialisable;
* the ring is non-empty and every record carries the full column set
  (seq/op/tree/duration_ms/io/memo_lookups/memo_hits/served_by/
  pages_touched) with a complete 8-field I/O block;
* every op class the workload exercised is present;
* the per-record ``OpRecord`` view round-trips through ``as_dict``;
* the ``span`` events a ``ListEventSink`` received pair one-to-one with
  the retained records on ``seq`` / op (the event's ``name``) / tree /
  io — at ``trace`` the op record *is* the trace.

A second, sharded pass runs a seeded update/query mix on a 4-shard
``ShardRouter`` whose shards share one registry, and checks that every
published count is the sum of the shards' own tallies and that a
snapshot delta is the work done between its two snapshots.

Artifacts (``recorder.json``, ``metrics.prom``) are written to OUT_DIR
(default ``obs-smoke``) so CI can archive them; any violated check exits
non-zero with a diagnostic.  This is the CI leg that keeps the recorder
dump schema honest end to end — the unit tests pin the pieces, this pins
the assembled pipeline on a real workload.
"""

from __future__ import annotations

import json
import pathlib
import sys

EXPECTED_RECORD_KEYS = {
    "seq",
    "op",
    "tree",
    "duration_ms",
    "io",
    "memo_lookups",
    "memo_hits",
    "served_by",
    "pages_touched",
}


def fail(msg: str) -> "None":
    print(f"obs-smoke: FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


#: Metric -> the tally one shard tree keeps for it.
SHARD_TALLIES = {
    "memo.lookups": lambda tree: tree.memo.lookup_count,
    "memo.hits": lambda tree: tree.memo.hit_count,
    "buffer.hits": lambda tree: tree.buffer.hit_count,
    "buffer.misses": lambda tree: tree.buffer.miss_count,
    "disk.page_reads": lambda tree: tree.buffer.disk.reads,
    "disk.page_writes": lambda tree: tree.buffer.disk.writes,
    "tree.updates": lambda tree: tree.update_count,
    "tree.queries": lambda tree: tree.query_count,
}


def sharded_pass() -> str:
    """Counts on a registry four shards share must add up."""
    import random

    from repro.obs import Observability
    from repro.rtree.geometry import Rect
    from repro.serving.router import ShardRouter

    def tallies(router):
        out = {
            name: sum(read(shard.tree) for shard in router.shards)
            for name, read in SHARD_TALLIES.items()
        }
        out["router.migrations"] = router.stats()["tallies"]["migrations"]
        return out

    def mix(router, rng, n_ops):
        for _ in range(n_ops):
            x, y = rng.random() * 0.7, rng.random() * 0.7
            if rng.random() < 0.8:
                router.upsert(rng.randrange(300), Rect.from_point(x, y))
            else:
                router.query(Rect(x, y, x + 0.3, y + 0.3))

    obs = Observability(level="metrics")
    rng = random.Random(7)
    with ShardRouter(4, obs=obs) as router:
        at_attach = tallies(router)
        mix(router, rng, 500)
        before, at_before = obs.registry.snapshot(), tallies(router)
        mix(router, rng, 500)
        after, at_after = obs.registry.snapshot(), tallies(router)
    interval = after - before
    for name, total in at_after.items():
        published = after.counters.get(name)
        if published != total - at_attach[name]:
            fail(
                f"{name} reads {published} on the shared registry, the "
                f"shards counted {total - at_attach[name]}"
            )
        done = total - at_before[name]
        if interval.counters[name] != done:
            fail(
                f"{name} snapshot delta {interval.counters[name]}, the "
                f"interval did {done}"
            )
    return f"{len(at_after)} counts add up over 4 shards"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = pathlib.Path(argv[0] if argv else "obs-smoke")

    from repro.factory import build_rum_tree
    from repro.obs import ListEventSink, Observability, write_prometheus
    from repro.obs.recorder import IO_FIELDS, SCHEMA, OpRecord
    from repro.rtree.geometry import Rect
    from repro.workload.objects import default_network_workload

    sink = ListEventSink()
    obs = Observability(level="trace", sink=sink, recorder_capacity=1024)
    tree = build_rum_tree(node_size=2048, obs=obs)
    workload = default_network_workload(120, moving_distance=0.02, seed=5)
    for oid, rect in workload.initial():
        tree.insert_object(oid, rect)
    for oid, old, new in workload.updates(200):
        tree.update_object(oid, old, new)
    tree.apply_batch(
        [("update", oid, new) for oid, _old, new in workload.updates(8)]
    )
    for _ in range(5):
        tree.search(Rect(0.2, 0.2, 0.8, 0.8))
    tree.nearest_neighbors(0.5, 0.5, 4)

    dump = obs.recorder.dump()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "recorder.json").write_text(json.dumps(dump, indent=1))
    write_prometheus(obs.registry, out_dir / "metrics.prom")

    # -- schema validation --------------------------------------------------
    if dump["schema"] != SCHEMA:
        fail(f"dump schema {dump['schema']!r}, expected {SCHEMA!r}")
    if json.loads(json.dumps(dump)) != dump:
        fail("dump does not survive a JSON round-trip")
    ops = dump["ops"]
    if not ops:
        fail("flight recorder ring is empty after the workload")
    if dump["recorded_total"] < 327:  # 120 + 200 + 1 + 5 + 1
        fail(
            f"recorded_total {dump['recorded_total']} below the "
            "327 instrumented ops the workload issued"
        )
    for record in ops + dump["slow_ops"]:
        if set(record) != EXPECTED_RECORD_KEYS:
            fail(
                f"record #{record.get('seq')} keys {sorted(record)} != "
                f"{sorted(EXPECTED_RECORD_KEYS)}"
            )
        if set(record["io"]) != set(IO_FIELDS):
            fail(f"record #{record['seq']} io block missing fields")
        OpRecord.from_dict(record)  # must reconstruct
    seen_ops = {r["op"] for r in ops}
    for expected in ("insert", "update", "update_batch", "query", "knn"):
        if expected not in seen_ops:
            fail(f"op class {expected!r} missing from the ring ({seen_ops})")
    queries = [r for r in ops if r["op"] == "query"]
    if not all(r["served_by"] in ("mirror", "traversal") for r in queries):
        fail("query record with unknown serving decision")
    if not any(r["memo_lookups"] > 0 for r in queries):
        fail("no query record carries memo inspections")

    # -- one record, one span event ------------------------------------------
    if dump["dropped"]:
        fail(f"{dump['dropped']} records evicted; raise the capacity")
    spans = {}
    for event in sink.of_type("span"):
        if event["seq"] in spans:
            fail(f"two span events carry seq {event['seq']}")
        spans[event["seq"]] = event
    if sorted(spans) != [r["seq"] for r in ops]:
        fail(
            f"{len(spans)} span events do not pair with the "
            f"{len(ops)} recorder records on seq"
        )
    for record in ops:
        event = spans[record["seq"]]
        if (event["name"], event["tree"], event["io"]) != (
            record["op"], record["tree"], record["io"]
        ):
            fail(f"span event #{record['seq']} differs from its record")

    obs.close()
    sharded = sharded_pass()

    print(
        f"obs-smoke: OK — {dump['recorded_total']} ops recorded, "
        f"{len(ops)} retained and paired with their span events, "
        f"{len(seen_ops)} op classes, {sharded}, "
        f"artifacts in {out_dir}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
