#!/usr/bin/env python
"""CI smoke for the sharded serving layer: socket server + racecheck.

Boots a :class:`~repro.serving.ShardServer` in-process with the race
detector active, drives a short Figure-16 mixed workload through real
TCP connections with the multi-client load driver (open loop, every
arrival due at once: a saturation probe), and then asserts:

* zero races reported by the detector (the server's fork/join edges
  and the router's stripe/latch discipline hold under live traffic);
* a non-empty latency report (every percentile present and positive);
* a truncated frame, an unknown-tag frame and a non-finite ``update``, each
  on a throw-away connection, are dropped or answered ``ok: false``;
* after them, the routing directory's live count still matches a
  full-square query;
* a probe's served answer equals the in-process ``router.query`` of the
  same window and is sorted by oid, and the ``R`` frame the server sent
  for it, read off the socket byte for byte, is ``9 + 40n`` bytes for its
  ``n`` rows;
* a served kNN query answers ``k`` objects, the in-process
  ``router.nearest_neighbors`` at the same point;
* a served delete of a live object answers true, a second one false, and
  the served count drops by exactly one.

It also prints the frame sizes of one update and one query, so the log
carries the real bytes per op.

Exit status is non-zero on any violation, so the CI ``serve`` job can
gate on it directly.  Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--shards N]
        [--clients N] [--ops N]
"""

from __future__ import annotations

import argparse
import pathlib
import socket
import struct
import sys
from typing import Any, List

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.concurrency import racecheck
from repro.concurrency.racecheck import RaceChecker
from repro.concurrency.throughput import LoadDriver
from repro.rtree.geometry import Rect
from repro.serving import ServingClient, ShardRouter, ShardServer
from repro.serving.protocol import (
    encode_frame,
    rect_to_wire,
    recv_frame,
    results_from_wire,
)
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import UpdateOp, mixed_trace


def hostile_frames(host: str, port: int) -> List[str]:
    """Three frames a server must refuse, each on its own connection;
    returns what went wrong (nothing, on a server that fails closed)."""
    update = {"op": "update", "oid": 10**9, "rect": [0.5] * 4}
    nan_update = {**update, "rect": [float("nan")] * 4}
    failures = []
    for name, data, answered in (
        ("truncated frame", encode_frame(update)[:20], False),
        ("unknown-tag frame", b"\x00\x00\x00\x03\x00hi", False),
        ("non-finite update", encode_frame(nan_update), True),
    ):
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            try:
                answer = recv_frame(sock)
            except ConnectionError:
                answer = None  # dropped with a reset
        # Told ``ok: false`` or, where no answer is owed, dropped.
        refused = answer is not None and answer.get("ok") is False
        if not (refused or (answer is None and not answered)):
            failures.append(f"{name} was answered {answer!r}")
    return failures


def raw_answer(host: str, port: int, window: Rect) -> bytes:
    """The answer frame to one query, exactly as the server sent it."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(
            encode_frame({"op": "query", "window": rect_to_wire(window)})
        )
        frame = b""
        need = 4
        while len(frame) < need:
            chunk = sock.recv(need - len(frame))
            if not chunk:
                raise ConnectionError("server closed mid-frame")
            frame += chunk
            if len(frame) == 4:
                need = 4 + struct.unpack(">I", frame)[0]
    return frame


def answer_failures(served: List[Any], frame: bytes) -> List[str]:
    """What is wrong with a probe's served answer and its raw frame."""
    failures = []
    oids = [oid for oid, _rect in served]
    if oids != sorted(oids):
        failures.append("served answer is not sorted by oid")
    n = len(served)
    if frame[4:5] != b"R" or struct.unpack_from("<I", frame, 5)[0] != n:
        failures.append(f"answer frame is not an R frame of {n} rows")
    if len(frame) != 9 + 40 * n:
        failures.append(
            f"R frame of {n} rows is {len(frame)} B, not {9 + 40 * n}"
        )
    return failures


def delete_failures(probe: ServingClient, oid: int) -> List[str]:
    """What is wrong with deleting the live object ``oid``, by ``count``."""
    failures = []
    before = probe.count()
    if not probe.delete(oid):
        failures.append(f"delete of live object {oid} answered false")
    if probe.delete(oid):
        failures.append(f"second delete of object {oid} answered true")
    after = probe.count()
    if after != before - 1:
        failures.append(f"count went {before} -> {after} over one delete")
    return failures


#: Neighbours the kNN probe asks for.
KNN = 5


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--ops", type=int, default=240)
    parser.add_argument("--objects", type=int, default=600)
    args = parser.parse_args(argv)

    checker = racecheck.activate(RaceChecker())
    objects = default_network_workload(
        args.objects, moving_distance=0.02, seed=47
    )
    trace = mixed_trace(
        objects, RangeQueryGenerator(side=0.05, seed=53),
        args.ops, 0.5, seed=59,
    )

    router = ShardRouter(args.shards, node_size=1024)
    for oid, rect in objects.initial():
        router.upsert(oid, rect)

    clients: List[ServingClient] = []
    with ShardServer(router) as server:
        host, port = server.address

        def factory(k: int) -> Any:
            client = ServingClient(host, port)
            clients.append(client)  # closed after the run

            def execute(op: Any) -> None:
                if isinstance(op, UpdateOp):
                    client.upsert(op.oid, op.new_rect)
                else:
                    client.query(op.window)

            return execute

        driver = LoadDriver(factory, n_clients=args.clients)
        result = driver.run(trace, rate=float("inf"))
        failures = hostile_frames(host, port)
        for client in clients:
            client.close()
        with ServingClient(host, port) as probe:
            live = probe.count()
            everything = probe.query(Rect(0.0, 0.0, 1.0, 1.0))
            answered = len(everything)
            stats = probe.stats()
            window = next(
                op.window for op in trace if not isinstance(op, UpdateOp)
            )
            rows = probe.query(window)
            frame = raw_answer(host, port, window)
            x, y = window.center()
            near = probe.nearest_neighbors(x, y, KNN)
            # Nothing else writes any more: the router answers as the
            # server did.
            if rows != results_from_wire(router.query(window)):
                failures.append("served answer differs from router.query")
            if len(near) != KNN or near != results_from_wire(
                router.nearest_neighbors(x, y, KNN)
            ):
                failures.append(
                    "served kNN differs from router.nearest_neighbors"
                )
            failures += answer_failures(rows, frame)
            failures += delete_failures(probe, everything[0][0])

    if checker.race_count != 0:
        failures.append(
            f"race detector reported {checker.race_count} race(s):\n"
            + checker.report()
        )
    report = result.report()
    if len(result.latencies_ms) != len(trace):
        failures.append(
            f"latency report incomplete: {len(result.latencies_ms)} "
            f"samples for {len(trace)} ops"
        )
    for name, value in report.items():
        if value <= 0.0:
            failures.append(f"percentile {name} is not positive: {value}")
    if live != answered:
        failures.append(
            f"directory count {live} != full-square query {answered}"
        )

    print(
        f"serve smoke: {args.shards} shard(s), {args.clients} client(s), "
        f"{len(trace)} ops over TCP at {result.achieved_rate:.1f} ops/s"
    )
    print(
        "  latency p50 {p50_ms:.2f} ms  p95 {p95_ms:.2f} ms  "
        "p99 {p99_ms:.2f} ms  max {max_ms:.2f} ms".format(**report)
    )
    print(
        f"  {live} live objects, {stats['tallies']['migrations']} "
        f"migration(s), 0 races required"
    )
    sizes = [
        len(encode_frame(message))
        for message in (
            {"op": "update", "oid": 0, "rect": rect_to_wire(window)},
            {"ok": True, "result": {"shard": 0, "migrated": False}},
            {"op": "query", "window": rect_to_wire(window)},
        )
    ] + [len(frame)]
    print(
        "  frame bytes: update {} out / {} back, query {} out / {} back "
        "({} rows)".format(*sizes, len(rows))
    )
    racecheck.deactivate()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
