"""Thread-per-connection socket server fronting a :class:`ShardRouter`.

One accept thread plus one thread per client connection; each
connection processes frames of the :mod:`~repro.serving.protocol` in
order, so a single client observes its own operations sequentially
while different clients execute concurrently (the router's stripe
locks and shard latches provide the synchronisation).

When the race detector is active, every served thread is bracketed
with fork/join happens-before edges, so the detector can tell the
single-threaded setup phase (loading the shards) from genuinely
concurrent accesses.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Optional, Tuple

from repro.concurrency import racecheck
from repro.concurrency.primitives import make_lock

from .protocol import (
    FrameReader,
    encode_frame,
    float_from_wire,
    int_from_wire,
    rect_from_wire,
)
from .router import ShardRouter


class ShardServer:
    """Serves a router over TCP; start/stop from the owning thread."""

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: Connection thread -> its socket, under ``_conn_lock``; an
        #: entry leaves when its thread has ended and been joined.
        self._conns: Dict[threading.Thread, socket.socket] = {}
        self._conn_lock = make_lock()
        self._running = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not running")
        addr: Tuple[str, int] = self._listener.getsockname()[:2]
        return addr

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and spawn the accept thread; returns the address."""
        if self._running:
            raise RuntimeError("server already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        # Closing a socket does not wake a blocked accept() on every
        # platform; the accept loop polls on a short timeout instead and
        # rechecks the running flag between waits.
        listener.settimeout(0.2)
        self._listener = listener
        self._running = True
        thread = threading.Thread(
            target=self._accept_loop, name="shard-accept", daemon=True
        )
        self._accept_thread = thread
        if (checker := racecheck.ACTIVE) is not None:
            checker.note_fork(thread)
        thread.start()
        return self.address

    def stop(self) -> None:
        """Stop accepting, join every connection thread, close the router."""
        if not self._running:
            return
        self._running = False
        accept_thread = self._accept_thread
        if accept_thread is not None:
            accept_thread.join()
            if (checker := racecheck.ACTIVE) is not None:
                checker.note_join(accept_thread)
            self._accept_thread = None
        listener = self._listener
        if listener is not None:
            listener.close()
        with self._conn_lock:
            socks = list(self._conns.values())
        for sock in socks:
            # Unblock any connection thread parked in recv(): shutdown
            # delivers EOF to the reader even from another thread.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by the connection thread
        self._reap(wait=True)
        self._listener = None
        self.router.close()

    def __enter__(self) -> "ShardServer":
        self.start()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    # -- serving loops -----------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        if listener is None:  # start() assigns it before spawning us
            raise RuntimeError("accept loop started without a listener")
        while self._running:
            self._reap()
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue  # recheck the running flag
            except OSError:
                return  # listener torn down
            conn.settimeout(None)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="shard-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._conns[thread] = conn
            if (checker := racecheck.ACTIVE) is not None:
                checker.note_fork(thread)
            thread.start()

    def _reap(self, wait: bool = False) -> None:
        """Join the connection threads that have ended (all of them when
        ``wait``).  Runs on the accept thread or after it was joined, so
        every listed thread has been started."""
        with self._conn_lock:
            for thread in list(self._conns):
                if wait or not thread.is_alive():
                    thread.join()
                    if (checker := racecheck.ACTIVE) is not None:
                        checker.note_join(thread)
                    del self._conns[thread]

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = FrameReader(conn)
        try:
            while True:
                request = reader.read()
                if request is None:
                    return
                conn.sendall(self._handle(request))
        except (ConnectionError, OSError, ValueError):
            return  # peer vanished or sent garbage: drop the connection
        finally:
            conn.close()

    def _handle(self, request: Dict[str, Any]) -> bytes:
        """Dispatch one request and encode its answer frame; protocol
        errors become error responses.

        Only ``Exception`` is caught — a ``SimulatedCrash`` or a
        ``KeyboardInterrupt`` must still tear the server down.
        """
        try:
            answer = {"ok": True, "result": self._dispatch(request)}
            return encode_frame(answer)
        # One request must never kill the connection: any dispatch failure
        # (bad op, malformed rect, shard-level error, an answer with more
        # rows than a frame holds) becomes an error response.
        # SimulatedCrash/KeyboardInterrupt derive from BaseException and
        # still propagate.
        # lint: disable=REP001
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            return encode_frame({"ok": False, "error": error})

    def _dispatch(self, request: Dict[str, Any]) -> Any:
        op = request.get("op")
        router = self.router
        if op == "ping":
            return "pong"
        if op == "update":
            return router.upsert(
                int_from_wire(request["oid"]), rect_from_wire(request["rect"])
            )
        if op == "delete":
            return {"existed": router.delete(int_from_wire(request["oid"]))}
        # Both query verbs answer the flat rows an R frame packs.
        if op == "query":
            return router.query(rect_from_wire(request["window"]))
        if op == "knn":
            return router.nearest_neighbors(
                float_from_wire(request["x"]),
                float_from_wire(request["y"]),
                int_from_wire(request["k"]),
            )
        if op == "count":
            return router.count_objects()
        if op == "stats":
            return router.stats()
        raise ValueError(f"unknown op {op!r}")
