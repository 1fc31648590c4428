"""Blocking client for the shard server's wire protocol.

One socket, one in-flight request at a time (the protocol is strictly
request/response per connection); open several clients for concurrent
load — the open-loop benchmark gives each client thread its own.  A
transport failure inside a request (timeout, reset, malformed answer)
closes the socket: the late answer would be read as the next reply.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Tuple

from repro.rtree.geometry import Rect

from .protocol import FrameReader, encode_frame
from .protocol import rect_to_wire, results_from_wire


class ServingClient:
    """Connects on construction; use as a context manager to close."""

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = FrameReader(self._sock)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def request(self, message: Dict[str, Any]) -> Any:
        """One round trip; raises on transport or server-side errors."""
        frame = encode_frame(message)  # a ValueError here has sent nothing
        try:
            self._sock.sendall(frame)
            response = self._reader.read()
            if response is None:
                raise ConnectionError("server closed the connection")
        except (OSError, ValueError):
            self.close()
            raise
        if not response.get("ok"):
            raise RuntimeError(
                f"server error: {response.get('error', 'unknown')}"
            )
        return response.get("result")

    # -- convenience wrappers ----------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}) == "pong")

    def upsert(self, oid: int, rect: Rect) -> Dict[str, Any]:
        result: Dict[str, Any] = self.request(
            {"op": "update", "oid": oid, "rect": rect_to_wire(rect)}
        )
        return result

    def delete(self, oid: int) -> bool:
        return bool(self.request({"op": "delete", "oid": oid})["existed"])

    def query(self, window: Rect) -> List[Tuple[int, Rect]]:
        return results_from_wire(
            self.request({"op": "query", "window": rect_to_wire(window)})
        )

    def nearest_neighbors(
        self, x: float, y: float, k: int
    ) -> List[Tuple[int, Rect]]:
        return results_from_wire(
            self.request({"op": "knn", "x": x, "y": y, "k": k})
        )

    def count(self) -> int:
        return int(self.request({"op": "count"}))

    def stats(self) -> Dict[str, Any]:
        result: Dict[str, Any] = self.request({"op": "stats"})
        return result
