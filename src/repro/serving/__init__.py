"""Sharded multi-tree serving layer.

A single RUM-tree behind one structure latch caps throughput at one
core (and one I/O channel) no matter how fast the per-operation kernels
get.  This package scales *out* instead: the unit square is partitioned
into Z-order prefix cells (:mod:`repro.rtree.zorder`), each cell owning
a complete RUM-tree storage stack — tree + buffer + memo + optional WAL
— and a :class:`~repro.serving.router.ShardRouter` routes updates by
position, visits the shards a range/kNN query overlaps in turn on the
caller's thread, and merges the answers.

The paper's own thesis makes the partition cheap to maintain: an object
whose movement crosses a shard boundary is an *insert* on the new shard
plus a *memo-only delete* on the old one (Section 3.2.1 — the delete
touches no tree page), ordered under one shared stamp counter so the
merge can always tell the latest version (docs/SHARDING.md).

:mod:`~repro.serving.server` fronts a router with a thread-per-connection
socket server speaking the length-prefixed packed-frame protocol of
:mod:`~repro.serving.protocol`; :mod:`~repro.serving.client` is the
matching blocking client.
"""

from .client import ServingClient
from .router import ShardRouter
from .server import ShardServer

__all__ = ["ShardRouter", "ShardServer", "ServingClient"]
