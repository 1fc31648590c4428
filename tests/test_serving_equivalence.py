"""Shard-vs-single-tree equivalence property (hypothesis).

The sharded router is a pure serving-layer optimisation: for any
sequence of upserts and deletes, a 1-shard router, a 4-shard router,
and a bare RUM-tree must return identical range-query and kNN answers,
and the router's routing directory must conserve the live-object count.
This is the test the CI racecheck job also runs with ``REPRO_RACECHECK=1``
so migrations execute under the detector.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect
from repro.serving import ShardRouter
from repro.serving.protocol import results_from_wire

coords = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)

# An op is ("upsert", oid, x, y) or ("delete", oid); few distinct oids
# so deletes hit and objects migrate repeatedly.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"), st.integers(0, 15), coords, coords
        ),
        st.tuples(st.just("delete"), st.integers(0, 15)),
    ),
    min_size=1,
    max_size=60,
)

HALF = 0.01


def _rect(x: float, y: float) -> Rect:
    return Rect(x - HALF, y - HALF, x + HALF, y + HALF)


def _apply_to_router(router, ops):
    live = {}
    for op in ops:
        if op[0] == "upsert":
            _, oid, x, y = op
            router.upsert(oid, _rect(x, y))
            live[oid] = (x, y)
        else:
            _, oid = op
            existed = router.delete(oid)
            assert existed == (oid in live)
            live.pop(oid, None)
    return live


def _apply_to_tree(tree, ops):
    live = set()
    for op in ops:
        if op[0] == "upsert":
            _, oid, x, y = op
            tree.update_object(oid, None, _rect(x, y))
            live.add(oid)
        elif op[1] in live:
            tree.delete_object(op[1])
            live.discard(op[1])


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy, qx=coords, qy=coords)
# Five objects tie at the k-th distance: each tree must break the tie by
# oid, as the sharded merge does.
@example(
    ops=[("upsert", oid, 0.0, 0.0) for oid in (5, 4, 3, 2, 1)]
    + [("upsert", 7, 0.3, 0.9)],
    qx=0.0, qy=1.0,
)
def test_routers_equivalent_to_bare_tree(ops, qx, qy):
    tree = build_rum_tree(node_size=512)
    _apply_to_tree(tree, ops)
    windows = [
        Rect(0.0, 0.0, 1.0, 1.0),
        Rect(max(0.0, qx - 0.15), max(0.0, qy - 0.15),
             min(1.0, qx + 0.15), min(1.0, qy + 0.15)),
    ]
    with ShardRouter(1, node_size=512) as single, ShardRouter(
        4, node_size=512
    ) as sharded:
        live = _apply_to_router(single, ops)
        assert _apply_to_router(sharded, ops) == live

        # Count conservation: the routing directory, the per-shard
        # balance, and the full-square query all agree on liveness.
        for router in (single, sharded):
            assert router.count_objects() == len(live)
            assert sum(router.shard_object_counts()) == len(live)

        for window in windows:
            expected = sorted(oid for oid, _ in tree.search(window))
            for router in (single, sharded):
                got = results_from_wire(router.query(window))
                assert [oid for oid, _ in got] == expected
                # Rectangles match the live positions exactly.
                for oid, rect in got:
                    x, y = live[oid]
                    assert rect == _rect(x, y)

        # kNN equivalence between the two routers (the bare tree's
        # iterator is their shared substrate, checked per shard).
        for k in (1, 5):
            assert single.nearest_neighbors(qx, qy, k) == (
                sharded.nearest_neighbors(qx, qy, k)
            )

        for shard in sharded.shards:
            shard.tree.check_invariants()
