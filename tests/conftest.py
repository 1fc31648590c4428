"""Shared fixtures and helpers for the test suite.

Tests run against deliberately tiny trees (node sizes of a few hundred
bytes, fanouts of 4–20) so that splits, underflows, reinsertion, cleaning
cycles, and root collapses all occur within a few hundred operations.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, settings

from repro import factory
from repro.core.rum import RUMTree
from repro.crashsim.harness import _env_spill_budget
from repro.factory import build_fur_tree, build_rstar_tree, build_rum_tree
from repro.rtree.geometry import Rect

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

#: Tiny node size used by most structural tests (classic fanout 11,
#: RUM fanout 8).
SMALL_NODE = 512


@pytest.fixture
def rstar_tree():
    return build_rstar_tree(node_size=SMALL_NODE)


@pytest.fixture
def fur_tree():
    return build_fur_tree(node_size=SMALL_NODE)


@pytest.fixture
def rum_tree() -> RUMTree:
    return build_rum_tree(node_size=SMALL_NODE)


@pytest.fixture
def rum_token_tree() -> RUMTree:
    return build_rum_tree(
        node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.5
    )


def memo_on_a_run_tier(module, tmp_path, monkeypatch) -> None:
    """Under ``REPRO_MEMO_SPILL_BUDGET`` (CI's memo spill-tier leg) make
    ``module.build_rum_tree`` stand every memo on a run tier with that RAM
    budget; a no-op without the variable.  For an autouse fixture."""
    budget = _env_spill_budget()
    if budget is None:
        return
    dirs = (tmp_path / f"memo-{i}" for i in itertools.count())

    def build(**kwargs):
        return factory.build_rum_tree(
            memo_dir=str(next(dirs)), memo_spill_budget=budget, **kwargs
        )

    monkeypatch.setattr(module, "build_rum_tree", build)


def random_point_rect(rng: random.Random) -> Rect:
    return Rect.from_point(rng.random(), rng.random())


def populate(tree, count: int, seed: int = 1) -> Dict[int, Rect]:
    """Insert ``count`` random point objects; returns oid -> rect."""
    rng = random.Random(seed)
    positions: Dict[int, Rect] = {}
    for oid in range(count):
        rect = random_point_rect(rng)
        positions[oid] = rect
        tree.insert_object(oid, rect)
    return positions


def random_window(rng: random.Random, side: float = 0.2) -> Rect:
    x = rng.uniform(0.0, 1.0 - side)
    y = rng.uniform(0.0, 1.0 - side)
    return Rect(x, y, x + side, y + side)


def brute_force_hits(
    positions: Dict[int, Rect], window: Rect, alive: Set[int] = None
) -> List[int]:
    """Oracle: oids whose rect intersects the window."""
    return sorted(
        oid
        for oid, rect in positions.items()
        if (alive is None or oid in alive) and rect.intersects(window)
    )


def assert_search_matches_oracle(
    tree,
    positions: Dict[int, Rect],
    alive: Set[int] = None,
    n_queries: int = 40,
    seed: int = 9,
    side: float = 0.25,
) -> None:
    """Compare tree.search against the brute-force oracle on many windows."""
    rng = random.Random(seed)
    for _ in range(n_queries):
        window = random_window(rng, side=side)
        got = sorted(oid for oid, _rect in tree.search(window))
        want = brute_force_hits(positions, window, alive)
        assert got == want, f"window {window}: got {got}, want {want}"


def random_walk(
    tree,
    positions: Dict[int, Rect],
    steps: int,
    seed: int = 5,
    distance: float = 0.1,
) -> None:
    """Apply ``steps`` random single-object updates through the tree."""
    rng = random.Random(seed)
    oids = list(positions)
    for _ in range(steps):
        oid = rng.choice(oids)
        old = positions[oid]
        x, y = old.center()
        nx = min(max(x + rng.uniform(-distance, distance), 0.0), 1.0)
        ny = min(max(y + rng.uniform(-distance, distance), 0.0), 1.0)
        new = Rect.from_point(nx, ny)
        tree.update_object(oid, old, new)
        positions[oid] = new


def drive_points(index, n: int, updates: int, seed: int):
    """Load ``n`` random points into a quadtree or grid (classic or memo)
    and move them ``updates`` times; returns oid -> (x, y)."""
    rng = random.Random(seed)
    pos = {}
    for oid in range(n):
        pos[oid] = (rng.random(), rng.random())
        index.insert_object(oid, *pos[oid])
    for _ in range(updates):
        oid = rng.randrange(n)
        new = (rng.random(), rng.random())
        index.update_object(oid, pos[oid], new)
        pos[oid] = new
    return pos


def assert_windows_match(index, pos, seed: int, side: float = 0.3) -> None:
    """Compare ``range_search`` of a point index against the brute-force
    oracle on random square windows."""
    rng = random.Random(seed)
    for _ in range(40):
        x0, y0 = rng.random() * (1 - side), rng.random() * (1 - side)
        x1, y1 = x0 + side, y0 + side
        got = sorted(hit[0] for hit in index.range_search(x0, y0, x1, y1))
        assert got == sorted(
            oid
            for oid, (x, y) in pos.items()
            if x0 <= x <= x1 and y0 <= y <= y1
        )


def leaf_entry_count(tree) -> int:
    return sum(len(node.entries) for node in tree.iter_leaf_nodes())


#: The low cluster of :func:`two_cluster_tree`, oid -> point.  Its leaf's
#: MBR is [0.1, 0.3] x [0.1, 0.3]: oid 0 lies on the xmin edge beside
#: oid 1, oid 2 alone defines xmax, oid 3 alone ymin, and oids 4 and 5
#: are strictly inside.
LOW_CLUSTER = {
    0: (0.1, 0.2), 1: (0.1, 0.3), 2: (0.3, 0.2), 3: (0.2, 0.1),
    4: (0.2, 0.2), 5: (0.25, 0.15),
}


def two_cluster_tree(reflect: bool = False, **kwargs):
    """A RUM-tree of height 2 over two far-apart leaves with no token
    steps; returns it, the page id of the leaf holding
    :data:`LOW_CLUSTER` and that cluster as oid -> rectangle.  With
    ``reflect`` the cluster is mirrored through its centre (0.2, 0.2),
    which swaps the roles of the opposite edges."""
    tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.0, **kwargs)
    cluster = {
        oid: Rect.from_point(0.4 - x, 0.4 - y) if reflect
        else Rect.from_point(x, y)
        for oid, (x, y) in LOW_CLUSTER.items()
    }
    far = [(0.7, 0.7), (0.9, 0.7), (0.7, 0.9), (0.9, 0.9), (0.8, 0.8)]
    for oid, rect in cluster.items():
        tree.insert_object(oid, rect)
    for oid, (x, y) in enumerate(far, start=len(cluster)):
        tree.insert_object(oid, Rect.from_point(x, y))
    low, _high = sorted(
        tree.iter_leaf_nodes(), key=lambda leaf: leaf.entries[0].oid
    )
    assert tree.height == 2
    assert sorted(e.oid for e in low.entries) == sorted(cluster)
    assert held_rect(tree, low.page_id) == Rect.union_all(cluster.values())
    return tree, low.page_id, cluster


def held_rect(tree, page_id: int) -> Rect:
    """The rectangle the parent entry of ``page_id`` holds (uncounted)."""
    parent = tree.buffer.peek_node(tree.parent[page_id])
    return parent.entries[parent.find_child_index(page_id)].rect


@pytest.fixture
def mbr_calls(monkeypatch) -> List[int]:
    """Page ids of every ``mbr()`` scan made while the fixture is live."""
    from repro.rtree.node import LazyNode, Node

    calls: List[int] = []
    for cls in (Node, LazyNode):
        def counted(self, _mbr=cls.mbr):
            calls.append(self.page_id)
            return _mbr(self)

        monkeypatch.setattr(cls, "mbr", counted)
    return calls
