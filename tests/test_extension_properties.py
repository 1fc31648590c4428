"""One oracle machine for the four hosts of the garbage cleaner.

The same oracle discipline as the R-tree machines: arbitrary interleavings
of inserts, updates, deletes and forced cleaning cycles against a shadow
dict — one body, the index types (RUM-tree, B+-tree, quadtree, grid) as
configurations.  Phantom inspection is live on all of them, so a query
that disagrees with the shadow is a resurrected stale entry.
"""

import random
from collections import Counter, namedtuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.extensions.btree import MemoBTree
from repro.extensions.grid import MemoGrid
from repro.extensions.quadtree import MemoQuadtree
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect

#: How to build, feed and ask one host.  Objects are points ``(x, y)``;
#: a host of ``dims`` 1 (the B+-tree) indexes ``x`` alone.
Host = namedtuple("Host", "dims build insert update query")

_PLANE = (
    lambda index, oid, p: index.insert_object(oid, *p),
    lambda index, oid, p: index.update_object(oid, None, p),
    lambda index, lo, hi: [hit[0] for hit in index.range_search(*lo, *hi)],
)
HOSTS = {
    "btree": Host(
        1,
        lambda **kw: MemoBTree(node_size=256, **kw),
        lambda index, oid, p: index.insert_object(oid, p[0]),
        lambda index, oid, p: index.update_object(oid, None, p[0]),
        lambda index, lo, hi: [
            oid for oid, _key in index.range_search(lo[0], hi[0])
        ],
    ),
    "quadtree": Host(2, lambda **kw: MemoQuadtree(page_size=256, **kw), *_PLANE),
    "grid": Host(2, lambda **kw: MemoGrid(side=6, page_size=256, **kw), *_PLANE),
    "rum": Host(
        2,
        lambda **kw: build_rum_tree(node_size=512, **kw),
        lambda index, oid, p: index.insert_object(oid, Rect.from_point(*p)),
        lambda index, oid, p: index.update_object(
            oid, None, Rect.from_point(*p)
        ),
        lambda index, lo, hi: [
            oid for oid, _rect in index.search(Rect(*lo, *hi))
        ],
    ),
}

coords = st.floats(
    min_value=0.0, max_value=0.999, allow_nan=False, allow_infinity=False
)
points = st.tuples(coords, coords)


def _expected(host, shadow, lo, hi):
    return sorted(
        oid
        for oid, p in shadow.items()
        if all(a <= c <= b for c, a, b in zip(p[: host.dims], lo, hi))
    )


class MemoHostMachine(RuleBasedStateMachine):
    """A memo-updated index vs shadow dict, small pages, every cleaning
    configuration."""

    host: Host

    @initialize(ratio=st.sampled_from([0.0, 0.3, 1.0]), touch=st.booleans())
    def setup(self, ratio, touch):
        self.index = self.host.build(
            inspection_ratio=ratio, clean_upon_touch=touch
        )
        self.shadow = {}
        self.next_oid = 0

    @rule(p=points)
    def insert(self, p):
        self.host.insert(self.index, self.next_oid, p)
        self.shadow[self.next_oid] = p
        self.next_oid += 1

    @precondition(lambda self: self.shadow)
    @rule(pick=st.randoms(use_true_random=False), p=points)
    def update(self, pick, p):
        oid = pick.choice(sorted(self.shadow))
        self.host.update(self.index, oid, p)
        self.shadow[oid] = p

    @precondition(lambda self: self.shadow)
    @rule(pick=st.randoms(use_true_random=False))
    def delete(self, pick):
        oid = pick.choice(sorted(self.shadow))
        del self.shadow[oid]
        self.index.delete_object(oid)

    @rule()
    def clean(self):
        self.index.cleaner.run_full_cycle()

    @rule(lo=points, side=st.floats(min_value=0.05, max_value=0.5))
    def query_matches_oracle(self, lo, side):
        hi = tuple(min(0.999, c + side) for c in lo)
        got = sorted(self.host.query(self.index, lo, hi))
        assert got == _expected(self.host, self.shadow, lo, hi)


class MemoBTreeMachine(MemoHostMachine):
    host = HOSTS["btree"]


class MemoGridMachine(MemoHostMachine):
    host = HOSTS["grid"]


class MemoQuadtreeMachine(MemoHostMachine):
    host = HOSTS["quadtree"]


class RUMTreeMachine(MemoHostMachine):
    host = HOSTS["rum"]


_machine_settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)

TestMemoBTreeMachine = MemoBTreeMachine.TestCase
TestMemoBTreeMachine.settings = _machine_settings
TestMemoGridMachine = MemoGridMachine.TestCase
TestMemoGridMachine.settings = _machine_settings
TestMemoQuadtreeMachine = MemoQuadtreeMachine.TestCase
TestMemoQuadtreeMachine.settings = _machine_settings
TestRUMTreeMachine = RUMTreeMachine.TestCase
TestRUMTreeMachine.settings = _machine_settings


def _churn(host, index, shadow, rng, steps):
    for _ in range(steps):
        oid = rng.randrange(len(shadow))
        shadow[oid] = (rng.random(), rng.random())
        host.update(index, oid, shadow[oid])


@pytest.mark.parametrize("name", HOSTS)
def test_memo_drains_after_quiescent_cycles(name):
    """Section 4.1: the memo is proportional to the garbage, not to the
    objects.  Every insert leaves a memo entry; with no update in between,
    the first forced cycle removes all garbage, the second purges what the
    first's stamp sample proves phantom, the third what a split shielded."""
    host = HOSTS[name]
    index = host.build()
    rng = random.Random(16)
    shadow = {oid: (rng.random(), rng.random()) for oid in range(400)}
    for oid, p in shadow.items():
        host.insert(index, oid, p)
    _churn(host, index, shadow, rng, steps=5 * len(shadow))
    for _ in range(3):
        index.cleaner.run_full_cycle()
    assert index.garbage_count() == 0
    assert len(index.memo) == 0
    whole = ((0.0, 0.0), (1.0, 1.0))
    assert sorted(host.query(index, *whole)) == sorted(shadow)


@pytest.mark.parametrize("seed", [7, 99, 104, 1234])
@pytest.mark.parametrize("name", ["btree", "quadtree"])
def test_split_relocated_garbage_is_never_resurrected(name, seed):
    """Race 1 of docs/PHANTOM_INSPECTION.md on the transplants: a growing
    population keeps splitting leaves on both sides of the token while
    purges keep firing, and no object ever has two LATEST entries."""
    host = HOSTS[name]
    index = host.build(inspection_ratio=0.5, clean_upon_touch=False)
    rng = random.Random(seed)
    shadow = {}
    shielded = set()
    for _round in range(8):
        for oid in range(len(shadow), len(shadow) + 20):
            shadow[oid] = (rng.random(), rng.random())
            host.insert(index, oid, shadow[oid])
        _churn(host, index, shadow, rng, steps=60)
        shielded |= index.cleaner._purge_shield_current
        latest = Counter(
            oid
            for oid, stamp in index._stored_ids()
            if not index.memo.is_obsolete(oid, stamp)
        )
        assert set(latest.values()) == {1}, latest.most_common(3)
    assert shielded  # the splits did report the garbage they relocated
    assert index.cleaner.phantoms_purged > 0  # inspection did run
    whole = ((0.0, 0.0), (1.0, 1.0))
    assert sorted(host.query(index, *whole)) == sorted(shadow)
