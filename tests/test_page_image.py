"""The update path edits leaves as page images; these tests hold the
reference it replaced.

* a lazily decoded leaf edited through ``add_entry`` / ``drop_slots`` /
  ring-pointer changes must encode to exactly the bytes of the object
  model (``NodeCodec.encode(Node(...))``) after every step, and thaw to
  the same entries;
* ``memo.sweep_obsolete`` must leave the memo, its tallies and the counted
  memo I/O exactly where the per-entry ``latest_stamp`` + ``note_cleaned``
  loop it replaced would have, on both memo implementations;
* an update that neither sweeps nor splits, and a cleaner step over a
  clean leaf, must not materialise the leaf;
* a fixed-seed replay must produce the pages, the counted I/O and the memo
  probe tally recorded on the commit before this path existed;
* the query mirror's wait adapts to how long mirrors survive.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency.racecheck import RaceChecker, activate, deactivate
from repro.core.memo import UpdateMemo
from repro.core.memo_lsm import SpillingUpdateMemo
from repro.factory import build_rum_tree
from repro.rtree.base import MIRROR_QUERY_STREAK
from repro.rtree.geometry import Rect
from repro.rtree.node import LazyNode, LeafEntry, Node
from repro.storage.codec import NodeCodec
from repro.storage.iostats import IOSnapshot, IOStats
from repro.storage.wal import UM_ENTRY_BYTES
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

# ---------------------------------------------------------------------------
# (a) page-image edits vs. the object model
# ---------------------------------------------------------------------------

_COORD = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
_ID = st.integers(min_value=0, max_value=2**40)


@st.composite
def _entry(draw):
    x1, x2 = sorted((draw(_COORD), draw(_COORD)))
    y1, y2 = sorted((draw(_COORD), draw(_COORD)))
    return LeafEntry(Rect(x1, y1, x2, y2), draw(_ID), draw(_ID))


_STEP = st.one_of(
    st.tuples(st.just("add"), _entry()),
    st.tuples(st.just("drop"), st.lists(st.integers(0, 63), max_size=4)),
    st.tuples(st.just("ring"), st.tuples(st.integers(-1, 99), st.integers(-1, 99))),
    st.tuples(st.just("fill"), _entry()),
    st.tuples(st.just("thaw"), st.none()),
)


def _bits(rect):
    return [x.hex() for x in rect]


@pytest.mark.parametrize("checksums", [False, True])
@given(initial=st.lists(_entry(), max_size=8), steps=st.lists(_STEP, max_size=12))
@settings(max_examples=60, deadline=None)
def test_page_image_edits_match_object_model(checksums, initial, steps):
    codec = NodeCodec(512, rum_leaves=True, checksums=checksums)  # 8 slots
    model = Node(7, True, list(initial), prev_leaf=3, next_leaf=4)
    leaf = codec.decode(7, codec.encode(model))
    thawed = False
    for kind, arg in steps:
        if kind == "add":
            if len(model) >= codec.leaf_cap:
                continue  # a full page thaws: covered by "fill"
            model.add_entry(arg)
            leaf.add_entry(arg)
        elif kind == "drop":
            slots = sorted({s for s in arg if s < len(model)})
            model.drop_slots(slots)
            leaf.drop_slots(slots)
        elif kind == "ring":
            model.prev_leaf, model.next_leaf = arg
            leaf.prev_leaf, leaf.next_leaf = arg
        elif kind == "fill":
            while len(model) < codec.leaf_cap:
                model.add_entry(arg)
                leaf.add_entry(arg)
            assert thawed or not leaf.materialized
        else:
            assert leaf.entries == model.entries
            thawed = True
        leaf.cached_bytes = leaf.columns = None  # what mark_dirty does
        assert leaf.materialized == thawed
        assert len(leaf) == len(model)
        assert leaf.id_columns() == model.id_columns()
        if len(model):
            assert _bits(leaf.mbr()) == _bits(model.mbr())
        assert codec.encode(leaf) == codec.encode(model)
    # A thaw after any prefix of edits yields the model's entries.
    again = codec.decode(7, codec.encode(leaf))
    assert again.entries == model.entries
    assert leaf.entries == model.entries


def test_add_entry_to_a_full_page_thaws():
    codec = NodeCodec(512, rum_leaves=True)
    entries = [LeafEntry(Rect(0.1, 0.1, 0.2, 0.2), i, i) for i in range(8)]
    leaf = codec.decode(1, codec.encode(Node(1, True, entries)))
    extra = LeafEntry(Rect(0.3, 0.3, 0.4, 0.4), 99, 99)
    leaf.add_entry(extra)
    assert leaf.materialized
    assert leaf.entries == entries + [extra]  # the split path takes over


def test_classic_leaf_page_image_edits():
    codec = NodeCodec(512)
    entries = [LeafEntry(Rect(0.1 * i, 0.1, 0.1 * i + 0.05, 0.2), i) for i in range(5)]
    model = Node(1, True, list(entries))
    leaf = codec.decode(1, codec.encode(model))
    extra = LeafEntry(Rect(0.0, 0.0, 0.9, 0.9), 42)
    for node in (model, leaf):
        node.add_entry(extra)
        node.drop_slots([1, 3])
    assert not leaf.materialized
    assert _bits(leaf.mbr()) == _bits(model.mbr())
    assert codec.encode(leaf) == codec.encode(model)
    assert leaf.id_columns() == model.id_columns()  # thaws: no stamp words


# ---------------------------------------------------------------------------
# (b) the memo sweep vs. the per-entry loop it replaced
# ---------------------------------------------------------------------------


def _reference_sweep(memo, oids, stamps, budget):
    """``RUMTree.clean_leaf``'s sweep as it was: one ``latest_stamp`` per
    entry while the budget lasts, one ``note_cleaned`` per removal."""
    slots = []
    for slot, (oid, stamp) in enumerate(zip(oids, stamps)):
        if len(slots) < budget:
            s_latest = memo.latest_stamp(oid)
            if s_latest is not None and stamp != s_latest:
                memo.note_cleaned(oid)
                slots.append(slot)
    return slots


def _state(memo, stats):
    return (
        sorted(e.as_tuple() for e in memo),
        memo.lookup_count,
        memo.hit_count,
        getattr(memo, "run_probe_count", 0),
        getattr(memo, "bloom_fp_count", 0),
        stats.memo_reads,
        stats.memo_writes,
    )


def _memo_pair(kind, tmp_path_factory):
    """Two identical empty memos with their IOStats."""
    out = []
    for _ in range(2):
        stats = IOStats()
        if kind == "ram":
            memo = UpdateMemo()
        else:
            memo = SpillingUpdateMemo(
                tmp_path_factory.mktemp("memo"),
                spill_budget=3 * UM_ENTRY_BYTES,
                stats=stats,
            )
        out.append((memo, stats))
    return out


_SWEEP_OID = st.integers(min_value=0, max_value=11)
_HISTORY = st.lists(_SWEEP_OID, max_size=40)
_LEAF = st.lists(
    st.tuples(_SWEEP_OID, st.sampled_from(["latest", "old", "older"])),
    max_size=12,
)


@pytest.mark.parametrize("racecheck", [False, True])
@pytest.mark.parametrize("kind", ["ram", "spill", "spill_reopened"])
@given(history=_HISTORY, leaf=_LEAF, budget=st.integers(-1, 13))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_per_entry_loop(
    tmp_path_factory, kind, racecheck, history, leaf, budget
):
    (new, new_stats), (ref, ref_stats) = _memo_pair(
        "ram" if kind == "ram" else "spill", tmp_path_factory
    )
    versions = {}
    for stamp, oid in enumerate(history, start=1):
        new.record_update(oid, stamp)
        ref.record_update(oid, stamp)
        versions.setdefault(oid, []).append(stamp)
    if kind == "spill_reopened":
        reopened = []
        for memo, stats in ((new, new_stats), (ref, ref_stats)):
            memo.flush_ram()
            memo.close()
            reopened.append(
                SpillingUpdateMemo(
                    memo.directory,
                    spill_budget=3 * UM_ENTRY_BYTES, stats=stats,
                )
            )
        new, ref = reopened
    oids, stamps = [], []
    for oid, which in leaf:
        seen = versions.get(oid, [])
        back = {"latest": 1, "old": 2, "older": 3}[which]
        oids.append(oid)
        stamps.append(seen[-back] if len(seen) >= back else 0)
    assert _state(new, new_stats) == _state(ref, ref_stats)
    if racecheck:
        activate(RaceChecker())
    try:
        got = new.sweep_obsolete(oids, stamps, budget)
    finally:
        deactivate()
    want = _reference_sweep(ref, oids, stamps, budget)
    assert got == want
    assert _state(new, new_stats) == _state(ref, ref_stats)


@pytest.mark.parametrize("kind", ["ram", "spill"])
def test_sweep_short_move_two_entries_of_one_oid(tmp_path_factory, kind):
    # The common short move: the old entry and its replacement share a
    # leaf.  Removing the old one drains the memo entry, so the probe for
    # the new one must *miss* (a hit would count a phantom lookup).
    (memo, stats), (ref, ref_stats) = _memo_pair(kind, tmp_path_factory)
    for m in (memo, ref):
        m.record_update(5, 10)
        m.record_update(5, 11)
        m.note_cleaned(5)  # the phantom of the first insert is gone
    oids, stamps = [3, 5, 4, 5], [1, 10, 1, 11]
    assert memo.sweep_obsolete(oids, stamps, 4) == [1]
    assert _reference_sweep(ref, oids, stamps, 4) == [1]
    assert memo.get(5) is None
    assert _state(memo, stats) == _state(ref, ref_stats)


def test_sweep_reports_its_bucket_accesses_to_the_race_detector():
    class Recorder:
        def __init__(self):
            self.seen = []

        def access(self, obj, field, write):
            self.seen.append((field, write))

    seen = []
    for sweep in (UpdateMemo.sweep_obsolete, _reference_sweep):
        memo = UpdateMemo()
        for oid in (1, 2, 3):
            memo.record_update(oid, 10 + oid)
            memo.record_update(oid, 20 + oid)
        recorder = activate(Recorder())
        try:
            # Budget 2: slot 3 is never probed, so bucket[3] is never
            # touched.
            assert sweep(memo, [1, 9, 2, 3], [11, 1, 12, 13], 2) == [0, 2]
        finally:
            deactivate()
        seen.append(sorted(recorder.seen))
    assert seen[0] == seen[1]
    assert ("bucket[1]", True) in seen[0] and ("bucket[3]", False) not in seen[0]


def test_sweep_budget_and_empty_leaf():
    memo = UpdateMemo()
    for oid in (1, 2, 3):
        memo.record_update(oid, 10 + oid)
        memo.record_update(oid, 20 + oid)
    oids, stamps = [1, 9, 2, 3], [11, 1, 12, 13]
    assert memo.sweep_obsolete(oids, stamps, 0) == []
    assert memo.sweep_obsolete(oids, stamps, -3) == []
    assert memo.sweep_obsolete([], [], 5) == []
    assert memo.lookup_count == 0
    # Budget exhausted mid-leaf: the third obsolete entry is not probed.
    assert memo.sweep_obsolete(oids, stamps, 2) == [0, 2]
    assert memo.lookup_count == 3 and memo.hit_count == 2
    assert memo.get(3).n_old == 2


# ---------------------------------------------------------------------------
# Leaves stay page images on the hot paths
# ---------------------------------------------------------------------------


def _loaded_tree(n=600, seed=4, **kwargs):
    tree = build_rum_tree(node_size=1024, **kwargs)
    objects = default_network_workload(n, moving_distance=0.02, seed=seed)
    for oid, rect in objects.initial():
        tree.insert_object(oid, rect)
    return tree, objects


def test_plain_update_and_clean_step_do_not_thaw(monkeypatch):
    tree, objects = _loaded_tree()
    tree.cleaner.run_full_cycle()
    tree.cleaner.run_full_cycle()  # no garbage, no phantoms left
    thaws = []
    decode_entries = tree.buffer.codec.decode_entries
    monkeypatch.setattr(
        tree.buffer.codec, "decode_entries",
        lambda *a: thaws.append(a) or decode_entries(*a),
    )
    touched = []
    on_entry_placed = tree._on_entry_placed
    monkeypatch.setattr(
        tree, "_on_entry_placed",
        lambda node, entry: touched.append(node) or on_entry_placed(node, entry),
    )
    # An update whose leaf has room and holds nothing obsolete.
    for _ in range(200):
        oid, old, new = objects.next_update()
        before = (tree.num_leaf_nodes(), tree.cleaner.entries_removed, len(thaws))
        tree.update_object(oid, old, new)
        if before[:2] == (tree.num_leaf_nodes(), tree.cleaner.entries_removed):
            break
    else:  # pragma: no cover - the workload always has such an update
        pytest.fail("no update without a sweep hit or a split")
    leaf = touched[-1]
    assert isinstance(leaf, LazyNode) and not leaf.materialized
    assert len(thaws) == before[2]

    # A token step over a clean leaf: nothing decoded, nothing written.
    clean = build_rum_tree(node_size=1024)
    for oid in range(60):
        clean.insert_object(oid, Rect(0.01 * oid, 0.5, 0.01 * oid, 0.5))
    clean.cleaner.run_full_cycle()
    clean.cleaner.run_full_cycle()
    monkeypatch.setattr(
        clean.buffer.codec, "decode_entries",
        lambda *a: pytest.fail("a clean step thawed its leaf"),
    )
    writes = clean.stats.leaf_writes
    removed = clean.cleaner.entries_removed
    clean.cleaner.run_full_cycle()
    assert clean.cleaner.entries_removed == removed
    assert clean.stats.leaf_writes == writes


# ---------------------------------------------------------------------------
# (d) golden replay
# ---------------------------------------------------------------------------

# Recorded on the parent commit (2f89b67, per-entry sweep, thawing insert).
GOLDEN_SHA256 = (
    "a41351819c688a0c4c0653aeefe5d0305918bdfb328817166644d855ddbe897d"
)
GOLDEN_IO = IOSnapshot(
    leaf_reads=19864, leaf_writes=16454, internal_writes=7
)
GOLDEN_LOOKUPS = 700866


def test_golden_replay_pages_io_and_probes():
    tree = build_rum_tree(node_size=2048)
    objects = default_network_workload(5000, moving_distance=0.02, seed=12)
    windows = RangeQueryGenerator(side=0.05, seed=13)
    for oid, rect in objects.initial():
        tree.insert_object(oid, rect)
    for i in range(10_000):
        oid, old, new = objects.next_update()
        tree.update_object(oid, old, new)
        if i % 20 == 0:
            tree.search(windows.next_query())
    tree.buffer.flush()
    digest = hashlib.sha256()
    disk = tree.buffer.disk
    for page_id in disk.page_ids():
        digest.update(page_id.to_bytes(8, "little"))
        digest.update(disk.peek(page_id))
    assert tree.stats.snapshot() == GOLDEN_IO
    assert tree.memo.lookup_count == GOLDEN_LOOKUPS
    assert digest.hexdigest() == GOLDEN_SHA256
    tree.check_invariants()


# ---------------------------------------------------------------------------
# Adaptive mirror wait
# ---------------------------------------------------------------------------


def _count_builds(monkeypatch):
    import repro.rtree.mirror as mirror_module

    builds = []
    build = mirror_module.build_mirror
    monkeypatch.setattr(
        mirror_module, "build_mirror",
        lambda *a: builds.append(1) or build(*a),
    )
    return builds


def test_mirror_wait_adapts_under_churn(monkeypatch):
    tree, objects = _loaded_tree(n=1500, seed=9)
    windows = RangeQueryGenerator(side=0.05, seed=21)
    builds = _count_builds(monkeypatch)
    mix = random.Random(85)
    for _ in range(2000):
        if mix.random() < 0.85:
            tree.search(windows.next_query())
        else:
            tree.update_object(*objects.next_update())
    assert len(builds) <= 4  # ~20 with a fixed 16-query wait


def test_mirror_builds_after_exactly_the_streak_and_resets(monkeypatch):
    tree, objects = _loaded_tree(n=400, seed=2)
    windows = RangeQueryGenerator(side=0.05, seed=3)
    builds = _count_builds(monkeypatch)

    def queries(n):
        for _ in range(n):
            tree.search(windows.next_query())

    queries(MIRROR_QUERY_STREAK - 1)
    assert not builds
    queries(1)
    assert len(builds) == 1  # a pure query stream: exactly the streak

    # The mirror dies having served one query: the wait doubles.
    tree.update_object(*objects.next_update())
    queries(2 * MIRROR_QUERY_STREAK - 1)
    assert len(builds) == 1
    queries(1)
    assert len(builds) == 2

    # This one pays off (serves at least what it waited for): the next
    # mirror is again one plain streak away.
    queries(2 * MIRROR_QUERY_STREAK)
    tree.update_object(*objects.next_update())
    queries(MIRROR_QUERY_STREAK - 1)
    assert len(builds) == 2
    queries(1)
    assert len(builds) == 3
