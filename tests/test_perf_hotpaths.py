"""Tests for the hot-path storage optimisations.

Covers the precompiled codec kernels (round-trips at exact capacity and at
count 0 for all three entry layouts), the lazy leaf decode path, the
clean-page byte cache of the buffer pool, the resident-LRU corner cases,
the call-count pins of the insertion, query and served paths (and that
the gated benchmark's patch points still resolve and still lie on the
path), and the ``REPRO_BENCH_SCALE`` parsing warning.
"""

import socket
import threading
import warnings
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    SMALL_NODE,
    held_rect,
    populate,
    two_cluster_tree,
)
from repro import kernels
from repro.concurrency.locks import ReadWriteLock
from repro.experiments import harness
from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect
from repro.rtree import zorder
from repro.rtree.node import IndexEntry, LazyNode, LeafEntry, Node
from repro.serving import ServingClient, ShardRouter, ShardServer
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec
from repro.storage.disk import DiskManager
from repro.storage.iostats import IOStats


BENCH_STACK = Path(__file__).resolve().parent.parent / "benchmarks" / "stack"


def _leaf_entries(count, stamped=True):
    return [
        LeafEntry(
            Rect(0.01 * (i % 7), 0.01 * (i % 5), 0.5 + 0.001 * i, 0.9),
            oid=i,
            stamp=3 * i if stamped else 0,
        )
        for i in range(count)
    ]


def _index_entries(count):
    return [
        IndexEntry(Rect(0.0, 0.0, 0.001 * (i + 1), 0.002 * (i + 1)), i + 1)
        for i in range(count)
    ]


class TestCodecKernels:
    """Round-trips through the precompiled pack/unpack kernels."""

    @pytest.mark.parametrize("rum_leaves", [False, True])
    @pytest.mark.parametrize("node_size", [512, 1024, 4096])
    def test_leaf_roundtrip_at_exact_capacity(self, node_size, rum_leaves):
        codec = NodeCodec(node_size, rum_leaves=rum_leaves)
        entries = _leaf_entries(codec.leaf_cap, stamped=rum_leaves)
        node = Node(3, True, entries, prev_leaf=1, next_leaf=8)
        page = codec.encode(node)
        assert len(page) == node_size
        back = codec.decode(3, page)
        assert back.entries == entries
        assert (back.prev_leaf, back.next_leaf) == (1, 8)

    @pytest.mark.parametrize("node_size", [512, 1024, 4096])
    def test_index_roundtrip_at_exact_capacity(self, node_size):
        codec = NodeCodec(node_size)
        entries = _index_entries(codec.index_cap)
        node = Node(4, False, entries)
        back = codec.decode(4, codec.encode(node))
        assert not back.is_leaf
        assert back.entries == entries

    @pytest.mark.parametrize("rum_leaves", [False, True])
    def test_empty_nodes_all_layouts(self, rum_leaves):
        codec = NodeCodec(512, rum_leaves=rum_leaves)
        for is_leaf in (True, False):
            node = Node(9, is_leaf, [], prev_leaf=2, next_leaf=6)
            back = codec.decode(9, codec.encode(node))
            assert back.entries == []
            assert back.is_leaf == is_leaf
            if is_leaf:
                assert (back.prev_leaf, back.next_leaf) == (2, 6)


class TestLazyDecode:
    """A header-only leaf decode must be behaviour-transparent: every
    view of the lazy node equals the encoded ``Node`` model's."""

    @pytest.mark.parametrize("rum_leaves", [False, True])
    def test_lazy_equals_model(self, rum_leaves):
        codec = NodeCodec(1024, rum_leaves=rum_leaves)
        entries = _leaf_entries(codec.leaf_cap, stamped=rum_leaves)
        model = Node(5, True, entries, prev_leaf=3, next_leaf=7)
        lazy = codec.decode(5, codec.encode(model))
        assert isinstance(lazy, LazyNode)
        assert not lazy.materialized
        assert len(lazy) == len(model) == len(entries)
        assert lazy.mbr() == model.mbr()
        assert lazy.coord_block() == model.coord_block()
        assert not lazy.materialized  # header and page-image reads only
        assert lazy.entries == model.entries == entries
        assert lazy.materialized

    def test_lazy_reencodes_byte_identical(self):
        codec = NodeCodec(1024, rum_leaves=True)
        model = Node(5, True, _leaf_entries(10))
        page = codec.encode(model)
        lazy = codec.decode(5, page)
        assert lazy.cached_bytes == page  # clean page: image reusable
        lazy.cached_bytes = None
        assert codec.encode(lazy) == page
        model.cached_bytes = None
        assert codec.encode(model) == page

    def test_internal_pages_decode_eagerly(self):
        codec = NodeCodec(512)
        page = codec.encode(Node(2, False, _index_entries(4)))
        node = codec.decode(2, page)
        assert not isinstance(node, LazyNode)
        assert node.entries == _index_entries(4)

    def test_header_mutation_keeps_entries_thawable(self):
        # Ring-pointer updates dirty only the header; a still-frozen lazy
        # node must thaw the original entries afterwards.
        codec = NodeCodec(1024, rum_leaves=True)
        entries = _leaf_entries(6)
        page = codec.encode(Node(5, True, entries, prev_leaf=3, next_leaf=7))
        lazy = codec.decode(5, page)
        lazy.next_leaf = 42
        lazy.cached_bytes = None  # what mark_dirty does
        assert lazy.entries == entries
        back = codec.decode(5, codec.encode(lazy))
        assert back.next_leaf == 42
        assert back.entries == entries

    def test_entry_replacement_detaches_page_image(self):
        codec = NodeCodec(1024, rum_leaves=True)
        page = codec.encode(Node(5, True, _leaf_entries(6)))
        lazy = codec.decode(5, page)
        lazy.entries = _leaf_entries(2)
        assert lazy.materialized
        assert len(lazy) == 2
        lazy.cached_bytes = None
        assert codec.decode(5, codec.encode(lazy)).entries == _leaf_entries(2)


def _stack(leaf_cache_pages=0):
    stats = IOStats()
    disk = DiskManager(512)
    codec = NodeCodec(512, rum_leaves=True)
    return BufferPool(disk, codec, stats, leaf_cache_pages=leaf_cache_pages), stats


class TestCleanPageByteCache:
    """Never-dirtied pages are written back from their cached image."""

    def test_clean_page_reemits_original_bytes(self, monkeypatch):
        buffer, stats = _stack(leaf_cache_pages=1)
        with buffer.operation():
            node = buffer.new_node(is_leaf=True)
            node.entries.extend(_leaf_entries(4))
            buffer.mark_dirty(node)
        buffer.flush()
        original = buffer.disk.peek(node.page_id)
        buffer.drop_volatile()
        # Re-read the page; it stays clean, so an eviction-time write
        # must reuse the image without calling the codec.
        with buffer.operation():
            reread = buffer.get_node(node.page_id)
            assert reread.cached_bytes == original
        monkeypatch.setattr(
            buffer.codec,
            "encode",
            lambda *_: pytest.fail("clean page was re-encoded"),
        )
        assert buffer._page_bytes(reread) == original

    def test_mark_dirty_invalidates_cached_bytes(self):
        buffer, stats = _stack()
        with buffer.operation():
            node = buffer.new_node(is_leaf=True)
            node.entries.extend(_leaf_entries(2))
            buffer.mark_dirty(node)
        with buffer.operation():
            node = buffer.get_node(node.page_id)
            node.entries  # materialise before mutating
            assert node.cached_bytes is not None
            node.entries.append(_leaf_entries(3)[-1])
            buffer.mark_dirty(node)
            assert node.cached_bytes is None
        back = buffer.get_node(node.page_id)
        assert len(back) == 3  # mutated state reached the disk


class TestResidentLRUCorners:
    def test_dirty_bit_carried_lru_to_op_cache(self):
        buffer, stats = _stack(leaf_cache_pages=4)
        with buffer.operation():
            node = buffer.new_node(is_leaf=True)
            buffer.mark_dirty(node)
        pid = node.page_id
        assert pid in buffer._lru_dirty
        with buffer.operation():
            buffer.get_node(pid)
            # The pending write travels with the page into the op cache...
            assert pid in buffer._dirty_leaves
            assert pid not in buffer._lru_dirty
        # ...and back into the LRU at operation end, still unwritten.
        assert pid in buffer._lru_dirty
        assert stats.leaf_writes == 0
        buffer.flush()
        assert stats.leaf_writes == 1

    def test_eviction_order_after_recency_refresh(self):
        buffer, stats = _stack(leaf_cache_pages=2)
        with buffer.operation():
            a = buffer.new_node(is_leaf=True)
        with buffer.operation():
            b = buffer.new_node(is_leaf=True)
        with buffer.operation():
            buffer.get_node(a.page_id)  # refresh A: B becomes the LRU
        with buffer.operation():
            buffer.new_node(is_leaf=True)  # evicts B, not A
        stats.reset()
        with buffer.operation():
            buffer.get_node(a.page_id)
        assert stats.leaf_reads == 0  # A stayed resident
        with buffer.operation():
            buffer.get_node(b.page_id)
        assert stats.leaf_reads == 1  # B was the eviction victim

    def test_free_dirty_lru_page_never_writes(self):
        buffer, stats = _stack(leaf_cache_pages=4)
        with buffer.operation():
            node = buffer.new_node(is_leaf=True)
            node.entries.extend(_leaf_entries(2))
            buffer.mark_dirty(node)
        assert node.page_id in buffer._lru_dirty
        buffer.free_node(node)
        assert node.page_id not in buffer._lru
        assert node.page_id not in buffer._lru_dirty
        buffer.flush()
        assert stats.leaf_writes == 0
        assert not buffer.disk.is_allocated(node.page_id)


class TestInsertionKeepsItsDescent:
    """Call-count pins of the insertion path: the way up re-derives
    nothing the way down had in hand, and ChooseSubtree stops at its
    answer."""

    def test_covered_update_walks_up_on_what_the_descent_held(
        self, monkeypatch, mbr_calls
    ):
        tree = build_rum_tree(node_size=SMALL_NODE, inspection_ratio=0.0)
        positions = populate(tree, 300, seed=11)
        tree.cleaner.run_full_cycle()
        tree.cleaner.run_full_cycle()  # no garbage left to sweep
        assert tree.height == 3
        # An object strictly inside its leaf's MBR, put back where it is:
        # whichever covering leaf takes it has nothing to grow, and the
        # old entry, if swept, leaves no edge behind.
        oid, rect = next(
            (e.oid, e.rect)
            for leaf in tree.iter_leaf_nodes()
            for held in [held_rect(tree, leaf.page_id)]
            for e in leaf.entries
            if held.xmin < e.rect.xmin and e.rect.xmax < held.xmax
            and held.ymin < e.rect.ymin and e.rect.ymax < held.ymax
        )
        assert positions[oid] == rect
        lookups = []
        find_child_index = Node.find_child_index
        monkeypatch.setattr(
            Node, "find_child_index",
            lambda node, child: lookups.append(child)
            or find_child_index(node, child),
        )
        fetched = []
        get_node = tree.buffer.get_node
        monkeypatch.setattr(
            tree.buffer, "get_node",
            lambda page: fetched.append(get_node(page)) or fetched[-1],
        )
        del mbr_calls[:]
        tree.update_object(oid, rect, rect)
        assert lookups == [] and mbr_calls == []
        # The descent, root to leaf, and not one directory page after it.
        assert [node.is_leaf for node in fetched] == [False, False, True]
        assert fetched[0].page_id == tree.root_id
        tree.check_invariants()

    def test_one_overlap_delta_when_the_first_candidate_adds_none(
        self, monkeypatch
    ):
        tree, low, _cluster = two_cluster_tree()
        calls = []
        for name in (
            "area_rows", "least_enlargement", "enlargements", "overlap_delta",
        ):
            def counted(*args, _name=name, _kernel=getattr(kernels, name)):
                calls.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(kernels, name, counted)
        # Beside the low leaf, far from the other: no leaf covers it and
        # growing the nearer one meets nothing.
        tree.update_object(4, None, Rect.from_point(0.32, 0.2))
        # The last insert fell inside its leaf's MBR, so the root kept the
        # block, and with it the area order, that insert's descent built.
        assert calls == ["least_enlargement", "overlap_delta"]
        assert held_rect(tree, low) == Rect(0.1, 0.1, 0.32, 0.3)


class TestTracingStaysHonest:
    """``benchmarks/stack/layers.py`` times the ``kernels`` layer by
    wrapping every callable in ``kernels.__all__``: a kernel the tree
    calls but ``__all__`` does not list would be billed to its caller."""

    def test_every_kernel_a_module_calls_is_listed(self):
        import ast

        src = Path(kernels.__file__).resolve().parent
        called = {}
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "kernels"
                ):
                    called.setdefault(node.attr, path.name)
        assert {"area_rows", "least_enlargement"} <= set(called)
        assert {
            name: module for name, module in called.items()
            if name not in kernels.__all__
        } == {}


class TestQueryBuildsRowsOnlyForSurvivors:
    """Call-count pins of the RUM range query: a raw hit is never an
    object, and the memo is asked once per leaf, not once per entry."""

    def test_no_entry_decoded_and_one_memo_call_per_leaf_with_hits(
        self, monkeypatch
    ):
        tree = build_rum_tree(
            node_size=SMALL_NODE, clean_upon_touch=False, inspection_ratio=0.0
        )
        positions = populate(tree, 200, seed=21)
        for oid in range(0, 200, 3):
            tree.update_object(oid, None, positions[oid])  # garbage in place
        window = Rect(0.2, 0.2, 0.7, 0.7)
        visits = tree.explain_query(window).visits
        leaves_hit = sum(v.is_leaf and v.entries_matched > 0 for v in visits)
        raw_hits = sum(v.entries_matched for v in visits if v.is_leaf)
        assert leaves_hit > 3

        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        codec, memo = tree.buffer.codec, tree.memo
        for name in ("decode_entries_at", "decode_entries"):
            count(codec, name)
        for name in ("filter_latest", "latest_stamp", "check_status",
                     "is_obsolete"):
            count(memo, name)
        # The benchmark's tracer wraps range_search on the instance, and
        # its span is "one query on one tree": the body must enter the
        # walk through the attribute.
        count(tree, "range_search")
        lookups = memo.lookup_count
        rows = tree.search(window)
        assert calls == {"filter_latest": leaves_hit, "range_search": 1}
        assert memo.lookup_count - lookups == raw_hits > len(rows)
        assert sorted(oid for oid, _rect in rows) == sorted(
            oid for oid, rect in positions.items() if rect.intersects(window)
        )


class TestServedOpPaysForNoBookkeeping:
    """What a served update and a served query no longer call, as counts
    (they repeat exactly): one ``recv`` per frame on each side, no
    ``shard_region`` and no ``@contextmanager`` latch."""

    def test_call_counts_of_one_served_update_and_query(self, monkeypatch):
        counts = Counter()
        recv = socket.socket.recv

        def counted_recv(self, *args):
            data = recv(self, *args)
            # Tallied on return: the server is back in its next recv()
            # before the client has looked at this round trip's counts.
            counts["recv", threading.current_thread().name] += 1
            return data

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(socket.socket, "recv", counted_recv)
        monkeypatch.setattr(
            zorder, "shard_region",
            counting("shard_region", zorder.shard_region),
        )
        for mode in ("read", "write"):
            monkeypatch.setattr(
                ReadWriteLock, mode,
                counting("contextmanager", getattr(ReadWriteLock, mode)),
            )
        router = ShardRouter(4)
        rects = {
            oid: Rect(0.05 + 0.009 * oid, 0.1, 0.06 + 0.009 * oid, 0.11)
            for oid in range(100)
        }
        for oid, rect in rects.items():
            router.upsert(oid, rect)
        me = threading.current_thread().name
        with ShardServer(router) as server:
            with ServingClient(*server.address) as client:
                assert client.ping()  # the connection thread is up
                for oid in range(40):
                    counts.clear()
                    client.upsert(oid, rects[oid + 1])
                    # Client and server: one frame read, one recv, each.
                    assert sorted(counts.values()) == [1, 1], counts
                    assert counts["recv", me] == 1
                    counts.clear()
                    # 47 rows of one shard, then a four-shard fan-out.
                    for window in (Rect(0.05, 0.0, 0.47, 0.2),
                                   Rect(0.4, 0.4, 0.6, 0.6)):
                        rows = client.query(window)
                        assert sorted(counts.values()) == [1, 1], counts
                        assert counts["recv", me] == 1
                        counts.clear()
                assert len(rows) == 0 and router._targets(window) == [0, 1, 2, 3]
                assert len(client.query(Rect(0.05, 0.0, 0.47, 0.2))) == 47


class TestBenchmarkPatchPointsResolve:
    """``benchmarks/stack/layers.py`` wraps boundary calls by ``getattr``
    and may not change in a PR that claims a gain: a rename under it
    must fail here, not in the benchmark's traced pass."""

    @pytest.mark.parametrize(
        "workload", ["tree_query_churn", "durable_batch", "serve_mix"]
    )
    def test_every_patched_attribute_is_there(
        self, workload, monkeypatch, tmp_path
    ):
        pytest.importorskip("numpy")
        monkeypatch.syspath_prepend(str(BENCH_STACK))
        import layers
        import workloads

        patched = []
        passed = []  # serving spans a call went through, in order

        class Resolver:
            def patch(self, owner, attr, name, tally=None):
                original = getattr(owner, attr)
                assert callable(original), name
                patched.append(name)
                if name.startswith("serving."):
                    # As the traced pass does it: on the instance.
                    def through(*args, **kwargs):
                        passed.append(name)
                        return original(*args, **kwargs)

                    setattr(owner, attr, through)

        spec = workloads.SPEC_BY_NAME[workload]
        trace = workloads.Trace(spec, 3, workloads.SMOKE_OBJECTS)
        stack = workloads.build_stack(spec, trace.initial, tmp_path / "work")
        try:
            layers.instrument(Resolver(), stack, Counter())
            if spec.served:
                # The spans only mean something while the calls still lie
                # on the path of an op made the way the benchmark makes it.
                update, query = stack.ops()
                update(trace.initial[0])
                assert passed == [
                    "serving.server.request", "serving.router.upsert"
                ]
                del passed[:]
                query(Rect(0.2, 0.2, 0.3, 0.3))
                assert passed == [
                    "serving.server.request", "serving.router.query"
                ]
        finally:
            stack.close()
        assert {
            "rtree.base.range_search", "rtree.mirror.search",
            "storage.codec.decode_entries_at", "kernels.intersect_indices",
        } <= set(patched)
        memo_layer = "core.memo_lsm" if spec.batch else "core.memo"
        assert f"{memo_layer}.latest_stamp" in patched
        assert ("serving.router.query" in patched) == spec.served


def _load_script(name):
    """``scripts/<name>.py`` imported as a module."""
    import importlib.util

    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLocReport:
    def test_refuses_what_it_cannot_count(self, capsys):
        """``--help`` and a missing root ended in ``KeyError: 'total'``."""
        main = _load_script("loc_report").main
        for argv in (["--help"], ["no_such_dir"], ["no_such_file.py"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("usage: ")
        assert main(["src"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("src/\n") and "  total " in out


class TestBenchCompare:
    def _load_script(self):
        return _load_script("bench_compare")

    def _report(self, **ops):
        return {
            "schema": "bench_micro/v1",
            "scale": 1.0,
            "node_size": 8192,
            "metrics": {
                name: {"ops_per_sec": v, "iterations": 100}
                for name, v in ops.items()
            },
        }

    def test_flags_regressions_beyond_threshold(self, capsys):
        mod = self._load_script()
        base = self._report(a=1000.0, b=1000.0, c=1000.0)
        cur = self._report(a=1050.0, b=850.0, c=995.0)
        report = mod.compare(base, cur, threshold=0.10)
        assert report["regressions"] == 1
        assert report["metrics"]["b"]["status"] == "regressed"
        assert report["metrics"]["b"]["delta_pct"] == pytest.approx(-15.0)
        assert report["metrics"]["a"]["status"] == "ok"
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "b" in out

    def test_new_and_removed_metrics_never_fail(self, capsys):
        mod = self._load_script()
        base = self._report(a=1000.0, gone=500.0)
        cur = self._report(a=1000.0, fresh=700.0)
        report = mod.compare(base, cur, threshold=0.10)
        assert report["regressions"] == 0
        assert report["metrics"]["fresh"]["status"] == "new"
        assert report["metrics"]["gone"]["status"] == "removed"
        out = capsys.readouterr().out
        assert "NEW" in out and "REMOVED" in out

    def test_json_report_and_summary_line(self, tmp_path, capsys):
        mod = self._load_script()
        import json

        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        out_json = tmp_path / "cmp.json"
        base.write_text(json.dumps(self._report(a=1000.0, b=1000.0)))
        cur.write_text(json.dumps(self._report(a=400.0, b=1000.0)))
        rc = mod.main(
            [str(base), str(cur), "--json", str(out_json), "--fail-on-regress"]
        )
        assert rc == 1
        report = json.loads(out_json.read_text())
        assert report["schema"] == "bench_compare/v1"
        assert report["regressions"] == 1
        assert report["metrics"]["a"]["status"] == "regressed"
        out = capsys.readouterr().out
        assert "summary: 1 regression(s)" in out

    def test_delta_pct_percentile_summary(self, capsys):
        mod = self._load_script()
        # Deltas: -20%, -10%, 0%, +10%, +20% over shared metrics; the
        # new/removed entries must be excluded from the distribution.
        base = self._report(
            a=1000.0, b=1000.0, c=1000.0, d=1000.0, e=1000.0, gone=1.0
        )
        cur = self._report(
            a=800.0, b=900.0, c=1000.0, d=1100.0, e=1200.0, fresh=1.0
        )
        report = mod.compare(base, cur, threshold=0.50)
        summary = report["delta_pct_summary"]
        assert summary["count"] == 5
        assert summary["p50"] == pytest.approx(0.0)
        assert summary["p95"] == pytest.approx(18.0)  # interpolated
        assert summary["p99"] == pytest.approx(19.6)
        assert "delta distribution" in capsys.readouterr().out

    def test_percentile_helper_edges(self):
        mod = self._load_script()
        assert mod.percentile([], 0.5) == 0.0
        assert mod.percentile([7.0], 0.99) == 7.0
        assert mod.percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)

    def test_end_to_end_exit_codes(self, tmp_path):
        mod = self._load_script()
        import json

        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(self._report(a=1000.0)))
        cur.write_text(json.dumps(self._report(a=999.0)))
        assert mod.main([str(base), str(cur), "--fail-on-regress"]) == 0
        cur.write_text(json.dumps(self._report(a=500.0)))
        # Report-only by default; --fail-on-regress turns on the gate.
        assert mod.main([str(base), str(cur)]) == 0
        assert mod.main([str(base), str(cur), "--fail-on-regress"]) == 1
        # One schema: a report of any other suite is refused at load.
        cur.write_text(
            json.dumps({**self._report(a=999.0), "schema": "bench_batch/v1"})
        )
        with pytest.raises(SystemExit, match="unsupported schema"):
            mod.main([str(base), str(cur)])


class TestBenchScaleParsing:
    def test_valid_scale_no_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert harness.bench_scale() == 0.25

    def test_malformed_scale_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2x-typo")
        monkeypatch.setattr(harness, "_warned_bench_scales", set())
        with pytest.warns(RuntimeWarning, match="2x-typo"):
            assert harness.bench_scale() == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second call stays silent
            assert harness.bench_scale() == 1.0

    def test_scaled_falls_back_on_malformed(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "half")
        monkeypatch.setattr(harness, "_warned_bench_scales", set())
        with pytest.warns(RuntimeWarning):
            assert harness.scaled(1000) == 1000
