"""Runtime structural invariant validator for the trees.

:func:`check_tree` walks a tree (classic R-tree or RUM-tree) and raises
:class:`InvariantViolation` on the first structural inconsistency.  It is
the oracle behind ``RTreeBase.check_invariants()``, is called directly by
the test suite on deliberately corrupted trees, and runs inside the
crash-simulation harness after every recovery option so that structural
corruption — not just lost or ghost objects — fails the crash matrix.

Checked invariant classes:

* **Fanout bounds** — every non-root node holds between the declared
  minimum and the capacity for its kind (leaf/index).
* **MBR containment** — every directory entry's rectangle equals (hence
  contains) the MBR of its child subtree, and the parent directory maps
  each child back to the node that references it.
* **Balance** — all leaves sit at the same depth, and that depth matches
  the tree's recorded height.
* **Leaf ring** — when the tree maintains the circular leaf ring, the
  ring visits every leaf exactly once with consistent back-pointers.
* **Memo consistency (Sec. 3, Lemma 1)** — for a RUM-tree, per object:
  at most one leaf entry is classified LATEST, the number of OBSOLETE
  leaf entries never exceeds the memo's ``N_old`` upper bound, and no
  leaf stamp exceeds the memo's ``S_latest``.
* **Stamp monotonicity** — every leaf stamp is strictly below the stamp
  counter's next value, so recovered counters cannot re-issue a stamp
  that is already in the tree.

The validator reads pages through the buffer pool's uncounted read
(``BufferPool.peek_node``), so calling it never perturbs the I/O
accounting that the experiments measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from repro import kernels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtree.base import RTreeBase
    from repro.rtree.geometry import Rect
    from repro.rtree.node import Node


class InvariantViolation(AssertionError):
    """A structural invariant does not hold.

    Subclasses ``AssertionError`` so call sites that predate the
    validator (``check_invariants()`` users, pytest.raises blocks) keep
    working unchanged.
    """


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def _check_structure(tree: "RTreeBase") -> List[int]:
    """Fanout, MBR containment, parent directory, balance.

    Returns the page ids of all leaves, in visit order, for the ring
    check.
    """
    leaf_depths: Set[int] = set()
    leaf_ids: List[int] = []

    def visit(node: "Node", depth: int) -> "Rect":
        if node.is_leaf:
            leaf_depths.add(depth)
            leaf_ids.append(node.page_id)
        if node.page_id != tree.root_id:
            cap = tree.leaf_cap if node.is_leaf else tree.index_cap
            minimum = tree.min_leaf if node.is_leaf else tree.min_index
            if not minimum <= len(node.entries) <= cap:
                _fail(
                    f"node {node.page_id}: {len(node.entries)} entries "
                    f"outside [{minimum}, {cap}]"
                )
        if not node.is_leaf:
            # ``RTreeBase._set_child`` patches a cached block and its area
            # rows in place: both must match a rebuild, and rows never
            # outlive their block.
            block, rows = node.columns, node.area_rows
            if rows is not None and (
                block is None or rows != kernels.area_rows(block)
            ) or block is not None and (
                block != kernels.block_from_entries(node.entries)
            ):
                _fail(f"node {node.page_id}: cached block or rows are stale")
            for entry in node.entries:
                if tree.parent.get(entry.child_id) != node.page_id:
                    _fail(
                        f"parent directory stale for child {entry.child_id}"
                    )
                child = tree.buffer.peek_node(entry.child_id)
                child_mbr = visit(child, depth + 1)
                if entry.rect != child_mbr:
                    _fail(
                        f"directory MBR of child {entry.child_id} is stale"
                    )
        return node.mbr()

    root = tree.buffer.peek_node(tree.root_id)
    if root.entries:
        visit(root, 0)
        if len(leaf_depths) > 1:
            _fail("tree is not height-balanced")
        if leaf_depths and leaf_depths != {tree.height - 1}:
            _fail(
                f"height {tree.height} but leaves at depth {leaf_depths}"
            )
    return leaf_ids


def _check_ring(tree: "RTreeBase", expected: Set[int]) -> None:
    """The circular leaf ring visits every leaf exactly once."""
    start = next(iter(expected))
    seen: Set[int] = set()
    current = start
    for _ in range(len(expected) + 1):
        if current not in expected:
            _fail(f"ring visits foreign page {current}")
        if current in seen:
            _fail(f"ring revisits page {current}")
        seen.add(current)
        node = tree.buffer.peek_node(current)
        successor = tree.buffer.peek_node(node.next_leaf)
        if successor.prev_leaf != current:
            _fail(f"ring back-pointer broken at {node.next_leaf}")
        current = node.next_leaf
        if current == start:
            break
    if seen != expected:
        _fail(f"ring covers {len(seen)} of {len(expected)} leaves")


def _check_memo(tree: "RTreeBase") -> None:
    """Memo-vs-leaf consistency and stamp monotonicity (RUM trees)."""
    memo = tree.memo  # type: ignore[attr-defined]
    stamps = tree.stamps  # type: ignore[attr-defined]
    next_stamp = stamps.current
    latest_seen: Set[int] = set()
    obsolete_counts: Dict[int, int] = {}
    for entry in tree.iter_leaf_entries():
        if entry.stamp >= next_stamp:
            _fail(
                f"leaf entry (oid={entry.oid}, stamp={entry.stamp}) is "
                f"stamped at or above the counter's next stamp "
                f"{next_stamp}; a reused stamp would break the "
                f"latest/obsolete ordering"
            )
        um = memo.get(entry.oid)
        if um is not None and entry.stamp > um.s_latest:
            _fail(
                f"leaf entry (oid={entry.oid}, stamp={entry.stamp}) is "
                f"newer than the memo's S_latest={um.s_latest}; the "
                f"memo missed an update"
            )
        if memo.check_status(entry.oid, entry.stamp) == "LATEST":
            if entry.oid in latest_seen:
                _fail(
                    f"oid {entry.oid} has more than one LATEST leaf "
                    f"entry; queries would return duplicates"
                )
            latest_seen.add(entry.oid)
        else:
            obsolete_counts[entry.oid] = (
                obsolete_counts.get(entry.oid, 0) + 1
            )
    for oid, count in obsolete_counts.items():
        um = memo.get(oid)
        n_old = 0 if um is None else um.n_old
        if count > n_old:
            _fail(
                f"oid {oid} has {count} obsolete leaf entries but the "
                f"memo bounds them at N_old={n_old} (Lemma 1 violated: "
                f"the cleaner could never drain them)"
            )


def check_tree(tree: "RTreeBase") -> None:
    """Validate every structural invariant of ``tree``.

    Raises :class:`InvariantViolation` (an ``AssertionError`` subclass)
    describing the first violation found; returns ``None`` on a healthy
    tree.  Works on any :class:`~repro.rtree.base.RTreeBase`; the memo
    and stamp checks engage automatically when the tree carries a
    ``memo``/``stamps`` pair (i.e. for RUM trees).
    """
    leaf_ids = _check_structure(tree)
    if tree.maintain_leaf_ring and leaf_ids:
        _check_ring(tree, set(leaf_ids))
    if getattr(tree, "memo", None) is not None and getattr(
        tree, "stamps", None
    ) is not None:
        _check_memo(tree)
