"""The FUR-tree baseline: bottom-up updates via a secondary index.

Re-implementation of the Frequently Updated R-tree of Lee et al. [11] as
described there and in Sections 2 and 4.2.2 of the RUM-tree paper
(Figure 1b).  An update:

1. reads the **secondary index** to find the leaf holding the old entry
   (1 index read);
2. tries to keep the new entry **in place**, extending the leaf MBR by a
   bounded amount if needed (total 3 I/Os: index read + leaf read + leaf
   write);
3. otherwise tries a **sibling** leaf under the same parent (6 I/Os:
   index read, original leaf read+write, sibling read+write, index write);
4. otherwise falls back to removing the old entry and performing a
   **top-down insertion** of the new one (7 I/Os in the paper's counting).

The secondary index must additionally be repaired whenever entries change
leaves because of splits, reinsertion, or condensation — the maintenance
overhead the paper points out; the ``_on_leaf_split`` / ``_on_entry_placed``
hooks below charge it faithfully.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.obs.metrics import UNPUBLISHED, republish
from repro.storage.buffer import BufferPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

from .base import RTreeBase
from .geometry import Rect
from .node import LeafEntry, Node
from .rstar import ObjectNotFoundError
from .secondary_index import SecondaryIndex


class FURTree(RTreeBase):
    """Frequently Updated R-tree [11] with bottom-up update processing.

    Parameters
    ----------
    buffer:
        Storage stack (shared counters record both leaf and index I/O).
    extension:
        Maximum distance by which a leaf MBR may be extended to keep an
        updated entry in its original node ("the MBRs of the leaf nodes
        are allowed to extend to accommodate object updates in their
        original nodes", Section 5).  Larger values favour cheap in-place
        updates but degrade search performance — the source of the
        FUR-tree's search-cost peak in Figure 12(b).
    """

    name = "FUR-tree"

    def __init__(
        self,
        buffer: BufferPool,
        *,
        extension: float = 0.01,
        **kwargs,
    ):
        if extension < 0:
            raise ValueError("extension must be non-negative")
        super().__init__(buffer, **kwargs)
        self.extension = extension
        self.index = SecondaryIndex(self.stats, buffer.codec.node_size)
        # Update-path statistics (Section 4.2.2 distinguishes the three
        # cases; the ablation benches report their mix).
        self.updates_in_place = 0
        self.updates_to_sibling = 0
        self.updates_top_down = 0
        self._obs_fur_published = UNPUBLISHED

    def attach_obs(self, obs: Optional["Observability"]) -> None:
        """Extend the base cascade with the bottom-up case mix (counters)
        and the secondary-index footprint (a gauge)."""
        super().attach_obs(obs)
        self._obs_fur_published = republish(self._obs_fur_published, obs, {
            "fur.updates_in_place": lambda: self.updates_in_place,
            "fur.updates_to_sibling": lambda: self.updates_to_sibling,
            "fur.updates_top_down": lambda: self.updates_top_down,
        }, {"fur.index_bytes": self.index.size_bytes})

    # ------------------------------------------------------------------
    # Secondary-index maintenance hooks
    # ------------------------------------------------------------------

    def _on_entry_placed(self, node: Node, entry: LeafEntry) -> None:
        self.index.assign(entry.oid, node.page_id)

    def _on_leaf_split(self, node: Node, sibling: Node) -> None:
        # Every entry that moved to the new sibling needs repointing; the
        # batched form charges one read+write per touched bucket page.
        self.index.assign_many(
            (e.oid, sibling.page_id) for e in sibling.entries
        )

    # ------------------------------------------------------------------
    # Operation bodies (entry points: RTreeBase; an insertion is the
    # base's — the placement hook registers it in the secondary index)
    # ------------------------------------------------------------------

    def _bottom_up_update(
        self, oid: int, old_rect: Optional[Rect], new_rect: Rect
    ) -> None:
        """Bottom-up update (Figure 1b); the secondary index stands in
        for ``old_rect``."""
        leaf_page = self.index.lookup(oid)
        if leaf_page is None:
            raise ObjectNotFoundError(oid)
        with self.buffer.operation():
            leaf = self.buffer.get_node(leaf_page)
            entry_idx = self._find_entry_index(leaf, oid)
            if entry_idx is None:
                raise ObjectNotFoundError(
                    f"secondary index stale for oid {oid}"
                )

            if self._try_in_place(leaf, entry_idx, new_rect):
                self.updates_in_place += 1
                return
            if self._try_sibling(leaf, entry_idx, oid, new_rect):
                self.updates_to_sibling += 1
                return
            self._top_down_fallback(leaf, entry_idx, oid, new_rect)
            self.updates_top_down += 1

    _update_body = _bottom_up_update

    def _bottom_up_delete(self, oid: int, old_rect: Optional[Rect]) -> None:
        """Bottom-up deletion: the index pinpoints the leaf directly."""
        leaf_page = self.index.lookup(oid)
        if leaf_page is None:
            raise ObjectNotFoundError(oid)
        with self.buffer.operation():
            leaf = self.buffer.get_node(leaf_page)
            entry_idx = self._find_entry_index(leaf, oid)
            if entry_idx is None:
                raise ObjectNotFoundError(oid)
            del leaf.entries[entry_idx]
            self.buffer.mark_dirty(leaf)
            self.index.remove(oid)
            self._condense(leaf)

    _delete_body = _bottom_up_delete

    # ------------------------------------------------------------------
    # The three bottom-up cases
    # ------------------------------------------------------------------

    @staticmethod
    def _find_entry_index(leaf: Node, oid: int) -> Optional[int]:
        for i, entry in enumerate(leaf.entries):
            if entry.oid == oid:
                return i
        return None

    def _leaf_region(self, leaf: Node) -> Optional[Rect]:
        """The MBR the directory currently advertises for ``leaf``."""
        if leaf.page_id == self.root_id:
            return None  # root-as-leaf accepts anything
        parent = self.buffer.get_node(self.parent[leaf.page_id])
        return parent.entries[parent.find_child_index(leaf.page_id)].rect

    def _try_in_place(
        self, leaf: Node, entry_idx: int, new_rect: Rect
    ) -> bool:
        """Case 1: keep the entry in its leaf, extending the MBR if the new
        position lies within the allowed extension band."""
        region = self._leaf_region(leaf)
        if region is not None and not region.expanded(
            self.extension
        ).contains(new_rect):
            return False
        old = leaf.entries[entry_idx]
        leaf.entries[entry_idx] = LeafEntry(new_rect, old.oid, old.stamp)
        self.buffer.mark_dirty(leaf)
        self._adjust_upward(leaf)
        return True

    def _try_sibling(
        self, leaf: Node, entry_idx: int, oid: int, new_rect: Rect
    ) -> bool:
        """Case 2: move the entry to a sibling leaf under the same parent
        whose region already covers (or nearly covers) the new position."""
        if leaf.page_id == self.root_id:
            return False
        parent = self.buffer.get_node(self.parent[leaf.page_id])
        best_child: Optional[int] = None
        best_area = float("inf")
        for entry in parent.entries:
            if entry.child_id == leaf.page_id:
                continue
            if entry.rect.expanded(self.extension).contains(new_rect):
                if entry.rect.area() < best_area:
                    best_area = entry.rect.area()
                    best_child = entry.child_id
        if best_child is None:
            return False
        sibling = self.buffer.get_node(best_child)
        if len(sibling.entries) >= self.leaf_cap:
            return False  # full sibling: let the fallback handle it
        if len(leaf.entries) - 1 < self.min_leaf:
            return False  # removal would underflow: fallback handles it

        old = leaf.entries.pop(entry_idx)
        self.buffer.mark_dirty(leaf)
        sibling.entries.append(LeafEntry(new_rect, old.oid, old.stamp))
        self.buffer.mark_dirty(sibling)
        self._adjust_upward(leaf)
        self._adjust_upward(sibling)
        self.index.assign(oid, sibling.page_id, bucket_in_hand=True)
        return True

    def _top_down_fallback(
        self, leaf: Node, entry_idx: int, oid: int, new_rect: Rect
    ) -> None:
        """Case 3: delete from the (known) original leaf and reinsert the
        new entry with the standard top-down insertion."""
        del leaf.entries[entry_idx]
        self.buffer.mark_dirty(leaf)
        self._condense(leaf)
        self.insert(new_rect, oid)  # placement hook repoints the index

    # ------------------------------------------------------------------

    def _drift_update_predicted(self, tracker) -> float:
        """``IO_BU`` (Section 4.2.2) evaluated at the *measured* case mix.

        The paper's bottom-up model is parameterised by the probabilities
        of the three placement cases; the live tree knows its actual mix,
        so the drift monitor compares the measured EWMA against the model
        at those probabilities (0.0 before the first update — the ratio
        gauge stays 0 until there are samples anyway).
        """
        from repro.analysis.cost_model import expected_bottomup_update_io

        in_place, sibling, top_down = self.update_case_mix()
        total = in_place + sibling + top_down
        if total == 0:
            return 0.0
        return expected_bottomup_update_io(
            in_place / total, sibling / total
        )

    def update_case_mix(self) -> Tuple[int, int, int]:
        """Counts of (in-place, sibling, top-down) updates processed."""
        return (
            self.updates_in_place,
            self.updates_to_sibling,
            self.updates_top_down,
        )
