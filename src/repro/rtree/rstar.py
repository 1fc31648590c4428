"""The R*-tree baseline with top-down updates.

This is the paper's first comparison point (Figure 1a): an update is a
separate top-down *search & delete* of the old entry followed by a
single-path *insert* of the new entry.  The deletion search is the costly
part — it may follow multiple paths because R-tree node MBRs overlap — and
is exactly what the RUM-tree's memo-based approach eliminates.

The *moving-object index* protocol the experiment harness drives all three
trees through (``insert_object`` / ``update_object`` / ``delete_object`` /
``search``) lives on :class:`RTreeBase`; this class supplies its top-down
update and delete bodies.
"""

from __future__ import annotations

from typing import Optional

from .base import RTreeBase
from .geometry import Rect


class ObjectNotFoundError(KeyError):
    """Raised when a top-down update cannot locate the old entry."""


class RStarTree(RTreeBase):
    """R*-tree [1] indexing the current positions of moving objects."""

    name = "R*-tree"

    # -- operation bodies (entry points: RTreeBase) -------------------------

    def _top_down_update(self, oid: int, old_rect: Rect, new_rect: Rect) -> None:
        """Top-down update: search & delete the old entry, insert the new.

        ``old_rect`` must be the exact MBR currently stored for ``oid`` —
        the classic approach requires the old value, one of the maintenance
        burdens the RUM-tree removes (Section 3.2.1).

        Deletion and insertion run as two separate disk operations, so the
        cost matches the paper's accounting ``IO_TD = IO_search + 3``
        (Section 4.2.1) even when the object stays in the same leaf.
        """
        self._top_down_delete(oid, old_rect)
        self.insert(new_rect, oid)

    _update_body = _top_down_update

    def _top_down_delete(self, oid: int, old_rect: Rect) -> None:
        """Remove an object entirely (top-down search & delete)."""
        if not self.delete(oid, old_rect):
            raise ObjectNotFoundError(oid)

    _delete_body = _top_down_delete

    def lookup(self, oid: int, rect: Rect) -> Optional[Rect]:
        """Return the stored MBR for ``oid`` (testing aid)."""
        with self.buffer.operation():
            found = self._find_leaf_entry(oid, rect)
        return found[0].entries[found[1]].rect if found else None
