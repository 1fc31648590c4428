"""Disk-resident secondary index (oid -> leaf page) for the FUR-tree.

The bottom-up update approach of Lee et al. [11] locates the leaf node of
the old entry through a hash table on object identifiers.  The paper
emphasises two costs of this structure that the RUM-tree avoids:

* it has **one entry per object**, so it is far larger than the Update
  Memo (Figure 12d compares the sizes);
* it must be **updated whenever an object changes leaf node**, adding disk
  accesses to the update path (Section 4.2.2 charges 1 read per lookup and
  1 write per repointing).

This implementation is a bucketed hash directory with page-granular cost
accounting on the ``index_reads`` / ``index_writes`` channels.  With
:data:`N_BUCKETS` buckets each bucket fits one page at the evaluated
populations, matching the paper's unit costs; oversized buckets charge
their extra chain pages.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.storage.iostats import IOStats

#: On-disk bytes per (oid, leaf page id) mapping.
INDEX_ENTRY_BYTES = 16

#: Buckets of the hash directory (an oid lives in ``oid % N_BUCKETS``).
N_BUCKETS = 1024


class SecondaryIndex:
    """Hash directory mapping object id to the leaf page holding its entry."""

    def __init__(self, stats: IOStats, page_size: int):
        self.stats = stats
        self.page_size = page_size
        self.entries_per_page = max(1, page_size // INDEX_ENTRY_BYTES)
        self._buckets: Dict[int, Dict[int, int]] = {}

    # -- cost helpers ----------------------------------------------------------

    def _bucket(self, oid: int) -> Dict[int, int]:
        return self._buckets.setdefault(oid % N_BUCKETS, {})

    def _bucket_pages(self, bucket: Dict[int, int]) -> int:
        if not bucket:
            return 1
        return -(-len(bucket) // self.entries_per_page)

    def _charge_read(self, bucket: Dict[int, int]) -> None:
        # Reading a bucket costs one page normally; a bucket that has
        # overflowed its page charges its full chain.
        self.stats.index_reads += self._bucket_pages(bucket)

    def _charge_write(self, bucket: Dict[int, int]) -> None:
        self.stats.index_writes += 1

    # -- operations --------------------------------------------------------------

    def lookup(self, oid: int) -> Optional[int]:
        """Leaf page currently holding ``oid`` (1 index read)."""
        bucket = self._bucket(oid)
        self._charge_read(bucket)
        return bucket.get(oid)

    def assign(self, oid: int, leaf_page: int,
               bucket_in_hand: bool = False) -> None:
        """Point ``oid`` at ``leaf_page`` (1 index read + 1 index write).

        With ``bucket_in_hand=True`` the read is skipped: the caller just
        looked the same oid up, so the bucket page is already in memory
        (this makes the sibling-update case cost the paper's 6 I/Os).
        """
        bucket = self._bucket(oid)
        if not bucket_in_hand:
            self._charge_read(bucket)
        bucket[oid] = leaf_page
        self._charge_write(bucket)

    def remove(self, oid: int) -> None:
        """Drop the mapping for ``oid`` (1 index read + 1 index write)."""
        bucket = self._bucket(oid)
        self._charge_read(bucket)
        bucket.pop(oid, None)
        self._charge_write(bucket)

    def assign_many(self, mappings: Iterable[Tuple[int, int]]) -> None:
        """Repoint many oids at once (leaf split / condense maintenance).

        Mappings are grouped by bucket so each touched bucket page is read
        and written once — the batched maintenance a real implementation
        would perform.
        """
        by_bucket: Dict[int, list] = {}
        for oid, leaf_page in mappings:
            by_bucket.setdefault(oid % N_BUCKETS, []).append(
                (oid, leaf_page)
            )
        for bucket_id, pairs in by_bucket.items():
            bucket = self._buckets.setdefault(bucket_id, {})
            self._charge_read(bucket)
            for oid, leaf_page in pairs:
                bucket[oid] = leaf_page
            self._charge_write(bucket)

    # -- introspection -------------------------------------------------------------

    def peek(self, oid: int) -> Optional[int]:
        """Uncounted lookup for tests and metrics."""
        return self._buckets.get(oid % N_BUCKETS, {}).get(oid)

    def num_entries(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def size_bytes(self) -> int:
        """Total size of the structure (Figure 12d's comparison metric)."""
        return self.num_entries() * INDEX_ENTRY_BYTES
