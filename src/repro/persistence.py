"""Save and re-open indexes on the real filesystem.

The experiments run over the in-memory disk simulator; a downstream user
of the library also wants an index that survives the process.  This module
persists any of the three tree variants to a directory —

* ``pages.bin`` + ``disk.json`` — the raw pages and allocation state
  (:class:`~repro.storage.filedisk.FileDiskManager` layout);
* ``tree.json`` — the structural metadata (root page, height, parent
  directory), the tree's configuration, and the variant's volatile side
  structures: the RUM-tree's stamp counter and Update Memo (exactly the
  checkpoint of recovery Option II) or the FUR-tree's secondary index —

and re-opens it with :func:`load_tree`::

    from repro.persistence import save_tree, load_tree

    save_tree(tree, "fleet_index")
    ...
    tree = load_tree("fleet_index")

Loading does not replay anything: the pages come back verbatim, the memo
comes back from its snapshot, and updates resume immediately.  (A crash
*without* a save is the paper's recovery problem — see
:mod:`repro.core.recovery`.)
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Union

from repro.core.rum import RUMTree
from repro.rtree.fur import FURTree
from repro.rtree.rstar import RStarTree
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec, stamp_checksum
from repro.storage.filedisk import FileDiskManager
from repro.storage.iostats import IOStats

TREE_META_FILE = "tree.json"

_KINDS = {RStarTree: "rstar", FURTree: "fur", RUMTree: "rum"}


def _source_free_list(source) -> list:
    """The disk's freed-page-id list (both disk managers keep ``_free``)."""
    return list(getattr(source, "_free", ()))


def save_tree(tree, directory: Union[str, os.PathLike]) -> None:
    """Persist ``tree`` (any variant) into ``directory``."""
    kind = _KINDS.get(type(tree))
    if kind is None:
        raise TypeError(f"cannot persist a {type(tree).__name__}")
    tree.buffer.flush()

    directory = pathlib.Path(directory)
    source = tree.buffer.disk
    stamp = tree.buffer.codec.checksums
    target = FileDiskManager(source.page_size, directory)
    for page_id in source.page_ids():
        # Raw copy outside the counted channels: persistence is not an
        # experiment operation.  Pages from a checksum-free in-memory
        # codec get their crc32 stamped here, so the on-disk copy can be
        # verified for torn writes when it is reopened.
        data = source.peek(page_id)
        target._allocated.add(page_id)
        target._write_raw(
            page_id, data if stamp else stamp_checksum(data)
        )
    # Carry the source's allocation state verbatim: dropping the free
    # list (or recomputing next_id past it) would leak every freed page
    # id forever across save/load cycles.
    target._free = [
        pid for pid in _source_free_list(source)
        if pid not in target._allocated
    ]
    target._next_id = max(
        getattr(source, "_next_id", 0),
        max(target._allocated, default=-1) + 1,
    )
    target.sync()
    target.close()

    meta = {
        "kind": kind,
        "node_size": source.page_size,
        "rum_leaves": tree.buffer.codec.rum_leaves,
        "root_id": tree.root_id,
        "height": tree.height,
        "parent": list(tree.parent.items()),
    }
    if kind == "rum":
        meta["stamp_counter"] = tree.stamps.current
        meta["memo"] = tree.memo.snapshot()
        meta["inspection_ratio"] = tree.cleaner.inspection_ratio
        meta["n_tokens"] = tree.cleaner.n_tokens
        meta["clean_upon_touch"] = tree.clean_upon_touch
    elif kind == "fur":
        meta["extension"] = tree.extension
        meta["index"] = [
            [leaf.page_id, [entry.oid for entry in leaf.entries]]
            for leaf in tree.iter_leaf_nodes()
        ]
    (directory / TREE_META_FILE).write_text(json.dumps(meta))


def load_tree(directory: Union[str, os.PathLike]):
    """Re-open an index saved by :func:`save_tree`.

    Returns a fully functional tree of the saved variant running over a
    :class:`FileDiskManager` on ``directory``; further updates write to
    the same files (call :meth:`FileDiskManager.sync` or
    :func:`save_tree` again to persist the volatile structures).
    """
    directory = pathlib.Path(directory)
    meta = json.loads((directory / TREE_META_FILE).read_text())
    disk = FileDiskManager.open(directory)
    # Checksums on: pages coming off the real filesystem are verified on
    # decode, so a torn or corrupted page raises PageChecksumError
    # instead of silently decoding (pages saved before checksums existed
    # carry a stored crc of 0 and verify trivially).
    codec = NodeCodec(
        meta["node_size"], rum_leaves=meta["rum_leaves"], checksums=True
    )
    buffer = BufferPool(disk, codec, IOStats())
    attach = {
        "root_id": meta["root_id"],
        "height": meta["height"],
        "parent": {int(child): parent for child, parent in meta["parent"]},
    }

    kind = meta["kind"]
    if kind == "rstar":
        return RStarTree(buffer, attach=attach)
    if kind == "fur":
        tree = FURTree(buffer, extension=meta["extension"], attach=attach)
        tree.index.assign_many(
            (oid, page_id)
            for page_id, oids in meta["index"]
            for oid in oids
        )
        tree.stats.reset()  # the index rebuild is not workload cost
        return tree
    if kind == "rum":
        tree = RUMTree(
            buffer,
            inspection_ratio=meta["inspection_ratio"],
            n_tokens=meta["n_tokens"],
            clean_upon_touch=meta["clean_upon_touch"],
            attach=attach,
        )
        tree.stamps.restore(meta["stamp_counter"])
        tree.memo.restore(iter(map(tuple, meta["memo"])))
        return tree
    raise ValueError(f"unknown tree kind {kind!r} in {directory}")
