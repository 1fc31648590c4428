"""The paper's contribution: the RUM-tree and its supporting machinery.

* :class:`~repro.core.rum.RUMTree` — memo-based insert/update/delete/search;
* :class:`~repro.core.memo.UpdateMemo` — the Update Memo, the one
  implementation of its semantics; :mod:`~repro.core.memo_lsm` is the
  optional run tier its table can spill to;
* :class:`~repro.core.stamp.StampCounter` — global stamp assignment;
* :class:`~repro.core.cleaner.GarbageCleaner` — cleaning tokens,
  clean-upon-touch, phantom inspection, for any
  :class:`~repro.core.cleaner.MemoHost`;
* :mod:`~repro.core.recovery` — crash-recovery options I/II/III.
"""

from .cleaner import CleaningToken, GarbageCleaner, MemoHost
from .memo import LATEST, OBSOLETE, UMEntry, UpdateMemo
from .recovery import (
    RECOVERY_PROCEDURES,
    RecoveryReport,
    recover_option_i,
    recover_option_ii,
    recover_option_iii,
)
from .rum import (
    RECOVERY_CHECKPOINT,
    RECOVERY_FULL_LOG,
    RECOVERY_NONE,
    RUMTree,
)
from .stamp import StampCounter

__all__ = [
    "RUMTree",
    "UpdateMemo",
    "UMEntry",
    "LATEST",
    "OBSOLETE",
    "StampCounter",
    "GarbageCleaner",
    "MemoHost",
    "CleaningToken",
    "RecoveryReport",
    "recover_option_i",
    "recover_option_ii",
    "recover_option_iii",
    "RECOVERY_PROCEDURES",
    "RECOVERY_NONE",
    "RECOVERY_CHECKPOINT",
    "RECOVERY_FULL_LOG",
]
