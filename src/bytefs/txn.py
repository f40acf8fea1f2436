"""Transaction identity, commit ordering, and post-crash recovery.

The transaction table (`TxManager`) lives host-side, holds only the
active transactions, their cacheline locks and the txid counter, refers
to no device and does not survive a crash; the TxLog is a firmware
append-only list of 4-byte committed transaction ids and does, together
with the stamp each commit drew.  It is held as the two arrays of the
device image's TxLog section, which `image.save` writes as they are and
`image.load` fills with one copy of the section's.  Recovery is a clean
of the log region that survived: after a crash no transaction is open,
so the clean flushes every visible entry and discards those whose
transaction never reached the TxLog.

Conflicts follow NO_WAIT two-phase locking: a write that touches a
cacheline another active transaction has written aborts the writer's own
transaction at once, so no transaction ever waits.  The simulator is
single-threaded: an `Mssd`, and the file system on it, is used from one
thread.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .device import CACHELINE
from .errors import SpaceExhausted, StateError


class TxLog:
    """Append-only buffer of committed TxIds (4 bytes each).

    One entry per commit, in commit order, in two arrays: `txids` (4-byte
    C unsigned ints) and `stamps` (8 bytes), the stamp each commit drew,
    which orders it against other commits and against non-transactional
    writes.  On a little-endian host they are, byte for byte, the two
    arrays of an image's TxLog section.  Commit order is txid order only
    while transactions commit in the order they began.  `index` maps each
    txid to its stamp for the read path; `append` and `clear` keep it, and
    after `adopt` it is built on first use.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_entries = capacity_bytes // 4
        self.txids = array("I")
        self.stamps = array("Q")
        self._index: dict[int, int] | None = {}

    @property
    def index(self) -> dict[int, int]:
        if self._index is None:
            self._index = dict(zip(self.txids, self.stamps))
        return self._index

    @property
    def entries(self) -> list[int]:
        return self.txids.tolist()

    def append(self, txid: int, stamp: int) -> None:
        index = self._index
        if index is None:
            index = self.index
        if len(self.txids) >= self.capacity_entries:
            raise SpaceExhausted("TxLog full")
        if txid in index:
            raise StateError(f"tx {txid} already committed")
        index[txid] = stamp
        self.txids.append(txid)
        self.stamps.append(stamp)

    def adopt(self, txids: np.ndarray, stamps: np.ndarray) -> None:
        """Replace the entries with copies of two numpy arrays of any byte
        order, such as the arrays of an image's TxLog section; `astype`
        copies nothing when the order is already the host's."""
        self.txids, self.stamps = array("I"), array("Q")
        self.txids.frombytes(txids.astype("I", copy=False).view(np.uint8))
        self.stamps.frombytes(stamps.astype("Q", copy=False).view(np.uint8))
        self._index = None

    def clear(self) -> None:
        self.txids, self.stamps = array("I"), array("Q")
        self._index = {}


@dataclass
class RecoveryReport:
    entries_scanned: int = 0
    entries_discarded: int = 0
    entries_flushed: int = 0
    elapsed_sim_ns: int = 0


class TxManager:
    """Host-side transaction table with per-cacheline conflict locks.

    A transaction holds the lock of every cacheline it wrote until it
    commits or aborts.  The table holds no reference to the device: `Mssd`
    checks each write before it asks for its locks, and ends a transaction
    whose write conflicts.
    """

    def __init__(self):
        self.table: dict[int, set[int]] = {}  # active txid -> its locks
        self.next_txid = 1  # 0 is reserved for non-transactional writes
        self._lock_owner: dict[int, int] = {}  # cacheline -> txid

    def active_txids(self) -> set[int]:
        return set(self.table)

    def tx_begin(self) -> int:
        if self.next_txid >= 2 ** 32:
            raise SpaceExhausted("TxId space exhausted")
        txid = self.next_txid
        self.next_txid += 1
        self.table[txid] = set()
        return txid

    def require_active(self, txid: int) -> set[int]:
        locks = self.table.get(txid)
        if locks is None:
            raise StateError(f"tx {txid} is not active")
        return locks

    def tx_write(self, txid: int, addr: int, length: int
                 ) -> tuple[int, int] | None:
        """Lock the cachelines of a checked write, or take none and return
        the first (cacheline, holder) that another transaction holds."""
        locks = self.require_active(txid)
        owner = self._lock_owner
        first, last = addr // CACHELINE, (addr + length - 1) // CACHELINE
        # the cachelines before the last are tested before any is taken;
        # the last is tested and taken in one step
        for k in range(first, last):
            holder = owner.get(k, txid)
            if holder != txid:
                return k, holder
        holder = owner.setdefault(last, txid)
        if holder != txid:
            return last, holder
        locks.add(last)
        if first < last:
            owner.update(dict.fromkeys(range(first, last), txid))
            locks.update(range(first, last))

    def _release(self, txid: int) -> None:
        """All a commit or an abort does to the table."""
        locks = self.table.pop(txid, None)
        if locks is None:
            raise StateError(f"tx {txid} is not active")
        for k in locks:
            del self._lock_owner[k]

    tx_commit = tx_abort = _release


def recover(mssd) -> RecoveryReport:
    """Recovery after a crash: a clean of a device with no open
    transaction.  Every entry of the surviving log region is scanned; the
    visible ones are flushed to flash and the rest discarded, which
    empties the log region and the TxLog.  Without a write log there is
    nothing to scan, and only the TxLog is cleared.
    """
    start_ns = mssd.device.clock.now_ns
    scanned = mssd.writelog.active_gen.tail_slots if mssd.log_enabled else 0
    flushed = mssd.clean().entries_flushed
    return RecoveryReport(
        entries_scanned=scanned, entries_discarded=scanned - flushed,
        entries_flushed=flushed,
        elapsed_sim_ns=mssd.device.clock.now_ns - start_ns)
