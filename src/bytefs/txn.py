"""Transaction identity, commit ordering, and post-crash recovery.

The TxTable lives host-side, holds only active transactions and does not
survive a crash; the TxLog is a firmware append-only list of 4-byte
committed transaction ids and does, together with the stamp each commit
drew.  Recovery is a clean of the log region that survived: after a
crash no transaction is open, so the clean flushes every visible entry
and discards those whose transaction never reached the TxLog.

Conflicts follow NO_WAIT two-phase locking: a write that touches a
cacheline another active transaction has written aborts the writer's own
transaction at once, so no transaction ever waits.  The simulator is
single-threaded: an `Mssd`, and the file system on it, is used from one
thread.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import CACHELINE
from .errors import SpaceExhausted, StateError, TxAborted


class TxLog:
    """Append-only buffer of committed TxIds (4 bytes each).

    Each entry keeps the stamp its commit drew, which orders it against
    other commits and against non-transactional writes.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_entries = capacity_bytes // 4
        self.stamps: dict[int, int] = {}  # txid -> commit stamp, in order

    @property
    def entries(self) -> list[int]:
        return list(self.stamps)

    @property
    def full(self) -> bool:
        return len(self.stamps) >= self.capacity_entries

    def append(self, txid: int, stamp: int) -> None:
        if self.full:
            raise SpaceExhausted("TxLog full")
        if txid in self.stamps:
            raise StateError(f"tx {txid} already committed")
        self.stamps[txid] = stamp

    def clear(self) -> None:
        self.stamps.clear()


@dataclass
class RecoveryReport:
    entries_scanned: int = 0
    entries_discarded: int = 0
    entries_flushed: int = 0
    elapsed_sim_ns: int = 0


class TxManager:
    """Host-side transaction table with per-cacheline conflict locks.

    A transaction holds the lock of every cacheline it wrote until it
    commits or aborts.  A write that needs a lock another transaction
    holds takes none, writes nothing and aborts its transaction.
    """

    def __init__(self, mssd):
        self.mssd = mssd
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

    def _acquire(self, txid: int, keys: range) -> None:
        locks = self._require_active(txid)
        for k in keys:
            holder = self._lock_owner.get(k, txid)
            if holder != txid:
                self._end(txid, committed=False)
                raise TxAborted(f"tx {txid} aborted: cacheline {k} is "
                                f"locked by tx {holder}")
        for k in keys:
            self._lock_owner[k] = txid
        locks.update(keys)

    def _require_active(self, txid: int) -> set[int]:
        locks = self.table.get(txid)
        if locks is None:
            raise StateError(f"tx {txid} is not active")
        return locks

    def _end(self, txid: int, committed: bool) -> None:
        """Forget a finished transaction and release its locks."""
        for k in self.table.pop(txid):
            del self._lock_owner[k]
        self.mssd.shadow_tx_end(txid, committed)

    def tx_write(self, txid: int, addr: int, data: bytes,
                 category: str = "untagged") -> None:
        self._acquire(txid, range(addr // CACHELINE,
                                  (addr + len(data) - 1) // CACHELINE + 1))
        self.mssd.byte_write(addr, data, txid=txid, category=category)

    def tx_commit(self, txid: int) -> None:
        self._require_active(txid)
        txlog = self.mssd.txlog
        if txlog.full:
            self.mssd.clean()
        txlog.append(txid, self.mssd.next_stamp())
        self._end(txid, committed=True)

    def tx_abort(self, txid: int) -> None:
        self._require_active(txid)
        self._end(txid, committed=False)


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
