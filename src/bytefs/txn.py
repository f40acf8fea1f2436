"""Transaction identity, commit ordering, and post-crash recovery.

The TxTable lives host-side and does not survive a crash; the TxLog is a
firmware append-only list of 4-byte committed transaction ids and does,
together with the stamp each commit drew.  Recovery scans the whole log
region, discards entries whose transaction never reached the TxLog, and
flushes the rest with the routine cleaning uses, in the same commit order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .device import CACHELINE
from .errors import InvalidArgument, SpaceExhausted, StateError, TxAborted

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


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
class TxRecord:
    txid: int
    state: str = ACTIVE
    locks: set = field(default_factory=set)


@dataclass
class RecoveryReport:
    entries_scanned: int = 0
    entries_discarded: int = 0
    entries_flushed: int = 0
    elapsed_sim_ns: int = 0


class TxManager:
    """Host-side transaction table with conflict locking.

    Conflict granularity is configurable: "cacheline" (default) or
    "page".  A writer that collides with another active transaction
    blocks until that transaction finishes, or aborts after
    `lock_timeout_s` of wall time.
    """

    def __init__(self, mssd, conflict_granularity: str = "cacheline",
                 lock_timeout_s: float = 5.0):
        if conflict_granularity not in ("cacheline", "page"):
            raise InvalidArgument("conflict_granularity must be cacheline or page")
        self.mssd = mssd
        self.granularity = conflict_granularity
        self.lock_timeout_s = lock_timeout_s
        self.table: dict[int, TxRecord] = {}
        self.next_txid = 1  # 0 is reserved for non-transactional writes
        self._lock_owner: dict[tuple, int] = {}
        # reentrant: tx_commit may trigger a clean that queries active txs
        self._cond = threading.Condition(threading.RLock())

    def active_txids(self) -> set[int]:
        with self._cond:
            return {t for t, rec in self.table.items() if rec.state == ACTIVE}

    def tx_begin(self) -> int:
        with self._cond:
            if self.next_txid >= 2 ** 32:
                raise SpaceExhausted("TxId space exhausted")
            txid = self.next_txid
            self.next_txid += 1
            self.table[txid] = TxRecord(txid)
            return txid

    def _conflict_keys(self, addr: int, length: int) -> list[tuple]:
        page_size = self.mssd.config.page_size
        if self.granularity == "page":
            return [(addr // page_size,)]
        first = addr // CACHELINE
        last = (addr + length - 1) // CACHELINE
        return [(cl,) for cl in range(first, last + 1)]

    def _acquire(self, txid: int, keys: list[tuple]) -> None:
        with self._cond:
            rec = self._require_active(txid)
            deadline = None
            pending = [k for k in keys if self._lock_owner.get(k, txid) != txid]
            while pending:
                if deadline is None:
                    deadline = time.monotonic() + self.lock_timeout_s
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    self._abort_locked(rec)
                    raise TxAborted(f"tx {txid} timed out waiting for locks")
                rec = self._require_active(txid)
                pending = [k for k in keys
                           if self._lock_owner.get(k, txid) != txid]
            for k in keys:
                self._lock_owner[k] = txid
                rec.locks.add(k)

    def _require_active(self, txid: int) -> TxRecord:
        rec = self.table.get(txid)
        if rec is None:
            raise StateError(f"unknown tx {txid}")
        if rec.state != ACTIVE:
            raise StateError(f"tx {txid} is {rec.state}")
        return rec

    def _release_locks(self, rec: TxRecord) -> None:
        for k in rec.locks:
            if self._lock_owner.get(k) == rec.txid:
                del self._lock_owner[k]
        rec.locks.clear()
        self._cond.notify_all()

    def tx_write(self, txid: int, addr: int, data: bytes,
                 category: str = "untagged") -> None:
        self._acquire(txid, self._conflict_keys(addr, len(data)))
        self.mssd.byte_write(addr, data, txid=txid, category=category)

    def tx_commit(self, txid: int) -> None:
        with self._cond:
            rec = self._require_active(txid)
            txlog = self.mssd.txlog
            if txlog.full:
                self.mssd.clean()
            txlog.append(txid, self.mssd.next_stamp())
            rec.state = COMMITTED
            self._release_locks(rec)

    def tx_abort(self, txid: int) -> None:
        with self._cond:
            rec = self._require_active(txid)
            self._abort_locked(rec)

    def _abort_locked(self, rec: TxRecord) -> None:
        rec.state = ABORTED
        self._release_locks(rec)


def recover(mssd) -> RecoveryReport:
    """Full log-region scan after a crash: discard uncommitted entries,
    flush committed ones to flash in commit order, then clear the log
    region and TxLog.  Exclusive; no concurrent foreground traffic.
    Without a write log there is nothing to merge; only the TxLog is
    cleared.
    """
    if not mssd.log_enabled:
        mssd.txlog.clear()
        return RecoveryReport()
    start_ns = mssd.device.clock.now_ns
    log = mssd.writelog
    keep, key = log.commit_order(mssd.txlog)
    log.merge_and_flush(keep, key)
    mssd.reset_log()
    mssd.txlog.clear()
    flushed = int(keep.sum())
    return RecoveryReport(
        entries_scanned=keep.size, entries_discarded=keep.size - flushed,
        entries_flushed=flushed,
        elapsed_sim_ns=mssd.device.clock.now_ns - start_ns)
