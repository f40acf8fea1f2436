"""Facade over the emulated M-SSD: dual byte/block interface, firmware
write log and transaction log.

The write log cleans itself; `recover` is a clean run after a crash.
With the log disabled (`log_enabled=False`) there is no write log: byte
writes are applied with a page-granular read-modify-write, emulating a
device that keeps only a write-through page buffer in its DRAM, and a
clean or a recovery only clears the TxLog.  The host interface is
accounted here, with or without a write log: a byte access charges the
latency of each cacheline it touches and 64B of traffic per cacheline
(`_write`, `_byte_read_page`), a block access its page of
traffic.  Flash latency is charged by `FlashDevice` alone.  Each host
access is checked before it takes a lock or changes anything: here, but
for the LPA of a block read and the whole of a run of block reads
(`block_read_run`), which `FlashDevice` checks.  A byte access is then
split into page-local pieces that start on a cacheline, which the write
log takes; a plain byte write is a write of transaction 0.  Most byte
writes, those that fit in one page from a cacheline, are their own
piece: they are checked by one expression over values looked up at
construction, and go to the write log with no split or copy.  Commit and
abort are stated here too: a transaction ends when its write conflicts
or when the full log refuses it, also after the log took part of it.
"""

from __future__ import annotations

from .device import (
    CACHELINE, CATEGORIES, DeviceConfig, FlashDevice, TrafficCounters, spans,
)
from .errors import AddressFault, BackPressure, InvalidArgument, TxAborted
from .txn import TxLog, TxManager, recover
from .writelog import CleanReport, WriteLog


class Mssd:
    def __init__(self, config: DeviceConfig | None = None, *,
                 log_enabled: bool = True):
        self.device = FlashDevice(config)
        self.config = self.device.config
        self.log_enabled = log_enabled
        self._stamp = 0
        self.txlog = TxLog(self.config.txlog_bytes)
        self.txmgr = TxManager()
        self.writelog = (WriteLog(self.device, self.next_stamp, self.txlog,
                                  self.txmgr.active_txids)
                         if log_enabled else None)
        # what every byte write reads, looked up once
        self._capacity = self.config.capacity_bytes
        self._page_size = self.config.page_size
        self._write_ns = self.config.cacheline_write_latency_ns
        self._clock = self.device.clock
        self._host_in = self.device.traffic.by_category["host_to_ssd"]

    def next_stamp(self, count: int = 1) -> int:
        self._stamp += count
        return self._stamp - count + 1

    # -- byte interface ----------------------------------------------------

    def _check_bytes(self, addr: int, length: int, category: str,
                     what: str) -> None:
        if length <= 0:
            raise InvalidArgument(f"empty {what}")
        if addr < 0 or addr + length > self.config.capacity_bytes:
            raise AddressFault(f"byte {what} out of device range")
        if category not in CATEGORIES:
            raise InvalidArgument(f"unknown traffic category {category!r}")

    def byte_write(self, addr: int, data: bytes,
                   category: str = "untagged") -> None:
        """A plain write: committed at write, as transaction 0."""
        self._write(0, addr, data, category, False)

    def _write(self, txid: int, addr: int, data: bytes, category: str,
               locks: bool) -> None:
        """Check, lock (a plain write takes no lock), split into page-local
        pieces and write them, charging each piece's cachelines.  A write
        that fits in one page from a cacheline is its own piece; one that
        starts inside a cacheline is padded with the bytes before it that
        the writer may read."""
        size = len(data)
        if not (size > 0 and addr >= 0 and addr + size <= self._capacity
                and category in CATEGORIES):
            self._check_bytes(addr, size, category, "write")  # raises
        if locks:
            conflict = self.txmgr.tx_write(txid, addr, size)
            if conflict:  # NO_WAIT: the requester ends, having written nothing
                self.tx_abort(txid)
                raise TxAborted(f"tx {txid} aborted: cacheline {conflict[0]} "
                                f"is locked by tx {conflict[1]}")
        page_size = self._page_size
        off = addr % page_size
        if off % CACHELINE == 0 and off + size <= page_size:
            pieces = ((addr // page_size, off, data),)
        else:
            pieces = self._pieces(txid, addr, data, category)
        writelog, clock, host_in = self.writelog, self._clock, self._host_in
        for lpa, off, piece in pieces:
            if writelog is None:
                # Page-granular device buffer: read-modify-write the page.
                page = bytearray(self.device.read_lpa(lpa, category))
                page[off:off + len(piece)] = piece
                self.device.write_lpa(lpa, bytes(page), category)
            else:
                try:
                    writelog.byte_write(lpa, off, piece, txid, category)
                except BackPressure:
                    if txid:  # its write torn, the transaction ends
                        self.tx_abort(txid)
                    raise
            slots = (len(piece) + CACHELINE - 1) // CACHELINE
            clock.now_ns += slots * self._write_ns
            host_in[category] += slots * CACHELINE

    def _pieces(self, txid: int, addr: int, data: bytes, category: str):
        """The page-local pieces (page, offset, bytes) of a checked write,
        each started on its cacheline: one that starts inside a cacheline
        (only the first can) is padded, when the caller asks for it, with
        the bytes before it that writer `txid` reads."""
        for lpa, off, take, pos in spans(addr, len(data), self._page_size):
            piece = data[pos:pos + take]
            head_pad = off % CACHELINE
            if head_pad:
                off -= head_pad
                piece = self._byte_read_page(lpa, off, head_pad, category,
                                             reader=txid) + piece
            yield lpa, off, piece

    def byte_read(self, addr: int, length: int, category: str = "untagged"
                  ) -> bytes:
        self._check_bytes(addr, length, category, "read")
        return b"".join(self._byte_read_page(lpa, off, take, category)
                        for lpa, off, take, _ in spans(addr, length,
                                                       self.config.page_size))

    def _byte_read_page(self, lpa: int, off: int, length: int,
                        category: str, reader: int | None = None) -> bytes:
        if self.log_enabled:
            data = self.writelog.byte_read(lpa, off, length, category, reader)
        else:
            data = self.device.read_lpa(lpa, category)[off:off + length]
        ncl = (off + length - 1) // CACHELINE - off // CACHELINE + 1
        self.device.clock.advance(ncl * self.config.cacheline_read_latency_ns)
        self.device.traffic.by_category["ssd_to_host"][category] += (
            ncl * CACHELINE)
        return data

    # -- block interface ---------------------------------------------------

    def block_read(self, lpa: int, category: str = "untagged") -> bytes:
        # the FTL refuses an LPA out of range before anything changes
        if category not in CATEGORIES:
            raise InvalidArgument(f"unknown traffic category {category!r}")
        if self.log_enabled:
            page = self.writelog.block_read(lpa, category)
        else:
            page = self.device.read_lpa(lpa, category)
        self.device.traffic.by_category["ssd_to_host"][category] += (
            self.config.page_size)
        return page

    def block_read_run(self, lpa: int, count: int,
                       category: str = "untagged") -> list[bytes]:
        """The `count` pages from `lpa`, read and charged as `count` calls
        of `block_read` with one device call."""
        # the device refuses a bad category or range before anything changes
        if self.log_enabled:
            pages = self.writelog.block_read_run(lpa, count, category)
        else:
            pages = self.device.read_lpa_run(lpa, count, category)
        self.device.traffic.by_category["ssd_to_host"][category] += (
            count * self.config.page_size)
        return pages

    def block_write(self, lpa: int, data: bytes, category: str = "untagged"
                    ) -> None:
        """Write one full page.  The page's buffered writes of active
        transactions go with it: their commit makes none of them durable."""
        page_size = self.config.page_size
        if len(data) != page_size:
            raise InvalidArgument("block write must be one full page")
        if not (0 <= lpa < self.device.page_count):
            raise AddressFault(f"LPA {lpa} out of range")
        if category not in CATEGORIES:
            raise InvalidArgument(f"unknown traffic category {category!r}")
        if self.log_enabled:
            self.writelog.block_write(lpa, data, category)
        else:
            self.device.write_lpa(lpa, data, category)
        self.device.traffic.by_category["host_to_ssd"][category] += page_size

    # -- firmware services -------------------------------------------------

    def clean(self) -> CleanReport:
        if not self.log_enabled:
            self.txlog.clear()
            return CleanReport()
        return self.writelog.clean()

    def recover(self):
        return recover(self)

    def reset_log(self) -> None:
        """Drop the log region and its index (end of recovery)."""
        if self.log_enabled:
            self.writelog.new_generation()

    def utilization(self) -> float:
        return self.writelog.utilization() if self.log_enabled else 0.0

    def traffic_snapshot(self) -> TrafficCounters:
        return self.device.traffic_snapshot()

    @property
    def clock_ns(self) -> int:
        return self.device.clock.now_ns

    # -- transactions ------------------------------------------------------

    def tx_begin(self) -> int:
        return self.txmgr.tx_begin()

    def tx_write(self, txid: int, addr: int, data: bytes,
                 category: str = "untagged") -> None:
        self._write(txid, addr, data, category, True)  # 0 is never active

    def tx_commit(self, txid: int) -> None:
        """Stamp `txid` into the TxLog, cleaning first if it is full (the
        clean must carry the still-active transaction's entries)."""
        self.txmgr.require_active(txid)
        txlog = self.txlog
        if len(txlog.txids) >= txlog.capacity_entries:
            self.clean()
        self._stamp += 1
        txlog.append(txid, self._stamp)
        self.txmgr.tx_commit(txid)

    def tx_abort(self, txid: int) -> None:
        self.txmgr.tx_abort(txid)  # its entries are never visible again
