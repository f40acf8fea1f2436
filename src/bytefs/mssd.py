"""Facade over the emulated M-SSD: dual byte/block interface, firmware
write log, transaction log, and optional shadow oracle for testing.

The write log cleans itself; `recover` is a clean run after a crash.
With the log disabled (`log_enabled=False`) there is no write log: byte
writes are applied with a page-granular read-modify-write, emulating a
device that keeps only a write-through page buffer in its DRAM, and a
clean or a recovery only clears the TxLog.  The host interface is
accounted here, with or without a write log: a byte access charges the
latency of each cacheline it touches and 64B of traffic per cacheline
(`_byte_write_page`, `_byte_read_page`), a block access its page of
traffic.  Flash latency is charged by `FlashDevice` alone.  Each host
access is checked here, before it takes a lock or changes anything, and
split into page-local pieces that start on a cacheline, which the write
log takes; a plain byte write is a write of transaction 0.  Commit and
abort are stated here too.
"""

from __future__ import annotations

from .device import (
    CACHELINE, CATEGORIES, DeviceConfig, FlashDevice, TrafficCounters, spans,
)
from .errors import AddressFault, InvalidArgument, TxAborted
from .txn import TxLog, TxManager, recover
from .writelog import CleanReport, WriteLog


class Mssd:
    def __init__(self, config: DeviceConfig | None = None, *,
                 log_enabled: bool = True, shadow_oracle: bool = False):
        self.device = FlashDevice(config)
        self.config = self.device.config
        self.log_enabled = log_enabled
        self._stamp = 0
        self.txlog = TxLog(self.config.txlog_bytes)
        self.txmgr = TxManager()
        self.writelog = (WriteLog(self.device, self.next_stamp, self.txlog,
                                  self.txmgr.active_txids)
                         if log_enabled else None)
        # committed bytes per page, and each active transaction's writes
        self.shadow: dict[int, bytearray] | None = {} if shadow_oracle else None
        self._shadow_tx: dict[int, list[tuple[int, bytes]]] = {}

    def next_stamp(self, count: int = 1) -> int:
        self._stamp += count
        return self._stamp - count + 1

    # -- shadow oracle -----------------------------------------------------
    # The write log's visibility rule, byte by byte: a transaction's writes
    # show over the committed bytes while it is active, land at commit, and
    # vanish at abort or under a later block write to their page.  Without
    # a write log they go straight to flash, as plain writes do.  A write
    # that starts inside a cacheline is padded as the device pads it.

    def _shadow_page(self, lpa: int, txids) -> bytearray:
        """A page's committed bytes under the writes of the active
        transactions `txids`."""
        page_size = self.config.page_size
        page = bytearray(self.shadow.get(lpa, bytes(page_size)))
        for txid in txids:
            for a, d in self._shadow_tx.get(txid, ()):
                if a // page_size == lpa:
                    page[a % page_size:a % page_size + len(d)] = d
        return page

    def _shadow_write(self, addr: int, data: bytes, txid: int = 0) -> None:
        if self.shadow is None:
            return
        head_pad = addr % CACHELINE
        if head_pad:
            lpa, off = divmod(addr - head_pad, self.config.page_size)
            page = self._shadow_page(lpa, (txid,))
            addr, data = addr - head_pad, bytes(page[off:off + head_pad]) + data
        if txid and self.log_enabled:
            self._shadow_tx.setdefault(txid, []).append((addr, data))
            return
        lpa, off = divmod(addr, self.config.page_size)
        page = self.shadow.setdefault(lpa, bytearray(self.config.page_size))
        page[off:off + len(data)] = data

    def shadow_read(self, addr: int, length: int) -> bytes:
        out = bytearray()
        for lpa, off, take, _ in spans(addr, length, self.config.page_size):
            out += self._shadow_page(lpa, self._shadow_tx)[off:off + take]
        return bytes(out)

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
        self._write(0, addr, data, category)

    def _write(self, txid: int, addr: int, data: bytes, category: str
               ) -> None:
        """Check, lock (transaction 0 takes no lock), split and write.  A
        write that starts inside a cacheline is padded with the bytes
        before it that the writer may read."""
        self._check_bytes(addr, len(data), category, "write")
        conflict = txid and self.txmgr.tx_write(txid, addr, len(data))
        if conflict:  # NO_WAIT: the requester ends, having written nothing
            self.tx_abort(txid)
            raise TxAborted(f"tx {txid} aborted: cacheline {conflict[0]} is "
                            f"locked by tx {conflict[1]}")
        for lpa, off, take, pos in spans(addr, len(data),
                                         self.config.page_size):
            self._byte_write_page(lpa, off, data[pos:pos + take], txid,
                                  category)

    def _byte_write_page(self, lpa: int, off: int, data: bytes, txid: int,
                         category: str) -> None:
        page_size = self.config.page_size
        self._shadow_write(lpa * page_size + off, data, txid)
        head_pad = off % CACHELINE
        if head_pad:
            off -= head_pad  # the write starts on a cacheline now
            data = self._byte_read_page(lpa, off, head_pad, category,
                                        reader=txid) + data
        if self.log_enabled:
            self.writelog.byte_write(lpa, off, data, txid, category)
        else:
            # Page-granular device buffer: read-modify-write the flash page.
            page = bytearray(self.device.read_lpa(lpa, category))
            page[off:off + len(data)] = data
            self.device.write_lpa(lpa, bytes(page), category)
        slots = (len(data) + CACHELINE - 1) // CACHELINE
        self.device.clock.advance(slots * self.config.cacheline_write_latency_ns)
        self.device.traffic.record("host_to_ssd", category, slots * CACHELINE)

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
        self.device.traffic.record("ssd_to_host", category, ncl * CACHELINE)
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
        self.device.traffic.record("ssd_to_host", category, self.config.page_size)
        return page

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
        self._shadow_write(lpa * page_size, data)
        for writes in self._shadow_tx.values():
            writes[:] = [(a, d) for a, d in writes if a // page_size != lpa]
        if self.log_enabled:
            self.writelog.block_write(lpa, data, category)
        else:
            self.device.write_lpa(lpa, data, category)
        self.device.traffic.record("host_to_ssd", category, page_size)

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
        self.txmgr.require_active(txid)  # 0 is never active
        self._write(txid, addr, data, category)

    def tx_commit(self, txid: int) -> None:
        """Stamp `txid` into the TxLog, cleaning first if it is full (the
        clean must carry the still-active transaction's entries)."""
        self.txmgr.require_active(txid)
        if self.txlog.full:
            self.clean()
        self.txlog.append(txid, self.next_stamp())
        self.txmgr.tx_commit(txid)
        for addr, data in self._shadow_tx.pop(txid, ()):
            self._shadow_write(addr, data)

    def tx_abort(self, txid: int) -> None:
        self.txmgr.tx_abort(txid)  # its entries are never visible again
        self._shadow_tx.pop(txid, None)
