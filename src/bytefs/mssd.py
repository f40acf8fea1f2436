"""Facade over the emulated M-SSD: dual byte/block interface, firmware
write log, transaction log, and optional shadow oracle for testing.

With the log disabled (`log_enabled=False`) there is no write log: byte
writes are applied with a page-granular read-modify-write, emulating a
device that keeps only a write-through page buffer in its DRAM, and a
clean or a recovery only clears the TxLog.  Host-interface traffic is
always accounted here: byte traffic in 64B units, block traffic in pages.
"""

from __future__ import annotations

from .device import (
    CACHELINE, DeviceConfig, FlashDevice, TrafficCounters, spans,
)
from .errors import AddressFault, InvalidArgument
from .txn import TxLog, TxManager, recover
from .writelog import CleanReport, WriteLog


class Mssd:
    def __init__(self, config: DeviceConfig | None = None, *,
                 log_enabled: bool = True, shadow_oracle: bool = False,
                 auto_clean: bool = True):
        self.device = FlashDevice(config)
        self.config = self.device.config
        self.log_enabled = log_enabled
        self._stamp = 0
        self.writelog = (WriteLog(self.device, self.next_stamp)
                         if log_enabled else None)
        self.txlog = TxLog(self.config.txlog_bytes)
        self.txmgr = TxManager(self)
        if auto_clean and log_enabled:
            self.writelog.auto_clean_cb = self.clean
        self.shadow: dict[int, bytearray] | None = {} if shadow_oracle else None

    def next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    # -- shadow oracle -----------------------------------------------------

    def _shadow_page(self, lpa: int) -> bytearray:
        page = self.shadow.get(lpa)
        if page is None:
            page = self.shadow[lpa] = bytearray(self.config.page_size)
        return page

    def _shadow_write(self, addr: int, data: bytes) -> None:
        if self.shadow is None:
            return
        page = self._shadow_page(addr // self.config.page_size)
        off = addr % self.config.page_size
        page[off:off + len(data)] = data

    def shadow_read(self, addr: int, length: int) -> bytes:
        out = bytearray()
        for lpa, off, take, _ in spans(addr, length, self.config.page_size):
            page = self.shadow.get(lpa)
            out += bytes(take) if page is None else page[off:off + take]
        return bytes(out)

    # -- byte interface ----------------------------------------------------

    def byte_write(self, addr: int, data: bytes, txid: int = 0,
                   category: str = "untagged") -> None:
        """Cacheline-granular write.  Unaligned edges are padded by
        reading the surrounding cachelines first (the host aligns writes
        to cachelines); writes crossing page boundaries are split.
        """
        if not data:
            raise InvalidArgument("empty write")
        if addr < 0 or addr + len(data) > self.config.capacity_bytes:
            raise AddressFault("byte write out of device range")
        page_size = self.config.page_size
        for lpa, off, take, pos in spans(addr, len(data), page_size):
            self._byte_write_page(lpa * page_size + off, data[pos:pos + take],
                                  txid, category)

    def _byte_write_page(self, addr: int, data: bytes, txid: int,
                         category: str) -> None:
        head_pad = addr % CACHELINE
        if head_pad:
            base = addr - head_pad
            prefix = self.byte_read(base, head_pad, category=category)
            addr, data = base, prefix + data
        self._shadow_write(addr, data)
        if self.log_enabled:
            slots = self.writelog.byte_write(addr, data, txid=txid,
                                             category=category)
        else:
            slots = self._passthrough_byte_write(addr, data, category)
        self.device.traffic.record("host_to_ssd", category, slots * CACHELINE)

    def _passthrough_byte_write(self, addr: int, data: bytes,
                                category: str) -> int:
        # Page-granular device buffer: read-modify-write the flash page.
        page_size = self.config.page_size
        lpa = addr // page_size
        off = addr % page_size
        page = bytearray(self.device.read_lpa(lpa, category))
        page[off:off + len(data)] = data
        self.device.write_lpa(lpa, bytes(page), category)
        slots = (off + len(data) + CACHELINE - 1) // CACHELINE - off // CACHELINE
        self.device.clock.advance(slots * self.config.cacheline_write_latency_ns)
        return slots

    def byte_read(self, addr: int, length: int, category: str = "untagged"
                  ) -> bytes:
        if length <= 0:
            raise InvalidArgument("empty read")
        if addr < 0 or addr + length > self.config.capacity_bytes:
            raise AddressFault("byte read out of device range")
        return b"".join(self._byte_read_page(lpa, off, take, category)
                        for lpa, off, take, _ in spans(addr, length,
                                                       self.config.page_size))

    def _byte_read_page(self, lpa: int, off: int, length: int,
                        category: str) -> bytes:
        if self.log_enabled:
            data, ncl = self.writelog.byte_read(
                lpa * self.config.page_size + off, length, category)
        else:
            page = self.device.read_lpa(lpa, category)
            data = page[off:off + length]
            first = off // CACHELINE
            last = (off + length - 1) // CACHELINE
            ncl = last - first + 1
            self.device.clock.advance(ncl * self.config.cacheline_read_latency_ns)
        self.device.traffic.record("ssd_to_host", category, ncl * CACHELINE)
        return data

    # -- block interface ---------------------------------------------------

    def block_read(self, lpa: int, category: str = "untagged") -> bytes:
        if self.log_enabled:
            page = self.writelog.block_read(lpa, category)
        else:
            page = self.device.read_lpa(lpa, category)
        self.device.traffic.record("ssd_to_host", category, self.config.page_size)
        return page

    def block_write(self, lpa: int, data: bytes, category: str = "untagged"
                    ) -> None:
        if len(data) != self.config.page_size:
            raise InvalidArgument("block write must be one full page")
        self._shadow_write(lpa * self.config.page_size, data)
        if self.log_enabled:
            self.writelog.block_write(lpa, data, category)
        else:
            self.device.write_lpa(lpa, data, category)
        self.device.traffic.record("host_to_ssd", category, self.config.page_size)

    # -- firmware services -------------------------------------------------

    def clean(self) -> CleanReport:
        if not self.log_enabled:
            self.txlog.clear()
            return CleanReport()
        return self.writelog.clean(self.txlog, self.txmgr.active_txids())

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
        self.txmgr.tx_write(txid, addr, data, category)

    def tx_commit(self, txid: int) -> None:
        self.txmgr.tx_commit(txid)

    def tx_abort(self, txid: int) -> None:
        self.txmgr.tx_abort(txid)
