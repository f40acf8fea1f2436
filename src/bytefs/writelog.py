"""Log-structured SSD-DRAM write buffer.

Byte-interface writes land in a log region of 64B payload slots.  Each
slot has one sidecar record (`SIDECAR_DTYPE`): its page, cacheline,
length, flags, traffic category, transaction id and append sequence.  The
payload is a bytearray and the sidecar a numpy structured array; both grow
as entries are appended, and the device image stores them as they are.

A three-layer index locates live entries for the foreground paths: a
partition table over 16 MiB slices of the logical address space, a skip
list per partition keyed by LPA, and per page a chain of slot indices for
each cacheline, in append order.  It is rebuilt from the sidecar on first
use after a clean or an image load.

Cleaning and recovery share one routine, `WriteLog.merge_and_flush`, that
merges the committed entries of each page in commit order and writes the
pages to flash in write-buffer batches.  Double buffering: a clean drains
the active generation while it is still the one the device image holds,
and only then switches to a fresh generation, so a power loss in the
middle of a clean leaves the draining generation recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import CACHELINE, CATEGORIES, FlashDevice, MiB
from .errors import AddressFault, BackPressure, InvalidArgument
from .skiplist import SkipList

PARTITION_BYTES = 16 * MiB

FLAG_COMMITTED_AT_WRITE = 0x1
FLAG_INVALID = 0x2  # superseded by a later block write; skip at recovery

SIDECAR_DTYPE = np.dtype([
    ("lpa", "<u4"), ("block_offset", "u1"), ("length", "u1"),
    ("flags", "u1"), ("category", "u1"), ("txid", "<u4"), ("seq", "<u8"),
])

_CATEGORY_ID = {c: i for i, c in enumerate(CATEGORIES)}

_INITIAL_ROWS = 1024


def _starts(keys: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values in `keys` begins."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


@dataclass
class ChunkEntry:
    """Index record locating one buffered write within a page."""

    block_offset: int
    log_offset: int
    length: int


@dataclass
class CleanReport:
    pages_flushed: int = 0
    entries_migrated: int = 0
    flash_reads: int = 0
    flash_writes: int = 0


class LogGeneration:
    """One incarnation of the log region.

    Entry i has sidecar row `side[i]` and its payload at `buf[64 * i:]`
    (`length` bytes of a 64B slot).  Appends only grow the tail; the whole
    generation is released at the end of a cleaning pass, which is how the
    circular region wraps.
    """

    def __init__(self, gen_id: int, capacity_bytes: int,
                 buf: bytearray | None = None,
                 side: np.ndarray | None = None):
        self.gen_id = gen_id
        self.capacity_slots = capacity_bytes // CACHELINE
        self.buf = bytearray() if buf is None else buf
        if side is None:
            side = np.zeros(min(_INITIAL_ROWS, self.capacity_slots),
                            dtype=SIDECAR_DTYPE)
            self.tail_slots = 0
        else:
            self.tail_slots = len(side)
        self.side = side

    @property
    def full(self) -> bool:
        return self.tail_slots >= self.capacity_slots

    @property
    def entries(self) -> np.ndarray:
        """Sidecar rows of the appended entries (a view)."""
        return self.side[:self.tail_slots]

    def append(self, row: tuple, payload: bytes) -> int:
        """Store one entry; returns its slot index."""
        slot = self.tail_slots
        if slot == len(self.side):
            grown = np.zeros(min(max(2 * slot, _INITIAL_ROWS),
                                 self.capacity_slots), dtype=SIDECAR_DTYPE)
            grown[:slot] = self.side
            self.side = grown
        self.side[slot] = row
        self.buf += payload
        if len(payload) < CACHELINE:
            self.buf += bytes(CACHELINE - len(payload))
        self.tail_slots = slot + 1
        return slot

    def slot_view(self) -> np.ndarray:
        """The payload as a (slots, 64) uint8 array sharing `buf`."""
        return np.frombuffer(self.buf, dtype=np.uint8).reshape(-1, CACHELINE)


class _PageNode:
    """Third-layer chunk lists for one LPA: per-cacheline version chains."""

    __slots__ = ("lpa", "chains")

    def __init__(self, lpa: int):
        self.lpa = lpa
        # block_offset -> slot indices in append (seq) order
        self.chains: dict[int, list[int]] = {}


class LogIndex:
    """Partitioned skip-list index over the log region."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.partitions: dict[int, SkipList] = {}

    @classmethod
    def build(cls, page_size: int, entries: np.ndarray) -> "LogIndex":
        """Index the valid entries of a sidecar array."""
        index = cls(page_size)
        slots = np.flatnonzero((entries["flags"] & FLAG_INVALID) == 0)
        if slots.size == 0:
            return index
        lpa = entries["lpa"][slots]
        off = entries["block_offset"][slots]
        order = np.lexsort((slots, off, lpa))
        slots, lpa, off = slots[order], lpa[order], off[order]
        cell_start = _starts(lpa.astype(np.int64) << 8 | off)
        starts = cell_start.tolist()
        slot_list = slots.tolist()
        node = None
        for page, line, lo, hi in zip(lpa[cell_start].tolist(),
                                      off[cell_start].tolist(), starts,
                                      starts[1:] + [len(slot_list)]):
            if node is None or node.lpa != page:
                node = index._node_for_insert(page)
            node.chains[line] = slot_list[lo:hi]
        return index

    def _partition_of(self, lpa: int) -> int:
        return (lpa * self.page_size) // PARTITION_BYTES

    def node(self, lpa: int) -> _PageNode | None:
        part = self.partitions.get(self._partition_of(lpa))
        if part is None:
            return None
        return part.get(lpa)

    def _node_for_insert(self, lpa: int) -> _PageNode:
        pidx = self._partition_of(lpa)
        part = self.partitions.get(pidx)
        if part is None:
            part = self.partitions[pidx] = SkipList(seed=pidx)
        node = part.get(lpa)
        if node is None:
            node = _PageNode(lpa)
            part.insert(lpa, node)
        return node

    def insert(self, lpa: int, block_offset: int, slot: int) -> None:
        self._node_for_insert(lpa).chains.setdefault(
            block_offset, []).append(slot)

    def drop_page(self, lpa: int) -> list[int]:
        """Remove every entry for a page (block-write invalidation);
        returns their slots."""
        part = self.partitions.get(self._partition_of(lpa))
        if part is None:
            return []
        node = part.get(lpa)
        if node is None:
            return []
        part.delete(lpa)
        return [slot for chain in node.chains.values() for slot in chain]


class WriteLog:
    def __init__(self, device: FlashDevice, stamp_counter):
        self.device = device
        self.cfg = device.config
        self.stamp = stamp_counter
        self.active_gen = LogGeneration(0, self.cfg.log_region_bytes)
        self._index: LogIndex | None = LogIndex(self.cfg.page_size)
        self.auto_clean_cb = None  # set by the owning device facade
        self._cleaning = False

    @property
    def index(self) -> LogIndex:
        if self._index is None:
            self._index = LogIndex.build(self.cfg.page_size,
                                         self.active_gen.entries)
        return self._index

    def install(self, gen: LogGeneration) -> None:
        """Make `gen` the active generation (its index is built on first
        use)."""
        self.active_gen = gen
        self._index = None

    def new_generation(self, carry: np.ndarray | None = None) -> None:
        """Switch to a fresh generation that starts with the entries at
        slots `carry` of the current one."""
        old = self.active_gen
        buf = side = None
        if carry is not None and carry.size:
            buf = bytearray(old.slot_view()[carry].tobytes())
            side = old.side[carry]
        self.install(LogGeneration(old.gen_id + 1, self.cfg.log_region_bytes,
                                   buf, side))

    # -- write path --------------------------------------------------------

    def byte_write(self, addr: int, data: bytes, txid: int = 0,
                   category: str = "untagged") -> int:
        """Append one cacheline-aligned write; returns slots consumed.

        The caller aligns writes to cachelines and splits them at page
        boundaries; the payload may end short of a cacheline boundary.
        """
        if not data:
            raise InvalidArgument("empty write")
        if addr % CACHELINE:
            raise InvalidArgument("byte writes must start on a cacheline boundary")
        if addr < 0 or addr + len(data) > self.cfg.capacity_bytes:
            raise AddressFault("byte write out of device range")
        page_size = self.cfg.page_size
        if addr // page_size != (addr + len(data) - 1) // page_size:
            raise InvalidArgument("byte write crosses a page boundary")
        cat = _CATEGORY_ID.get(category)
        if cat is None:
            raise InvalidArgument(f"unknown traffic category {category!r}")

        lpa = addr // page_size
        committed_flag = FLAG_COMMITTED_AT_WRITE if txid == 0 else 0
        slots = 0
        pos = 0
        while pos < len(data):
            block_offset = (addr + pos) % page_size // CACHELINE
            length = min(CACHELINE, len(data) - pos)
            self._append(lpa, block_offset, data[pos:pos + length],
                         committed_flag, txid, cat)
            pos += length
            slots += 1
        self.device.clock.advance(slots * self.cfg.cacheline_write_latency_ns)
        if (self.utilization() > self.cfg.clean_threshold
                and self.auto_clean_cb is not None and not self._cleaning):
            self.auto_clean_cb()
        return slots

    def _append(self, lpa, block_offset, payload, flags, txid, cat) -> None:
        gen = self.active_gen
        if gen.full:
            if self.auto_clean_cb is not None and not self._cleaning:
                self.auto_clean_cb()
                gen = self.active_gen
            if gen.full:
                raise BackPressure("write log full")
        index = self.index  # built before the append so it is not indexed twice
        slot = gen.append((lpa, block_offset, len(payload), flags, cat, txid,
                           self.stamp()), payload)
        index.insert(lpa, block_offset, slot)

    # -- read path ---------------------------------------------------------

    def _overlay(self, page: bytearray, node: _PageNode | None) -> None:
        if node is None:
            return
        gen = self.active_gen
        buf = gen.buf
        lengths = gen.side["length"]
        for off, chain in node.chains.items():
            start = off * CACHELINE
            for slot in chain:
                length = int(lengths[slot])
                src = slot * CACHELINE
                page[start:start + length] = buf[src:src + length]

    def byte_read(self, addr: int, length: int, category: str = "untagged"
                  ) -> tuple[bytes, int]:
        """Return (data, cachelines touched)."""
        if length <= 0:
            raise InvalidArgument("empty read")
        if addr < 0 or addr + length > self.cfg.capacity_bytes:
            raise AddressFault("byte read out of device range")
        page_size = self.cfg.page_size
        if addr // page_size != (addr + length - 1) // page_size:
            raise InvalidArgument("byte read crosses a page boundary")
        lpa = addr // page_size
        page_off = addr % page_size
        first_cl = page_off // CACHELINE
        last_cl = (page_off + length - 1) // CACHELINE
        ncl = last_cl - first_cl + 1

        node = self.index.node(lpa)
        fully_covered = node is not None
        if fully_covered:
            lengths = self.active_gen.side["length"]
            for cl in range(first_cl, last_cl + 1):
                # bytes needed within this cacheline end at `need`
                need = min(page_off + length - cl * CACHELINE, CACHELINE)
                chain = node.chains.get(cl)
                if not chain or max(lengths[s] for s in chain) < need:
                    fully_covered = False
                    break

        if fully_covered:
            page = bytearray(page_size)
        else:
            page = bytearray(self.device.read_lpa(lpa, category))
        self._overlay(page, node)
        self.device.clock.advance(ncl * self.cfg.cacheline_read_latency_ns)
        return bytes(page[page_off:page_off + length]), ncl

    def block_read(self, lpa: int, category: str = "untagged") -> bytes:
        page = bytearray(self.device.read_lpa(lpa, category))
        self._overlay(page, self.index.node(lpa))
        return bytes(page)

    def block_write(self, lpa: int, data: bytes, category: str = "untagged") -> None:
        if len(data) != self.cfg.page_size:
            raise InvalidArgument("block write must be one full page")
        self.device.write_lpa(lpa, data, category)
        # Written-back blocks are up to date: invalidate buffered entries.
        dropped = self.index.drop_page(lpa)
        if dropped:
            self.active_gen.side["flags"][dropped] |= FLAG_INVALID

    def index_lookup(self, lpa: int) -> list[ChunkEntry]:
        """Newest live entry per cacheline, sorted by block offset."""
        node = self.index.node(lpa)
        if node is None:
            return []
        lengths = self.active_gen.side["length"]
        out = []
        for off in sorted(node.chains):
            if node.chains[off]:
                slot = node.chains[off][-1]
                out.append(ChunkEntry(off, slot * CACHELINE,
                                      int(lengths[slot])))
        return out

    def utilization(self) -> float:
        return self.active_gen.tail_slots / self.active_gen.capacity_slots

    # -- merge and flush (shared by cleaning and recovery) -----------------

    def commit_order(self, txlog) -> tuple[np.ndarray, np.ndarray]:
        """Per entry of the active generation: whether it is kept (valid,
        and committed at write time or through the TxLog) and its flush
        key (its append seq, or its transaction's commit stamp)."""
        entries = self.active_gen.entries
        flags = entries["flags"]
        at_write = (flags & FLAG_COMMITTED_AT_WRITE) != 0
        key = entries["seq"].astype(np.int64)
        stamps = txlog.stamps
        in_txlog = np.zeros(len(entries), dtype=bool)
        if stamps:
            txids = np.fromiter(stamps, dtype=np.int64, count=len(stamps))
            commit = np.fromiter(stamps.values(), dtype=np.int64,
                                 count=len(stamps))
            by_txid = np.argsort(txids)
            txids, commit = txids[by_txid], commit[by_txid]
            pos = np.searchsorted(txids, entries["txid"]).clip(
                max=txids.size - 1)
            in_txlog = ~at_write & (txids[pos] == entries["txid"])
            key[in_txlog] = commit[pos[in_txlog]]
        keep = (at_write | in_txlog) & ((flags & FLAG_INVALID) == 0)
        return keep, key

    def merge_and_flush(self, keep: np.ndarray, key: np.ndarray
                        ) -> tuple[int, int]:
        """Merge the kept entries of the active generation into their pages
        and write the pages to flash; returns (pages written, pages read).

        A cacheline's entries are overlaid in (key, seq) order, so a newer
        short entry lands on the bytes of older ones.  A page whose
        cachelines are not all covered in full is read from flash first;
        these reads go in LPA order, before any write.  Pages are written
        in the order of their newest entry's key, ties broken by LPA, in
        batches that fill the write buffer, each tagged with its newest
        entry's category.  Merging a partly flushed generation again
        writes the same pages.
        """
        kept = np.flatnonzero(keep)
        if kept.size == 0:
            return 0, 0
        cl_per_page = self.cfg.cachelines_per_page
        gen = self.active_gen
        rows = gen.side[kept]
        key = key[kept]
        seq = rows["seq"]
        lengths = rows["length"]
        lpa = rows["lpa"].astype(np.int64)
        cell = lpa * cl_per_page + rows["block_offset"]

        # each cacheline's entries in (key, seq) order; the last is newest
        order = np.lexsort((seq, key, cell))
        cell = cell[order]
        first = _starts(cell)
        last = np.append(first[1:], cell.size) - 1
        win = order[last]
        covered = np.maximum.reduceat(lengths[order], first)

        # pages in LPA order, and the cachelines (by newest entry) of each
        win_lpa = lpa[win]
        page_first = _starts(win_lpa)
        page_lpa = win_lpa[page_first]
        ncells = np.diff(np.append(page_first, win.size))
        page_of = np.repeat(np.arange(page_lpa.size), ncells)
        partial = (ncells < cl_per_page) | (
            np.minimum.reduceat(covered, page_first) < CACHELINE)

        # the newest entry of a page: greatest key, then greatest seq
        win_key, win_seq = key[win], seq[win]
        page_key = np.maximum.reduceat(win_key, page_first)
        top = win_key == page_key[page_of]
        top_seq = np.maximum.reduceat(np.where(top, win_seq, 0), page_first)
        newest = np.flatnonzero(top & (win_seq == top_seq[page_of]))
        newest = newest[_starts(page_of[newest])]
        page_cat = rows["category"][win[newest]]

        page_size = self.cfg.page_size
        lpas = page_lpa.tolist()
        out = np.zeros((len(lpas), cl_per_page, CACHELINE),
                       dtype=np.uint8)
        pages = out.reshape(len(lpas), page_size)
        reads = np.flatnonzero(partial).tolist()
        for p in reads:
            pages[p] = np.frombuffer(self.device.read_lpa(lpas[p], "untagged"),
                                     dtype=np.uint8)
        slots = gen.slot_view()
        win_off = rows["block_offset"][win]
        whole = lengths[win] == CACHELINE
        out[page_of[whole], win_off[whole]] = slots[kept[win[whole]]]
        # a short newest entry: overlay its cacheline's whole chain
        for j in np.flatnonzero(~whole).tolist():
            line = out[page_of[j], win_off[j]]
            for e in order[first[j]:last[j] + 1].tolist():
                line[:lengths[e]] = slots[kept[e], :lengths[e]]

        cats = [CATEGORIES[c] for c in page_cat.tolist()]
        flush = np.lexsort((page_lpa, page_key)).tolist()
        batch_pages = max(1, self.cfg.write_buffer_bytes // page_size)
        for i in range(0, len(flush), batch_pages):
            self.device.write_pages([
                (self.device.ftl_translate(lpas[p]), pages[p].tobytes(),
                 cats[p])
                for p in flush[i:i + batch_pages]
            ])
        return len(flush), len(reads)

    # -- cleaning (write log cleaning with double buffering) ---------------

    def clean(self, txlog, active_txids: set[int] | None = None) -> CleanReport:
        """Merge committed entries to flash; migrate uncommitted ones.

        `active_txids`, when given, limits migration to transactions that
        are still in flight; entries of aborted transactions are dropped
        (same as crash semantics).  The drained generation stays active,
        and the TxLog intact, until every page is written.
        """
        report = CleanReport()
        self._cleaning = True
        try:
            keep, key = self.commit_order(txlog)
            report.pages_flushed, report.flash_reads = \
                self.merge_and_flush(keep, key)
            report.flash_writes = report.pages_flushed

            entries = self.active_gen.entries
            moved = np.flatnonzero(~keep & ((entries["flags"] & FLAG_INVALID) == 0))
            if active_txids is not None:
                moved = moved[[t in active_txids
                               for t in entries["txid"][moved].tolist()]]
            self.new_generation(moved)
            report.entries_migrated = int(moved.size)
            txlog.clear()
        finally:
            self._cleaning = False
        return report
