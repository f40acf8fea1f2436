"""Log-structured SSD-DRAM write buffer.

Byte-interface writes land in a log region of 64B payload slots.  Each
slot has one sidecar record (`SIDECAR_DTYPE`): its page, cacheline,
length, flags, traffic category, transaction id and append sequence.  The
payload is a bytearray and the sidecar a numpy structured array; both grow
as entries are appended, and the device image stores them as they are.
Rows are packed into the sidecar's bytes with `struct`, and copied as
bytes when it grows or a clean carries them: numpy copies a 20-byte row
with an unaligned 8-byte field one field at a time.

One visibility rule decides what reads, cleaning and recovery see.  An
entry is visible unless a later block write superseded it
(`FLAG_INVALID`) or its transaction is neither in the TxLog nor active.
Visible entries apply in (key, seq) order, where the key is the append
seq of an entry committed at write, the commit stamp of a transaction in
the TxLog, and `ACTIVE_KEY`, above every stamp, for an active
transaction: a writer reads its own writes, and a commit does not change
what a read shows.  `WriteLog.visibility` states the rule for a whole
generation, searching the TxLog once per run of entries that share a
txid, and `WriteLog.page_entries` for one page.

The index, `WriteLog.index`, is a bare dict that maps each page to the
slots of its valid entries, in append order; `index_pages` rebuilds it
from the sidecar on first use after a clean or an image load.

A piece's entries are appended in one step, one index update and one
`extend`, which stops early for a clean.  The log cleans right after the
entry that takes it from at or below `clean_threshold` to above it, not
after every entry while it stays above (a clean that carries the entries
of active transactions may leave it there), and before an entry when it
is full (`BackPressure` if the entries of active transactions alone fill
it).  A clean merges the visible entries below `ACTIVE_KEY` into their
pages and writes the pages to flash in write-buffer batches
(`merge_and_flush`); recovery is a clean of a device with no open
transaction, so it carries nothing.  Double buffering: a clean drains the
active generation while it is still the one the device image holds, and
only then switches to a fresh generation that carries the entries of
active transactions, so a power loss in the middle of a clean leaves the
draining generation recoverable.

The log checks no host access, keeps no clock and counts no host
traffic: `Mssd` checks and splits each access, so the log receives
page-local pieces that start on a cacheline, and charges their
cachelines; `FlashDevice` charges the flash pages that reads, cleaning
and recovery touch.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .device import CACHELINE, CATEGORIES, FlashDevice
from .errors import BackPressure

FLAG_COMMITTED_AT_WRITE = 0x1
FLAG_INVALID = 0x2  # superseded by a later block write; never visible

# the key of an active transaction's entries: above every commit stamp
ACTIVE_KEY = 2 ** 63 - 1

SIDECAR_DTYPE = np.dtype([
    ("lpa", "<u4"), ("block_offset", "u1"), ("length", "u1"),
    ("flags", "u1"), ("category", "u1"), ("txid", "<u4"), ("seq", "<u8"),
])

_CATEGORY_ID = {c: i for i, c in enumerate(CATEGORIES)}

_ROW = struct.Struct("<IBBBBIQ")  # the bytes of one SIDECAR_DTYPE row
_ROW_BYTES = _ROW.size

_INITIAL_ROWS = 1024


def _starts(keys: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values in `keys` begins."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def merge_order(cell: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The permutation that sorts entries by (cell, key, seq), for entries
    given in seq order (as a generation's slots are) with int64 `cell`
    and `key`.

    One sort of `cell << bits | rank`, where `rank` is an entry's position
    in (key, seq) order, which a stable sort by key gives (and cheaply:
    keys mostly arrive in order).  `DeviceConfig.validate` bounds the
    cell and slot counts so that the packed value fits in 63 bits.
    """
    by_key = np.argsort(key, kind="stable")
    bits = (key.size - 1).bit_length()
    packed = cell[by_key] << bits
    packed |= np.arange(key.size)
    packed.sort()
    packed &= (1 << bits) - 1
    return by_key[packed]


@dataclass
class ChunkEntry:
    """Index record locating one buffered write within a page."""

    block_offset: int
    log_offset: int
    length: int


@dataclass
class CleanReport:
    pages_flushed: int = 0
    entries_flushed: int = 0
    entries_migrated: int = 0
    flash_reads: int = 0


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
        self._rows = memoryview(side.view(np.uint8))  # the sidecar's bytes

    @property
    def entries(self) -> np.ndarray:
        """Sidecar rows of the appended entries (a view)."""
        return self.side[:self.tail_slots]

    def extend(self, lpa: int, first_cl: int, payload, flags: int, cat: int,
               txid: int, seq: int) -> None:
        """Store one entry per 64B of `payload` (the last may be short) for
        the cachelines of page `lpa` from `first_cl`, seqs from `seq`.  The
        last entry is packed on its own, so a one-slot piece packs one
        row."""
        slot, size = self.tail_slots, len(payload)
        full = (size - 1) // CACHELINE  # the entries before the last
        last = slot + full
        if last >= len(self.side):
            grown = np.zeros(min(max(2 * len(self.side), last + 1,
                                     _INITIAL_ROWS), self.capacity_slots),
                             dtype=SIDECAR_DTYPE)
            rows = memoryview(grown.view(np.uint8))
            rows[:slot * _ROW_BYTES] = self._rows[:slot * _ROW_BYTES]
            self.side, self._rows = grown, rows
        pack, rows = _ROW.pack_into, self._rows
        for i in range(full):
            pack(rows, (slot + i) * _ROW_BYTES, lpa, first_cl + i, CACHELINE,
                 flags, cat, txid, seq + i)
        pack(rows, last * _ROW_BYTES, lpa, first_cl + full,
             size - full * CACHELINE, flags, cat, txid, seq + full)
        self.buf += payload
        if size % CACHELINE:  # the rest of the last slot
            self.buf += bytes(-size % CACHELINE)
        self.tail_slots = last + 1

    def slot_view(self) -> np.ndarray:
        """The payload as a (slots, 64) uint8 array sharing `buf`."""
        return np.frombuffer(self.buf, dtype=np.uint8).reshape(-1, CACHELINE)


def index_pages(entries: np.ndarray) -> dict[int, list[int]]:
    """Per page, the slots of the valid entries of a sidecar array, in
    append order."""
    slots = np.flatnonzero((entries["flags"] & FLAG_INVALID) == 0)
    if slots.size == 0:
        return {}
    lpa = entries["lpa"][slots]
    order = np.argsort(lpa, kind="stable")
    slots, lpa = slots[order], lpa[order]
    first = _starts(lpa)
    bounds = first.tolist() + [slots.size]
    slot_list = slots.tolist()
    return {page: slot_list[lo:hi] for page, lo, hi
            in zip(lpa[first].tolist(), bounds, bounds[1:])}


class WriteLog:
    """The write log of one device.  `stamp_counter(n)` hands out n
    consecutive append seqs and returns the first, `txlog` is the device's
    TxLog and `active_txids` returns the set of active transactions."""

    def __init__(self, device: FlashDevice, stamp_counter, txlog,
                 active_txids):
        self.device = device
        self.cfg = device.config
        self.stamp = stamp_counter
        self.txlog = txlog
        self.active_txids = active_txids
        self.active_gen = LogGeneration(0, self.cfg.log_region_bytes)
        self._index: dict[int, list[int]] | None = {}
        # the entry count at which `utilization` first exceeds the threshold
        cap, limit = self.active_gen.capacity_slots, self.cfg.clean_threshold
        self.clean_at = next(n for n in itertools.count(int(limit * cap) - 1)
                             if n / cap > limit)

    @property
    def index(self) -> dict[int, list[int]]:
        if self._index is None:
            self._index = index_pages(self.active_gen.entries)
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
            rows = old.side.view(np.uint8).reshape(-1, _ROW_BYTES)
            side = rows[carry].view(SIDECAR_DTYPE).reshape(-1)  # as bytes
        self.install(LogGeneration(old.gen_id + 1, self.cfg.log_region_bytes,
                                   buf, side))

    # -- write path --------------------------------------------------------

    def byte_write(self, lpa: int, off: int, data: bytes, txid: int,
                   category: str) -> None:
        """Append a piece that `Mssd` checked and split, starting on a
        cacheline of page `lpa`: one entry per cacheline, the last one
        possibly short.  A piece that ends below `clean_at` in a log with
        room is one index update and one `extend`; one that reaches it, or
        finds the log full, is appended in parts with a clean between."""
        cat = _CATEGORY_ID[category]
        flags = 0 if txid else FLAG_COMMITTED_AT_WRITE
        first_cl = off // CACHELINE
        n = (len(data) + CACHELINE - 1) // CACHELINE  # slots left to append
        while True:
            gen = self.active_gen
            tail, cap = gen.tail_slots, gen.capacity_slots
            if tail >= cap:
                self.clean()
                gen = self.active_gen
                tail = gen.tail_slots
                if tail >= cap:  # the active transactions' entries fill it
                    raise BackPressure("write log full")
            # up to the entry that crosses the threshold, or a full log
            clean_at = self.clean_at
            take = (clean_at if tail < clean_at <= cap else cap) - tail
            if take >= n:
                take, piece = n, data
            else:
                piece, data = data[:take * CACHELINE], data[take * CACHELINE:]
            # the index is built, if it must be, before the generation grows
            index = self._index
            if index is None:
                index = self.index
            slots = index.get(lpa)
            if slots is None:
                index[lpa] = slots = []
            slots += range(tail, tail + take)
            gen.extend(lpa, first_cl, piece, flags, cat, txid,
                       self.stamp(take))
            if tail + take == clean_at:
                self.clean()
            if take == n:
                return
            first_cl += take
            n -= take

    # -- read path ---------------------------------------------------------

    def page_entries(self, lpa: int, reader: int | None = None
                     ) -> list[tuple[int, int, int, int, int]]:
        """The visible entries of one page as (key, seq, block offset,
        length, slot), in (key, seq) order: `visibility` for one page.
        The index holds no superseded entry.  `reader` is the one active
        transaction (0: none) whose writes a writer padding its write
        sees; None, a read, sees every active transaction's."""
        slots = self.index.get(lpa)
        if not slots:
            return []
        side = self.active_gen.side
        stamps = self.txlog.index
        active = None
        out = []
        for slot in slots:
            _, off, length, flags, _, txid, seq = side.item(slot)
            if flags & FLAG_COMMITTED_AT_WRITE:
                key = seq
            elif txid in stamps:
                key = stamps[txid]
            else:
                if active is None:
                    active = (self.active_txids() if reader is None
                              else {reader})
                if txid not in active:
                    continue
                key = ACTIVE_KEY
            out.append((key, seq, off, length, slot))
        out.sort()
        return out

    def _overlay(self, page: bytearray, entries: list) -> None:
        buf = self.active_gen.buf
        for _, _, off, length, slot in entries:
            start = off * CACHELINE
            src = slot * CACHELINE
            page[start:start + length] = buf[src:src + length]

    def byte_read(self, lpa: int, page_off: int, length: int,
                  category: str, reader: int | None) -> bytes:
        """Read `length` bytes at offset `page_off` of page `lpa`, a piece
        `Mssd` has checked; `reader` as in `page_entries`."""
        first_cl = page_off // CACHELINE
        last_cl = (page_off + length - 1) // CACHELINE

        entries = self.page_entries(lpa, reader)
        # the log alone serves the read if, in each cacheline, the longest
        # visible entry reaches the last byte the read needs from it
        from_log = False
        if entries:
            longest = dict.fromkeys(range(first_cl, last_cl + 1), 0)
            for _, _, off, n, _ in entries:
                if off in longest and n > longest[off]:
                    longest[off] = n
            tail = page_off + length - last_cl * CACHELINE
            from_log = longest.pop(last_cl) >= tail and all(
                n == CACHELINE for n in longest.values())
        if from_log:
            page = bytearray(self.cfg.page_size)
        else:
            page = bytearray(self.device.read_lpa(lpa, category))
        self._overlay(page, entries)
        return bytes(page[page_off:page_off + length])

    def block_read(self, lpa: int, category: str = "untagged") -> bytes:
        page = self.device.read_lpa(lpa, category)
        entries = self.page_entries(lpa)
        if not entries:  # the flash page as it is
            return page
        page = bytearray(page)
        self._overlay(page, entries)
        return bytes(page)

    def block_read_run(self, lpa: int, count: int, category: str = "untagged"
                       ) -> list[bytes]:
        """`block_read` of the `count` pages from `lpa` with one device
        call, which checks the whole run before anything changes."""
        pages = self.device.read_lpa_run(lpa, count, category)
        logged = self.index  # the pages that have entries
        for i in range(count):
            entries = self.page_entries(lpa + i) if lpa + i in logged else None
            if entries:
                page = bytearray(pages[i])
                self._overlay(page, entries)
                pages[i] = bytes(page)
        return pages

    def block_write(self, lpa: int, data: bytes, category: str = "untagged") -> None:
        # Program and invalidate are one firmware step: the DRAM log is
        # power-protected, so no power cut falls between them.
        self.device.write_lpa(lpa, data, category)
        dropped = self.index.pop(lpa, [])
        if dropped:
            self.active_gen.side["flags"][dropped] |= FLAG_INVALID

    def index_lookup(self, lpa: int) -> list[ChunkEntry]:
        """Newest visible entry per cacheline, sorted by block offset."""
        newest = {off: ChunkEntry(off, slot * CACHELINE, length)
                  for _, _, off, length, slot in self.page_entries(lpa)}
        return [newest[off] for off in sorted(newest)]

    def utilization(self) -> float:
        return self.active_gen.tail_slots / self.active_gen.capacity_slots

    # -- merge and flush ---------------------------------------------------

    def visibility(self) -> tuple[np.ndarray, np.ndarray]:
        """Per entry of the active generation: whether it is visible, and
        its key.  Entries of active transactions have `ACTIVE_KEY`.  The
        TxLog and the active set are searched once per run of entries
        that share a txid, and the answer repeated over the run."""
        entries = self.active_gen.entries
        flags = entries["flags"]
        txid = entries["txid"]
        visible = (flags & FLAG_COMMITTED_AT_WRITE) != 0
        key = entries["seq"].astype(np.int64)
        first = _starts(txid) if txid.size else np.zeros(0, dtype=np.intp)
        run_txid = txid[first]
        run_len = np.diff(np.append(first, txid.size))
        txlog = self.txlog
        if txlog.txids:
            # the TxLog's arrays, sorted by txid if commits came out of order
            txids, commit = np.asarray(txlog.txids), np.asarray(txlog.stamps)
            if (txids[1:] < txids[:-1]).any():
                by_txid = np.argsort(txids)
                txids, commit = txids[by_txid], commit[by_txid]
            pos = np.searchsorted(txids, run_txid).clip(max=txids.size - 1)
            in_txlog = ~visible & np.repeat(txids[pos] == run_txid, run_len)
            key[in_txlog] = np.repeat(commit[pos], run_len)[in_txlog]
            visible |= in_txlog
        active = self.active_txids()
        if active:
            in_active = ~visible & np.repeat(
                np.isin(run_txid, list(active)), run_len)
            key[in_active] = ACTIVE_KEY
            visible |= in_active
        visible &= (flags & FLAG_INVALID) == 0
        return visible, key

    def merge_and_flush(self, keep: np.ndarray, key: np.ndarray
                        ) -> tuple[int, int]:
        """Merge the entries of the active generation that `keep` selects
        into their pages and write the pages to flash; returns (pages
        written, pages read).

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
        side = gen.side
        key = key[kept]
        lengths = side["length"][kept]
        block_offset = side["block_offset"][kept]
        lpa = side["lpa"][kept].astype(np.int64)
        cell = lpa * cl_per_page + block_offset

        # each cacheline's entries in (key, seq) order; the last is newest
        order = merge_order(cell, key)
        cell = cell[order]
        first = _starts(cell)
        last = np.append(first[1:], cell.size) - 1
        win = order[last]
        src = kept[win]  # the slot of each cacheline's newest entry
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
        win_key, win_seq = key[win], side["seq"][src]
        page_key = np.maximum.reduceat(win_key, page_first)
        top = win_key == page_key[page_of]
        top_seq = np.maximum.reduceat(np.where(top, win_seq, 0), page_first)
        newest = np.flatnonzero(top & (win_seq == top_seq[page_of]))
        newest = newest[_starts(page_of[newest])]
        page_cat = side["category"][src[newest]]

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
        win_off = block_offset[win]
        whole = lengths[win] == CACHELINE
        out[page_of[whole], win_off[whole]] = slots[src[whole]]
        # a short newest entry: overlay its cacheline's whole chain
        for j in np.flatnonzero(~whole).tolist():
            line = out[page_of[j], win_off[j]]
            for e in order[first[j]:last[j] + 1].tolist():
                line[:lengths[e]] = slots[kept[e], :lengths[e]]

        cats = [CATEGORIES[c] for c in page_cat.tolist()]
        # pages are in LPA order, so a stable sort breaks key ties by LPA
        flush = np.argsort(page_key, kind="stable").tolist()
        batch_pages = max(1, self.cfg.write_buffer_bytes // page_size)
        for i in range(0, len(flush), batch_pages):
            self.device.write_pages([
                (self.device.ftl_translate(lpas[p]), pages[p].data, cats[p])
                for p in flush[i:i + batch_pages]
            ])
        return len(flush), len(reads)

    # -- cleaning (write log cleaning with double buffering) ---------------

    def clean(self) -> CleanReport:
        """Flush the visible entries below `ACTIVE_KEY` to flash, then
        switch to a fresh generation that carries the other visible
        entries (those of active transactions); the rest are dropped.  The
        drained generation stays active, and the TxLog intact, until every
        page is written."""
        visible, key = self.visibility()
        durable = visible & (key < ACTIVE_KEY)
        pages, reads = self.merge_and_flush(durable, key)
        carry = np.flatnonzero(visible & ~durable)
        self.new_generation(carry)
        self.txlog.clear()
        return CleanReport(pages_flushed=pages,
                           entries_flushed=int(np.count_nonzero(durable)),
                           entries_migrated=int(carry.size), flash_reads=reads)
