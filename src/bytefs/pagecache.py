"""Host page cache with copy-on-write duplicates for dirty diffing.

A page's pre-modification content is snapshotted into a duplicate on the
first write after load/writeback; the writeback interface choice XORs
current against duplicate at 64B granularity.  Eviction is LRU and
writes back dirty victims through a callback.  Each inode's pages are
also kept in their own LRU-ordered map, so fsync and unlink touch only
that inode's pages.  Duplicates are capped at a fraction of cache
capacity; exceeding the cap forces writeback of the oldest duplicated
pages.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .device import CACHELINE

DUPLICATE_CAP_FRACTION = 0.25


class CachedPage:
    __slots__ = ("ino", "index", "data", "duplicate", "dirty")

    def __init__(self, ino: int, index: int, data: bytearray):
        self.ino = ino
        self.index = index
        self.data = data
        self.duplicate: bytes | None = None
        self.dirty = False

    def note_modify(self) -> None:
        if self.duplicate is None:
            self.duplicate = bytes(self.data)
        self.dirty = True

    def dirty_cachelines(self) -> list[int]:
        """Indices of 64B chunks that differ from the duplicate."""
        if self.duplicate is None:
            return []
        now = np.frombuffer(self.data, dtype=np.uint8).reshape(-1, CACHELINE)
        old = np.frombuffer(self.duplicate, dtype=np.uint8).reshape(
            -1, CACHELINE)
        return np.flatnonzero((now != old).any(axis=1)).tolist()

    def clear_dirty(self) -> None:
        self.duplicate = None
        self.dirty = False


class PageCache:
    def __init__(self, capacity_bytes: int, page_size: int, writeback_cb):
        self.page_size = page_size
        self.capacity_pages = max(8, capacity_bytes // page_size)
        self.writeback_cb = writeback_cb
        self.pages: OrderedDict[tuple[int, int], CachedPage] = OrderedDict()
        # ino -> page index -> page, in the order of `pages`
        self.by_ino: dict[int, OrderedDict[int, CachedPage]] = {}

    def get(self, ino: int, index: int) -> CachedPage | None:
        page = self.pages.get((ino, index))
        if page is not None:
            self.pages.move_to_end((ino, index))
            self.by_ino[ino].move_to_end(index)
        return page

    def insert(self, ino: int, index: int, data: bytearray) -> CachedPage:
        page = CachedPage(ino, index, data)
        self.pages[(ino, index)] = page
        self.by_ino.setdefault(ino, OrderedDict())[index] = page
        self._enforce_limits()
        return page

    def drop_inode(self, ino: int) -> None:
        for index in self.by_ino.pop(ino, ()):
            del self.pages[(ino, index)]

    def dirty_pages(self, ino: int) -> list[CachedPage]:
        """The inode's dirty pages, least recently used first."""
        return [p for p in self.by_ino.get(ino, {}).values() if p.dirty]

    def _enforce_limits(self) -> None:
        while len(self.pages) > self.capacity_pages:
            key, victim = next(iter(self.pages.items()))
            if victim.dirty:
                self.writeback_cb(victim)
            del self.pages[key]
            pages = self.by_ino[victim.ino]
            del pages[victim.index]
            if not pages:
                del self.by_ino[victim.ino]
        dup_cap = max(2, int(self.capacity_pages * DUPLICATE_CAP_FRACTION))
        dups = [p for p in self.pages.values() if p.duplicate is not None]
        if len(dups) > dup_cap:
            for victim in dups[:len(dups) - dup_cap]:
                if victim.dirty:
                    self.writeback_cb(victim)
                victim.clear_dirty()
