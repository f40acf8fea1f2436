"""Host page cache with copy-on-write duplicates for dirty diffing.

A page's pre-modification content is snapshotted into a duplicate on the
first write after load/writeback; the writeback interface choice XORs
current against duplicate at 64B granularity, over the cachelines written
since the duplicate was taken (the other bytes equal the duplicate's).
Eviction is LRU and writes back dirty victims through a callback, which
cleans them.  Each inode's pages are also kept in their own LRU-ordered
map, so fsync and unlink touch only that inode's pages.  Duplicates are
capped at a fraction of cache capacity; exceeding the cap forces
writeback of the least recently used duplicated pages.  The cache counts
its duplicated pages, in all and per inode, so it looks for them only
when the count is over the cap, and an fsync stops looking once it has
found its inode's.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice

from .device import CACHELINE

DUPLICATE_CAP_FRACTION = 0.25


class CachedPage:
    """A cached page; `cache` is the PageCache holding it, if any, whose
    count of duplicated pages `set_duplicate` keeps.  A page holds a
    duplicate exactly while it is dirty, and cachelines [lo, hi) hold
    every byte written since the duplicate was taken."""

    __slots__ = ("ino", "index", "data", "duplicate", "cache", "lo", "hi")

    def __init__(self, ino: int, index: int, data: bytearray,
                 cache: "PageCache | None" = None):
        self.ino = ino
        self.index = index
        self.data = data
        self.duplicate: bytes | None = None
        self.cache = cache
        self.lo = self.hi = 0

    @property
    def dirty(self) -> bool:
        return self.duplicate is not None

    def set_duplicate(self, duplicate: bytes | None) -> None:
        cache = self.cache
        if cache is not None:
            change = (duplicate is not None) - (self.duplicate is not None)
            if change:
                cache.duplicated += change
                dirty = cache.dirty_count
                dirty[self.ino] = dirty.get(self.ino, 0) + change
        self.duplicate = duplicate

    def note_modify(self, off: int = 0, length: int | None = None) -> None:
        """Take the duplicate, if the page has none, before a write of
        `length` bytes at `off` (by default, up to the end of the page)."""
        end = len(self.data) if length is None else off + length
        lo, hi = off // CACHELINE, (end + CACHELINE - 1) // CACHELINE
        if self.duplicate is None:
            self.set_duplicate(bytes(self.data))
        else:
            lo, hi = min(lo, self.lo), max(hi, self.hi)
        self.lo, self.hi = lo, hi

    def dirty_cachelines(self) -> list[int]:
        """Indices of 64B chunks that differ from the duplicate, in the
        written range: mostly a few chunks, where slices beat numpy."""
        data, old = self.data, self.duplicate
        if old is None:
            return []
        return [cl for cl in range(self.lo, self.hi)
                if data[cl * CACHELINE:(cl + 1) * CACHELINE]
                != old[cl * CACHELINE:(cl + 1) * CACHELINE]]

    def clear_dirty(self) -> None:
        self.set_duplicate(None)


class PageCache:
    def __init__(self, capacity_bytes: int, page_size: int, writeback_cb):
        self.page_size = page_size
        self.capacity_pages = max(8, capacity_bytes // page_size)
        self.writeback_cb = writeback_cb
        self.pages: OrderedDict[tuple[int, int], CachedPage] = OrderedDict()
        # ino -> page index -> page, in the order of `pages`
        self.by_ino: dict[int, OrderedDict[int, CachedPage]] = {}
        self.duplicated = 0  # cached pages that hold a duplicate
        self.dirty_count: dict[int, int] = {}  # ino -> those of its pages
        self.duplicate_cap = max(
            2, int(self.capacity_pages * DUPLICATE_CAP_FRACTION))

    def get(self, ino: int, index: int) -> CachedPage | None:
        page = self.pages.get((ino, index))
        if page is not None:
            self.pages.move_to_end((ino, index))
            self.by_ino[ino].move_to_end(index)
        return page

    def insert(self, ino: int, index: int, data: bytearray) -> CachedPage:
        page = CachedPage(ino, index, data, self)
        self.pages[(ino, index)] = page
        self.by_ino.setdefault(ino, OrderedDict())[index] = page
        self._enforce_limits()
        return page

    def drop_inode(self, ino: int) -> None:
        for index in self.by_ino.pop(ino, ()):
            self._forget(self.pages.pop((ino, index)))
        self.dirty_count.pop(ino, None)

    def _forget(self, page: CachedPage) -> None:
        """Stop counting a page that has left the cache."""
        if page.duplicate is not None:
            self.duplicated -= 1
            self.dirty_count[page.ino] -= 1
        page.cache = None

    def dirty_pages(self, ino: int) -> list[CachedPage]:
        """The inode's dirty pages, least recently used first.  They are
        looked for from the most recently used end, where a written page
        is, until the inode's dirty count is found."""
        left = self.dirty_count.get(ino)
        if not left:
            return []
        out = []
        for page in reversed(self.by_ino[ino].values()):
            if page.duplicate is not None:
                out.append(page)
                left -= 1
                if not left:
                    break
        out.reverse()
        return out

    def _enforce_limits(self) -> None:
        while len(self.pages) > self.capacity_pages:
            key, victim = next(iter(self.pages.items()))
            if victim.dirty:
                self.writeback_cb(victim)
            del self.pages[key]
            self._forget(victim)
            pages = self.by_ino[victim.ino]
            del pages[victim.index]
            if not pages:
                del self.by_ino[victim.ino]
        excess = self.duplicated - self.duplicate_cap
        if excess > 0:
            dups = (p for p in self.pages.values() if p.duplicate is not None)
            for victim in list(islice(dups, excess)):
                self.writeback_cb(victim)
