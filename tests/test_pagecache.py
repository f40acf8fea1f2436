"""The page cache's per-inode index against the cache's own LRU order,
and its count of duplicated pages against a count of the pages."""

from hypothesis import given, settings, strategies as st

from bytefs.device import CACHELINE
from bytefs.pagecache import CachedPage, PageCache

PAGE = 4096


def full_walk_dirty(cache, ino):
    """Dirty pages of `ino` found by walking the whole cache in LRU order."""
    return [p for (i, _), p in cache.pages.items() if i == ino and p.dirty]


def assert_index_in_step(cache):
    assert all(cache.by_ino.values())  # no empty per-inode maps
    assert cache.dirty.keys() <= cache.by_ino.keys()
    for ino, pages in cache.by_ino.items():
        assert sorted(pages) == sorted(i for (j, i) in cache.pages if j == ino)
        for index, page in pages.items():
            assert cache.pages[(ino, index)] is page
    assert sum(map(len, cache.by_ino.values())) == len(cache.pages)
    assert cache.duplicated == sum(p.duplicate is not None
                                   for p in cache.pages.values())
    for ino in cache.by_ino.keys() | cache.dirty.keys():
        dirty = cache.dirty.get(ino, {})
        assert list(dirty.values()) == full_walk_dirty(cache, ino)
        assert all(index == p.index for index, p in dirty.items())


def make_cache(written, pages=8):
    """A cache of `pages` pages; a quarter of them may hold duplicates."""
    def writeback(page):
        written.append((page.ino, page.index))
        page.clear_dirty()
    return PageCache(pages * PAGE, PAGE, writeback)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("insert", "get", "modify",
                                           "drop", "writeback",
                                           "duplicate")),
                          st.integers(0, 2), st.integers(0, 5)),
                min_size=20, max_size=80))
def test_index_matches_pages_and_full_walk(ops):
    """`insert` and `drop` use the drawn inode and page index; `get`,
    `modify`, `writeback` and `duplicate` act on a cached page picked by
    them.  `duplicate` replaces or drops a page's duplicate, as a direct
    write over a cached page does."""
    cache = make_cache([], pages=12)  # 12 pages, 3 duplicates
    dropped = []
    for op, ino, index in ops:
        if op == "insert" and (ino, index) not in cache.pages:
            cache.insert(ino, index, bytearray(PAGE))
        elif op == "drop":
            dropped += cache.by_ino.get(ino, {}).values()
            cache.drop_inode(ino)
        elif op in ("get", "modify", "writeback", "duplicate") and cache.pages:
            keys = list(cache.pages)
            key = keys[(ino * 6 + index) % len(keys)]
            page = cache.get(*key) if op == "get" else cache.pages[key]
            if op == "modify":
                page.note_modify()
                page.data[0] ^= 1
            elif op == "writeback":
                page.clear_dirty()
            elif op == "duplicate" and page.duplicate is not None:
                page.set_duplicate(None if index % 2 else bytes(page.data))
        for page in dropped:  # pages no longer cached count for nothing
            page.note_modify()
            page.clear_dirty()
        assert_index_in_step(cache)
        for i in range(3):
            # the inode's dirty map against a full scan in LRU order
            assert cache.dirty_pages(i) == full_walk_dirty(cache, i)
            assert {p.index for p in cache.dirty_pages(i)} == {
                index for index, p in cache.by_ino.get(i, {}).items()
                if p.dirty}


def test_dirty_pages_follow_lru_order_not_page_order():
    cache = make_cache([], pages=64)
    for index in (5, 1, 3):
        cache.insert(7, index, bytearray(PAGE)).note_modify()
    cache.insert(8, 0, bytearray(PAGE)).note_modify()
    cache.get(7, 1)
    assert [p.index for p in cache.dirty_pages(7)] == [5, 3, 1]
    assert [p.index for p in cache.dirty_pages(8)] == [0]
    assert cache.dirty_pages(9) == []


def test_eviction_writes_back_dirty_victims_and_unindexes_them():
    written = []
    cache = make_cache(written)
    for index in range(8):
        cache.insert(index % 2, index, bytearray(PAGE))
    cache.get(0, 0)
    cache.get(1, 1).note_modify()
    # LRU order: (0,2) (1,3) (0,4) (1,5) (0,6) (1,7) (0,0) (1,1)
    for index in range(6):
        cache.insert(2, index, bytearray(PAGE))
    assert written == []
    assert list(cache.pages)[:2] == [(0, 0), (1, 1)]
    assert list(cache.by_ino[1]) == [1]
    cache.insert(2, 6, bytearray(PAGE))   # evicts (0, 0), clean
    cache.insert(2, 7, bytearray(PAGE))   # evicts (1, 1), dirty
    assert written == [(1, 1)]
    assert set(cache.by_ino) == {2}
    assert_index_in_step(cache)


def test_drop_inode_removes_only_that_inode():
    cache = make_cache([], pages=64)
    for index in range(3):
        cache.insert(1, index, bytearray(PAGE)).note_modify()
        cache.insert(2, index, bytearray(PAGE))
    cache.drop_inode(1)
    assert list(cache.pages) == [(2, 0), (2, 1), (2, 2)]
    assert cache.dirty_pages(1) == []
    cache.drop_inode(1)  # nothing cached: no error
    assert_index_in_step(cache)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, PAGE - 1), st.integers(0, 255)),
                max_size=12))
def test_dirty_cachelines_match_a_per_cacheline_loop(writes):
    page = CachedPage(1, 0, bytearray(range(256)) * (PAGE // 256))
    assert page.dirty_cachelines() == []
    page.note_modify()
    for pos, value in writes:
        page.data[pos] = value
    want = [cl for cl in range(PAGE // CACHELINE)
            if page.data[cl * CACHELINE:(cl + 1) * CACHELINE]
            != page.duplicate[cl * CACHELINE:(cl + 1) * CACHELINE]]
    assert page.dirty_cachelines() == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, PAGE - 1),
                          st.binary(min_size=1, max_size=300)),
                max_size=10))
def test_dirty_cachelines_of_the_written_range_match_the_whole_page(writes):
    """A write through the cache calls `note_modify(off, length)` first; a
    direct write patches the page and its duplicate alike.  Comparing the
    written range only finds what a loop over the whole page finds."""
    page = CachedPage(1, 0, bytearray(range(256)) * (PAGE // 256))
    for through_cache, off, data in writes:
        data = data[:PAGE - off]
        if through_cache:
            page.note_modify(off, len(data))
        elif page.duplicate is not None:
            dup = bytearray(page.duplicate)
            dup[off:off + len(data)] = data
            page.set_duplicate(bytes(dup))
        page.data[off:off + len(data)] = data
    want = [cl for cl in range(PAGE // CACHELINE)
            if page.duplicate is not None
            and page.data[cl * CACHELINE:(cl + 1) * CACHELINE]
            != page.duplicate[cl * CACHELINE:(cl + 1) * CACHELINE]]
    assert page.dirty_cachelines() == want
