import hashlib
import random
import types

import pytest
from hypothesis import event, given, settings, strategies as st

from bytefs import bench
from bytefs.device import CACHELINE, TrafficCounters
from bytefs.errors import (
    AlreadyExists, DirectoryNotEmpty, FsError, InvalidArgument, IsADirectory,
    NotADirectory, NotFound, SpaceExhausted,
)
from bytefs.fs import (
    MODES, ByteFS, _first_clear, _set_bits, make_mssd, mkfs, recover_fs,
)
from bytefs.image import crash_clone
from bytefs.layout import ROOT_INO

from conftest import small_config
from refmodel import RefFS


def make_fs(mode="full", journal="ordered", cache_bytes=None, **cfg):
    mssd = make_mssd(small_config(**cfg), mode)
    mkfs(mssd)
    kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
    fs = ByteFS(mssd, mode=mode, journal=journal, **kwargs)
    fs.mount()
    return fs


def write_file(fs, path, offset, data):
    fd = fs.open(path)
    try:
        fs.write(fd, offset, data)
    finally:
        fs.close(fd)


def read_file(fs, path, offset, length):
    fd = fs.open(path)
    try:
        return fs.read(fd, offset, length)
    finally:
        fs.close(fd)


def fsync_file(fs, path):
    fd = fs.open(path)
    try:
        fs.fsync(fd)
    finally:
        fs.close(fd)


def remount(fs):
    fs2 = ByteFS(fs.mssd, mode=fs.mode, journal=fs.journal_mode)
    fs2.mount()
    return fs2


# ---------------------------------------------------------------------------
# basics


@pytest.mark.parametrize("mode", MODES)
def test_create_write_read_roundtrip(mode):
    fs = make_fs(mode)
    fs.create("/hello.txt")
    write_file(fs, "/hello.txt", 0, b"hello, world")
    assert read_file(fs, "/hello.txt", 0, 100) == b"hello, world"
    assert fs.lookup("/hello.txt").size == 12


@pytest.mark.parametrize("mode", MODES)
def test_contents_survive_remount(mode):
    fs = make_fs(mode)
    fs.mkdir("/d")
    fs.create("/d/f")
    write_file(fs, "/d/f", 0, b"\xab" * 10000)
    fsync_file(fs, "/d/f")
    fs2 = remount(fs)
    assert read_file(fs2, "/d/f", 0, 10000) == b"\xab" * 10000
    assert fs2.lookup("/d/f").size == 10000


def test_create_existing_raises_and_writes_nothing():
    fs = make_fs()
    fs.create("/f")
    before = fs.mssd.traffic_snapshot()
    with pytest.raises(AlreadyExists):
        fs.create("/f")
    delta = fs.mssd.traffic_snapshot().delta(before)
    assert delta.host_to_ssd_bytes == 0


def test_namespace_errors():
    fs = make_fs()
    with pytest.raises(NotFound):
        fs.lookup("/missing")
    fs.create("/f")
    with pytest.raises(NotADirectory):
        fs.create("/f/child")
    with pytest.raises(IsADirectory):
        fs.open("/")
    fs.mkdir("/d")
    fs.create("/d/x")
    with pytest.raises(DirectoryNotEmpty):
        fs.rmdir("/d")
    with pytest.raises(IsADirectory):
        fs.unlink("/d")
    with pytest.raises(NotADirectory):
        fs.rmdir("/f")
    with pytest.raises(InvalidArgument):
        fs.lookup("relative/path")


def test_unlink_restores_bitmaps():
    fs = make_fs()
    fs.create("/keep")
    write_file(fs, "/keep", 0, b"x" * 5000)
    fsync_file(fs, "/keep")
    ibmp, bbmp = bytes(fs._ibmp), bytes(fs._bbmp)
    fs.create("/tmp")
    write_file(fs, "/tmp", 0, b"y" * 9000)
    fsync_file(fs, "/tmp")
    assert (bytes(fs._ibmp), bytes(fs._bbmp)) != (ibmp, bbmp)
    fs.unlink("/tmp")
    assert (bytes(fs._ibmp), bytes(fs._bbmp)) == (ibmp, bbmp)
    assert fs.fsck() == []


def test_rename_within_and_across_dirs():
    fs = make_fs()
    fs.mkdir("/a")
    fs.mkdir("/b")
    fs.create("/a/f")
    write_file(fs, "/a/f", 0, b"payload")
    fs.rename("/a/f", "/a/g")
    assert fs.readdir("/a") == ["g"]
    fs.rename("/a/g", "/b/h")
    assert fs.readdir("/a") == []
    assert read_file(fs, "/b/h", 0, 7) == b"payload"
    # replacing an existing file
    fs.create("/b/i")
    write_file(fs, "/b/i", 0, b"old")
    fs.rename("/b/h", "/b/i")
    assert read_file(fs, "/b/i", 0, 7) == b"payload"
    assert fs.readdir("/b") == ["i"]
    # moving a directory updates link counts
    fs.mkdir("/a/sub")
    fs.rename("/a/sub", "/b/sub")
    assert fs.lookup("/a").links == 2
    assert fs.lookup("/b").links == 3
    assert fs.fsck() == []


def test_mode_fixed_while_mounted():
    fs = make_fs("dual")
    with pytest.raises(InvalidArgument):
        ByteFS(fs.mssd, mode="turbo")


def test_clean_fsync_issues_no_transaction():
    fs = make_fs()
    fs.create("/f")
    write_file(fs, "/f", 0, b"z" * 100)
    fsync_file(fs, "/f")
    entries = len(fs.mssd.txlog.entries)
    clock = fs.mssd.clock_ns
    fsync_file(fs, "/f")  # nothing dirty
    assert len(fs.mssd.txlog.entries) == entries
    assert fs.mssd.clock_ns == clock


def test_timestamps_advance_with_sim_clock():
    fs = make_fs()
    fs.create("/f")
    t0 = fs.lookup("/f").mtime_ns
    write_file(fs, "/f", 0, b"data")
    assert fs.lookup("/f").mtime_ns >= t0


# ---------------------------------------------------------------------------
# traffic accounting


def test_create_metadata_write_traffic_is_320_bytes():
    fs = make_fs()
    fs.create("/first")  # pays for the root dir block allocation
    before = fs.mssd.traffic_snapshot()
    fs.create("/other")  # same-length name, steady state
    delta = fs.mssd.traffic_snapshot().delta(before)
    meta = sum(delta.by_category["host_to_ssd"][c]
               for c in ("inode", "bitmap", "dentry"))
    # inode 128B + inode bitmap group 64B + dentry 64B + parent inode 64B
    assert meta == 320
    assert delta.by_category["host_to_ssd"]["data"] == 0


def test_metadata_reads_are_cached():
    fs = make_fs()
    fs.mkdir("/d")
    fs.create("/d/f")
    fs.lookup("/d/f")
    before = fs.mssd.traffic_snapshot()
    fs.lookup("/d/f")
    delta = fs.mssd.traffic_snapshot().delta(before)
    assert sum(delta.total(d) for d in delta.DIRECTIONS) == 0


def test_cold_file_read_uses_block_interface():
    fs = make_fs()
    fs.create("/f")
    write_file(fs, "/f", 0, bytes(range(256)) * 64)  # 16 KiB
    fsync_file(fs, "/f")
    fs2 = remount(fs)
    before = fs2.mssd.traffic_snapshot()
    assert read_file(fs2, "/f", 0, 16384) == bytes(range(256)) * 64
    delta = fs2.mssd.traffic_snapshot().delta(before)
    assert delta.by_category["ssd_to_host"]["data"] == 4 * 4096


def test_writeback_ratio_boundary():
    # 7 dirty cachelines of 64 -> byte path; 8 -> block path
    for n, expect in ((7, 7 * CACHELINE), (8, 4096)):
        fs = make_fs("full")
        fs.create("/f")
        write_file(fs, "/f", 0, bytes(4096))
        fsync_file(fs, "/f")
        fd = fs.open("/f")
        for i in range(n):
            fs.write(fd, i * 512, b"\xff")  # distinct cachelines
        before = fs.mssd.traffic_snapshot()
        fs.fsync(fd)
        delta = fs.mssd.traffic_snapshot().delta(before)
        assert delta.by_category["host_to_ssd"]["data"] == expect
        fs.close(fd)


def test_writeback_is_block_only_outside_full_mode():
    fs = make_fs("dual_log")
    fs.create("/f")
    write_file(fs, "/f", 0, b"\x01")  # a single dirty cacheline
    before = fs.mssd.traffic_snapshot()
    fsync_file(fs, "/f")
    delta = fs.mssd.traffic_snapshot().delta(before)
    assert delta.by_category["host_to_ssd"]["data"] == 4096


def test_direct_io_size_boundary():
    for size, expect in ((512, 512), (513, 4096)):
        fs = make_fs("full")
        fs.create("/f")
        fd = fs.open("/f", direct=True)
        before = fs.mssd.traffic_snapshot()
        fs.write(fd, 0, b"\x5a" * size)
        delta = fs.mssd.traffic_snapshot().delta(before)
        assert delta.by_category["host_to_ssd"]["data"] == expect
        assert fs.read(fd, 0, size) == b"\x5a" * size
        fs.close(fd)


def test_direct_and_buffered_views_agree():
    fs = make_fs()
    fs.create("/f")
    write_file(fs, "/f", 0, b"A" * 2000)
    fsync_file(fs, "/f")
    fd = fs.open("/f", direct=True)
    fs.write(fd, 100, b"B" * 300)
    assert fs.read(fd, 0, 2000) == b"A" * 100 + b"B" * 300 + b"A" * 1600
    fs.close(fd)
    assert read_file(fs, "/f", 0, 2000) == b"A" * 100 + b"B" * 300 + b"A" * 1600


# ---------------------------------------------------------------------------
# directories at scale, extents


def test_large_directory_delete_and_reuse():
    fs = make_fs()
    fs.mkdir("/d")
    names = [f"/d/file-{i:04d}" for i in range(200)]
    for n in names:
        fs.create(n)
    assert len(fs.readdir("/d")) == 200
    size_before = fs.lookup("/d").size
    for n in names:
        fs.unlink(n)
    assert fs.readdir("/d") == []
    for n in names:
        fs.create(n)  # tombstone slots are reused
    assert fs.lookup("/d").size == size_before
    assert len(fs.readdir("/d")) == 200
    assert fs.fsck() == []


def test_fragmented_file_spills_extents():
    fs = make_fs()
    fs.create("/a")
    fs.create("/b")
    for i in range(8):  # interleave to defeat extent merging
        write_file(fs, "/a", i * 4096, bytes([i + 1]) * 4096)
        fsync_file(fs, "/a")
        write_file(fs, "/b", i * 4096, bytes([0x80 + i]) * 4096)
        fsync_file(fs, "/b")
    inode = fs.lookup("/a")
    assert len(inode.extents) > 3
    assert inode.spill_block != 0
    fs2 = remount(fs)
    for i in range(8):
        assert read_file(fs2, "/a", i * 4096, 4096) == bytes([i + 1]) * 4096
    assert fs2.fsck() == []


def test_sparse_file_reads_zeros_in_holes():
    fs = make_fs()
    fs.create("/f")
    write_file(fs, "/f", 10 * 4096, b"tail")
    assert fs.lookup("/f").size == 10 * 4096 + 4
    assert read_file(fs, "/f", 4096, 64) == bytes(64)
    fsync_file(fs, "/f")
    assert fs.fsck() == []


def test_small_cache_evicts_and_writes_back():
    fs = make_fs(cache_bytes=8 * 4096)
    fs.create("/f")
    for i in range(40):
        write_file(fs, "/f", i * 4096, bytes([i + 1]) * 4096)
    fsync_file(fs, "/f")
    fs2 = remount(fs)
    for i in range(40):
        assert read_file(fs2, "/f", i * 4096, 4096) == bytes([i + 1]) * 4096


# ---------------------------------------------------------------------------
# crash consistency and fsck


def test_fsynced_data_survives_crash():
    fs = make_fs("full")
    fs.mkdir("/d")
    fs.create("/d/f")
    write_file(fs, "/d/f", 0, b"\x42" * 300)
    fsync_file(fs, "/d/f")
    after, _report = recover_fs(crash_clone(fs.mssd), mode="full")
    assert read_file(after, "/d/f", 0, 300) == b"\x42" * 300
    assert after.fsck() == []


def test_unsynced_data_absent_after_crash():
    fs = make_fs("full")
    fs.create("/f")
    fsync_file(fs, "/f")
    write_file(fs, "/f", 0, b"\x99" * 100)  # never synced
    after, _report = recover_fs(crash_clone(fs.mssd), mode="full")
    assert after.lookup("/f").size == 0
    assert after.fsck() == []


def test_data_journal_record_replayed_after_crash():
    fs = make_fs("full", journal="data")
    fs.create("/f")
    write_file(fs, "/f", 0, b"x" * 4096)
    fsync_file(fs, "/f")
    lba = fs.lookup("/f").extents[0].lba
    # a committed journal record whose checkpoint never happened
    pending = types.SimpleNamespace(journaled=[(lba, b"\x77" * 4096)],
                                    txid=None)
    fs._journal_write(pending)
    after, _report = recover_fs(crash_clone(fs.mssd), mode="full",
                                journal="data")
    assert read_file(after, "/f", 0, 4096) == b"\x77" * 4096
    assert after.fsck() == []
    # replay retired the record: a second recovery changes nothing
    again, _ = recover_fs(crash_clone(after.mssd), mode="full", journal="data")
    assert read_file(again, "/f", 0, 4096) == b"\x77" * 4096


def test_data_journal_roundtrip_many_syncs():
    fs = make_fs("full", journal="data")
    fs.create("/f")
    for i in range(30):  # enough to wrap the 64-block journal area
        write_file(fs, "/f", (i % 5) * 4096, bytes([i + 1]) * 4096)
        fsync_file(fs, "/f")
    fs2 = remount(fs)
    for i in range(25, 30):
        assert read_file(fs2, "/f", (i % 5) * 4096, 4096) == bytes([i + 1]) * 4096
    assert fs2.fsck() == []


def test_fsck_detects_stray_allocated_block():
    fs = make_fs()
    fs.create("/f")
    write_file(fs, "/f", 0, b"x")
    fsync_file(fs, "/f")
    victim = fs.sb.total_blocks - 2
    fs._set_bit(fs._bbmp, victim, True)
    problems = fs.fsck()
    assert any(f"block {victim}" in p and "unreferenced" in p
               for p in problems)


def test_fsck_detects_bad_link_count():
    fs = make_fs()
    fs.mkdir("/d")
    fs._load_inode(fs.lookup("/d").ino).links = 7
    assert any("links" in p for p in fs.fsck())


def test_fsck_reports_each_bitmap_fault_exactly():
    fs = make_fs()
    for path in ("/a", "/b"):
        fs.create(path)
        write_file(fs, path, 0, b"x" * 8192)
        fsync_file(fs, path)
    sb = fs.sb
    a, b = fs.lookup("/a"), fs.lookup("/b")
    assert (sb.data_start, sb.total_blocks, sb.inode_count) == (99, 2048, 1024)
    assert (a.ino, a.all_blocks(), b.ino) == (3, [100, 101], 4)
    fs._set_bit(fs._ibmp, b.ino, False)             # reachable, not allocated
    fs._set_bit(fs._ibmp, 40, True)                 # allocated, unreachable
    fs._set_bit(fs._ibmp, sb.inode_count - 1, True)
    fs._set_bit(fs._bbmp, 101, False)               # referenced, not allocated
    fs._set_bit(fs._bbmp, sb.data_start + 100, True)  # allocated, unreferenced
    fs._set_bit(fs._bbmp, sb.total_blocks - 1, True)  # ... the last data block
    fs._set_bit(fs._bbmp, sb.total_blocks, True)    # padding: not a block
    fs._set_bit(fs._ibmp, sb.inode_count, True)     # padding: not an inode
    assert fs.fsck() == [
        "inode 4 in use but not allocated (/b)",
        "inode 40 allocated but unreachable",
        "inode 1023 allocated but unreachable",
        "block 101 referenced but not allocated",
        "block 199 allocated but unreferenced",
        "block 2047 allocated but unreferenced",
    ]


# ---------------------------------------------------------------------------
# allocation policy against a reference scan

TINY_BLOCKS = 125  # not a multiple of 8: the last bitmap byte has padding


def make_tiny_fs(inode_count=64):
    """A device of TINY_BLOCKS blocks whose data region starts at block 13."""
    mssd = make_mssd(small_config(capacity_bytes=TINY_BLOCKS * 4096), "full")
    mkfs(mssd, inode_count=inode_count, journal_blocks=8)
    fs = ByteFS(mssd, mode="full")
    fs.mount()
    return fs


def first_fit_ref(bitmap, start, stop, wrap_from=None):
    """The allocation policy as a plain bit-by-bit scan: the first clear
    bit in [start, stop), else the first clear bit in [wrap_from, start)."""
    order = list(range(start, stop))
    if wrap_from is not None:
        order += range(wrap_from, start)
    for idx in order:
        if not bitmap[idx // 8] >> (idx % 8) & 1:
            return idx
    return None


@settings(max_examples=300, deadline=None)
@given(bitmap=st.lists(st.one_of(st.just(0xff), st.integers(0, 255)),
                       max_size=40).map(bytearray),
       data=st.data())
def test_bitmap_scans_match_bit_loops(bitmap, data):
    lo = data.draw(st.integers(0, 8 * len(bitmap)), label="lo")
    hi = data.draw(st.integers(0, 8 * len(bitmap)), label="hi")
    assert _first_clear(bitmap, lo, hi) == first_fit_ref(bitmap, lo, hi)
    assert _set_bits(bitmap, lo, hi) == [
        i for i in range(lo, hi) if bitmap[i // 8] >> (i % 8) & 1]


def check_allocations(fs):
    """Make `fs` compare every block and inode it hands out, and every
    refusal, with `first_fit_ref`.  Returns the list of (kind, number)
    handed out, in order."""
    handed = []
    real_block, real_ino = fs._alloc_block, fs._alloc_ino

    def checked(kind, real, want):
        try:
            got = real()
        except SpaceExhausted:
            assert want is None
            raise
        assert got == want
        handed.append((kind, got))
        return got

    def alloc_block():
        sb = fs.sb
        return checked("block", real_block, first_fit_ref(
            fs._bbmp, fs._alloc_hint, sb.total_blocks, sb.data_start))

    def alloc_ino():
        return checked("inode", real_ino, first_fit_ref(
            fs._ibmp, ROOT_INO + 1, fs.sb.inode_count))

    fs._alloc_block, fs._alloc_ino = alloc_block, alloc_ino
    return handed


@settings(max_examples=100, deadline=None)
@given(hint=st.integers(0, TINY_BLOCKS),
       ops=st.lists(st.tuples(st.sampled_from(("create", "write", "write",
                                               "unlink")),
                              st.integers(0, 63), st.integers(0, 31),
                              st.integers(1, 12)),
                    min_size=30, max_size=120))
def test_allocator_matches_first_fit_reference(hint, ops):
    fs = make_tiny_fs(inode_count=32)  # 29 free inodes
    handed = check_allocations(fs)
    # start anywhere in the data region, so that short runs wrap too
    fs._alloc_hint = max(hint, fs.sb.data_start)
    live = []
    try:
        for i, (op, k, page, npages) in enumerate(ops):
            if op == "create":
                live.append(f"/f{i}")
                fs.create(live[-1])
            elif op == "write" and live:
                fd = fs.open(live[k % len(live)])
                fs.write(fd, page * 4096, bytes([k + 1]) * (npages * 4096 - k))
                fs.fsync(fd)
                fs.close(fd)
            elif op == "unlink" and live:
                fs.unlink(live.pop(k % len(live)))
    except SpaceExhausted as exc:
        event(f"refused: {exc}")
        return
    finally:
        blocks = [num for kind, num in handed if kind == "block"]
        if any(b < a for a, b in zip(blocks, blocks[1:])):
            event("wrapped below the hint")
    assert all(num < TINY_BLOCKS for num in blocks)
    assert fs.fsck() == []


def test_alloc_block_wraps_below_hint_and_never_returns_padding():
    fs = make_tiny_fs()
    handed = check_allocations(fs)
    sb = fs.sb
    fs.create("/a")
    write_file(fs, "/a", 0, b"a" * 4096)
    fsync_file(fs, "/a")
    low = fs.lookup("/a").all_blocks()[0]
    fs.create("/big")
    free = sb.total_blocks - sum(bin(x).count("1") for x in fs._bbmp)
    write_file(fs, "/big", 0, b"b" * (free * 4096))
    fsync_file(fs, "/big")
    assert handed[-1] == ("block", sb.total_blocks - 1)
    assert fs._alloc_hint == sb.total_blocks
    fs.unlink("/a")
    fs.create("/c")
    write_file(fs, "/c", 0, b"c" * 4096)
    fsync_file(fs, "/c")
    assert handed[-1] == ("block", low)
    write_file(fs, "/c", 4096, b"d" * 4096)
    with pytest.raises(SpaceExhausted):
        fsync_file(fs, "/c")
    assert all(num < sb.total_blocks for kind, num in handed
               if kind == "block")


def test_alloc_ino_takes_lowest_free_and_exhausts():
    fs = make_tiny_fs(inode_count=32)
    handed = check_allocations(fs)
    for i in range(29):
        fs.create(f"/f{i}")
    assert [n for kind, n in handed if kind == "inode"] == list(range(3, 32))
    with pytest.raises(SpaceExhausted):
        fs.create("/full")
    fs.unlink("/f5")
    fs.unlink("/f2")
    assert fs.create("/g") == 5
    assert fs.create("/h") == 8
    assert fs.fsck() == []


# ---------------------------------------------------------------------------
# randomized equivalence against the reference model


@pytest.mark.parametrize("mode", MODES)
def test_randomized_equivalence(mode):
    fs = make_fs(mode)
    ref = RefFS()
    rng = random.Random(0xBEEF ^ hash(mode) & 0xFFFF)
    dirs = ["/"] + [f"/d{i}" for i in range(4)]
    names = [f"f{i}" for i in range(8)]

    def rand_path():
        d = rng.choice(dirs)
        return (d if d != "/" else "") + "/" + rng.choice(names)

    for _ in range(600):
        op = rng.randrange(8)
        try:
            if op == 0:
                path = rng.choice(dirs[1:])
                expect_op(fs.mkdir, ref.mkdir, path)
            elif op == 1:
                expect_op(fs.create, ref.create, rand_path())
            elif op == 2:
                expect_op(fs.unlink, ref.unlink, rand_path())
            elif op == 3:
                path = rng.choice(dirs[1:])
                expect_op(fs.rmdir, ref.rmdir, path)
            elif op == 4:
                old, new = rand_path(), rand_path()
                expect_op2(fs.rename, ref.rename, old, new)
            elif op == 5:
                path = rand_path()
                offset = rng.randrange(0, 3 * 4096)
                data = rng.randbytes(rng.randrange(1, 900))
                try:
                    fd = fs.open(path)
                except Exception as exc:
                    with pytest.raises(type(exc)):
                        ref.write(path, offset, data)
                    continue
                fs.write(fd, offset, data)
                if rng.random() < 0.3:
                    fs.fsync(fd)
                fs.close(fd)
                ref.write(path, offset, data)
            elif op == 6:
                path = rand_path()
                offset = rng.randrange(0, 3 * 4096)
                length = rng.randrange(1, 2000)
                try:
                    got = read_file(fs, path, offset, length)
                except Exception as exc:
                    with pytest.raises(type(exc)):
                        ref.read(path, offset, length)
                    continue
                assert got == ref.read(path, offset, length)
            else:
                path = rng.choice(dirs)
                try:
                    got = fs.readdir(path)
                except Exception as exc:
                    with pytest.raises(type(exc)):
                        ref.readdir(path)
                    continue
                assert got == ref.readdir(path)
        except AssertionError:
            raise
    # final deep comparison, both live and after a fresh mount
    for check_fs in (fs, _synced_remount(fs)):
        for path in ref.walk_files():
            size = ref.size(path)
            assert check_fs.lookup(path).size == size
            if size:
                assert read_file(check_fs, path, 0, size) == \
                    ref.read(path, 0, size)
    assert fs.fsck() == []


def _synced_remount(fs):
    fs.sync()
    return remount(fs)


def expect_op(fs_fn, ref_fn, *args):
    try:
        fs_fn(*args)
    except FsError as exc:
        with pytest.raises(type(exc)):
            ref_fn(*args)
        return
    ref_fn(*args)


expect_op2 = expect_op


# What `_pinned_run` leaves in each mode: sim_ns, the traffic totals
# (host_to_ssd, ssd_to_host, flash_read, flash_write) and the sha256 of the
# flash pages plus the FTL map.  A change not meant to alter the model
# keeps them.
PINNED = {
    "block_only": (21220000, (1331200, 176128, 176128, 1331200),
                   "5231b20ee7ed68fcf0c3d965229be9b8"
                   "c6d5de68e3285fba53fa7633ac07f325"),
    "dual": (46219400, (418752, 176128, 1753088, 1970176),
             "5f8357dc38377e6942e253ff729f2f6f"
             "516fd720e5951cb133492097f72e5364"),
    "dual_log": (7719400, (418752, 176128, 176128, 393216),
                 "877bd7164076e713dd592e009a10cacc"
                 "678264d3caa388720c106b82c69bee56"),
    "full": (7596600, (410944, 168384, 172032, 385024),
             "884589c183d48b2b3c37e8c70aebc066"
             "0a48fa9717c2f4e4ff666a403251c6ef"),
}


def _pinned_run(mode):
    """A short fileserver trace, direct I/O across a page boundary at both
    sides of the 512 B byte-interface limit, and a sync of dirty pages."""
    fs = make_fs(mode, cache_bytes=64 * 1024)
    fds = {}
    for rec in bench.build_workload(bench.WorkloadSpec(
            "fileserver", seed=3, ops=120, threads=2)):
        bench.apply_record(fs, rec, fds)
    fs.create("/direct")
    fd = fs.open("/direct", direct=True)
    for offset, size in ((4096 - 100, 300), (2 * 4096 - 1000, 2000)):
        fs.write(fd, offset, bytes([size % 251]) * size)
        assert fs.read(fd, offset, size) == bytes([size % 251]) * size
    for path in sorted(fds)[:3]:
        fs.write(fds[path], 100, b"s" * 5000)
    assert any(fs.cache.dirty_pages(ino) for ino in fs.cache.by_ino)
    fs.sync()
    assert not any(fs.cache.dirty_pages(ino) for ino in fs.cache.by_ino)
    dev = fs.mssd.device
    digest = hashlib.sha256()
    for ppa in sorted(dev.pages):
        digest.update(ppa.to_bytes(8, "little") + dev.pages[ppa])
    for lpa, ppa in sorted(dev.ftl.lpa_to_ppa.items()):
        digest.update(lpa.to_bytes(8, "little") + ppa.to_bytes(8, "little"))
    return (fs.mssd.clock_ns,
            tuple(dev.traffic.total(d) for d in TrafficCounters.DIRECTIONS),
            digest.hexdigest())


@pytest.mark.parametrize("mode", MODES)
def test_model_outputs_pinned(mode):
    assert _pinned_run(mode) == PINNED[mode]
