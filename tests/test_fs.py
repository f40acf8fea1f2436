import hashlib
import io
import itertools
import random
import types

import pytest
from hypothesis import event, given, settings, strategies as st

from bytefs import bench, image
from bytefs.device import CACHELINE, DeviceConfig, TrafficCounters
from bytefs.errors import (
    AlreadyExists, BackPressure, DirectoryNotEmpty, FsError, InvalidArgument,
    IsADirectory, NotADirectory, NotFound, SpaceExhausted, StateError,
    TxAborted,
)
from bytefs.fs import (
    Bitmap, MODES, ByteFS, _Txn, make_mssd, mkfs, recover_fs,
)
from bytefs.image import crash_clone
from bytefs.layout import ITYPE_FILE, ROOT_INO, ExtentLeaf, Inode, Superblock

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


# every public operation but mount, called on a file system not mounted
UNMOUNTED_CALLS = {
    "lookup": lambda fs: fs.lookup("/"),
    "exists": lambda fs: fs.exists("/"),
    "readdir": lambda fs: fs.readdir("/"),
    "create": lambda fs: fs.create("/f"),
    "mkdir": lambda fs: fs.mkdir("/d"),
    "unlink": lambda fs: fs.unlink("/f"),
    "rmdir": lambda fs: fs.rmdir("/d"),
    "rename": lambda fs: fs.rename("/f", "/g"),
    "open": lambda fs: fs.open("/f"),
    "close": lambda fs: fs.close(3),
    "read": lambda fs: fs.read(3, 0, 1),
    "write": lambda fs: fs.write(3, 0, b"x"),
    "fsync": lambda fs: fs.fsync(3),
    "fdatasync": lambda fs: fs.fdatasync(3),
    "sync": lambda fs: fs.sync(),
    "fsck": lambda fs: fs.fsck(),
}


def test_unmounted_calls_cover_every_public_operation():
    public = {name for name in dir(ByteFS) if not name.startswith("_")
              and callable(getattr(ByteFS, name))}
    assert public == set(UNMOUNTED_CALLS) | {"mount"}


@pytest.mark.parametrize("call", UNMOUNTED_CALLS)
def test_unmounted_fs_raises_state_error(call):
    mssd = make_mssd(small_config(), "full")
    mkfs(mssd)
    with pytest.raises(StateError, match="not mounted"):
        UNMOUNTED_CALLS[call](ByteFS(mssd))


def test_create_existing_raises_and_writes_nothing():
    fs = make_fs()
    fs.create("/f")
    before = fs.mssd.traffic_snapshot()
    with pytest.raises(AlreadyExists):
        fs.create("/f")
    delta = fs.mssd.traffic_snapshot().delta(before)
    assert delta.host_to_ssd_bytes == 0


def test_write_conflict_inside_an_operation_raises_tx_aborted():
    fs = make_fs()
    fs.create("/a")
    mssd, bs = fs.mssd, fs.sb.block_size
    t = mssd.tx_begin()
    mssd.tx_write(t, fs.sb.itab_start * bs, bytes(bs))  # first inode block
    with pytest.raises(TxAborted):
        fs.create("/b")
    assert mssd.txmgr.active_txids() == {t}


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


def _device_state(fs):
    """What a refused call must leave as it was: clock, traffic, dirty
    pages and the log's entry count."""
    log = fs.mssd.writelog
    return (fs.mssd.clock_ns,
            sorted(fs.mssd.traffic_snapshot().by_category.items()),
            {ino: len(fs.cache.dirty_pages(ino)) for ino in fs.cache.by_ino},
            log.active_gen.tail_slots if log else 0)


@pytest.mark.parametrize("mode", ["full", "block_only"])
def test_fd_open_across_unlink_ends_with_its_file(mode):
    fs = make_fs(mode)
    ino = fs.create("/f")
    fd = fs.open("/f")
    fs.write(fd, 0, b"x" * 4096)
    fs.fsync(fd)
    fs.unlink("/f")
    assert fs.mkdir("/d") == ino  # the directory reuses the number
    before = _device_state(fs)
    for call in (lambda: fs.write(fd, 0, b"y" * 4096), lambda: fs.fsync(fd),
                 lambda: fs.read(fd, 0, 10), lambda: fs.close(fd)):
        with pytest.raises(StateError, match="bad fd"):
            call()
    assert _device_state(fs) == before
    assert fs.fsck() == []
    recovered, _ = recover_fs(crash_clone(fs.mssd), mode=mode)
    assert recovered.readdir("/d") == []
    assert recovered.fsck() == []


def test_rename_over_a_file_ends_fds_on_the_replaced_file():
    fs = make_fs()
    fs.create("/a")
    fs.create("/b")
    fd_a, fd_b = fs.open("/a"), fs.open("/b")
    fs.rename("/a", "/b")
    with pytest.raises(StateError, match="bad fd"):
        fs.write(fd_b, 0, b"z")
    assert fs.write(fd_a, 0, b"a") == 1
    assert read_file(fs, "/b", 0, 1) == b"a"


def test_rename_directory_into_its_own_subtree_is_refused():
    fs, ref = make_fs(), RefFS()
    for fsys in (fs, ref):
        fsys.mkdir("/a")
        fsys.mkdir("/a/b")
    before = _device_state(fs)
    for new in ("/a/b/c", "/a/c", "/a/b", "/a/b/c/d"):
        for fsys in (fs, ref):
            with pytest.raises(NotFound if new == "/a/b/c/d"
                               else InvalidArgument):
                fsys.rename("/a", new)
    assert _device_state(fs) == before
    fs.rename("/a", "/a")  # the same name: nothing to do
    for fsys in (fs, ref):
        assert fsys.readdir("/") == ["a"]
        assert fsys.readdir("/a") == ["b"]
    assert fs.fsck() == []


def test_rename_directory_over_an_empty_directory():
    fs, ref = make_fs(), RefFS()
    for fsys in (fs, ref):
        for d in ("/a", "/a/x", "/a/y", "/b", "/b/z", "/b/full"):
            fsys.mkdir(d)
        fsys.create("/a/x/f")
        fsys.create("/b/full/g")
        fsys.create("/b/file")
        fsys.rename("/a/x", "/a/y")        # in the same parent
        fsys.rename("/a/y", "/b/z")        # across parents
        for old, new, error in (("/b/z", "/b/full", DirectoryNotEmpty),
                                ("/b/file", "/b/z", IsADirectory),
                                ("/b/z", "/b/file", NotADirectory)):
            with pytest.raises(error):
                fsys.rename(old, new)
        assert fsys.readdir("/a") == []
        assert fsys.readdir("/b") == ["file", "full", "z"]
        assert fsys.readdir("/b/z") == ["f"]
    assert fs.lookup("/a").links == 2
    assert fs.lookup("/b").links == 4
    assert fs.fsck() == []
    recovered, _ = recover_fs(crash_clone(fs.mssd))
    assert recovered.readdir("/b/z") == ["f"]
    assert recovered.fsck() == []


@pytest.mark.parametrize("direct", [False, True])
def test_negative_offsets_and_empty_writes_change_nothing(direct):
    fs = make_fs()
    fs.create("/f")
    fd = fs.open("/f", direct=direct)
    fs.write(fd, 0, b"a" * 100)
    fs.fsync(fd)
    before = _device_state(fs)
    for call in (lambda: fs.read(fd, -5, 10), lambda: fs.read(fd, 0, -1),
                 lambda: fs.write(fd, -10, b"zz"),
                 lambda: fs.write(fd, -64, b"z" * 64)):
        with pytest.raises(InvalidArgument):
            call()
    assert fs.write(fd, 200, b"") == 0
    assert fs.lookup("/f").size == 100
    assert _device_state(fs) == before
    fs.fsync(fd)
    assert fs.read(fd, 0, 200) == b"a" * 100
    assert fs.fsck() == []
    recovered, _ = recover_fs(crash_clone(fs.mssd))
    assert read_file(recovered, "/f", 0, 200) == b"a" * 100
    assert recovered.fsck() == []


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


def test_mode_must_agree_with_the_device_write_log():
    """Only dual_log and full mount a device with a write log."""
    for device_mode in MODES:
        mssd = make_mssd(small_config(), device_mode)
        for mode in MODES:
            if (mode in ("dual_log", "full")) == mssd.log_enabled:
                ByteFS(mssd, mode=mode)
            else:
                with pytest.raises(InvalidArgument):
                    ByteFS(mssd, mode=mode)


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


@pytest.mark.parametrize("mode", MODES)
def test_first_read_of_a_spill_block_is_charged_as_data_pointer(mode):
    fs = make_fs(mode)
    fs.create("/a")
    fs.create("/b")
    for i in range(6):  # interleaved: six one-block extents each
        for path in ("/a", "/b"):
            write_file(fs, path, i * 4096, bytes([i + 1]) * 4096)
            fsync_file(fs, path)
    assert len(fs.lookup("/a").extents) == 6
    after, _ = recover_fs(crash_clone(fs.mssd), mode=mode)
    before = after.mssd.traffic_snapshot()
    after.lookup("/a")  # the root's dentry block, then /a's spill block
    read = after.mssd.traffic_snapshot().delta(before).by_category[
        "ssd_to_host"]
    assert {c: n for c, n in read.items() if n} == {"dentry": 4096,
                                                    "data_pointer": 4096}


@pytest.mark.parametrize("page_size", [512, 4096])
@pytest.mark.parametrize("mode", MODES)
def test_every_metadata_write_lies_in_one_block(mode, page_size,
                                                monkeypatch):
    """A random run against the reference model, with names of 1 to 250
    bytes and files of up to 8 blocks; a spy on `_meta_write` checks that
    no record it writes crosses a block."""
    categories = set()
    meta_write = ByteFS._meta_write

    def spy(fs, addr, data, category):
        bs = fs.sb.block_size
        assert addr // bs == (addr + len(data) - 1) // bs, (addr, category)
        categories.add(category)
        meta_write(fs, addr, data, category)

    monkeypatch.setattr(ByteFS, "_meta_write", spy)
    fs, ref = make_fs(mode, page_size=page_size), RefFS()
    rng = random.Random(page_size)
    names = [c * n for c, n in zip("abcdefgh", (1, 9, 57, 120, 190, 240,
                                                249, 250))]
    spilled = 0
    for _ in range(600):
        path = rng.choice(("", "/d")) + "/" + rng.choice(names)
        op = rng.randrange(10)
        if op == 0:
            expect_op(fs.mkdir, ref.mkdir, "/d")
        elif op in (1, 2):
            expect_op(fs.create, ref.create, path)
        elif op == 3:
            expect_op(fs.unlink, ref.unlink, path)
        elif op == 4 and rng.random() < 0.2:
            expect_op(fs.rmdir, ref.rmdir, "/d")
        elif op == 5:
            new = rng.choice(("", "/d")) + "/" + rng.choice(names)
            expect_op(fs.rename, ref.rename, path, new)
        elif fs.exists(path) and fs.lookup(path).itype == ITYPE_FILE:
            data = rng.randbytes(rng.randrange(1, page_size))
            offset = rng.randrange(8) * page_size
            write_file(fs, path, offset, data)
            fsync_file(fs, path)
            ref.write(path, offset, data)
            spilled += fs.lookup(path).spill_block != 0
    assert spilled
    assert categories == {"bitmap", "inode", "data_pointer", "dentry"}
    after, _ = recover_fs(crash_clone(fs.mssd), mode=mode)
    for path in ref.walk_files():
        size = ref.size(path)
        assert read_file(after, path, 0, size) == ref.read(path, 0, size)
    assert fs.fsck() == after.fsck() == []


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


@pytest.mark.parametrize("mode", MODES)
def test_data_journal_record_replayed_after_crash(mode):
    fs = make_fs(mode, journal="data")
    fs.create("/f")
    write_file(fs, "/f", 0, b"x" * 4096)
    fsync_file(fs, "/f")
    lba = fs.lookup("/f").extents[0].lba
    # a committed journal record whose checkpoint never happened
    pending = types.SimpleNamespace(journaled=[(lba, b"\x77" * 4096)],
                                    txid=None)
    fs._journal_write(pending)
    after, _report = recover_fs(crash_clone(fs.mssd), mode=mode,
                                journal="data")
    assert read_file(after, "/f", 0, 4096) == b"\x77" * 4096
    assert after.fsck() == []
    # replay retired the record: a second recovery changes nothing
    again, _ = recover_fs(crash_clone(after.mssd), mode=mode, journal="data")
    assert read_file(again, "/f", 0, 4096) == b"\x77" * 4096


@pytest.mark.parametrize("mode", MODES)
def test_fdatasync_leaves_a_change_of_times_alone(mode):
    fs = make_fs(mode)
    fs.create("/f")
    fd = fs.open("/f")
    fs.write(fd, 0, b"a" * 4096)
    fs.fsync(fd)

    def inode_bytes(sync, offset, data):
        fs.write(fd, offset, data)
        before = fs.mssd.traffic_snapshot()
        sync(fd)
        delta = fs.mssd.traffic_snapshot().delta(before)
        return delta.by_category["host_to_ssd"]["inode"]

    # the inode's lower cacheline, or its whole block in block_only
    inode_write = 4096 if mode == "block_only" else 64
    assert inode_bytes(fs.fdatasync, 100, b"b" * 10) == 0
    assert inode_bytes(fs.fsync, 200, b"c" * 10) == inode_write
    assert inode_bytes(fs.fdatasync, 4096, b"d" * 10) == inode_write  # grows
    fs.close(fd)
    after, _report = recover_fs(crash_clone(fs.mssd), mode=mode)
    expected = bytearray(b"a" * 4096)
    expected[100:110] = b"b" * 10
    expected[200:210] = b"c" * 10
    assert after.lookup("/f").size == 4106
    assert read_file(after, "/f", 0, 4106) == bytes(expected) + b"d" * 10
    assert after.fsck() == []


@pytest.mark.parametrize("mode", MODES)
def test_directory_pads_a_block_tail_no_record_fits(mode):
    fs = make_fs(mode)
    fs.mkdir("/d")
    # one 64 B record, then 256 B records: fifteen fill the first block to
    # 3904 B, and the sixteenth follows a 192 B pad in a second block
    names = ["a"] + [f"{i:02d}" + "x" * 198 for i in range(16)]
    for name in names:
        fs.create("/d/" + name)
    assert fs.lookup("/d").size == 4352
    after, _report = recover_fs(crash_clone(fs.mssd), mode=mode)
    assert after.lookup("/d").size == 4352
    assert after.readdir("/d") == sorted(names)
    assert after.fsck() == []


@pytest.mark.parametrize("mode", MODES)
def test_direct_write_patches_a_dirty_cached_page(mode):
    fs = make_fs(mode)
    fs.create("/f")
    write_file(fs, "/f", 0, b"A" * 4096)
    fsync_file(fs, "/f")
    fd = fs.open("/f")
    fs.write(fd, 0, b"B" * 64)  # dirties cacheline 0 of the cached page
    direct = fs.open("/f", direct=True)
    fs.write(direct, 640, b"C" * 64)  # cacheline 10, written through
    fs.close(direct)
    # the direct write patched the page and its duplicate alike
    page = fs.cache.get(fs.lookup("/f").ino, 0)
    assert page.dirty_cachelines() == [0]
    fs.fsync(fd)
    fs.close(fd)
    expected = b"B" * 64 + b"A" * 576 + b"C" * 64 + b"A" * 3392
    assert read_file(fs, "/f", 0, 4096) == expected
    after, _report = recover_fs(crash_clone(fs.mssd), mode=mode)
    assert read_file(after, "/f", 0, 4096) == expected
    assert after.fsck() == []


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
    fs._bbmp.set(victim, True)
    problems = fs.fsck()
    assert any(f"block {victim}" in p and "unreferenced" in p
               for p in problems)


def test_fsck_detects_bad_link_count():
    fs = make_fs()
    fs.mkdir("/d")
    fs._load_inode(fs.lookup("/d").ino).links = 7
    assert any("links" in p for p in fs.fsck())


@pytest.mark.parametrize("recovered", [False, True], ids=["live",
                                                       "recovered"])
def test_fsck_reports_a_directory_whose_size_runs_past_its_extents(
        recovered):
    # a file's size may pass its extents (a hole), a directory's may not
    fs = make_fs()
    fs.mkdir("/d")
    for i in range(64):                              # one full dentry block
        fs.create(f"/d/f{i:02d}")
    d = fs.lookup("/d")
    assert (d.ino, d.size, len(d.all_blocks())) == (3, 4096, 1)
    d.size += 4096
    with _Txn(fs):
        fs._persist_inode_lower(d)
    fs._dirs.clear()
    if recovered:
        fs, _ = recover_fs(crash_clone(fs.mssd))
    with pytest.raises(FsError, match="dir inode 3 size 8192 runs past"):
        fs.readdir("/d")
    assert fs.fsck() == [
        "dir inode 3 size 8192 runs past its extents (/d)"] + [
        f"inode {ino} allocated but unreachable" for ino in range(4, 68)]


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
    fs._ibmp.set(b.ino, False)               # reachable, not allocated
    fs._ibmp.set(40, True)                   # allocated, unreachable
    fs._ibmp.set(sb.inode_count - 1, True)
    fs._bbmp.set(101, False)                 # referenced, not allocated
    fs._bbmp.set(sb.data_start + 100, True)  # allocated, unreferenced
    fs._bbmp.set(sb.total_blocks - 1, True)  # ... the last data block
    fs._bbmp.set(sb.total_blocks, True)      # padding: not a block
    fs._ibmp.set(sb.inode_count, True)       # padding: not an inode
    assert fs.fsck() == [
        "inode 4 in use but not allocated (/b)",
        "inode 40 allocated but unreachable",
        "inode 1023 allocated but unreachable",
        "block 101 referenced but not allocated",
        "block 199 allocated but unreferenced",
        "block 2047 allocated but unreferenced",
    ]


def test_fsck_reports_each_reference_fault_exactly():
    fs = make_fs()
    for path in ("/a", "/b", "/c"):
        fs.create(path)
        write_file(fs, path, 0, b"x" * 4096)
        fsync_file(fs, path)
    sb = fs.sb
    a, b, c = (fs.lookup(p) for p in ("/a", "/b", "/c"))
    assert (a.ino, a.all_blocks(), b.all_blocks(), c.all_blocks()) \
        == (3, [100], [101], [102])
    entry = fs._load_dir(ROOT_INO)[b"a"]
    fs._load_dir(ROOT_INO)[b"z"] = entry            # /a reached again
    b.extents[0].lba = sb.data_start - 1            # a metadata block
    c.extents[0].lba = 100                          # /a's block
    assert fs.fsck() == [
        "inode 4 references block 98 outside the data region",
        "inode 3 reached twice (/z)",
        "block 100 referenced 2 times",
        "block 101 allocated but unreferenced",
        "block 102 allocated but unreferenced",
    ]


@pytest.mark.parametrize("mode", ["full", "dual_log"])
def test_operation_that_runs_out_of_space_is_aborted(mode):
    """A create that allocates its inode and then finds no block for a
    second directory block aborts its device transaction: the recovered
    file system holds nothing of it."""
    fs = make_fs(mode)
    fs.mkdir("/d")
    for i in range(64):                              # one full dentry block
        fs.create(f"/d/f{i:02d}")
    assert len(fs.lookup("/d").all_blocks()) == 1
    fs.create("/big")
    fd = fs.open("/big")
    with pytest.raises(SpaceExhausted):
        for off in itertools.count(0, 4096):
            fs.write(fd, off, b"z" * 4096)
            if off % (64 * 4096) == 0:
                fs.fsync(fd)
    with pytest.raises(SpaceExhausted):
        fs.create("/d/extra")
    after, _ = recover_fs(crash_clone(fs.mssd), mode=mode)
    assert after.fsck() == []
    assert not after.exists("/d/extra")
    assert len(after.readdir("/d")) == 64


def test_failed_fsync_leaves_its_pages_dirty():
    """A page stops being dirty when its flush commits.  147 pages with 7
    byte-path cachelines each need 1029 log entries in one transaction,
    more than the test config's 1024-entry log holds: the fsync fails,
    and so must a retry, since nothing of the first attempt is durable."""
    fs = make_fs("full")
    fs.create("/f")
    fd = fs.open("/f")
    first = bytes(range(256)) * (147 * 4096 // 256)
    fs.write(fd, 0, first)
    fs.fsync(fd)
    ino = fs.lookup("/f").ino
    for page in range(147):
        for cl in range(0, 63, 9):                   # 7 distinct cachelines
            fs.write(fd, page * 4096 + cl * CACHELINE + 5, b"\xee")
    for _ in range(2):
        with pytest.raises(BackPressure):
            fs.fsync(fd)
        assert len(fs.cache.dirty_pages(ino)) == 147
    after, _ = recover_fs(crash_clone(fs.mssd), mode="full")
    assert read_file(after, "/f", 0, len(first)) == first
    assert after.fsck() == []


def test_writeback_writes_each_run_of_dirty_cachelines_once():
    fs = make_fs("full")
    fs.create("/f")
    write_file(fs, "/f", 0, b"\x01" * 4096)
    fsync_file(fs, "/f")
    fd = fs.open("/f")
    for off in (70, 130, 200, 330, 3000, 3100):     # runs 1-3, 5, 46-48
        fs.write(fd, off, b"\x99" * 30)
    calls = []
    tx_write = fs.mssd.tx_write
    fs.mssd.tx_write = lambda txid, addr, data, category: (
        calls.append((addr, len(data), category))
        or tx_write(txid, addr, data, category))
    fs.fsync(fd)
    lba = fs.lookup("/f").all_blocks()[0]
    data_calls = [c for c in calls if c[2] == "data"]
    assert data_calls == [(lba * 4096 + 64, 192, "data"),
                          (lba * 4096 + 320, 64, "data"),
                          (lba * 4096 + 2944, 192, "data")]
    expected = bytearray(b"\x01" * 4096)
    for off in (70, 130, 200, 330, 3000, 3100):
        expected[off:off + 30] = b"\x99" * 30
    after, _ = recover_fs(crash_clone(fs.mssd), mode="full")
    assert read_file(after, "/f", 0, 4096) == expected


@pytest.mark.parametrize("capacity_blocks, inode_count", [
    (8_388_608, None),       # the default layout: no padding bit
    (8_388_603, 1_000_000),  # both bitmaps end inside their last block
], ids=["default", "padded"])
def test_fsck_reports_each_bitmap_fault_exactly_at_32_gib(capacity_blocks,
                                                          inode_count):
    mssd = make_mssd(DeviceConfig(capacity_bytes=capacity_blocks * 4096))
    mkfs(mssd, inode_count=inode_count)
    fs = ByteFS(mssd)
    fs.mount()
    for path in ("/a", "/b"):
        fs.create(path)
        write_file(fs, path, 0, b"x" * 8192)
        fsync_file(fs, path)
    sb = fs.sb
    a, b = fs.lookup("/a"), fs.lookup("/b")
    assert (sb.total_blocks, a.ino, b.ino) == (capacity_blocks, 3, 4)
    assert a.all_blocks() == [sb.data_start + 1, sb.data_start + 2]
    padding = [(fs._ibmp, range(sb.inode_count, 8 * len(bytes(fs._ibmp)))),
               (fs._bbmp, range(sb.total_blocks, 8 * len(bytes(fs._bbmp))))]
    assert [len(pad) for _, pad in padding] == (
        [0, 0] if inode_count is None else [15_808, 5])
    fs._ibmp.set(b.ino, False)               # reachable, not allocated
    fs._ibmp.set(40, True)                   # allocated, unreachable
    fs._ibmp.set(sb.inode_count - 1, True)   # ... the last inode
    fs._bbmp.set(a.all_blocks()[1], False)   # referenced, not allocated
    fs._bbmp.set(sb.data_start + 100, True)  # allocated, unreferenced
    fs._bbmp.set(sb.total_blocks - 1, True)  # ... the last block
    for bitmap, pad in padding:                       # neither inode nor block
        for idx in pad:
            bitmap.set(idx, True)
    assert fs.fsck() == [
        "inode 4 in use but not allocated (/b)",
        "inode 40 allocated but unreachable",
        f"inode {sb.inode_count - 1} allocated but unreachable",
        f"block {sb.data_start + 2} referenced but not allocated",
        f"block {sb.data_start + 100} allocated but unreferenced",
        f"block {sb.total_blocks - 1} allocated but unreferenced",
    ]


@pytest.mark.parametrize("mode", MODES)
def test_mkfs_output_at_default_config_is_pinned(mode):
    """mkfs on a default 32 GiB device writes the superblock, the bitmap
    blocks that hold a set bit (one of the inode bitmap, two of the block
    bitmap) and the root inode's block, and nothing else."""
    mssd = make_mssd(mode=mode)
    mkfs(mssd)
    dev = mssd.device
    digest = hashlib.sha256()
    for ppa in sorted(dev.pages):
        digest.update(ppa.to_bytes(8, "little") + dev.pages[ppa])
    for lpa, ppa in sorted(dev.ftl.lpa_to_ppa.items()):
        digest.update(lpa.to_bytes(8, "little") + ppa.to_bytes(8, "little"))
    assert sorted(dev.ftl.lpa_to_ppa) == [0, 1, 33, 34, 289]
    assert (mssd.clock_ns, digest.hexdigest()) == (300_000, (
        "3a09df36f462fdb54f49348d7329c2b87ad4eac46b56137c386abef01dca169d"))


@pytest.mark.parametrize("mode", MODES)
def test_mount_at_default_config_is_pinned(mode):
    """mkfs and mount of a default 32 GiB device: the mount reads the
    superblock, the 288 bitmap blocks and the root inode's block, each
    charged as one serial flash read, and maps every LPA it reads, in
    LPA order."""
    mssd = make_mssd(mode=mode)
    mkfs(mssd)
    ByteFS(mssd, mode=mode).mount()
    dev = mssd.device
    digest = hashlib.sha256()
    for lpa, ppa in sorted(dev.ftl.lpa_to_ppa.items()):
        digest.update(lpa.to_bytes(8, "little") + ppa.to_bytes(8, "little"))
    traffic = {(direction, cat): n
               for direction, cats in dev.traffic.by_category.items()
               for cat, n in cats.items() if n}
    page = 4096
    assert mssd.clock_ns == 300_000 + 290 * 40_000
    assert traffic == {
        ("host_to_ssd", "superblock"): page,
        ("host_to_ssd", "bitmap"): 3 * page,
        ("host_to_ssd", "inode"): page,
        ("ssd_to_host", "superblock"): page,
        ("ssd_to_host", "bitmap"): 288 * page,
        ("ssd_to_host", "inode"): page,
        ("flash_read", "superblock"): page,
        ("flash_read", "bitmap"): 288 * page,
        ("flash_read", "inode"): page,
        ("flash_write", "superblock"): page,
        ("flash_write", "bitmap"): 3 * page,
        ("flash_write", "inode"): page,
    }
    assert (len(dev.ftl.lpa_to_ppa), dev.ftl._next_unused) == (290, 290)
    assert digest.hexdigest() == (
        "0faf8e8723844ec5ca043460cf2d210d0302cf475d5e52175b9772f1812d3b22")


@pytest.mark.parametrize("mode", MODES)
def test_default_config_mount_copies_no_bitmap_block(mode):
    """The mount holds each bitmap as the very run of blocks the device
    read returned; a varmail run copies only the blocks it changes, and
    a power cut recovers the live bitmaps byte for byte."""
    mssd = make_mssd(mode=mode)
    mkfs(mssd)
    runs = []
    read_run = mssd.block_read_run

    def recorded_read_run(*args, **kwargs):
        runs.append(read_run(*args, **kwargs))
        return runs[-1]

    mssd.block_read_run = recorded_read_run
    fs = ByteFS(mssd, mode=mode)
    fs.mount()
    assert [len(run) for run in runs] == [32, 256]
    for bitmap, run in zip((fs._ibmp, fs._bbmp), runs):
        assert bitmap.blocks is run
        assert all(type(block) is bytes for block in run)
    fds = {}
    for rec in bench.build_workload(bench.WorkloadSpec("varmail", seed=5,
                                                       ops=120)):
        bench.apply_record(fs, rec, fds)
    assert [[i for i, block in enumerate(bitmap.blocks)
             if type(block) is not bytes] for bitmap in (fs._ibmp, fs._bbmp)
            ] == [[0], [fs.sb.data_start // (8 * 4096)]]
    recovered, _report = recover_fs(crash_clone(mssd), mode=mode)
    assert [bytes(recovered._ibmp), bytes(recovered._bbmp)] == [
        bytes(fs._ibmp), bytes(fs._bbmp)]
    assert fs.fsck() == [] and recovered.fsck() == []


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


# bitmap bytes, up to 512 of them, built from runs: long zero runs
# (whole 64-bit words of them), full bytes and random bytes
BITMAP_BYTES = st.lists(
    st.one_of(st.integers(1, 200).map(bytes),
              st.integers(1, 24).map(lambda n: b"\xff" * n),
              st.binary(min_size=1, max_size=24)),
    max_size=12).map(lambda runs: b"".join(runs)[:512])


def bitmap_of(raw, block_size, data):
    """`raw` padded to whole blocks of `block_size` bytes with zero or
    full bytes, and a `Bitmap` of those blocks starting at device block
    7, each block drawn as `bytes` or as `bytearray`."""
    fill = data.draw(st.sampled_from((b"\0", b"\xff")), label="fill")
    raw = raw.ljust(max(1, -(-len(raw) // block_size)) * block_size, fill)
    blocks = [data.draw(st.sampled_from((bytes, bytearray)))(
        raw[i:i + block_size]) for i in range(0, len(raw), block_size)]
    return raw, blocks, Bitmap(list(blocks), 7)


@settings(max_examples=300, deadline=None)
@given(raw=BITMAP_BYTES, block_size=st.sampled_from((8, 16, 64)),
       data=st.data())
def test_bitmap_scans_match_bit_loops(raw, block_size, data):
    """Ranges may cross block boundaries and end inside the last block,
    short of its padding bits."""
    raw, blocks, bitmap = bitmap_of(raw, block_size, data)
    lo = data.draw(st.integers(0, 8 * len(raw)), label="lo")
    hi = data.draw(st.integers(0, 8 * len(raw)), label="hi")
    assert bitmap.first_clear(lo, hi) == first_fit_ref(raw, lo, hi)
    assert bitmap.set_bits(lo, hi) == [
        i for i in range(lo, hi) if raw[i // 8] >> (i % 8) & 1]
    assert [bitmap.get(i) for i in range(lo, hi)] == [
        bool(raw[i // 8] >> (i % 8) & 1) for i in range(lo, hi)]
    assert bytes(bitmap) == raw


@settings(max_examples=200, deadline=None)
@given(raw=BITMAP_BYTES, block_size=st.sampled_from((64, 128)),
       data=st.data())
def test_bitmap_set_changes_one_bit_and_no_block_handed_in(raw, block_size,
                                                           data):
    raw, blocks, bitmap = bitmap_of(raw, block_size, data)
    want = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 6), label="sets")):
        idx = data.draw(st.integers(0, 8 * len(raw) - 1), label="idx")
        value = data.draw(st.booleans(), label="value")
        want[idx // 8] = want[idx // 8] & ~(1 << idx % 8) | value << idx % 8
        lo = idx // 512 * 64  # the 64B group that holds the bit
        assert bitmap.set(idx, value) == (7 * block_size + lo,
                                          want[lo:lo + 64])
        assert bitmap.get(idx) == value
        assert bytes(bitmap) == want
    # every block handed in still holds what it held, changed or not
    assert b"".join(blocks) == raw
    for i, block in enumerate(blocks):
        if bitmap.blocks[i] is not block:
            assert type(bitmap.blocks[i]) is bytearray
            assert bitmap.block(i) is bitmap.blocks[i]


def test_bitmap_block_is_a_writable_copy_of_the_block_handed_in():
    blocks = [bytes(64), bytearray(64)]
    bitmap = Bitmap(list(blocks), 1)
    for i in range(2):
        bitmap.block(i)[0] = 0xff
        assert bitmap.get(i * 512) and bitmap.block(i) is bitmap.blocks[i]
    assert blocks == [bytes(64), bytearray(64)]


@settings(max_examples=300, deadline=None)
@given(extents=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)),
                        max_size=10),
       offsets=st.lists(st.integers(0, 80 * 4096), min_size=1, max_size=30))
def test_block_for_matches_a_linear_scan(extents, offsets):
    """Sorted extents separated by holes of 0 to 4 blocks; any byte offset,
    in a hole, in an extent or past the last one."""
    bs = 4096
    inode = Inode(ino=5, itype=ITYPE_FILE)
    page = 0
    for i, (hole, length) in enumerate(extents):
        page += hole
        inode.extents.append(ExtentLeaf(page * bs, 1000 + 97 * i, length))
        page += length

    def linear(off):
        for leaf in inode.extents:
            if leaf.file_offset <= off < leaf.file_offset + leaf.length * bs:
                return leaf.lba + (off - leaf.file_offset) // bs
        return None

    for off in offsets:
        assert inode.block_for(off, bs) == linear(off)


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
            bytes(fs._bbmp), fs._alloc_hint, sb.total_blocks, sb.data_start))

    def alloc_ino():
        return checked("inode", real_ino, first_fit_ref(
            bytes(fs._ibmp), ROOT_INO + 1, fs.sb.inode_count))

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
    free = sb.total_blocks - sum(bin(x).count("1") for x in bytes(fs._bbmp))
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


# sha256 of `image.save` of `_pinned_fs`'s device in each mode: the device
# image format, byte for byte.
PINNED_IMAGE = {
    "block_only": "4a053d30f94b0707a3ce78f1c5dc078c"
                  "6344f934a011dfa7a63e6cf46625aa44",
    "dual": "61de1f06612f5935fb4d760150abad8f"
            "fb1ace73c1880ecb262cbd7684b16a08",
    "dual_log": "aaa9912cc5063aa0a5105270f3b33873"
                "44400a5efc2a8bc3f982e50656b04c24",
    "full": "1c12c936ddf1b70b585dfb82f19c5648"
            "ac234b06cf8a5a5db9e5a0c968dd4597",
}


def _pinned_fs(mode):
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
    return fs


def _pinned_run(mode):
    fs = _pinned_fs(mode)
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


@pytest.mark.parametrize("mode", MODES)
def test_image_bytes_pinned(mode):
    buf = io.BytesIO()
    image.save(_pinned_fs(mode).mssd, buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == PINNED_IMAGE[mode]


# ---------------------------------------------------------------------------
# refusals


def test_mkfs_refuses_a_device_too_small_for_its_layout():
    mssd = make_mssd(small_config(capacity_bytes=256 * 1024), "full")
    with pytest.raises(InvalidArgument, match="too small"):
        mkfs(mssd)


def test_unknown_journal_mode_refused():
    mssd = make_mssd(small_config(), "full")
    mkfs(mssd)
    with pytest.raises(InvalidArgument, match="unknown journal mode"):
        ByteFS(mssd, mode="full", journal="writeback")


def test_mount_twice_refused():
    fs = make_fs()
    with pytest.raises(StateError, match="already mounted"):
        fs.mount()


def test_mount_refuses_a_superblock_of_another_block_size():
    fs = make_fs()
    sb = Superblock(**{**vars(fs.sb), "block_size": 8192})
    fs.mssd.block_write(0, sb.pack()[:4096], category="superblock")
    with pytest.raises(InvalidArgument, match="block size"):
        ByteFS(fs.mssd, mode="full").mount()


def test_path_refusals():
    fs = make_fs()
    fs.create("/f")
    with pytest.raises(InvalidArgument, match="name too long"):
        fs.create("/" + "n" * 257)
    with pytest.raises(InvalidArgument, match="root"):
        fs.create("/")
    with pytest.raises(NotADirectory):
        fs.lookup("/f/x")
    with pytest.raises(NotADirectory):
        fs.readdir("/f")
    assert fs.readdir("/") == ["f"]


def test_direct_io_reads_holes_and_the_end_and_writes_whole_pages():
    fs = make_fs()
    fs.create("/f")
    fd = fs.open("/f", direct=True)
    page = bytes(range(256)) * 16
    assert fs.write(fd, 8192, page) == 4096       # one whole page, by block
    assert fs.lookup("/f").all_blocks() == [fs.sb.data_start + 1]
    assert fs.read(fd, 0, 4096) == bytes(4096)    # a hole
    assert fs.read(fd, 8192, 4096) == page
    assert fs.read(fd, 12288, 10) == b""          # past the end
    fs.close(fd)
    after, _ = recover_fs(crash_clone(fs.mssd))
    assert read_file(after, "/f", 0, 12288) == bytes(8192) + page


def test_data_journal_refuses_a_record_larger_than_the_journal():
    fs = make_fs(journal="data")
    fs.create("/f")
    fd = fs.open("/f")
    fs.write(fd, 0, b"\x01" * 63 * 4096)          # 63 pages + 2 > 64 blocks
    with pytest.raises(SpaceExhausted, match="journal record"):
        fs.fsync(fd)
    fs.close(fd)
