"""On-device records: each codec's round trip, the decoders' refusals of
records outside the superblock's geometry, and the bounds that the
encoders refuse with."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from bytefs.device import MiB
from bytefs.errors import (
    BackPressure, FsError, InvalidArgument, RecoveryFailed, SpaceExhausted,
)
from bytefs.fs import ByteFS, make_mssd, mkfs, recover_fs
from bytefs.image import crash_clone
from bytefs.layout import (
    INLINE_EXTENTS, INODE_SIZE, ITYPE_DIR, ITYPE_FILE, ROOT_INO, ExtentLeaf,
    Inode, Superblock, pack_dentry, pack_journal, pack_pad, pack_tombstone,
    unpack_dentry, unpack_journal,
)

from conftest import small_config
from test_fs import fsync_file, make_fs, read_file, write_file

SB = Superblock.plan(4096, 2048, 1024, 64)


def corrupted(fs, addr, data):
    """`fs`'s device after power loss, with `data` written at byte `addr`
    before the cut, recovered."""
    fs.mssd.byte_write(addr, data, category="dentry")
    return recover_fs(crash_clone(fs.mssd), fs.mode, fs.journal_mode)[0]


def fs_with_file():
    fs = make_fs()
    fs.create("/f")
    write_file(fs, "/f", 0, b"x" * 4096)
    fsync_file(fs, "/f")
    return fs


def root_dentry_addr(fs):
    return fs.lookup("/").extents[0].lba * fs.sb.block_size


# ---------------------------------------------------------------------------
# decoders refuse records outside the geometry


def test_dentry_of_an_inode_past_the_table_is_refused():
    fs = fs_with_file()
    after = corrupted(fs, root_dentry_addr(fs), (5_000_000).to_bytes(4, "little"))
    with pytest.raises(FsError, match="ino 5000000"):
        after.lookup("/f")
    assert after.fsck()[0].startswith("dentry at 0 of block")


def test_dentry_whose_name_runs_past_its_block_is_refused():
    fs = fs_with_file()
    after = corrupted(fs, root_dentry_addr(fs) + 6, (4000).to_bytes(2, "little"))
    with pytest.raises(FsError, match="name length 4000"):
        after.readdir("/")


def test_inode_with_a_spill_count_past_the_limit_is_refused():
    fs = fs_with_file()
    ino = fs.lookup("/f").ino
    # extent count 9000 and spill block 1 (the inode bitmap)
    after = corrupted(fs, fs.sb.inode_addr(ino) + 64 + 6,
                      (9000).to_bytes(2, "little") + (1).to_bytes(4, "little"))
    with pytest.raises(FsError, match=f"inode {ino} in block"):
        after.lookup("/f")
    assert any("9000 extents" in p for p in after.fsck())


def test_extent_leaf_past_the_device_is_refused_before_its_blocks_are_listed():
    fs = fs_with_file()
    leaf = fs.sb.inode_addr(fs.lookup("/f").ino) + 64 + 16
    after = corrupted(fs, leaf + 12, (0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(FsError, match="length 4294967295"):
        after.lookup("/f")
    assert any("leaves the data region" in p for p in after.fsck())
    with pytest.raises(FsError):
        after.unlink("/f")


@pytest.mark.parametrize("leaves, why", [
    ([(4096, 200, 1), (0, 201, 1)], "unsorted"),
    ([(0, 200, 2), (4096, 300, 1)], "overlapping"),
    ([(0, 200, 0)], "zero length"),
    ([(0, SB.data_start - 1, 1)], "below the data region"),
    ([(0, SB.total_blocks - 1, 2)], "past the device"),
])
def test_inode_decoder_refuses_each_bad_leaf(leaves, why):
    inode = Inode(ino=5, itype=ITYPE_FILE,
                  extents=[ExtentLeaf(*leaf) for leaf in leaves])
    block = bytearray(SB.block_size)
    off = 5 * INODE_SIZE
    block[off:off + INODE_SIZE] = inode.pack()
    with pytest.raises(FsError, match="overlaps or leaves the data region"):
        Inode.unpack(lambda blk: block, 5, SB)


@pytest.mark.parametrize("field, value, match", [
    (0, 7, "ino 7"),                     # a record of another slot
    (4, 3, "itype 3"),
    (4, 0, "itype 0"),                   # a free slot
    (8, 12, "spill block 12"),           # a metadata block
])
def test_inode_decoder_refuses_a_record_of_another_slot_or_type(
        field, value, match):
    block = bytearray(SB.block_size)
    off = 5 * INODE_SIZE
    block[off:off + INODE_SIZE] = Inode(ino=5, itype=ITYPE_FILE).pack()
    size = 2 if field == 4 else 4
    block[off + 64 + field:off + 64 + field + size] = value.to_bytes(size,
                                                                     "little")
    with pytest.raises(FsError, match=match):
        Inode.unpack(lambda blk: block, 5, SB)


@pytest.mark.parametrize("ino, ftype, name, off, match", [
    (ROOT_INO, ITYPE_FILE, b"n", 0, "ino 2,"),
    (SB.inode_count, ITYPE_FILE, b"n", 0, "ino 1024,"),
    (5, 3, b"n", 0, "ftype 3"),
    (5, ITYPE_FILE, b"n" * 257, 0, "name length 257"),
    (5, ITYPE_FILE, b"n" * 100, 4096 - 64, "name length 100"),  # past the block
    (5, ITYPE_FILE, b"a/b", 0, "name b'a/b'"),
])
def test_dentry_decoder_refuses_each_bad_record(ino, ftype, name, off, match):
    block = bytearray(SB.block_size)
    rec = pack_dentry(ino, ftype, name)[:SB.block_size - off]
    block[off:off + len(rec)] = rec
    with pytest.raises(FsError, match=match):
        unpack_dentry(block, off, SB, ROOT_INO, 99)


def test_journal_decoder_reads_a_count_past_the_journal_or_its_block_as_no_record():
    wide = Superblock.plan(4096, 8192, 1024, 2048)
    assert (SB.max_journal_lbas, wide.max_journal_lbas) == (62, 1021)
    for sb, pos, count in ((SB, 0, 63), (SB, 10, 53), (wide, 0, 1022)):
        for kind in ("desc", "dead"):
            blob = pack_journal(kind, 1, sb.block_size, count)
            assert unpack_journal(blob, sb, pos)[0] is None
            assert unpack_journal(pack_journal(kind, 1, sb.block_size,
                                               count - 1), sb, pos)[0] == kind
    assert unpack_journal(bytes(8) + b"\xff" * 4, SB, 0)[0] is None


def test_recovery_reads_a_stale_journaled_page_as_no_record():
    """A journal block can hold an old copy of a data page.  One that
    starts like a descriptor with a huge count, met as the commit slot of
    a torn record or right after the last live record once the journal
    has wrapped, ends the walk and does not fail recovery."""
    evil = pack_journal("desc", 0, 12, 0xFFFFFFFF) + b"e" * 4084
    fs = make_fs(journal="data")
    fs.create("/f")
    write_file(fs, "/f", 0, evil * 3)
    fsync_file(fs, "/f")                     # journal blocks 1..3 hold evil
    sb = fs.sb
    assert fs.mssd.block_read(sb.journal_start + 2, category="journal") == evil
    lba = fs.lookup("/f").extents[0].lba
    # a record whose descriptor and page were written, but not its commit
    torn = crash_clone(fs.mssd)
    torn.block_write(sb.journal_start, pack_journal(
        "desc", 0, 4096, 1, [lba]), category="journal")
    torn.block_write(sb.journal_start + 1, b"t" * 4096, category="journal")
    after, _ = recover_fs(torn, "full", "data")
    assert after.fsck() == []
    assert read_file(after, "/f", 0, 3 * 4096) == evil * 3
    # one-page records until one wraps to block 0; the walk then meets
    # the stale page at block 3
    fs.create("/g")
    for i in range(sb.journal_blocks):
        write_file(fs, "/g", 0, bytes([i + 1]) * 4096)
        fsync_file(fs, "/g")
        if fs._journal_pos == 3:
            break
    assert fs._journal_pos == 3
    after, _ = recover_fs(crash_clone(fs.mssd), "full", "data")
    assert after.fsck() == []
    assert read_file(after, "/g", 0, 4096) == bytes([i + 1]) * 4096


@pytest.mark.parametrize("journal_blocks", [0, 1])
def test_data_journal_too_small_for_any_record_refuses_the_first_page(
        journal_blocks):
    mssd = make_mssd(small_config(), "full")
    mkfs(mssd, journal_blocks=journal_blocks)
    fs = ByteFS(mssd, mode="full", journal="data")
    fs.mount()
    fs.create("/f")
    write_file(fs, "/f", 0, b"x" * 4096)
    with pytest.raises(SpaceExhausted, match="journal record"):
        fsync_file(fs, "/f")
    assert fs.cache.dirty_pages(fs.lookup("/f").ino)
    after, _ = recover_fs(crash_clone(mssd), "full", "data")
    assert after.fsck() == [] and after.lookup("/f").size == 0


def test_a_zeroed_dentry_ends_its_directory():
    fs = fs_with_file()
    assert unpack_dentry(bytes(64), 0, fs.sb, ROOT_INO, 99) is None
    after = corrupted(fs, root_dentry_addr(fs), bytes(64))
    assert after.readdir("/") == []
    assert "inode 3 allocated but unreachable" in after.fsck()


def test_mount_refuses_a_superblock_of_another_magic_or_version():
    for at, match in ((0, "bad superblock magic"),
                      (4, "unsupported superblock version 2")):
        fs = make_fs()
        block = bytearray(fs.sb.pack())
        block[at:at + 4] = b"XXXX" if at == 0 else (2).to_bytes(4, "little")
        fs.mssd.block_write(0, bytes(block), category="superblock")
        with pytest.raises(InvalidArgument, match=match):
            ByteFS(fs.mssd, mode="full").mount()


# ---------------------------------------------------------------------------
# encoders refuse past the bounds the decoders check


def test_spill_limit_refuses_the_next_extent_and_the_image_stays_clean():
    fs = make_fs()
    fs.create("/f")
    fd = fs.open("/f")
    limit = fs.sb.max_extents
    assert limit == INLINE_EXTENTS + 4096 // 16
    for i in range(limit):                   # every other page: no merges
        fs.write(fd, 2 * i * 4096, b"p")
        fs.fsync(fd)
    fs.write(fd, 2 * limit * 4096, b"p")
    with pytest.raises(SpaceExhausted, match="extent limit"):
        fs.fsync(fd)
    assert fs.cache.dirty_pages(fs.lookup("/f").ino)
    assert not fs.mssd.txmgr.table
    after, _ = recover_fs(crash_clone(fs.mssd))
    assert after.fsck() == []
    assert len(after.lookup("/f").extents) == limit
    assert read_file(after, "/f", 2 * (limit - 1) * 4096, 1) == b"p"


def test_data_journal_refuses_a_record_past_its_descriptor_block():
    mssd = make_mssd(small_config(capacity_bytes=64 * MiB), "dual")
    mkfs(mssd, journal_blocks=2048)
    fs = ByteFS(mssd, mode="dual", journal="data")
    fs.mount()
    assert fs.sb.max_journal_lbas == (4096 - 12) // 4
    fs.create("/f")
    fd = fs.open("/f")
    fs.write(fd, 0, b"\x01" * 1100 * 4096)
    with pytest.raises(SpaceExhausted, match="journal record"):
        fs.fsync(fd)
    assert len(fs.cache.dirty_pages(fs.lookup("/f").ino)) == 1100
    assert not mssd.txmgr.table              # the operation was aborted
    after, _ = recover_fs(crash_clone(mssd), "dual", "data")
    assert after.fsck() == [] and after.lookup("/f").size == 0


# ---------------------------------------------------------------------------
# round trips


@given(st.integers(1, 1 << 20), st.integers(32, 1 << 16),
       st.integers(2, 512))
def test_superblock_plan_round_trips(total_blocks, inode_count, journal):
    try:
        sb = Superblock.plan(4096, total_blocks, inode_count, journal)
    except InvalidArgument:
        return
    assert sb.data_start + 16 <= total_blocks and sb.itab_start > 2
    assert Superblock.unpack(sb.pack()) == sb


@st.composite
def inodes(draw):
    ino = draw(st.integers(ROOT_INO, SB.inode_count - 1))
    count = draw(st.integers(0, SB.max_extents))
    leaves, page, lba = [], 0, SB.data_start
    for _ in range(count):
        page += draw(st.integers(0, 3))
        length = draw(st.integers(1, 3))
        lba += draw(st.integers(0, 3))
        if lba + length > SB.total_blocks:
            break
        leaves.append(ExtentLeaf(page * SB.block_size, lba, length))
        page += length
        lba += length
    u64 = st.integers(0, (1 << 64) - 1)
    return Inode(ino=ino, itype=draw(st.sampled_from([ITYPE_FILE, ITYPE_DIR])),
                 size=draw(u64), mtime_ns=draw(u64), atime_ns=draw(u64),
                 ctime_ns=draw(u64), mode=draw(st.integers(0, 0o7777)),
                 links=draw(st.integers(0, (1 << 32) - 1)),
                 spill_block=SB.data_start + 1 if len(leaves) > INLINE_EXTENTS
                 else 0, extents=leaves)


@settings(max_examples=50, deadline=None)
@given(inodes())
def test_inode_round_trips_with_its_spill_leaves(inode):
    itab, spill = bytearray(SB.block_size), bytearray(SB.block_size)
    blk, off = divmod(SB.inode_addr(inode.ino), SB.block_size)
    itab[off:off + INODE_SIZE] = inode.pack()
    tail = ExtentLeaf.pack_all(inode.extents[INLINE_EXTENTS:])
    spill[:len(tail)] = tail
    blocks = {blk: itab, inode.spill_block: spill}
    assert Inode.unpack(blocks.__getitem__, inode.ino, SB) == inode


@given(st.integers(ROOT_INO + 1, SB.inode_count - 1),
       st.sampled_from([ITYPE_FILE, ITYPE_DIR]),
       st.binary(min_size=1, max_size=256).map(
           lambda name: name.replace(b"/", b"_")), st.integers(0, 63))
def test_dentry_tombstone_and_pad_round_trip(ino, ftype, name, slot):
    block = bytearray(SB.block_size)
    off = slot * 64
    rec = pack_dentry(ino, ftype, name)
    if off + len(rec) > SB.block_size:
        off = SB.block_size - len(rec)
    block[off:off + len(rec)] = rec
    assert unpack_dentry(block, off, SB, ROOT_INO, 99) == (
        ino, ftype, name, len(rec))
    block[off:off + 64] = pack_tombstone(name)
    assert unpack_dentry(block, off, SB, ROOT_INO, 99)[::3] == (0, len(rec))
    pad = SB.block_size - off
    if pad <= 256:                           # the widest pad a block needs
        block[off:off + 64] = pack_pad(pad)
        assert unpack_dentry(block, off, SB, ROOT_INO, 99) == (
            0, 0, bytes(pad - 8), pad)


@given(st.sampled_from(["desc", "dead", "commit"]), st.integers(0, 1 << 31),
       st.lists(st.integers(0, (1 << 32) - 1), max_size=62))
def test_journal_records_round_trip(kind, txid, lbas):
    count = len(lbas) if kind != "commit" else 0
    blob = pack_journal(kind, txid, SB.block_size, count,
                        lbas if kind == "desc" else ())
    assert len(blob) == SB.block_size
    assert unpack_journal(blob, SB, 0) == (
        kind, txid, count, tuple(lbas) if kind == "desc" else ())


# ---------------------------------------------------------------------------
# a built file system with 1 to 3 changed bytes in one metadata block


@functools.cache
def build(mode, journal):
    """A tree with a subdirectory, small files, a file with a spill block
    and, with the data journal, retired journal records: its device and
    the (block, lo, hi) byte ranges of that device which hold records."""
    fs = make_fs(mode, journal)
    fs.mkdir("/d")
    for path in ("/a", "/d/b", "/d/c", "/s"):
        fs.create(path)
        write_file(fs, path, 0, path.encode() * 700)
        fsync_file(fs, path)
    fd = fs.open("/s")
    for page in range(2, 14, 2):                 # 7 leaves: 4 in the spill
        fs.write(fd, page * 4096, b"s" * 4096)
        fs.fsync(fd)
    fs.close(fd)
    sb = fs.sb
    spans = [(sb.itab_start, 0, 8 * INODE_SIZE)]
    for path in ("/", "/d"):
        spans += [(leaf.lba, 0, 512) for leaf in fs.lookup(path).extents]
    spans.append((fs.lookup("/s").spill_block, 0, 64))
    if journal == "data":
        spans += [(sb.journal_start + i, 0, 64) for i in range(8)]
    assert fs.lookup("/s").spill_block and len(spans) >= 4
    return fs.mssd, spans


def walk_and_unlink(fs):
    """Every directory once, at most 64 KiB of each file, then unlink it.

    A changed leaf length can give a file more blocks than the write log
    holds entries, and an unlink of such a file raises `BackPressure`, as
    it does for a file written that large (see ROADMAP item 3)."""
    seen = set()
    stack = ["/"]
    while stack:
        path = stack.pop()
        inode = fs.lookup(path)
        if inode.ino in seen:
            continue
        seen.add(inode.ino)
        if inode.itype == ITYPE_DIR:
            stack += [f"{path.rstrip('/')}/{name}" for name in fs.readdir(path)]
        else:
            read_file(fs, path, 0, 65536)
            try:
                fs.unlink(path)
            except BackPressure:
                assert len(inode.all_blocks()) > 900
                continue


@pytest.mark.parametrize("mode", ["full", "block_only"])
@pytest.mark.parametrize("journal", ["ordered", "data"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_changed_metadata_bytes_raise_only_file_system_errors(mode, journal,
                                                              data):
    base, spans = build(mode, journal)
    blk, lo, hi = data.draw(st.sampled_from(spans))
    changes = data.draw(st.lists(st.tuples(st.integers(lo, hi - 1),
                                           st.integers(0, 255)),
                                 min_size=1, max_size=3))
    mssd = crash_clone(base)
    block = bytearray(mssd.block_read(blk, category="dentry"))
    for at, value in changes:
        block[at] = value
    mssd.block_write(blk, bytes(block), category="dentry")
    try:
        fs, _ = recover_fs(crash_clone(mssd), mode, journal)
        fs.fsck()
        walk_and_unlink(fs)
    except (FsError, InvalidArgument, RecoveryFailed):
        pass
