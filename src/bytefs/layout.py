"""On-device layout: every region and record of the file system.

`Superblock.plan` lays the regions out in block order: superblock, inode
bitmap, block bitmap, inode table, data journal, and the data region of
file data, directory and spill blocks.  The records and their `Struct`s:

  superblock   magic, version and the region plan (`_SB`)
  bitmap       one bit per inode or block, persisted in 64B groups
  inode        128B, 32 per 4 KiB block, split into two 64B halves so
               that a one-half update is one cacheline write: size,
               times, mode and links (`_LOWER`); ino, itype, extent
               count and spill block (`_UPPER`), then 3 inline leaves
  extent leaf  16B: file offset, block, length in blocks (`_LEAF`); the
               leaves past the inline ones fill the inode's spill block
  dentry       ino, ftype and name length (`_DENTRY`), then the name,
               padded to 64..320B; ino 0 is a tombstone, and a
               tombstone of a zero name pads a block's tail
  journal      magic, txid and count (`_JOURNAL`): a descriptor with
               its count of LBAs, the data blocks, then a commit with
               count 0; a checkpoint makes the descriptor a dead record

Each decoder checks its record against the superblock's geometry and
raises `FsError` naming the record, its inode and its block, except the
journal's: a journal block past the log's end can hold any bytes, so
`unpack_journal` reads a count out of bounds as no record.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import astuple, dataclass, field

from .errors import FsError, InvalidArgument

SB_MAGIC = b"BYFS"
SB_VERSION = 1
INODE_SIZE = 128
ROOT_INO = 2
ITYPE_NONE, ITYPE_FILE, ITYPE_DIR = 0, 1, 2
MAX_NAME = 256
DENTRY_ALIGN = 64
INLINE_EXTENTS = 3

_JOURNAL_MAGIC = {"desc": 0x4A424431, "dead": 0x4A424400,
                  "commit": 0x4A424443}
_JOURNAL_KIND = {magic: kind for kind, magic in _JOURNAL_MAGIC.items()}

_SB = struct.Struct("<4sIIQI" + "II" * 4 + "I")
_LOWER = struct.Struct("<QQQQII")  # size, mtime, atime, ctime, mode, links
_UPPER = struct.Struct("<IHHII")   # ino, itype, extent_count, spill, 0
_LEAF = struct.Struct("<QII")      # file offset, lba, length
_DENTRY = struct.Struct("<IHH")    # ino, ftype, name length
_JOURNAL = struct.Struct("<III")   # magic, txid, count
_LBAS = "<{}I"                     # a descriptor's LBAs, after its header


@dataclass
class Superblock:
    block_size: int
    total_blocks: int
    inode_count: int
    ibmp_start: int
    ibmp_blocks: int
    bbmp_start: int
    bbmp_blocks: int
    itab_start: int
    itab_blocks: int
    journal_start: int
    journal_blocks: int
    data_start: int

    @classmethod
    def plan(cls, block_size: int, total_blocks: int, inode_count: int,
             journal_blocks: int) -> "Superblock":
        """The regions in block order after the superblock: inode and
        block bitmaps, inode table (inodes rounded up to 32), journal and,
        from the last start on, data."""
        bits = 8 * block_size
        inode_count = (inode_count + 31) // 32 * 32
        regions, start = [], 1
        for blocks in (-(-inode_count // bits), -(-total_blocks // bits),
                       inode_count * INODE_SIZE // block_size, journal_blocks):
            regions += (start, blocks)
            start += blocks
        if start + 16 > total_blocks:
            raise InvalidArgument("device too small for this layout")
        return cls(block_size, total_blocks, inode_count, *regions, start)

    def pack(self) -> bytes:
        blob = _SB.pack(SB_MAGIC, SB_VERSION, *astuple(self))
        return blob + bytes(self.block_size - len(blob))

    @classmethod
    def unpack(cls, blob: bytes) -> "Superblock":
        magic, version, *vals = _SB.unpack_from(blob, 0)
        if magic != SB_MAGIC:
            raise InvalidArgument("bad superblock magic")
        if version != SB_VERSION:
            raise InvalidArgument(f"unsupported superblock version {version}")
        return cls(*vals)

    def in_data(self, blk: int) -> bool:
        return self.data_start <= blk < self.total_blocks

    def inode_addr(self, ino: int) -> int:
        return self.itab_start * self.block_size + ino * INODE_SIZE

    @property
    def max_extents(self) -> int:
        """Leaves an inode holds: inline, then one spill block's worth."""
        return INLINE_EXTENTS + self.block_size // _LEAF.size

    @property
    def max_journal_lbas(self) -> int:
        """Blocks one journal record carries: it must fit the journal
        with its descriptor and commit, and its LBAs the descriptor."""
        return min(self.journal_blocks - 2,
                   (self.block_size - _JOURNAL.size) // 4)  # 4B LBAs


@dataclass
class ExtentLeaf:
    file_offset: int  # bytes
    lba: int          # logical block address
    length: int       # blocks

    @staticmethod
    def pack_all(leaves) -> bytes:
        return b"".join(_LEAF.pack(leaf.file_offset, leaf.lba, leaf.length)
                        for leaf in leaves)


@dataclass
class Inode:
    ino: int
    itype: int = ITYPE_NONE
    size: int = 0
    mtime_ns: int = 0
    atime_ns: int = 0
    ctime_ns: int = 0
    mode: int = 0o644
    links: int = 1
    spill_block: int = 0
    extents: list[ExtentLeaf] = field(default_factory=list)

    def pack_lower(self) -> bytes:
        blob = _LOWER.pack(self.size, self.mtime_ns, self.atime_ns,
                           self.ctime_ns, self.mode, self.links)
        return blob + bytes(64 - len(blob))

    def pack_upper(self) -> bytes:
        blob = _UPPER.pack(self.ino, self.itype, len(self.extents),
                           self.spill_block, 0)
        blob += ExtentLeaf.pack_all(self.extents[:INLINE_EXTENTS])
        return blob + bytes(64 - len(blob))

    def pack(self) -> bytes:
        return self.pack_lower() + self.pack_upper()

    @classmethod
    def unpack(cls, read_block, ino: int, sb: Superblock) -> "Inode":
        """Inode `ino` with all its leaves; `read_block(blk)` returns the
        bytes of its inode-table block and of its spill block."""
        blk, off = divmod(sb.inode_addr(ino), sb.block_size)
        blob = read_block(blk)
        size, mtime, atime, ctime, mode, links = _LOWER.unpack_from(blob, off)
        rec_ino, itype, count, spill, _ = _UPPER.unpack_from(blob, off + 64)
        if (rec_ino != ino or itype not in (ITYPE_FILE, ITYPE_DIR)
                or count > sb.max_extents or (spill or count > INLINE_EXTENTS)
                and not sb.in_data(spill)):
            raise FsError(f"inode {ino} in block {blk}: ino {rec_ino}, itype "
                          f"{itype}, {count} extents, spill block {spill}")
        inode = cls(ino, itype, size, mtime, atime, ctime, mode, links, spill)
        end = 0
        at = off + 64 + _UPPER.size
        for i in range(count):
            if i == INLINE_EXTENTS:
                blk, blob, at = spill, read_block(spill), 0
            file_offset, lba, length = _LEAF.unpack_from(blob, at)
            at += _LEAF.size
            if file_offset < end or not length or lba < sb.data_start \
                    or lba + length > sb.total_blocks:
                raise FsError(f"inode {ino} extent {i} in block {blk}: "
                              f"offset {file_offset}, lba {lba}, length "
                              f"{length} overlaps or leaves the data region")
            end = file_offset + length * sb.block_size
            inode.extents.append(ExtentLeaf(file_offset, lba, length))
        return inode

    def block_for(self, file_offset: int, block_size: int) -> int | None:
        """The block holding `file_offset`; extents are sorted by offset."""
        i = bisect.bisect_right(self.extents, file_offset,
                                key=lambda leaf: leaf.file_offset) - 1
        if i >= 0:
            leaf = self.extents[i]
            if file_offset < leaf.file_offset + leaf.length * block_size:
                return leaf.lba + (file_offset - leaf.file_offset) // block_size
        return None

    def all_blocks(self) -> list[int]:
        out = []
        for leaf in self.extents:
            out.extend(range(leaf.lba, leaf.lba + leaf.length))
        return out


def dentry_record_size(name_len: int) -> int:
    return ((_DENTRY.size + name_len + DENTRY_ALIGN - 1)
            // DENTRY_ALIGN * DENTRY_ALIGN)


def pack_dentry(ino: int, ftype: int, name: bytes) -> bytes:
    rec = _DENTRY.pack(ino, ftype, len(name)) + name
    return rec + bytes(dentry_record_size(len(name)) - len(rec))


def pack_tombstone(name: bytes) -> bytes:
    """The first 64B of `name`'s record as a tombstone, all that a removal
    writes; a tombstone of a zero name pads a block's tail."""
    return pack_dentry(0, 0, name)[:DENTRY_ALIGN]


def pack_pad(size: int) -> bytes:
    """The first 64B of the tombstone that fills a block's last `size`."""
    return pack_tombstone(bytes(size - _DENTRY.size))


def unpack_dentry(blob, off: int, sb: Superblock, dir_ino: int, blk: int):
    """(ino, ftype, name, record size) of the record at `off` of directory
    block `blk`, or None at an empty slot."""
    ino, ftype, name_len = _DENTRY.unpack_from(blob, off)
    if name_len == 0:
        return None
    rec_size = dentry_record_size(name_len)
    name = bytes(blob[off + _DENTRY.size:off + _DENTRY.size + name_len])
    if name_len > MAX_NAME or off + rec_size > sb.block_size or ino and not (
            ROOT_INO < ino < sb.inode_count and ftype in (ITYPE_FILE, ITYPE_DIR)
            and b"/" not in name):
        raise FsError(f"dentry at {off} of block {blk} of dir inode {dir_ino}: "
                      f"ino {ino}, ftype {ftype}, name {name[:16]!r}, "
                      f"name length {name_len}")
    return ino, ftype, name, rec_size


def pack_journal(kind: str, txid: int, size: int, count: int = 0,
                 lbas=()) -> bytes:
    """A journal record of `size` bytes: a "desc" lists its `lbas`, a
    "dead" one keeps its descriptor's count, a "commit" has count 0."""
    blob = _JOURNAL.pack(_JOURNAL_MAGIC[kind], txid, count) + struct.pack(
        _LBAS.format(len(lbas)), *lbas)
    return blob + bytes(size - len(blob))


def unpack_journal(blob, sb: Superblock, pos: int):
    """(kind, txid, count, a descriptor's LBAs) of the record at block
    `pos` of the journal.  kind is None for a block that is no record, or
    a descriptor or dead one whose count runs past the journal or its
    block: a journal block can hold a stale copy of a data page."""
    magic, txid, count = _JOURNAL.unpack_from(blob, 0)
    kind = _JOURNAL_KIND.get(magic)
    if kind in ("desc", "dead") and count > min(
            sb.max_journal_lbas, sb.journal_blocks - 2 - pos):
        kind = None
    lbas = struct.unpack_from(_LBAS.format(count), blob, _JOURNAL.size) \
        if kind == "desc" else ()
    return kind, txid, count, lbas
