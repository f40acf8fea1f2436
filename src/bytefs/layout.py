"""On-device metadata layouts.

Inodes are 128B entries (32 per 4 KiB block) split into a lower and an
upper 64B region so that a single-region update is one cacheline write.
Directory entries are padded to 64B multiples (64..320B depending on the
filename).  Bitmaps are updated in 64B groups.  Extent leaves are 16B:
file offset (8B), logical block address (4B), length in blocks (4B).
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field

from .errors import InvalidArgument

SB_MAGIC = b"BYFS"
SB_VERSION = 1

INODE_SIZE = 128

ROOT_INO = 2

ITYPE_NONE = 0
ITYPE_FILE = 1
ITYPE_DIR = 2

MAX_NAME = 256
DENTRY_ALIGN = 64

EXTENT_LEAF_SIZE = 16
INLINE_EXTENTS = 3

# Data-journal record markers.
JOURNAL_DESC_MAGIC = 0x4A424431
JOURNAL_DEAD_MAGIC = 0x4A424400
JOURNAL_COMMIT_MAGIC = 0x4A424443

_SB_FMT = "<4sIIQI" + "II" * 4 + "II"


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
    mode_flags: int = 0

    def pack(self) -> bytes:
        blob = struct.pack(
            _SB_FMT, SB_MAGIC, SB_VERSION, self.block_size, self.total_blocks,
            self.inode_count, self.ibmp_start, self.ibmp_blocks,
            self.bbmp_start, self.bbmp_blocks, self.itab_start,
            self.itab_blocks, self.journal_start, self.journal_blocks,
            self.data_start, self.mode_flags,
        )
        return blob + bytes(self.block_size - len(blob))

    @classmethod
    def unpack(cls, blob: bytes) -> "Superblock":
        vals = struct.unpack_from(_SB_FMT, blob, 0)
        if vals[0] != SB_MAGIC:
            raise InvalidArgument("bad superblock magic")
        if vals[1] != SB_VERSION:
            raise InvalidArgument(f"unsupported superblock version {vals[1]}")
        return cls(*vals[2:])


@dataclass
class ExtentLeaf:
    file_offset: int  # bytes
    lba: int          # logical block address
    length: int       # blocks

    def pack(self) -> bytes:
        return struct.pack("<QII", self.file_offset, self.lba, self.length)

    @classmethod
    def unpack(cls, blob: bytes, off: int = 0) -> "ExtentLeaf":
        return cls(*struct.unpack_from("<QII", blob, off))


_LOWER_FMT = "<QQQQII"   # size, mtime, atime, ctime, mode, links
_UPPER_FMT = "<IHHII"    # ino, itype, extent_count, spill_block, reserved


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
        blob = struct.pack(_LOWER_FMT, self.size, self.mtime_ns,
                           self.atime_ns, self.ctime_ns, self.mode, self.links)
        return blob + bytes(64 - len(blob))

    def pack_upper(self) -> bytes:
        blob = struct.pack(_UPPER_FMT, self.ino, self.itype,
                           len(self.extents), self.spill_block, 0)
        inline = b"".join(
            leaf.pack() for leaf in self.extents[:INLINE_EXTENTS]
        )
        blob += inline
        return blob + bytes(64 - len(blob))

    def pack(self) -> bytes:
        return self.pack_lower() + self.pack_upper()

    @classmethod
    def unpack(cls, blob: bytes) -> tuple["Inode", int]:
        """The inode with its inline extents, and its extent count; the
        leaves past `INLINE_EXTENTS` are in the spill block, which the
        caller loads."""
        size, mtime, atime, ctime, mode, links = struct.unpack_from(
            _LOWER_FMT, blob, 0)
        ino, itype, ext_count, spill, _ = struct.unpack_from(_UPPER_FMT, blob, 64)
        inode = cls(ino=ino, itype=itype, size=size, mtime_ns=mtime,
                    atime_ns=atime, ctime_ns=ctime, mode=mode, links=links,
                    spill_block=spill)
        upper_off = 64 + struct.calcsize(_UPPER_FMT)
        for i in range(min(ext_count, INLINE_EXTENTS)):
            inode.extents.append(
                ExtentLeaf.unpack(blob, upper_off + i * EXTENT_LEAF_SIZE))
        return inode, ext_count

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
    if not (1 <= name_len <= MAX_NAME):
        raise InvalidArgument("filename must be 1..256 bytes")
    return (8 + name_len + DENTRY_ALIGN - 1) // DENTRY_ALIGN * DENTRY_ALIGN


def pack_dentry(ino: int, ftype: int, name: bytes) -> bytes:
    rec = struct.pack("<IHH", ino, ftype, len(name)) + name
    size = dentry_record_size(len(name))
    return rec + bytes(size - len(rec))


def unpack_dentry(blob: bytes, off: int):
    """Returns (ino, ftype, name, record_size) or None at an empty slot."""
    ino, ftype, name_len = struct.unpack_from("<IHH", blob, off)
    if name_len == 0:
        return None
    name = bytes(blob[off + 8:off + 8 + name_len])
    return ino, ftype, name, dentry_record_size(name_len)
