"""The file system proper.

On-device metadata with cacheline-sized update units, a host page cache
with copy-on-write dirty diffing, byte/block interface selection, and
journaling.  Four mount modes:

  block_only  all metadata and data via the block interface, device log off
  dual        metadata via the byte interface, data via block, device log off
  dual_log    dual plus the firmware write log
  full        dual_log plus interface selection for data (writeback ratio
              rule and the 512B direct-I/O threshold)

Metadata reads always use the block interface and are cached host-side;
cache hits produce zero device traffic.
"""

from __future__ import annotations

import re

import numpy as np

from .device import CACHELINE, DeviceConfig, GiB, spans
from .errors import (
    AlreadyExists, DirectoryNotEmpty, FsError, InvalidArgument, IsADirectory,
    NotADirectory, NotFound, SpaceExhausted, StateError,
)
from .layout import (
    INLINE_EXTENTS, INODE_SIZE, ITYPE_DIR, ITYPE_FILE, MAX_NAME, ROOT_INO,
    ExtentLeaf, Inode, Superblock, pack_dentry, pack_journal, pack_pad,
    pack_tombstone, unpack_dentry, unpack_journal,
)
from .mssd import Mssd
from .pagecache import CachedPage, PageCache

MODES = ("block_only", "dual", "dual_log", "full")
JOURNAL_MODES = ("ordered", "data")

DIRECT_BYTE_LIMIT = 512          # <= this size goes via the byte interface
WRITEBACK_BYTE_NUM = 1           # byte path iff dirty/total < 1/8
WRITEBACK_BYTE_DEN = 8

DEFAULT_CACHE_BYTES = 8 * GiB

_NOT_FULL = re.compile(rb"[^\xff]")


class Bitmap:
    """One on-device bitmap, held as the list of blocks the device read
    returned.  A block stays the object it was read as until its first
    change copies it to a `bytearray`: a mount copies nothing, and no
    block handed in is changed in place."""

    def __init__(self, blocks: list, start: int):
        self.blocks = blocks
        self.start = start                   # device block of blocks[0]
        self.block_bits = 8 * len(blocks[0])
        self._copied: set[int] = set()       # blocks owned and writable

    def __bytes__(self) -> bytes:
        return b"".join(self.blocks)

    def block(self, i: int) -> bytearray:
        """Block `i`, writable: the mirror of device block start + i."""
        if i not in self._copied:
            self._copied.add(i)
            self.blocks[i] = bytearray(self.blocks[i])
        return self.blocks[i]

    def get(self, idx: int) -> bool:
        i, bit = idx // self.block_bits, idx % self.block_bits
        return bool(self.blocks[i][bit >> 3] >> (bit & 7) & 1)

    def set(self, idx: int, value: bool) -> tuple[int, bytes]:
        """Set bit `idx` to `value`; returns the device address and the
        bytes of the 64B group that holds it."""
        i, bit = idx // self.block_bits, idx % self.block_bits
        block = self.block(i)
        mask = 1 << (bit & 7)
        block[bit >> 3] = block[bit >> 3] & ~mask | (mask if value else 0)
        lo = bit // (CACHELINE * 8) * CACHELINE
        return ((self.start + i) * (self.block_bits >> 3) + lo,
                bytes(block[lo:lo + CACHELINE]))

    def first_clear(self, lo: int, hi: int) -> int | None:
        """Index of the lowest clear bit in [lo, hi), or None.  Within a
        block, full bytes are skipped by the regex engine."""
        bits = self.block_bits
        while lo < hi:
            i, bit = lo // bits, lo % bits
            block = self.blocks[i]
            pos = bit >> 3
            free = ~block[pos] & (0xff << (bit & 7)) & 0xff
            if not free:
                match = _NOT_FULL.search(block, pos + 1,
                                         (hi - i * bits + 7) >> 3)
                if match is None:
                    lo = (i + 1) * bits
                    continue
                pos = match.start()
                free = ~block[pos] & 0xff
            idx = i * bits + pos * 8 + (free & -free).bit_length() - 1
            return idx if idx < hi else None
        return None

    def set_bits(self, lo: int, hi: int) -> list[int]:
        """Indices of the set bits in [lo, hi), ascending.  Only the
        non-zero 64-bit words of the non-zero blocks are unpacked."""
        bits = self.block_bits
        zero = bytes(bits >> 3)
        found = []
        for i in range(lo // bits, (hi + bits - 1) // bits):
            if self.blocks[i] != zero:
                words = np.frombuffer(self.blocks[i], np.uint8).reshape(-1, 8)
                nonzero = np.flatnonzero(words.view(np.uint64))
                row, col = np.nonzero(np.unpackbits(
                    words[nonzero], axis=1, bitorder="little"))
                idx = nonzero[row] * 64 + col + i * bits
                found += idx[(idx >= lo) & (idx < hi)].tolist()
        return found


def _has_write_log(mode: str) -> bool:
    """Whether a mount mode runs on a device with a write log: only
    dual_log and full do."""
    if mode not in MODES:
        raise InvalidArgument(f"unknown mode {mode!r}")
    return mode in ("dual_log", "full")


def make_mssd(config: DeviceConfig | None = None, mode: str = "full"
              ) -> Mssd:
    """Device stack for a mount mode."""
    return Mssd(config, log_enabled=_has_write_log(mode))


def mkfs(mssd: Mssd, inode_count: int | None = None,
         journal_blocks: int = 64) -> Superblock:
    """Format the device.  Deterministic: same parameters give identical
    superblock and metadata bytes."""
    bs = mssd.config.page_size
    total_blocks = mssd.config.capacity_bytes // bs
    if inode_count is None:
        inode_count = max(1024, total_blocks // 8)
    sb = Superblock.plan(bs, total_blocks, inode_count, journal_blocks)
    mssd.block_write(0, sb.pack(), category="superblock")

    # inodes 0 and 1 are reserved and 2 is the root; the metadata region
    # is allocated.  Only the blocks that hold these bits are written:
    # erased flash reads back zeros.
    for start, used in ((sb.ibmp_start, ROOT_INO + 1),
                        (sb.bbmp_start, sb.data_start)):
        bitmap = ((1 << used) - 1).to_bytes(
            (used + 8 * bs - 1) // (8 * bs) * bs, "little")
        for i in range(0, len(bitmap), bs):
            mssd.block_write(start + i // bs, bitmap[i:i + bs],
                             category="bitmap")

    root = Inode(ino=ROOT_INO, itype=ITYPE_DIR, links=2, mode=0o755)
    blk, off = divmod(sb.inode_addr(ROOT_INO), bs)
    itab_page = bytearray(bs)
    itab_page[off:off + INODE_SIZE] = root.pack()
    mssd.block_write(blk, bytes(itab_page), category="inode")
    return sb


class _OpenFile:
    __slots__ = ("ino", "direct")

    def __init__(self, ino: int, direct: bool):
        self.ino = ino
        self.direct = direct


class _Txn:
    """One transaction for one file-system operation, which runs in it as
    a context (`with _Txn(fs):`).  Byte modes lazily open a device
    transaction at the first metadata write; block_only collects dirty
    metadata blocks and writes them whole when the operation closes.

    Operations never nest: the page cache evicts, and so writes back, only
    in `read` and `write`, which run outside any operation.  Aborted if the
    operation raises, else journaled, committed (or its dirty metadata
    blocks written) and checkpointed when it ends.
    """

    def __init__(self, fs: "ByteFS"):
        self.fs = fs
        self.mssd = fs.mssd
        self.txid: int | None = None
        self.blocks: dict[int, str] = {}  # blk -> category (block_only)
        self.journaled: list[tuple[int, bytes]] = []

    def device_txid(self) -> int:
        if self.txid is None:
            self.txid = self.mssd.tx_begin()
        return self.txid

    def __enter__(self) -> "_Txn":
        self.fs._txn = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        fs = self.fs
        fs._txn = None
        if exc_type is not None:
            # a write conflict or a full log may have ended it already
            if self.txid in self.mssd.txmgr.table:
                self.mssd.tx_abort(self.txid)
            return
        if self.journaled:
            base = fs._journal_write(self)
        if fs.byte_metadata:
            if self.txid is not None:
                self.mssd.tx_commit(self.txid)
        else:
            fs._flush_block_txn(self)
        if self.journaled:
            fs._journal_checkpoint(self, base)


class ByteFS:
    def __init__(self, mssd: Mssd, mode: str = "full",
                 journal: str = "ordered",
                 cache_bytes: int = DEFAULT_CACHE_BYTES):
        if _has_write_log(mode) != mssd.log_enabled:
            raise InvalidArgument(f"mode {mode!r} does not match the "
                                  "device's write log")
        if journal not in JOURNAL_MODES:
            raise InvalidArgument(f"unknown journal mode {journal!r}")
        self.mssd = mssd
        self.mode = mode
        self.byte_metadata = mode != "block_only"
        self.journal_mode = journal
        self.cache_bytes = cache_bytes
        self.mounted = False
        self.sb: Superblock | None = None
        self._txn: _Txn | None = None

    # ------------------------------------------------------------------
    # mount

    def mount(self) -> None:
        if self.mounted:
            raise StateError("already mounted")
        bs = self.mssd.config.page_size
        self.sb = Superblock.unpack(self.mssd.block_read(0, category="superblock"))
        if self.sb.block_size != bs:
            raise InvalidArgument("superblock block size mismatch")
        sb = self.sb
        # each bitmap, read with one device call and held as its blocks
        self._ibmp, self._bbmp = (
            Bitmap(self.mssd.block_read_run(start, count, category="bitmap"),
                   start)
            for start, count in ((sb.ibmp_start, sb.ibmp_blocks),
                                 (sb.bbmp_start, sb.bbmp_blocks)))
        # mirrors of inode-table, directory, spill and journal blocks
        self._blocks: dict[int, bytearray] = {}
        self._inodes: dict[int, Inode] = {}
        self._dirs: dict[int, dict[bytes, tuple]] = {}  # ino -> name -> entry
        self._dir_tombstones: dict[int, list[tuple]] = {}
        self._meta_dirty: dict[int, set] = {}  # ino -> {"time", "size"}
        self._fds: dict[int, _OpenFile] = {}
        self._next_fd = 3
        self._alloc_hint = sb.data_start
        self._journal_pos = 0
        self.cache = PageCache(self.cache_bytes, bs, self._evict_writeback)
        self.mounted = True
        self._load_inode(ROOT_INO)

    # ------------------------------------------------------------------
    # transaction plumbing

    def _meta_write(self, addr: int, data: bytes, category: str) -> None:
        """Update the host mirror and persist per the mount mode."""
        self._mirror_write(addr, data)
        if self.byte_metadata:
            txid = self._txn.device_txid()
            self.mssd.tx_write(txid, addr, data, category=category)
        else:
            for blk, _, _, _ in spans(addr, len(data), self.sb.block_size):
                self._txn.blocks[blk] = category

    def _mirror_write(self, addr: int, data: bytes) -> None:
        for blk, off, take, pos in spans(addr, len(data), self.sb.block_size):
            self._block_mirror(blk)[off:off + take] = data[pos:pos + take]

    def _block_mirror(self, blk: int) -> bytearray:
        mirror = self._blocks.get(blk)  # never a bitmap or the superblock
        if mirror is not None:
            return mirror
        sb = self.sb
        if sb.ibmp_start <= blk < sb.ibmp_start + sb.ibmp_blocks:
            return self._ibmp.block(blk - sb.ibmp_start)
        if sb.bbmp_start <= blk < sb.bbmp_start + sb.bbmp_blocks:
            return self._bbmp.block(blk - sb.bbmp_start)
        if sb.itab_start <= blk < sb.itab_start + sb.itab_blocks:
            category = "inode"
        elif sb.journal_start <= blk < sb.journal_start + sb.journal_blocks:
            category = "journal"
        else:
            category = "dentry"
        mirror = self._blocks[blk] = bytearray(
            self.mssd.block_read(blk, category=category))
        return mirror

    def _flush_block_txn(self, txn: _Txn) -> None:
        for blk in sorted(txn.blocks):
            category = txn.blocks[blk]
            self.mssd.block_write(blk, bytes(self._block_mirror(blk)),
                                  category=category)

    # ------------------------------------------------------------------
    # allocation

    def _mark(self, bitmap: Bitmap, idx: int, used: bool) -> None:
        """Set bit `idx` of `bitmap` to `used` and persist the 64B group
        that holds it."""
        self._meta_write(*bitmap.set(idx, used), "bitmap")

    def _alloc_ino(self) -> int:
        ino = self._ibmp.first_clear(ROOT_INO + 1, self.sb.inode_count)
        if ino is None:
            raise SpaceExhausted("no free inodes")
        self._mark(self._ibmp, ino, True)
        return ino

    def _alloc_block(self) -> int:
        """First free block at or after the hint, else from the start of
        the data region."""
        sb = self.sb
        blk = self._bbmp.first_clear(self._alloc_hint, sb.total_blocks)
        if blk is None:
            blk = self._bbmp.first_clear(sb.data_start, self._alloc_hint)
        if blk is None:
            raise SpaceExhausted("no free blocks")
        self._mark(self._bbmp, blk, True)
        self._alloc_hint = blk + 1
        return blk

    def _free_block(self, blk: int) -> None:
        self._mark(self._bbmp, blk, False)
        self._blocks.pop(blk, None)

    # ------------------------------------------------------------------
    # inodes

    def _load_inode(self, ino: int) -> Inode:
        inode = self._inodes.get(ino)
        if inode is None:
            inode = self._inodes[ino] = Inode.unpack(self._block_mirror, ino,
                                                     self.sb)
        return inode

    def _persist_inode_lower(self, inode: Inode) -> None:
        """Persist size, times, mode and links; nothing of them is pending
        after this."""
        self._meta_write(self.sb.inode_addr(inode.ino), inode.pack_lower(),
                         "inode")
        self._meta_dirty.pop(inode.ino, None)

    def _persist_inode_full(self, inode: Inode) -> None:
        self._meta_write(self.sb.inode_addr(inode.ino), inode.pack(), "inode")

    def _persist_extents(self, inode: Inode) -> None:
        """Upper region (inline leaves + count) plus any spill leaves."""
        if len(inode.extents) > self.sb.max_extents:
            raise SpaceExhausted("file extent limit reached")
        if len(inode.extents) > INLINE_EXTENTS:
            if inode.spill_block == 0:
                inode.spill_block = self._alloc_block()
            spill = self._blocks.setdefault(
                inode.spill_block, bytearray(self.sb.block_size))
            base = inode.spill_block * self.sb.block_size
            blob = ExtentLeaf.pack_all(inode.extents[INLINE_EXTENTS:])
            # persist touched 64B groups of the spill block
            for group in range(0, len(blob), CACHELINE):
                chunk = blob[group:group + CACHELINE]
                if bytes(spill[group:group + len(chunk)]) != chunk:
                    padded = bytearray(spill[group:group + CACHELINE])
                    padded[:len(chunk)] = chunk
                    self._meta_write(base + group, bytes(padded),
                                     "data_pointer")
        self._meta_write(self.sb.inode_addr(inode.ino) + 64,
                         inode.pack_upper(), "data_pointer")

    def _ensure_block(self, inode: Inode, page_index: int) -> tuple[int, bool]:
        """Map a file page to a block, allocating if needed.
        Returns (lba, newly_allocated)."""
        bs = self.sb.block_size
        lba = inode.block_for(page_index * bs, bs)
        if lba is not None:
            return lba, False
        lba = self._alloc_block()
        offset = page_index * bs
        for leaf in inode.extents:
            if (leaf.file_offset + leaf.length * bs == offset
                    and leaf.lba + leaf.length == lba):
                leaf.length += 1
                break
        else:
            inode.extents.append(ExtentLeaf(offset, lba, 1))
            inode.extents.sort(key=lambda l: l.file_offset)
        return lba, True

    def _touch(self, inode: Inode, size_changed: bool = False) -> None:
        inode.mtime_ns = self.mssd.clock_ns
        flags = self._meta_dirty.setdefault(inode.ino, set())
        flags.add("time")
        if size_changed:
            flags.add("size")

    # ------------------------------------------------------------------
    # directories

    def _load_dir(self, ino: int) -> dict[bytes, tuple]:
        entries = self._dirs.get(ino)
        if entries is not None:
            return entries
        inode = self._load_inode(ino)  # a directory: every caller checks
        entries = {}
        tombstones = []
        bs = self.sb.block_size
        pos = 0
        while pos < inode.size:
            blk = inode.block_for(pos // bs * bs, bs)
            if blk is None:  # a directory has no holes
                raise FsError(f"dir inode {ino} size {inode.size} runs past "
                              "its extents")
            mirror = self._block_mirror(blk)
            off = pos % bs
            parsed = unpack_dentry(mirror, off, self.sb, ino, blk)
            if parsed is None:
                break
            child_ino, ftype, name, rec_size = parsed
            if child_ino == 0:
                tombstones.append((blk, off, rec_size))
            else:
                entries[name] = (child_ino, ftype, blk, off, rec_size)
            pos += rec_size
        self._dirs[ino] = entries
        self._dir_tombstones[ino] = tombstones
        return entries

    def _dir_add(self, parent: Inode, name: bytes, child_ino: int,
                 ftype: int) -> None:
        entries = self._load_dir(parent.ino)
        rec = pack_dentry(child_ino, ftype, name)
        rec_size = len(rec)
        tombstones = self._dir_tombstones[parent.ino]
        slot = None
        for i, (blk, off, size) in enumerate(tombstones):
            if size == rec_size:
                slot = (blk, off)
                tombstones.pop(i)
                break
        bs = self.sb.block_size
        if slot is None:
            pos = parent.size
            if pos % bs and pos % bs + rec_size > bs:
                # pad the block tail with a tombstone so scans can skip it
                pad = bs - pos % bs
                blk = parent.block_for(pos // bs * bs, bs)
                self._meta_write(blk * bs + pos % bs, pack_pad(pad), "dentry")
                pos += pad
            blk, new = self._ensure_block(parent, pos // bs)
            if new:
                self._blocks[blk] = bytearray(bs)
                self._persist_extents(parent)
            slot = (blk, pos % bs)
            parent.size = pos + rec_size
        blk, off = slot
        self._meta_write(blk * bs + off, rec, "dentry")
        entries[name] = (child_ino, ftype, blk, off, rec_size)
        self._touch(parent, size_changed=True)
        self._persist_inode_lower(parent)

    def _dir_remove(self, parent: Inode, name: bytes) -> None:
        entries = self._load_dir(parent.ino)
        child_ino, ftype, blk, off, rec_size = entries.pop(name)
        self._meta_write(blk * self.sb.block_size + off, pack_tombstone(name),
                         "dentry")
        self._dir_tombstones[parent.ino].append((blk, off, rec_size))
        self._touch(parent)
        self._persist_inode_lower(parent)

    # ------------------------------------------------------------------
    # path resolution

    @staticmethod
    def _split_path(path: str) -> list[bytes]:
        if not path.startswith("/"):
            raise InvalidArgument("paths must be absolute")
        parts = [p.encode(errors="surrogateescape")  # as readdir decodes
                 for p in path.split("/") if p]
        for p in parts:
            if len(p) > MAX_NAME:
                raise InvalidArgument("name too long")
        return parts

    def _resolve(self, path: str) -> Inode:
        inode = self._load_inode(ROOT_INO)
        for name in self._split_path(path):
            inode = self._lookup_child(inode, name)
        return inode

    def _resolve_parent(self, path: str) -> tuple[Inode, bytes]:
        parts = self._split_path(path)
        if not parts:
            raise InvalidArgument("cannot operate on the root this way")
        inode = self._load_inode(ROOT_INO)
        for name in parts[:-1]:
            inode = self._lookup_child(inode, name)
        if inode.itype != ITYPE_DIR:
            raise NotADirectory(path)
        return inode, parts[-1]

    def _lookup_child(self, parent: Inode, name: bytes) -> Inode:
        if parent.itype != ITYPE_DIR:
            raise NotADirectory(name.decode(errors="replace"))
        entry = self._load_dir(parent.ino).get(name)
        if entry is None:
            raise NotFound(name.decode(errors="replace"))
        return self._load_inode(entry[0])

    # ------------------------------------------------------------------
    # namespace operations

    def lookup(self, path: str) -> Inode:
        self._require_mounted()
        return self._resolve(path)

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except (NotFound, NotADirectory):
            return False

    def readdir(self, path: str) -> list[str]:
        self._require_mounted()
        inode = self._resolve(path)
        if inode.itype != ITYPE_DIR:
            raise NotADirectory(path)
        return sorted(n.decode(errors="surrogateescape")
                      for n in self._load_dir(inode.ino))

    def create(self, path: str) -> int:
        return self._create_common(path, ITYPE_FILE)

    def mkdir(self, path: str) -> int:
        return self._create_common(path, ITYPE_DIR)

    def _create_common(self, path: str, itype: int) -> int:
        self._require_mounted()
        with _Txn(self):
            parent, name = self._resolve_parent(path)
            if name in self._load_dir(parent.ino):
                raise AlreadyExists(path)
            ino = self._alloc_ino()
            now = self.mssd.clock_ns
            inode = Inode(ino=ino, itype=itype,
                          links=2 if itype == ITYPE_DIR else 1,
                          mode=0o755 if itype == ITYPE_DIR else 0o644,
                          mtime_ns=now, atime_ns=now, ctime_ns=now)
            self._inodes[ino] = inode
            self._persist_inode_full(inode)
            self._dir_add(parent, name, ino, itype)
            if itype == ITYPE_DIR:
                parent.links += 1
                self._persist_inode_lower(parent)
            return ino

    def unlink(self, path: str) -> None:
        self._require_mounted()
        with _Txn(self):
            parent, name = self._resolve_parent(path)
            target = self._lookup_child(parent, name)
            if target.itype == ITYPE_DIR:
                raise IsADirectory(path)
            self._remove_inode(parent, name, target)

    def rmdir(self, path: str) -> None:
        self._require_mounted()
        with _Txn(self):
            parent, name = self._resolve_parent(path)
            target = self._lookup_child(parent, name)
            if target.itype != ITYPE_DIR:
                raise NotADirectory(path)
            if self._load_dir(target.ino):
                raise DirectoryNotEmpty(path)
            self._remove_inode(parent, name, target)
            parent.links -= 1
            self._persist_inode_lower(parent)

    def _remove_inode(self, parent: Inode, name: bytes, target: Inode) -> None:
        self._dir_remove(parent, name)
        for blk in target.all_blocks():
            self._free_block(blk)
        if target.spill_block:
            self._free_block(target.spill_block)
        self._mark(self._ibmp, target.ino, False)
        self._inodes.pop(target.ino, None)
        self._dirs.pop(target.ino, None)
        self._dir_tombstones.pop(target.ino, None)
        self._meta_dirty.pop(target.ino, None)
        self.cache.drop_inode(target.ino)
        # an fd left open must not reach an inode that reuses the number
        self._fds = {fd: h for fd, h in self._fds.items()
                     if h.ino != target.ino}

    def rename(self, old: str, new: str) -> None:
        self._require_mounted()
        with _Txn(self):
            old_parent, old_name = self._resolve_parent(old)
            target = self._lookup_child(old_parent, old_name)
            new_parent, new_name = self._resolve_parent(new)
            old_parts = self._split_path(old)
            if self._split_path(new)[:-1][:len(old_parts)] == old_parts:
                raise InvalidArgument(f"cannot move {old} into itself")
            entries = self._load_dir(new_parent.ino)
            if new_name in entries:
                existing = self._load_inode(entries[new_name][0])
                if existing.ino == target.ino:
                    return
                if existing.itype == ITYPE_DIR:
                    if target.itype != ITYPE_DIR:
                        raise IsADirectory(new)
                    if self._load_dir(existing.ino):
                        raise DirectoryNotEmpty(new)
                    new_parent.links -= 1
                elif target.itype == ITYPE_DIR:
                    raise NotADirectory(new)
                self._remove_inode(new_parent, new_name, existing)
            self._dir_remove(old_parent, old_name)
            self._dir_add(new_parent, new_name, target.ino, target.itype)
            if target.itype == ITYPE_DIR and old_parent.ino != new_parent.ino:
                old_parent.links -= 1
                new_parent.links += 1
                self._persist_inode_lower(old_parent)
                self._persist_inode_lower(new_parent)

    # ------------------------------------------------------------------
    # file I/O

    def open(self, path: str, direct: bool = False) -> int:
        self._require_mounted()
        inode = self._resolve(path)
        if inode.itype != ITYPE_FILE:
            raise IsADirectory(path)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(inode.ino, direct)
        return fd

    def close(self, fd: int) -> None:
        self._require_mounted()
        if self._fds.pop(fd, None) is None:
            raise StateError(f"bad fd {fd}")

    def _file(self, fd: int) -> tuple[_OpenFile, Inode]:
        handle = self._fds.get(fd)
        if handle is None:
            raise StateError(f"bad fd {fd}")
        return handle, self._load_inode(handle.ino)

    def _get_page(self, inode: Inode, index: int) -> CachedPage:
        page = self.cache.get(inode.ino, index)
        if page is not None:
            return page
        bs = self.sb.block_size
        lba = inode.block_for(index * bs, bs)
        if lba is not None:
            data = bytearray(self.mssd.block_read(lba, category="data"))
        else:
            data = bytearray(bs)
        return self.cache.insert(inode.ino, index, data)

    def read(self, fd: int, offset: int, length: int) -> bytes:
        self._require_mounted()
        if offset < 0 or length < 0:
            raise InvalidArgument("negative offset or length")
        handle, inode = self._file(fd)
        if handle.direct:
            return self._direct_read(inode, offset, length)
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        out = bytearray()
        for index, off, take, _ in spans(offset, length, self.sb.block_size):
            out += self._get_page(inode, index).data[off:off + take]
        return bytes(out)

    def write(self, fd: int, offset: int, data: bytes) -> int:
        self._require_mounted()
        if offset < 0:
            raise InvalidArgument("negative offset")
        handle, inode = self._file(fd)
        if not data:
            return 0
        if handle.direct:
            return self._direct_write(inode, offset, data)
        for index, off, take, pos in spans(offset, len(data),
                                           self.sb.block_size):
            page = self._get_page(inode, index)
            page.note_modify(off, take)
            page.data[off:off + take] = data[pos:pos + take]
        grew = offset + len(data) > inode.size
        if grew:
            inode.size = offset + len(data)
        self._touch(inode, size_changed=grew)
        return len(data)

    # -- direct I/O --------------------------------------------------------

    def _direct_read(self, inode: Inode, offset: int, length: int) -> bytes:
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        bs = self.sb.block_size
        use_byte = self.mode == "full" and length <= DIRECT_BYTE_LIMIT
        out = bytearray()
        for index, off, take, _ in spans(offset, length, bs):
            lba = inode.block_for(index * bs, bs)
            if lba is None:
                out += bytes(take)
            elif use_byte:
                out += self.mssd.byte_read(lba * bs + off, take,
                                           category="data")
            else:
                page = self.mssd.block_read(lba, category="data")
                out += page[off:off + take]
        return bytes(out)

    def _direct_write(self, inode: Inode, offset: int, data: bytes) -> int:
        bs = self.sb.block_size
        with _Txn(self):
            use_byte = self.mode == "full" and len(data) <= DIRECT_BYTE_LIMIT
            meta_changed = False
            for index, off, take, pos in spans(offset, len(data), bs):
                lba, new = self._ensure_block(inode, index)
                meta_changed = meta_changed or new
                chunk = data[pos:pos + take]
                if use_byte:
                    txid = self._txn.device_txid()
                    self.mssd.tx_write(txid, lba * bs + off, chunk,
                                       category="data")
                else:
                    if take == bs:
                        page = chunk
                    else:
                        base = bytearray(
                            self.mssd.block_read(lba, category="data")
                            if not new else bytes(bs))
                        base[off:off + take] = chunk
                        page = bytes(base)
                    self.mssd.block_write(lba, page, category="data")
                self._update_cached_page(inode.ino, index, off, chunk)
            grew = offset + len(data) > inode.size
            if grew:
                inode.size = offset + len(data)
            inode.mtime_ns = self.mssd.clock_ns
            if meta_changed:
                self._persist_extents(inode)
            self._persist_inode_lower(inode)
        return len(data)

    def _update_cached_page(self, ino: int, index: int, off: int,
                            chunk: bytes) -> None:
        page = self.cache.get(ino, index)
        if page is None:
            return
        page.data[off:off + len(chunk)] = chunk
        if page.duplicate is not None:
            dup = bytearray(page.duplicate)
            dup[off:off + len(chunk)] = chunk
            page.set_duplicate(bytes(dup))

    # -- writeback and sync ------------------------------------------------

    def _writeback_page(self, inode: Inode, page: CachedPage) -> None:
        """Persist one dirty page; a byte write per run of dirty lines."""
        dirty = page.dirty_cachelines()
        if not dirty:
            return
        bs = self.sb.block_size
        lba, new = self._ensure_block(inode, page.index)
        if new:
            self._persist_extents(inode)
            self._meta_dirty.setdefault(inode.ino, set()).add("size")
        total_cl = bs // CACHELINE
        use_byte = (self.mode == "full" and len(dirty) * WRITEBACK_BYTE_DEN
                    < total_cl * WRITEBACK_BYTE_NUM)
        if use_byte:
            txid = self._txn.device_txid()
            first = dirty[0]
            for cl, after in zip(dirty, dirty[1:] + [-1]):
                if after != cl + 1:  # cachelines first..cl are one run
                    run = page.data[first * CACHELINE:(cl + 1) * CACHELINE]
                    self.mssd.tx_write(txid, lba * bs + first * CACHELINE,
                                       bytes(run), category="data")
                    first = after
        elif self.journal_mode == "data":
            if len(self._txn.journaled) >= self.sb.max_journal_lbas:
                raise SpaceExhausted("journal record larger than journal area")
            self._txn.journaled.append((lba, bytes(page.data)))
        else:
            self.mssd.block_write(lba, bytes(page.data), category="data")

    def _evict_writeback(self, page: CachedPage) -> None:
        self._flush_inode(self._load_inode(page.ino), [page], data_only=False)

    def _metadata_pending(self, ino: int, data_only: bool) -> bool:
        """Whether the inode has changes a flush must persist: fdatasync
        leaves a change of times alone."""
        flags = self._meta_dirty.get(ino)
        return bool(flags) and not (data_only and flags == {"time"})

    def _flush_inode(self, inode: Inode, pages, data_only: bool) -> None:
        """Write back `pages` of `inode`, then its pending metadata, in one
        operation.  The pages stay dirty unless the operation commits."""
        with _Txn(self):
            for page in pages:
                self._writeback_page(inode, page)
            if self._metadata_pending(inode.ino, data_only):
                self._persist_inode_lower(inode)
        for page in pages:
            page.clear_dirty()

    def fsync(self, fd: int) -> None:
        self._fsync_common(fd, data_only=False)

    def fdatasync(self, fd: int) -> None:
        self._fsync_common(fd, data_only=True)

    def _fsync_common(self, fd: int, data_only: bool) -> None:
        self._require_mounted()
        handle, inode = self._file(fd)
        dirty = self.cache.dirty_pages(inode.ino)
        # a clean file opens no transaction at all
        if dirty or self._metadata_pending(inode.ino, data_only):
            self._flush_inode(inode, dirty, data_only)

    def sync(self) -> None:
        """Writeback every dirty page and flush pending metadata."""
        self._require_mounted()
        for ino in sorted(self.cache.by_ino.keys() | self._meta_dirty):
            if self._ibmp.get(ino):
                self._flush_inode(self._load_inode(ino),
                                  self.cache.dirty_pages(ino),
                                  data_only=False)

    # ------------------------------------------------------------------
    # data journaling

    def _journal_write(self, txn: _Txn) -> int:
        """Append journaled data blocks plus a commit entry; returns the
        record's first block."""
        sb = self.sb
        bs = sb.block_size
        blocks = txn.journaled
        if self._journal_pos + len(blocks) + 2 > sb.journal_blocks:
            self._journal_pos = 0  # previous records are checkpointed
        txid = txn.txid or 0
        desc = pack_journal("desc", txid, bs, len(blocks),
                            [lba for lba, _ in blocks])
        base = sb.journal_start + self._journal_pos
        self.mssd.block_write(base, desc, category="journal")
        self._mirror_write(base * bs, desc)
        for i, (_, data) in enumerate(blocks):
            self.mssd.block_write(base + 1 + i, data, category="journal")
        self.mssd.block_write(base + 1 + len(blocks), pack_journal(
            "commit", txid, bs), category="journal")
        return base

    def _journal_checkpoint(self, txn: _Txn, base: int) -> None:
        """Move journaled blocks in place and retire the record that
        starts at block `base`."""
        for lba, data in txn.journaled:
            self.mssd.block_write(lba, data, category="data")
        bs = self.sb.block_size
        dead = pack_journal("dead", txn.txid or 0,
                            CACHELINE if self.byte_metadata else bs,
                            len(txn.journaled))
        if self.byte_metadata:
            self.mssd.byte_write(base * bs, dead, category="journal")
        else:
            self.mssd.block_write(base, dead, category="journal")
        self._mirror_write(base * bs, dead)
        self._journal_pos = (base - self.sb.journal_start) + len(txn.journaled) + 2
        txn.journaled = []

    # ------------------------------------------------------------------
    # consistency check

    def fsck(self) -> list[str]:
        """Walk the namespace and cross-check bitmaps and extents."""
        self._require_mounted()
        problems: list[str] = []
        sb = self.sb
        seen_inos: set[int] = set()
        block_refs: dict[int, int] = {}

        def visit(ino: int, path: str):
            if ino in seen_inos:
                problems.append(f"inode {ino} reached twice ({path})")
                return
            seen_inos.add(ino)
            if not self._ibmp.get(ino):
                problems.append(f"inode {ino} in use but not allocated "
                                f"({path})")
            try:  # a record outside the geometry is a problem, not a crash
                inode = self._load_inode(ino)
                for blk in inode.all_blocks():
                    block_refs[blk] = block_refs.get(blk, 0) + 1
                    if not sb.in_data(blk):
                        problems.append(f"inode {ino} references block "
                                        f"{blk} outside the data region")
                if inode.spill_block:
                    block_refs[inode.spill_block] = \
                        block_refs.get(inode.spill_block, 0) + 1
                if inode.itype == ITYPE_DIR:
                    entries = self._load_dir(ino)
            except FsError as exc:
                problems.append(f"{exc} ({path})")
                return
            if inode.itype == ITYPE_DIR:
                subdirs = 0
                for name, entry in entries.items():
                    child_ino, ftype = entry[0], entry[1]
                    if ftype == ITYPE_DIR:
                        subdirs += 1
                    visit(child_ino, f"{path}/{name.decode(errors='replace')}")
                if inode.links != 2 + subdirs:
                    problems.append(f"dir inode {ino} links {inode.links}, "
                                    f"expected {2 + subdirs}")

        visit(ROOT_INO, "")
        for ino in self._ibmp.set_bits(ROOT_INO, sb.inode_count):
            if ino not in seen_inos:
                problems.append(f"inode {ino} allocated but unreachable")
        for blk, count in block_refs.items():
            if count > 1:
                problems.append(f"block {blk} referenced {count} times")
            if not self._bbmp.get(blk):
                problems.append(f"block {blk} referenced but not allocated")
        for blk in self._bbmp.set_bits(sb.data_start, sb.total_blocks):
            if blk not in block_refs:
                problems.append(f"block {blk} allocated but unreferenced")
        return problems

    # ------------------------------------------------------------------

    def _require_mounted(self) -> None:
        """Every public operation but `mount` starts with this check."""
        if not self.mounted:
            raise StateError("not mounted")


def recover_fs(mssd: Mssd, mode: str = "full", journal: str = "ordered",
               cache_bytes: int = DEFAULT_CACHE_BYTES):
    """Post-crash recovery: device-level log replay, then journal replay.
    Returns (filesystem, device recovery report)."""
    # the TxLog, which the device's recovery clears, decides which journal
    # records replay
    committed = set(mssd.txlog.txids) if journal == "data" else None
    report = mssd.recover()
    fs = ByteFS(mssd, mode=mode, journal=journal, cache_bytes=cache_bytes)
    fs.mount()
    if committed is not None:
        _replay_journal(fs, committed)
    return fs, report


def _replay_journal(fs: ByteFS, committed: set[int]) -> None:
    sb = fs.sb
    pos = 0
    records = []
    while pos < sb.journal_blocks:
        blob = fs.mssd.block_read(sb.journal_start + pos, category="journal")
        kind, txid, count, lbas = unpack_journal(blob, sb, pos)
        if kind == "dead":
            pos += count + 2
            continue
        if kind != "desc":
            break
        *data, tail = fs.mssd.block_read_run(sb.journal_start + pos + 1,
                                             count + 1, category="journal")
        has_commit = unpack_journal(tail, sb, 0)[:2] == ("commit", txid)
        replay = has_commit and (txid == 0 or txid in committed)
        if replay and all(map(sb.in_data, lbas)):
            records.append((txid, lbas, data))
        # retire the record either way
        fs.mssd.block_write(sb.journal_start + pos, pack_journal(
            "dead", txid, sb.block_size, count), category="journal")
        pos += count + 2
    for txid, lbas, data in records:
        for lba, blob in zip(lbas, data):
            fs.mssd.block_write(lba, blob, category="data")
