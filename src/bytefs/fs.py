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

import contextlib
import re
import struct

import numpy as np

from .device import CACHELINE, DeviceConfig, GiB, spans
from .errors import (
    AlreadyExists, DirectoryNotEmpty, FsError, InvalidArgument, IsADirectory,
    NotADirectory, NotFound, SpaceExhausted, StateError, TxAborted,
)
from .layout import (
    INLINE_EXTENTS, INODE_SIZE, ITYPE_DIR, ITYPE_FILE, JOURNAL_COMMIT_MAGIC,
    JOURNAL_DEAD_MAGIC, JOURNAL_DESC_MAGIC, MAX_NAME, ROOT_INO, ExtentLeaf,
    Inode, Superblock, pack_dentry, unpack_dentry,
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


def _first_clear(bitmap: bytearray, lo: int, hi: int) -> int | None:
    """Index of the lowest clear bit in [lo, hi) of `bitmap`, or None.
    Bytes with all eight bits set are skipped by the regex engine."""
    if lo >= hi:
        return None
    pos = lo // 8
    free = ~bitmap[pos] & (0xff << (lo % 8)) & 0xff
    if not free:
        match = _NOT_FULL.search(bitmap, pos + 1, (hi + 7) // 8)
        if match is None:
            return None
        pos = match.start()
        free = ~bitmap[pos] & 0xff
    idx = pos * 8 + (free & -free).bit_length() - 1
    return idx if idx < hi else None


def _set_bits(bitmap: bytearray, lo: int, hi: int) -> list[int]:
    """Indices of the set bits in [lo, hi) of `bitmap`, ascending.  Only
    the non-zero 64-bit words that meet the range, and the bytes past the
    last whole word, are unpacked: a sparse bitmap costs what is set."""
    raw = np.frombuffer(bitmap, dtype=np.uint8)
    words = raw[:raw.size // 8 * 8].reshape(-1, 8)
    first = lo // 64
    nonzero = np.flatnonzero(
        words[first:(hi + 63) // 64].view(np.uint64)) + first
    row, col = np.nonzero(np.unpackbits(words[nonzero], axis=1,
                                        bitorder="little"))
    tail = np.flatnonzero(np.unpackbits(raw[words.size:], bitorder="little"))
    idx = np.concatenate((nonzero[row] * 64 + col, tail + words.size * 8))
    return idx[(idx >= lo) & (idx < hi)].tolist()


def make_mssd(config: DeviceConfig | None = None, mode: str = "full",
              **kwargs) -> Mssd:
    """Device stack for a mount mode: the write log exists only in
    dual_log and full."""
    if mode not in MODES:
        raise InvalidArgument(f"unknown mode {mode!r}")
    return Mssd(config, log_enabled=mode in ("dual_log", "full"), **kwargs)


def mkfs(mssd: Mssd, inode_count: int | None = None,
         journal_blocks: int = 64) -> Superblock:
    """Format the device.  Deterministic: same parameters give identical
    superblock and metadata bytes."""
    bs = mssd.config.page_size
    total_blocks = mssd.config.capacity_bytes // bs
    if inode_count is None:
        inode_count = max(1024, total_blocks // 8)
    inode_count = (inode_count + 31) // 32 * 32
    ibmp_blocks = (inode_count + 8 * bs - 1) // (8 * bs)
    bbmp_blocks = (total_blocks + 8 * bs - 1) // (8 * bs)
    itab_blocks = inode_count * INODE_SIZE // bs
    ibmp_start = 1
    bbmp_start = ibmp_start + ibmp_blocks
    itab_start = bbmp_start + bbmp_blocks
    journal_start = itab_start + itab_blocks
    data_start = journal_start + journal_blocks
    if data_start + 16 > total_blocks:
        raise InvalidArgument("device too small for this layout")

    sb = Superblock(
        block_size=bs, total_blocks=total_blocks, inode_count=inode_count,
        ibmp_start=ibmp_start, ibmp_blocks=ibmp_blocks,
        bbmp_start=bbmp_start, bbmp_blocks=bbmp_blocks,
        itab_start=itab_start, itab_blocks=itab_blocks,
        journal_start=journal_start, journal_blocks=journal_blocks,
        data_start=data_start,
    )
    mssd.block_write(0, sb.pack(), category="superblock")

    # inodes 0 and 1 are reserved and 2 is the root; the metadata region
    # is allocated.  Only the blocks that hold these bits are written:
    # erased flash reads back zeros.
    for start, used in ((ibmp_start, ROOT_INO + 1), (bbmp_start, data_start)):
        bitmap = bytearray((used + 8 * bs - 1) // (8 * bs) * bs)
        bitmap[:used // 8] = b"\xff" * (used // 8)
        if used % 8:
            bitmap[used // 8] = (1 << used % 8) - 1
        for i in range(len(bitmap) // bs):
            mssd.block_write(start + i, bytes(bitmap[i * bs:(i + 1) * bs]),
                             category="bitmap")

    root = Inode(ino=ROOT_INO, itype=ITYPE_DIR, links=2, mode=0o755)
    itab_page0 = bytearray(bs)
    off = (ROOT_INO % (bs // INODE_SIZE)) * INODE_SIZE
    itab_page0[off:off + INODE_SIZE] = root.pack()
    mssd.block_write(itab_start, bytes(itab_page0), category="inode")
    return sb


class _OpenFile:
    __slots__ = ("ino", "direct")

    def __init__(self, ino: int, direct: bool):
        self.ino = ino
        self.direct = direct


class _Txn:
    """Per-operation transaction context.

    Byte modes lazily open a device transaction at the first metadata
    write; block_only collects dirty metadata blocks and writes them
    whole when the operation closes.
    """

    def __init__(self, mssd: Mssd):
        self.mssd = mssd
        self.txid: int | None = None
        self.blocks: dict[int, str] = {}  # blk -> category (block_only)
        self.journaled: list[tuple[int, bytes]] = []

    def device_txid(self) -> int:
        if self.txid is None:
            self.txid = self.mssd.tx_begin()
        return self.txid


class ByteFS:
    def __init__(self, mssd: Mssd, mode: str = "full",
                 journal: str = "ordered",
                 cache_bytes: int = DEFAULT_CACHE_BYTES):
        if mode not in MODES:
            raise InvalidArgument(f"unknown mode {mode!r}")
        if journal not in JOURNAL_MODES:
            raise InvalidArgument(f"unknown journal mode {journal!r}")
        self.mssd = mssd
        self.mode = mode
        self.journal_mode = journal
        self.cache_bytes = cache_bytes
        self.mounted = False
        self.sb: Superblock | None = None
        self._txn: _Txn | None = None

    # ------------------------------------------------------------------
    # mount / mode

    @property
    def byte_metadata(self) -> bool:
        return self.mode != "block_only"

    def mount(self) -> None:
        if self.mounted:
            raise StateError("already mounted")
        bs = self.mssd.config.page_size
        self.sb = Superblock.unpack(self.mssd.block_read(0, category="superblock"))
        if self.sb.block_size != bs:
            raise InvalidArgument("superblock block size mismatch")
        sb = self.sb
        # each bitmap, read into a buffer of its final size
        self._ibmp, self._bbmp = (
            bytearray().join([self.mssd.block_read(blk, category="bitmap")
                              for blk in range(start, start + count)])
            for start, count in ((sb.ibmp_start, sb.ibmp_blocks),
                                 (sb.bbmp_start, sb.bbmp_blocks)))
        # each bitmap with its first block and block count
        self._bitmaps = ((self._ibmp, sb.ibmp_start, sb.ibmp_blocks),
                         (self._bbmp, sb.bbmp_start, sb.bbmp_blocks))
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

    @contextlib.contextmanager
    def _op(self):
        """One transaction for one file-system operation.  Operations never
        nest: the page cache evicts, and so writes back, only in `read`
        and `write`, which run outside any operation.  Aborted if the
        operation raises, else journaled, committed (or its dirty metadata
        blocks written) and checkpointed when it ends."""
        txn = self._txn = _Txn(self.mssd)
        try:
            yield txn
        except BaseException as exc:
            # a write conflict has already ended the transaction
            if txn.txid is not None and not isinstance(exc, TxAborted):
                self.mssd.tx_abort(txn.txid)
            raise
        finally:
            self._txn = None
        if txn.journaled:
            base = self._journal_write(txn)
        if self.byte_metadata:
            if txn.txid is not None:
                self.mssd.tx_commit(txn.txid)
        else:
            self._flush_block_txn(txn)
        if txn.journaled:
            self._journal_checkpoint(txn, base)

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
        sb = self.sb
        bs = sb.block_size
        if blk == 0:
            raise FsError("superblock is not byte-writable")
        for bitmap, start, count in self._bitmaps:
            if start <= blk < start + count:
                i = blk - start
                return memoryview(bitmap)[i * bs:(i + 1) * bs]
        mirror = self._blocks.get(blk)
        if mirror is None:
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

    def _bit(self, bitmap: bytearray, idx: int) -> bool:
        return bool(bitmap[idx // 8] & (1 << (idx % 8)))

    def _set_bit(self, bitmap: bytearray, idx: int, value: bool) -> None:
        if value:
            bitmap[idx // 8] |= 1 << (idx % 8)
        else:
            bitmap[idx // 8] &= ~(1 << (idx % 8))

    def _mark(self, bitmap: bytearray, start: int, idx: int,
              used: bool) -> None:
        """Set bit `idx` of `bitmap`, whose first block is `start`, to
        `used` and persist the 64B group that holds it."""
        self._set_bit(bitmap, idx, used)
        lo = idx // (CACHELINE * 8) * CACHELINE
        self._meta_write(start * self.sb.block_size + lo,
                         bytes(bitmap[lo:lo + CACHELINE]), "bitmap")

    def _alloc_ino(self) -> int:
        ino = _first_clear(self._ibmp, ROOT_INO + 1, self.sb.inode_count)
        if ino is None:
            raise SpaceExhausted("no free inodes")
        self._mark(self._ibmp, self.sb.ibmp_start, ino, True)
        return ino

    def _alloc_block(self) -> int:
        """First free block at or after the hint, else from the start of
        the data region."""
        sb = self.sb
        blk = _first_clear(self._bbmp, self._alloc_hint, sb.total_blocks)
        if blk is None:
            blk = _first_clear(self._bbmp, sb.data_start, self._alloc_hint)
        if blk is None:
            raise SpaceExhausted("no free blocks")
        self._mark(self._bbmp, sb.bbmp_start, blk, True)
        self._alloc_hint = blk + 1
        return blk

    def _free_block(self, blk: int) -> None:
        self._mark(self._bbmp, self.sb.bbmp_start, blk, False)
        self._blocks.pop(blk, None)

    # ------------------------------------------------------------------
    # inodes

    def _inode_addr(self, ino: int) -> int:
        return self.sb.itab_start * self.sb.block_size + ino * INODE_SIZE

    def _load_inode(self, ino: int) -> Inode:
        inode = self._inodes.get(ino)
        if inode is not None:
            return inode
        sb = self.sb
        page_idx = ino * INODE_SIZE // sb.block_size
        mirror = self._block_mirror(sb.itab_start + page_idx)
        off = ino * INODE_SIZE % sb.block_size
        inode, extent_count = Inode.unpack(bytes(mirror[off:off + INODE_SIZE]))
        if extent_count > INLINE_EXTENTS:
            spill = self._block_mirror(inode.spill_block)
            for i in range(extent_count - INLINE_EXTENTS):
                inode.extents.append(ExtentLeaf.unpack(bytes(spill), i * 16))
        self._inodes[ino] = inode
        return inode

    def _persist_inode_lower(self, inode: Inode) -> None:
        """Persist size, times, mode and links; nothing of them is pending
        after this."""
        self._meta_write(self._inode_addr(inode.ino), inode.pack_lower(),
                         "inode")
        self._meta_dirty.pop(inode.ino, None)

    def _persist_inode_full(self, inode: Inode) -> None:
        self._meta_write(self._inode_addr(inode.ino), inode.pack(), "inode")

    def _persist_extents(self, inode: Inode) -> None:
        """Upper region (inline leaves + count) plus any spill leaves."""
        if len(inode.extents) > INLINE_EXTENTS:
            if inode.spill_block == 0:
                inode.spill_block = self._alloc_block()
                self._blocks[inode.spill_block] = bytearray(self.sb.block_size)
            spill = self._blocks.setdefault(
                inode.spill_block, bytearray(self.sb.block_size))
            n_spill = len(inode.extents) - INLINE_EXTENTS
            if n_spill > self.sb.block_size // 16:
                raise SpaceExhausted("file extent limit reached")
            base = inode.spill_block * self.sb.block_size
            blob = b"".join(l.pack() for l in inode.extents[INLINE_EXTENTS:])
            # persist touched 64B groups of the spill block
            for group in range(0, len(blob), CACHELINE):
                chunk = blob[group:group + CACHELINE]
                if bytes(spill[group:group + len(chunk)]) != chunk:
                    padded = bytearray(spill[group:group + CACHELINE])
                    padded[:len(chunk)] = chunk
                    self._meta_write(base + group, bytes(padded),
                                     "data_pointer")
        self._meta_write(self._inode_addr(inode.ino) + 64,
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
        inode = self._load_inode(ino)
        if inode.itype != ITYPE_DIR:
            raise NotADirectory(f"inode {ino} is not a directory")
        entries = {}
        tombstones = []
        bs = self.sb.block_size
        pos = 0
        while pos < inode.size:
            blk = inode.block_for(pos // bs * bs, bs)
            mirror = self._block_mirror(blk)
            off = pos % bs
            parsed = unpack_dentry(mirror, off)
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

    def _dentry_addr(self, blk: int, off: int) -> int:
        return blk * self.sb.block_size + off

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
                pad_rec = struct.pack("<IHH", 0, 0, pad - 8)
                self._meta_write(self._dentry_addr(blk, pos % bs),
                                 pad_rec + bytes(CACHELINE - len(pad_rec)),
                                 "dentry")
                pos += pad
            blk, new = self._ensure_block(parent, pos // bs)
            if new:
                self._blocks[blk] = bytearray(bs)
                self._persist_extents(parent)
            slot = (blk, pos % bs)
            parent.size = pos + rec_size
        blk, off = slot
        self._meta_write(self._dentry_addr(blk, off), rec, "dentry")
        entries[name] = (child_ino, ftype, blk, off, rec_size)
        self._touch(parent, size_changed=True)
        self._persist_inode_lower(parent)

    def _dir_remove(self, parent: Inode, name: bytes) -> None:
        entries = self._load_dir(parent.ino)
        child_ino, ftype, blk, off, rec_size = entries.pop(name)
        name_len = len(name)
        tombstone = struct.pack("<IHH", 0, 0, name_len) + name
        tombstone = tombstone[:CACHELINE]
        tombstone += bytes(min(rec_size, CACHELINE) - len(tombstone))
        self._meta_write(self._dentry_addr(blk, off), tombstone, "dentry")
        self._dir_tombstones[parent.ino].append((blk, off, rec_size))
        self._touch(parent)
        self._persist_inode_lower(parent)

    # ------------------------------------------------------------------
    # path resolution

    @staticmethod
    def _split_path(path: str) -> list[bytes]:
        if not path.startswith("/"):
            raise InvalidArgument("paths must be absolute")
        parts = [p.encode() for p in path.split("/") if p]
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
        return sorted(n.decode() for n in self._load_dir(inode.ino))

    def create(self, path: str) -> int:
        return self._create_common(path, ITYPE_FILE)

    def mkdir(self, path: str) -> int:
        return self._create_common(path, ITYPE_DIR)

    def _create_common(self, path: str, itype: int) -> int:
        self._require_mounted()
        with self._op():
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
                self._dirs[ino] = {}
                self._dir_tombstones[ino] = []
                parent.links += 1
                self._persist_inode_lower(parent)
            return ino

    def unlink(self, path: str) -> None:
        self._require_mounted()
        with self._op():
            parent, name = self._resolve_parent(path)
            target = self._lookup_child(parent, name)
            if target.itype == ITYPE_DIR:
                raise IsADirectory(path)
            self._remove_inode(parent, name, target)

    def rmdir(self, path: str) -> None:
        self._require_mounted()
        with self._op():
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
        self._mark(self._ibmp, self.sb.ibmp_start, target.ino, False)
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
        with self._op():
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
        with self._op():
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
        with self._op():
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
            if self._bit(self._ibmp, ino):
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
        if len(blocks) + 2 > sb.journal_blocks:
            raise SpaceExhausted("journal record larger than journal area")
        if self._journal_pos + len(blocks) + 2 > sb.journal_blocks:
            self._journal_pos = 0  # previous records are checkpointed
        txid = txn.txid or 0
        desc = struct.pack("<III", JOURNAL_DESC_MAGIC, txid, len(blocks))
        desc += b"".join(struct.pack("<I", lba) for lba, _ in blocks)
        desc += bytes(bs - len(desc))
        base = sb.journal_start + self._journal_pos
        self.mssd.block_write(base, desc, category="journal")
        self._mirror_write(base * bs, desc)
        for i, (_, data) in enumerate(blocks):
            self.mssd.block_write(base + 1 + i, data, category="journal")
        commit = struct.pack("<II", JOURNAL_COMMIT_MAGIC, txid)
        commit += bytes(bs - len(commit))
        self.mssd.block_write(base + 1 + len(blocks), commit,
                              category="journal")
        return base

    def _journal_checkpoint(self, txn: _Txn, base: int) -> None:
        """Move journaled blocks in place and retire the record that
        starts at block `base`."""
        for lba, data in txn.journaled:
            self.mssd.block_write(lba, data, category="data")
        bs = self.sb.block_size
        dead = struct.pack("<III", JOURNAL_DEAD_MAGIC, txn.txid or 0,
                           len(txn.journaled))
        if self.byte_metadata:
            self.mssd.byte_write(base * bs, dead + bytes(CACHELINE - len(dead)),
                                 category="journal")
        else:
            self.mssd.block_write(base, dead + bytes(bs - len(dead)),
                                  category="journal")
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
            if not self._bit(self._ibmp, ino):
                problems.append(f"inode {ino} in use but not allocated "
                                f"({path})")
            inode = self._load_inode(ino)
            for blk in inode.all_blocks():
                block_refs[blk] = block_refs.get(blk, 0) + 1
                if not (sb.data_start <= blk < sb.total_blocks):
                    problems.append(f"inode {ino} references block {blk} "
                                    "outside the data region")
            if inode.spill_block:
                block_refs[inode.spill_block] = \
                    block_refs.get(inode.spill_block, 0) + 1
            if inode.itype == ITYPE_DIR:
                subdirs = 0
                for name, entry in self._load_dir(ino).items():
                    child_ino, ftype = entry[0], entry[1]
                    if ftype == ITYPE_DIR:
                        subdirs += 1
                    visit(child_ino, f"{path}/{name.decode(errors='replace')}")
                if inode.links != 2 + subdirs:
                    problems.append(f"dir inode {ino} links {inode.links}, "
                                    f"expected {2 + subdirs}")

        visit(ROOT_INO, "")
        for ino in _set_bits(self._ibmp, ROOT_INO, sb.inode_count):
            if ino not in seen_inos:
                problems.append(f"inode {ino} allocated but unreachable")
        for blk, count in block_refs.items():
            if count > 1:
                problems.append(f"block {blk} referenced {count} times")
            if not self._bit(self._bbmp, blk):
                problems.append(f"block {blk} referenced but not allocated")
        for blk in _set_bits(self._bbmp, sb.data_start, sb.total_blocks):
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
    committed = set(mssd.txlog.entries)
    report = mssd.recover()
    fs = ByteFS(mssd, mode=mode, journal=journal, cache_bytes=cache_bytes)
    fs.mount()
    if journal == "data":
        _replay_journal(fs, committed)
    return fs, report


def _replay_journal(fs: ByteFS, committed: set[int]) -> None:
    sb = fs.sb
    bs = sb.block_size
    pos = 0
    records = []
    while pos < sb.journal_blocks:
        blob = fs.mssd.block_read(sb.journal_start + pos, category="journal")
        magic, txid, count = struct.unpack_from("<III", blob, 0)
        if magic == JOURNAL_DEAD_MAGIC and 0 <= count <= sb.journal_blocks:
            pos += count + 2
            continue
        if magic != JOURNAL_DESC_MAGIC or count + 2 > sb.journal_blocks - pos:
            break
        lbas = [struct.unpack_from("<I", blob, 12 + 4 * i)[0]
                for i in range(count)]
        data = [fs.mssd.block_read(sb.journal_start + pos + 1 + i,
                                   category="journal")
                for i in range(count)]
        tail = fs.mssd.block_read(sb.journal_start + pos + 1 + count,
                                  category="journal")
        cmagic, ctxid = struct.unpack_from("<II", tail, 0)
        has_commit = cmagic == JOURNAL_COMMIT_MAGIC and ctxid == txid
        replay = has_commit and (txid == 0 or txid in committed)
        if replay and all(sb.data_start <= lba < sb.total_blocks
                          for lba in lbas):
            records.append((txid, lbas, data))
        # retire the record either way
        dead = struct.pack("<III", JOURNAL_DEAD_MAGIC, txid, count)
        fs.mssd.block_write(sb.journal_start + pos, dead + bytes(bs - len(dead)),
                            category="journal")
        pos += count + 2
    for txid, lbas, data in records:
        for lba, blob in zip(lbas, data):
            fs.mssd.block_write(lba, blob, category="data")
    fs._journal_pos = 0
    fs._blocks = {k: v for k, v in fs._blocks.items()
                  if not (sb.journal_start <= k < sb.journal_start + sb.journal_blocks)}
