"""Versioned binary device-image format (magic "BFSM").

Layout: magic, format version (u32 LE), a flags word (u32 LE; bit 0:
the device has a write log), a DeviceConfig block (its fields in
declaration order, u64 for int fields and f64 for float fields), then
sections each prefixed by a 16-byte header {section id u32, length u64,
crc32 u32}.  Sections: flash pages, FTL map, log region (generation id,
entry count, 64B payload slots), log sidecar (the write log's sidecar
array, `writelog.SIDECAR_DTYPE` rows), TxLog (entry count, u32 txids in
commit order, then their u64 commit stamps), clock.  The log sections
are copies of the write log's own arrays, and empty for a device without
a write log; the TxLog section is a copy of the TxLog's two arrays.
Each section's length must be what its counts imply.  Used for
crash-injection snapshots: host state (TxTable, caches) is deliberately
not part of the image.

What is copied: `save` writes each section's parts straight from the
device (the flash pages, the log payload bytearray, the sidecar rows,
the TxLog's two arrays), with the CRC chained over the parts, so the
only copy is the one into the target.  `load` reads each part once,
into a buffer the loaded device then owns: each flash page into its own
buffer, the log payload and the sidecar array into their section's
buffer; the TxLog takes one more copy of its section's two arrays, and
builds its txid index only when a read first needs it.  Every CRC is
checked.  `crash_clone` is a `save` into a `BytesIO` and a `load` of
it, so every power cut goes through the image format.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import astuple, fields

import numpy as np

from .device import CACHELINE, DeviceConfig
from .errors import InvalidArgument, RecoveryFailed
from .mssd import Mssd
from .writelog import SIDECAR_DTYPE, LogGeneration

MAGIC = b"BFSM"
FORMAT_VERSION = 3

FLAG_WRITE_LOG = 0x1

SEC_FLASH = 1
SEC_FTL = 2
SEC_LOG_REGION = 3
SEC_LOG_INDEX = 4
SEC_TXLOG = 5
SEC_CLOCK = 6

_CONFIG_FMT = "<" + "".join("d" if isinstance(f.default, float) else "Q"
                            for f in fields(DeviceConfig))
_SECTION_HDR_FMT = "<IQI"


def _write_section(out, sec_id: int, parts) -> None:
    """Write a section whose payload is `parts` (bytes-like) in order;
    the CRC is chained over the parts, so they are never joined."""
    crc = length = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
        length += memoryview(part).nbytes
    out.write(struct.pack(_SECTION_HDR_FMT, sec_id, length, crc))
    for part in parts:
        out.write(part)


def save(mssd: Mssd, target) -> None:
    """Write the device image; `target` is a path or binary file object."""
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, "wb") as f:
            save(mssd, f)
        return
    out = target
    out.write(MAGIC)
    out.write(struct.pack("<II", FORMAT_VERSION,
                          FLAG_WRITE_LOG if mssd.log_enabled else 0))
    out.write(struct.pack(_CONFIG_FMT, *astuple(mssd.config)))

    dev = mssd.device
    parts = [struct.pack("<Q", len(dev.pages))]
    for ppa in sorted(dev.pages):
        parts += (ppa.to_bytes(8, "little"), dev.pages[ppa])
    _write_section(out, SEC_FLASH, parts)

    ftl = dev.ftl
    count = len(ftl.lpa_to_ppa)
    lpas = np.fromiter(ftl.lpa_to_ppa, dtype="<u8", count=count)
    ppas = np.fromiter(ftl.lpa_to_ppa.values(), dtype="<u8", count=count)
    by_lpa = np.argsort(lpas)
    pairs = np.column_stack((lpas[by_lpa], ppas[by_lpa]))
    _write_section(out, SEC_FTL, (struct.pack("<Q", count), pairs,
                                  struct.pack("<Q", ftl._next_unused)))

    gen = (mssd.writelog.active_gen if mssd.log_enabled
           else LogGeneration(0, 0))
    _write_section(out, SEC_LOG_REGION,
                   (struct.pack("<IQ", gen.gen_id, gen.tail_slots), gen.buf))
    _write_section(out, SEC_LOG_INDEX, (gen.entries,))

    # the TxLog's own arrays (their byte order is the image's on a
    # little-endian host, where `astype` copies nothing)
    txlog = mssd.txlog
    _write_section(out, SEC_TXLOG, (
        struct.pack("<Q", len(txlog.txids)),
        np.asarray(txlog.txids).astype("<u4", copy=False),
        np.asarray(txlog.stamps).astype("<u8", copy=False)))

    _write_section(out, SEC_CLOCK,
                   (struct.pack("<QQ", dev.clock.now_ns, mssd._stamp),))


def _read_struct(f, fmt: str, section_id: int | None = None) -> tuple:
    raw = f.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise RecoveryFailed("truncated image", section_id=section_id)
    return struct.unpack(fmt, raw)


def _section(f, expect_id: int, end: int) -> tuple[int, int]:
    """Read and check the header of the next section; returns the length
    and CRC of its payload.  `end` is the size of the image, which bounds
    what a header may claim."""
    sec_id, length, crc = _read_struct(f, _SECTION_HDR_FMT, expect_id)
    if sec_id != expect_id:
        raise RecoveryFailed(f"unexpected section {sec_id}", section_id=sec_id)
    if length > end - f.tell():
        raise RecoveryFailed("truncated image", section_id=sec_id)
    return length, crc


def _read_into(f, bufs, crc: int, sec_id: int) -> None:
    """Fill `bufs` from the image in order and check their chained CRC."""
    got = 0
    for buf in bufs:
        if f.readinto(buf) != len(buf):
            raise RecoveryFailed("truncated image", section_id=sec_id)
        got = zlib.crc32(buf, got)
    if got != crc:
        raise RecoveryFailed(f"section {sec_id} CRC mismatch", section_id=sec_id)


def _read_section(f, expect_id: int, end: int) -> bytearray:
    """The payload of the next section, in a buffer of its own."""
    length, crc = _section(f, expect_id, end)
    payload = bytearray(length)
    _read_into(f, (payload,), crc, expect_id)
    return payload


def _count(payload: bytearray, sec_id: int, item_size: int,
           tail: int = 0) -> int:
    """The u64 count a section's payload starts with, which exactly that
    many items of `item_size` bytes and then `tail` bytes must follow."""
    if len(payload) >= 8:
        (count,) = struct.unpack_from("<Q", payload)
        if len(payload) == 8 + count * item_size + tail:
            return count
    raise RecoveryFailed(f"section {sec_id} disagrees with its count",
                         section_id=sec_id)


def load(source) -> Mssd:
    """Load a device image from a path or a seekable binary file object;
    host-side state starts fresh, and the device has a write log if and
    only if the image says so."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as f:
            return load(f)
    f = source
    start = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(start)
    if f.read(4) != MAGIC:
        raise InvalidArgument("not a device image (bad magic)")
    (version,) = _read_struct(f, "<I")
    if version != FORMAT_VERSION:
        raise InvalidArgument(f"unsupported image version {version}")
    (flags,) = _read_struct(f, "<I")
    if flags & ~FLAG_WRITE_LOG:
        raise InvalidArgument(f"unknown image flags {flags:#x}")
    cfg = DeviceConfig(*_read_struct(f, _CONFIG_FMT))

    mssd = Mssd(cfg, log_enabled=bool(flags & FLAG_WRITE_LOG))
    dev = mssd.device

    # each page is read, its PPA in front, into the buffer the device keeps
    length, crc = _section(f, SEC_FLASH, end)
    count, rest = divmod(length - 8, 8 + cfg.page_size)
    if length < 8 or rest:
        raise RecoveryFailed("flash section is not whole pages",
                             section_id=SEC_FLASH)
    head = bytearray(8)
    pages = [bytearray(8 + cfg.page_size) for _ in range(count)]
    _read_into(f, [head, *pages], crc, SEC_FLASH)
    if struct.unpack("<Q", head) != (count,):
        raise RecoveryFailed("flash section miscounts its pages",
                             section_id=SEC_FLASH)
    for page in pages:
        (ppa,) = struct.unpack_from("<Q", page)
        del page[:8]
        dev.pages[ppa] = page

    payload = _read_section(f, SEC_FTL, end)
    count = _count(payload, SEC_FTL, 16, tail=8)
    pairs = np.frombuffer(payload, dtype="<u8", count=2 * count, offset=8)
    dev.ftl.lpa_to_ppa = dict(zip(pairs[0::2].tolist(), pairs[1::2].tolist()))
    (dev.ftl._next_unused,) = struct.unpack_from("<Q", payload,
                                                 8 + 16 * count)

    buf = _read_section(f, SEC_LOG_REGION, end)
    # a section too short for its header counts -1 entries, which no
    # length matches
    gen_id, tail_slots = (struct.unpack_from("<IQ", buf) if len(buf) >= 12
                          else (0, -1))
    del buf[:12]
    if len(buf) != tail_slots * CACHELINE \
            or tail_slots > cfg.log_region_bytes // CACHELINE:
        raise RecoveryFailed("log region disagrees with its entry count",
                             section_id=SEC_LOG_REGION)
    rows = _read_section(f, SEC_LOG_INDEX, end)
    if len(rows) != tail_slots * SIDECAR_DTYPE.itemsize:
        raise RecoveryFailed("log region and sidecar disagree",
                             section_id=SEC_LOG_INDEX)
    # the sidecar array shares its section's buffer, which nothing resizes
    side = np.frombuffer(rows, dtype=SIDECAR_DTYPE)
    if mssd.log_enabled:
        mssd.writelog.install(LogGeneration(gen_id, cfg.log_region_bytes,
                                            buf, side))
    elif tail_slots:
        raise RecoveryFailed("image of a device without a write log holds "
                             "write-log entries", section_id=SEC_LOG_REGION)

    payload = _read_section(f, SEC_TXLOG, end)
    count = _count(payload, SEC_TXLOG, 4 + 8)
    if count > mssd.txlog.capacity_entries:
        raise RecoveryFailed("TxLog section exceeds the TxLog",
                             section_id=SEC_TXLOG)
    txids = np.frombuffer(payload, dtype="<u4", count=count, offset=8)
    by_txid = np.sort(txids)  # a repeated txid lands next to itself
    if (by_txid[1:] == by_txid[:-1]).any():
        raise RecoveryFailed("TxLog section repeats a txid",
                             section_id=SEC_TXLOG)
    mssd.txlog.adopt(txids, np.frombuffer(payload, dtype="<u8", count=count,
                                          offset=8 + 4 * count))

    payload = _read_section(f, SEC_CLOCK, end)
    if len(payload) != 16:
        raise RecoveryFailed("clock section is not 16 bytes",
                             section_id=SEC_CLOCK)
    now_ns, stamp = struct.unpack("<QQ", payload)
    dev.clock.now_ns = now_ns
    mssd._stamp = stamp
    mssd.txmgr.next_txid = max(int(side["txid"].max(initial=0)),
                               int(txids.max(initial=0))) + 1
    return mssd


def crash_clone(mssd: Mssd) -> Mssd:
    """Simulated power loss: round-trip the image, dropping host state."""
    buf = io.BytesIO()
    save(mssd, buf)
    buf.seek(0)
    return load(buf)
