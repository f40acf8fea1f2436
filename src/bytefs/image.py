"""Versioned binary device-image format (magic "BFSM").

Layout: magic, format version (u32 LE), a flags word (u32 LE; bit 0:
the device has a write log), a DeviceConfig block (its fields in
declaration order, u64 for int fields and f64 for float fields), then
sections each prefixed by a 16-byte header {section id u32, length u64,
crc32 u32}.  Sections: flash pages, FTL map, log region (generation id,
entry count, 64B payload slots), log sidecar (the write log's sidecar
array, `writelog.SIDECAR_DTYPE` rows), TxLog (txids, then their commit
stamps), clock.  The log sections are copies of the write log's own
arrays, and empty for a device without a write log.  Used for
crash-injection snapshots: host state (TxTable, caches) is deliberately
not part of the image.
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


def _write_section(out, sec_id: int, payload: bytes) -> None:
    out.write(struct.pack(_SECTION_HDR_FMT, sec_id, len(payload),
                          zlib.crc32(payload)))
    out.write(payload)


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
    buf = io.BytesIO()
    buf.write(struct.pack("<Q", len(dev.pages)))
    for ppa in sorted(dev.pages):
        buf.write(struct.pack("<Q", ppa))
        buf.write(dev.pages[ppa])
    _write_section(out, SEC_FLASH, buf.getvalue())

    buf = io.BytesIO()
    ftl = dev.ftl
    buf.write(struct.pack("<Q", len(ftl.lpa_to_ppa)))
    for lpa in sorted(ftl.lpa_to_ppa):
        buf.write(struct.pack("<QQ", lpa, ftl.lpa_to_ppa[lpa]))
    buf.write(struct.pack("<Q", ftl._next_unused))
    _write_section(out, SEC_FTL, buf.getvalue())

    gen = (mssd.writelog.active_gen if mssd.log_enabled
           else LogGeneration(0, 0))
    _write_section(out, SEC_LOG_REGION,
                   struct.pack("<IQ", gen.gen_id, gen.tail_slots) + gen.buf)
    _write_section(out, SEC_LOG_INDEX, gen.entries.tobytes())

    stamps = mssd.txlog.stamps
    _write_section(out, SEC_TXLOG, struct.pack("<Q", len(stamps))
                   + np.array(list(stamps), dtype="<u4").tobytes()
                   + np.array(list(stamps.values()), dtype="<u8").tobytes())

    _write_section(out, SEC_CLOCK,
                   struct.pack("<QQ", dev.clock.now_ns, mssd._stamp))


def _read_section(f, expect_id: int) -> bytes:
    hdr = f.read(struct.calcsize(_SECTION_HDR_FMT))
    if len(hdr) != struct.calcsize(_SECTION_HDR_FMT):
        raise RecoveryFailed("truncated image", section_id=expect_id)
    sec_id, length, crc = struct.unpack(_SECTION_HDR_FMT, hdr)
    if sec_id != expect_id:
        raise RecoveryFailed(f"unexpected section {sec_id}", section_id=sec_id)
    payload = f.read(length)
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise RecoveryFailed(f"section {sec_id} CRC mismatch", section_id=sec_id)
    return payload


def load(source) -> Mssd:
    """Load a device image; host-side state starts fresh, and the device
    has a write log if and only if the image says so."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as f:
            return load(f)
    f = source
    if f.read(4) != MAGIC:
        raise InvalidArgument("not a device image (bad magic)")
    (version,) = struct.unpack("<I", f.read(4))
    if version != FORMAT_VERSION:
        raise InvalidArgument(f"unsupported image version {version}")
    (flags,) = struct.unpack("<I", f.read(4))
    if flags & ~FLAG_WRITE_LOG:
        raise InvalidArgument(f"unknown image flags {flags:#x}")
    cfg = DeviceConfig(*struct.unpack(_CONFIG_FMT,
                                      f.read(struct.calcsize(_CONFIG_FMT))))

    mssd = Mssd(cfg, log_enabled=bool(flags & FLAG_WRITE_LOG))
    dev = mssd.device

    payload = _read_section(f, SEC_FLASH)
    off = 0
    (count,) = struct.unpack_from("<Q", payload, off)
    off += 8
    for _ in range(count):
        (ppa,) = struct.unpack_from("<Q", payload, off)
        off += 8
        dev.pages[ppa] = bytearray(payload[off:off + cfg.page_size])
        off += cfg.page_size

    payload = _read_section(f, SEC_FTL)
    off = 0
    (count,) = struct.unpack_from("<Q", payload, off)
    off += 8
    for _ in range(count):
        lpa, ppa = struct.unpack_from("<QQ", payload, off)
        off += 16
        dev.ftl.lpa_to_ppa[lpa] = ppa
    (dev.ftl._next_unused,) = struct.unpack_from("<Q", payload, off)

    payload = _read_section(f, SEC_LOG_REGION)
    gen_id, tail_slots = struct.unpack_from("<IQ", payload, 0)
    buf = bytearray(payload[12:])
    side = np.frombuffer(_read_section(f, SEC_LOG_INDEX),
                         dtype=SIDECAR_DTYPE).copy()
    if len(side) != tail_slots or len(buf) != tail_slots * CACHELINE \
            or tail_slots > cfg.log_region_bytes // CACHELINE:
        raise RecoveryFailed("log region and sidecar disagree",
                             section_id=SEC_LOG_INDEX)
    if mssd.log_enabled:
        mssd.writelog.install(LogGeneration(gen_id, cfg.log_region_bytes,
                                            buf, side))
    elif tail_slots:
        raise RecoveryFailed("image of a device without a write log holds "
                             "write-log entries", section_id=SEC_LOG_REGION)

    payload = _read_section(f, SEC_TXLOG)
    (count,) = struct.unpack_from("<Q", payload, 0)
    if count > mssd.txlog.capacity_entries:
        raise RecoveryFailed("TxLog section exceeds the TxLog",
                             section_id=SEC_TXLOG)
    txids = np.frombuffer(payload, dtype="<u4", count=count, offset=8)
    stamps = np.frombuffer(payload, dtype="<u8", count=count,
                           offset=8 + 4 * count)
    mssd.txlog.stamps = dict(zip(txids.tolist(), stamps.tolist()))
    if len(mssd.txlog.stamps) != count:
        raise RecoveryFailed("TxLog section repeats a txid",
                             section_id=SEC_TXLOG)

    payload = _read_section(f, SEC_CLOCK)
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
