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
One rule checks every section's length (`_split`): a head of fixed
values, then `count` items of each of its columns, then a tail of fixed
values, and nothing else.  Used for crash-injection snapshots: host
state (TxTable, caches) is deliberately not part of the image.

What is copied: `save` writes each section's parts straight from the
device (the flash pages, the log payload bytearray, the sidecar rows,
the TxLog's two arrays), with the CRC chained over the parts, so the
only copy is the one into the target.  `load` reads the image once, into
one buffer, and checks each section as a view of it; `crash_clone` hands
`load` the buffer `save` filled, with no copy.  The device then takes
one copy of each part it keeps: each flash page as its own `bytes`, the
log payload and the sidecar array as the write log's own buffers, and
the TxLog's two arrays; the TxLog builds its txid index only when a
read first needs it.  A page is not kept as a view of the image, which
would hold the whole image, log sections included, for as long as the
device lives.  Every CRC is checked.  `crash_clone` is a `save` into a
`BytesIO` and a `load` of it, so every power cut goes through the image
format.
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


def _unpack(image: memoryview, at: int, fmt: str,
            section_id: int | None = None) -> tuple:
    """The values of struct format `fmt` at offset `at` of the image."""
    if at + struct.calcsize(fmt) > len(image):
        raise RecoveryFailed("truncated image", section_id=section_id)
    return struct.unpack_from(fmt, image, at)


def _section(image: memoryview, at: int, expect_id: int
             ) -> tuple[memoryview, int]:
    """The payload of the section whose header is at offset `at`, as a
    view of the image with its CRC checked, and the offset after it."""
    sec_id, length, crc = _unpack(image, at, _SECTION_HDR_FMT, expect_id)
    if sec_id != expect_id:
        raise RecoveryFailed(f"unexpected section {sec_id}", section_id=sec_id)
    at += struct.calcsize(_SECTION_HDR_FMT)
    if length > len(image) - at:
        raise RecoveryFailed("truncated image", section_id=sec_id)
    payload = image[at:at + length]
    if zlib.crc32(payload) != crc:
        raise RecoveryFailed(f"section {sec_id} CRC mismatch", section_id=sec_id)
    return payload, at + length


def _split(payload: memoryview, sec_id: int, head: str = "", columns=(),
           count: int | None = None, tail: str = "") -> tuple:
    """A section's payload as its head values (struct format `head`),
    then `count` items of each numpy dtype in `columns` in turn, as
    arrays that view the payload, then its tail values (format `tail`).
    `count` None takes the head's last value.  This is the one length
    rule of the image: any other length is refused with the section."""
    at = struct.calcsize(head)
    if len(payload) >= at:
        values = struct.unpack_from(head, payload)
        if count is None:
            count = values[-1]
        if len(payload) == at + struct.calcsize(tail) + count * sum(
                np.dtype(column).itemsize for column in columns):
            arrays = []
            for column in columns:
                arrays.append(np.frombuffer(payload, dtype=column,
                                            count=count, offset=at))
                at += arrays[-1].nbytes
            return values, arrays, struct.unpack_from(tail, payload, at)
    raise RecoveryFailed(f"section {sec_id} disagrees with its counts",
                         section_id=sec_id)


def load(source) -> Mssd:
    """Load a device image from a path or a binary file object, read from
    its position to its end; host-side state starts fresh, and the device
    has a write log if and only if the image says so."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as f:
            return load(f)
    image = memoryview(source.read())
    if image[:4] != MAGIC:
        raise InvalidArgument("not a device image (bad magic)")
    (version,) = _unpack(image, 4, "<I")
    if version != FORMAT_VERSION:
        raise InvalidArgument(f"unsupported image version {version}")
    (flags,) = _unpack(image, 8, "<I")
    if flags & ~FLAG_WRITE_LOG:
        raise InvalidArgument(f"unknown image flags {flags:#x}")
    cfg = DeviceConfig(*_unpack(image, 12, _CONFIG_FMT))
    at = 12 + struct.calcsize(_CONFIG_FMT)

    mssd = Mssd(cfg, log_enabled=bool(flags & FLAG_WRITE_LOG))
    dev = mssd.device

    payload, at = _section(image, at, SEC_FLASH)
    _, (rows,), _ = _split(payload, SEC_FLASH, "<Q", (np.dtype(
        [("ppa", "<u8"), ("data", f"V{cfg.page_size}")]),))
    dev.pages.update(zip(rows["ppa"].tolist(), rows["data"].tolist()))

    payload, at = _section(image, at, SEC_FTL)
    _, (pairs,), (dev.ftl._next_unused,) = _split(
        payload, SEC_FTL, "<Q",
        (np.dtype([("lpa", "<u8"), ("ppa", "<u8")]),), tail="<Q")
    dev.ftl.lpa_to_ppa = dict(zip(pairs["lpa"].tolist(),
                                  pairs["ppa"].tolist()))

    slots, at = _section(image, at, SEC_LOG_REGION)
    (gen_id, tail_slots), _, _ = _split(slots, SEC_LOG_REGION, "<IQ",
                                        (f"V{CACHELINE}",))
    if tail_slots > cfg.log_region_bytes // CACHELINE:
        raise RecoveryFailed("log region holds more slots than the log",
                             section_id=SEC_LOG_REGION)
    sidecar, at = _section(image, at, SEC_LOG_INDEX)
    _, (side,), _ = _split(sidecar, SEC_LOG_INDEX, columns=(SIDECAR_DTYPE,),
                           count=tail_slots)
    if mssd.log_enabled:
        # the write log writes its payload and sidecar: copies of their own
        mssd.writelog.install(LogGeneration(
            gen_id, cfg.log_region_bytes, bytearray(slots[12:]),
            np.frombuffer(bytearray(sidecar), dtype=SIDECAR_DTYPE)))
    elif tail_slots:
        raise RecoveryFailed("image of a device without a write log holds "
                             "write-log entries", section_id=SEC_LOG_REGION)

    payload, at = _section(image, at, SEC_TXLOG)
    (count,), (txids, stamps), _ = _split(payload, SEC_TXLOG, "<Q",
                                          ("<u4", "<u8"))
    if count > mssd.txlog.capacity_entries:
        raise RecoveryFailed("TxLog section exceeds the TxLog",
                             section_id=SEC_TXLOG)
    by_txid = np.sort(txids)  # a repeated txid lands next to itself
    if (by_txid[1:] == by_txid[:-1]).any():
        raise RecoveryFailed("TxLog section repeats a txid",
                             section_id=SEC_TXLOG)
    mssd.txlog.adopt(txids, stamps)

    payload, at = _section(image, at, SEC_CLOCK)
    (dev.clock.now_ns, mssd._stamp), _, _ = _split(payload, SEC_CLOCK, "<QQ")
    mssd.txmgr.next_txid = max(int(side["txid"].max(initial=0)),
                               int(txids.max(initial=0))) + 1
    return mssd


def crash_clone(mssd: Mssd) -> Mssd:
    """Simulated power loss: round-trip the image, dropping host state.
    A `BytesIO` made from `getvalue` reads back the buffer `save` filled,
    with no copy."""
    buf = io.BytesIO()
    save(mssd, buf)
    return load(io.BytesIO(buf.getvalue()))
