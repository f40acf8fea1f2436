import dataclasses
import io
import random
import struct
import zlib

import numpy as np
import pytest

from bytefs import bench, image
from bytefs.device import DeviceConfig, KiB, MiB
from bytefs.errors import (
    InvalidArgument, RecoveryFailed, StateError, TxAborted,
)
from bytefs.fs import MODES, ByteFS, make_mssd, mkfs, recover_fs
from bytefs.mssd import Mssd
from bytefs.txn import RecoveryReport
from bytefs.writelog import CleanReport

from conftest import small_config


def populated_mssd():
    mssd = Mssd(small_config())
    mssd.block_write(0, b"\x10" * 4096, category="data")
    mssd.byte_write(64, b"\x20" * 64, category="inode")
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 128, b"\x30" * 64)
    mssd.tx_commit(txid)
    return mssd


def test_roundtrip_preserves_device_state(tmp_path):
    mssd = populated_mssd()
    path = tmp_path / "dev.img"
    image.save(mssd, path)
    loaded = image.load(path)
    assert loaded.clock_ns == mssd.clock_ns
    assert loaded.block_read(0) == mssd.block_read(0)
    assert loaded.txlog.entries == mssd.txlog.entries
    assert loaded.writelog.active_gen.tail_slots == \
        mssd.writelog.active_gen.tail_slots


def test_loaded_image_allocates_fresh_txids(tmp_path):
    mssd = populated_mssd()
    used = set(mssd.txlog.entries)
    buf = io.BytesIO()
    image.save(mssd, buf)
    buf.seek(0)
    loaded = image.load(buf)
    assert loaded.tx_begin() not in used


def test_commit_after_load_builds_the_txlog_index_from_the_arrays():
    loaded = image.load(io.BytesIO(_image_bytes(populated_mssd())))
    (old,) = loaded.txlog.entries
    txid = loaded.tx_begin()
    loaded.tx_write(txid, 192, b"\x31" * 64)
    loaded.tx_commit(txid)  # the first append after the load
    assert loaded.txlog.entries == [old, txid]
    assert loaded.txlog.index == dict(zip(loaded.txlog.txids,
                                          loaded.txlog.stamps))
    with pytest.raises(StateError):
        loaded.txlog.append(old, loaded.next_stamp())
    assert loaded.byte_read(128, 128) == b"\x30" * 64 + b"\x31" * 64


def test_bad_magic_rejected():
    with pytest.raises(InvalidArgument):
        image.load(io.BytesIO(b"XXXX" + bytes(100)))


def test_corrupt_section_crc_reported(tmp_path):
    mssd = populated_mssd()
    path = tmp_path / "dev.img"
    image.save(mssd, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # clock section payload
    path.write_bytes(blob)
    with pytest.raises(RecoveryFailed) as exc:
        image.load(path)
    assert exc.value.section_id == image.SEC_CLOCK


def test_truncated_image_reported(tmp_path):
    mssd = populated_mssd()
    path = tmp_path / "dev.img"
    image.save(mssd, path)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(RecoveryFailed):
        image.load(path)


@pytest.mark.parametrize("cut", [4, 8, 20], ids=[
    "after-magic", "after-version", "inside-config"])
def test_truncated_header_reported(cut):
    buf = io.BytesIO()
    image.save(populated_mssd(), buf)
    with pytest.raises(RecoveryFailed, match="truncated image"):
        image.load(io.BytesIO(buf.getvalue()[:cut]))


def test_device_without_log_roundtrips_with_empty_log_sections():
    mssd = Mssd(small_config(), log_enabled=False)
    assert mssd.writelog is None
    mssd.block_write(0, b"\x10" * 4096, category="data")
    mssd.byte_write(64, b"\x20" * 64, category="inode")
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 128, b"\x30" * 64)
    mssd.tx_commit(txid)
    assert mssd.utilization() == 0.0
    buf = io.BytesIO()
    image.save(mssd, buf)
    buf.seek(0)
    loaded = image.load(buf)
    assert loaded.writelog is None
    assert loaded.clock_ns == mssd.clock_ns
    assert loaded.block_read(0) == mssd.block_read(0)
    assert loaded.byte_read(64, 128) == b"\x20" * 64 + b"\x30" * 64
    assert loaded.txlog.entries == [txid]
    assert loaded.recover() == RecoveryReport()
    assert loaded.txlog.entries == []


def test_device_without_log_clean_clears_only_the_txlog():
    mssd = Mssd(small_config(txlog_bytes=8), log_enabled=False)  # 2 entries
    for i in range(5):
        txid = mssd.tx_begin()
        mssd.tx_write(txid, 64 * i, bytes([i + 1]) * 64)
        mssd.tx_commit(txid)
    assert len(mssd.txlog.entries) == 1  # commits 3 and 5 found it full
    assert mssd.clean() == CleanReport()
    assert mssd.txlog.entries == []
    assert mssd.byte_read(0, 320) == b"".join(bytes([i + 1]) * 64
                                              for i in range(5))


def test_image_with_log_entries_refused_without_log():
    buf = io.BytesIO()
    image.save(populated_mssd(), buf)
    blob = bytearray(buf.getvalue())
    assert blob[8] == image.FLAG_WRITE_LOG  # flags follow the version
    blob[8] = 0
    with pytest.raises(RecoveryFailed) as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == image.SEC_LOG_REGION


def test_unknown_image_flags_rejected():
    buf = io.BytesIO()
    image.save(populated_mssd(), buf)
    blob = bytearray(buf.getvalue())
    blob[8] |= 0x2
    with pytest.raises(InvalidArgument, match="flags"):
        image.load(io.BytesIO(blob))


@pytest.mark.parametrize("mode", MODES)
def test_crash_clone_keeps_the_write_log_setting(mode):
    mssd = make_mssd(small_config(), mode)
    mkfs(mssd)
    fs = ByteFS(mssd, mode=mode)
    fs.mount()
    fs.create("/f")
    clone = image.crash_clone(mssd)
    assert clone.log_enabled == mssd.log_enabled == (mode in ("dual_log",
                                                              "full"))
    recovered, _ = recover_fs(clone, mode=mode)
    assert recovered.exists("/f")


def test_every_config_field_survives_image_and_config_text():
    cfg = DeviceConfig(
        capacity_bytes=16 * MiB, page_size=8192, channel_count=4,
        flash_read_latency_ns=41_000, flash_write_latency_ns=61_000,
        cacheline_read_latency_ns=4_900, cacheline_write_latency_ns=700,
        log_region_bytes=128 * KiB, txlog_bytes=2 * KiB,
        write_buffer_bytes=32 * KiB, clean_threshold=0.5)
    for f in dataclasses.fields(DeviceConfig):
        assert getattr(cfg, f.name) != f.default, f.name
    buf = io.BytesIO()
    image.save(Mssd(cfg), buf)
    buf.seek(0)
    assert image.load(buf).config == cfg
    text = "\n".join(f"{k} = {v}" for k, v in dataclasses.asdict(cfg).items())
    assert bench.split_config(bench.parse_config_text(text))[0] == cfg


def _with_section(blob, sec_id: int, edit) -> bytearray:
    """`blob` with the payload of section `sec_id` replaced by
    `edit(payload)`, under a header whose length and CRC match it."""
    at = 12 + struct.calcsize(image._CONFIG_FMT)
    while True:
        sid, length, _ = struct.unpack_from("<IQI", blob, at)
        if sid == sec_id:
            payload = bytes(edit(bytes(blob[at + 16:at + 16 + length])))
            header = struct.pack("<IQI", sid, len(payload),
                                 zlib.crc32(payload))
            return bytearray(blob[:at] + header + payload
                             + blob[at + 16 + length:])
        at += 16 + length


def _txlog_image(txids, stamps):
    """An image whose TxLog section lists `txids` with `stamps`."""
    mssd = Mssd(small_config())
    for txid, stamp in zip(range(1, len(txids) + 1), stamps):
        mssd.txlog.append(txid, stamp)
    count = len(txids)
    payload = struct.pack(f"<Q{count}I{count}Q", count, *txids, *stamps)
    return _with_section(_image_bytes(mssd), image.SEC_TXLOG,
                         lambda old: payload)


def test_txlog_section_larger_than_the_txlog_rejected():
    blob = _txlog_image([1, 2, 3], [5, 6, 7])
    # patch the configured TxLog down to two entries (8 bytes)
    at = 12 + 8 * [f.name for f in dataclasses.fields(DeviceConfig)].index(
        "txlog_bytes")
    assert struct.unpack_from("<Q", blob, at)[0] == small_config().txlog_bytes
    struct.pack_into("<Q", blob, at, 8)
    with pytest.raises(RecoveryFailed) as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == image.SEC_TXLOG


def test_txlog_section_with_a_repeated_txid_rejected():
    blob = _txlog_image([1, 1], [5, 6])
    with pytest.raises(RecoveryFailed) as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == image.SEC_TXLOG


def test_txlog_section_that_repeats_a_txid_apart_rejected():
    blob = _txlog_image([3, 1, 3], [5, 6, 7])
    with pytest.raises(RecoveryFailed) as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == image.SEC_TXLOG


def _u64_plus(delta):
    """Add `delta` to the u64 count a section's payload starts with."""
    def edit(payload):
        (count,) = struct.unpack_from("<Q", payload)
        return struct.pack("<Q", count + delta) + payload[8:]
    return edit


@pytest.mark.parametrize("sec_id, edit", [
    (image.SEC_FLASH, lambda p: p[:4]),
    (image.SEC_FLASH, lambda p: p + bytes(8)),
    (image.SEC_FTL, _u64_plus(1)),
    (image.SEC_FTL, lambda p: p + bytes(16)),
    (image.SEC_FTL, lambda p: p[:7]),
    (image.SEC_LOG_REGION, lambda p: p[:8]),
    (image.SEC_LOG_REGION, lambda p: p + bytes(1)),
    (image.SEC_LOG_INDEX, lambda p: p[:-1]),
    (image.SEC_LOG_INDEX, lambda p: p + p[-16:]),
    (image.SEC_TXLOG, _u64_plus(1)),
    (image.SEC_TXLOG, lambda p: p + bytes(12)),
    (image.SEC_TXLOG, lambda p: b""),
    (image.SEC_CLOCK, lambda p: p[:8]),
    (image.SEC_CLOCK, lambda p: p + bytes(8)),
], ids=["flash-short", "flash-tail", "ftl-count-beyond-payload",
        "ftl-trailing-pair", "ftl-no-count", "log-region-no-header",
        "log-region-partial-slot", "sidecar-partial-row", "sidecar-extra-row",
        "txlog-count-beyond-payload", "txlog-trailing-entry", "txlog-empty",
        "clock-8-bytes", "clock-24-bytes"])
def test_section_length_that_disagrees_with_its_counts_rejected(sec_id, edit):
    """Each section's length is what its counts imply; any other length is
    refused with that section, even under a CRC that matches."""
    blob = _with_section(_image_bytes(populated_mssd()), sec_id, edit)
    with pytest.raises(RecoveryFailed) as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == sec_id


@pytest.mark.parametrize("order", ["begin", "shuffled"])
def test_loaded_txlog_gives_the_same_visibility_to_both_rules(order):
    """After a load, whose TxLog index is built only on first use, each
    page's `page_entries` gives the (key, seq) pairs that `visibility`
    gives for the page's visible entries, also when transactions commit
    out of begin order, so that the TxLog is not in txid order."""
    rng = random.Random(7)
    mssd = Mssd(small_config())
    for _ in range(40):
        txs = [mssd.tx_begin() for _ in range(rng.randrange(1, 5))]
        for t in list(txs):
            for _ in range(rng.randrange(1, 4)):
                try:
                    mssd.tx_write(t, rng.randrange(0, 512) * 64,
                                  bytes([t % 256]) * rng.choice((7, 64)))
                except TxAborted:
                    txs.remove(t)
                    break
        if order == "shuffled":
            rng.shuffle(txs)
        for t in txs:
            if rng.random() < 0.8:
                mssd.tx_commit(t)
            else:
                mssd.tx_abort(t)
        mssd.byte_write(rng.randrange(0, 512) * 64, b"\x01" * 64)
        if rng.random() < 0.1:
            mssd.block_write(rng.randrange(0, 8), b"\x02" * 4096)
    entries = mssd.txlog.entries
    assert len(entries) > 40 and mssd.writelog.active_gen.gen_id == 0
    assert (entries == sorted(entries)) == (order == "begin")

    loaded = image.load(io.BytesIO(_image_bytes(mssd)))
    assert loaded.txlog.entries == entries
    assert loaded.txlog._index is None
    visible, key = loaded.writelog.visibility()
    assert loaded.txlog._index is None
    side = loaded.writelog.active_gen.entries
    want = {}
    for slot in np.flatnonzero(visible).tolist():
        want.setdefault(int(side["lpa"][slot]), []).append(
            (int(key[slot]), int(side["seq"][slot])))
    assert want
    for lpa in range(8):
        got = [(k, seq) for k, seq, *_ in loaded.writelog.page_entries(lpa)]
        assert got == sorted(want.get(lpa, []))


def _image_bytes(mssd) -> bytes:
    buf = io.BytesIO()
    image.save(mssd, buf)
    return buf.getvalue()


def _used_device(mode, config):
    """A formatted device with flash pages, log entries, a TxLog and an
    open transaction."""
    mssd = make_mssd(config, mode)
    mkfs(mssd)
    fs = ByteFS(mssd, mode=mode, cache_bytes=64 * KiB)
    fs.mount()
    for i in range(6):
        fs.create(f"/f{i}")
        fd = fs.open(f"/f{i}")
        fs.write(fd, 100 * i, bytes([i + 1]) * (3000 + 700 * i))
        if i % 2:
            fs.fsync(fd)
        fs.close(fd)
    fs.unlink("/f0")
    mssd.tx_write(mssd.tx_begin(), 64, b"\x5a" * 64)
    return mssd


@pytest.mark.parametrize("config", [small_config(), DeviceConfig()],
                         ids=["8MiB", "default"])
@pytest.mark.parametrize("mode", MODES)
def test_clone_saves_the_bytes_of_its_original(mode, config):
    mssd = _used_device(mode, config)
    assert _image_bytes(image.crash_clone(mssd)) == _image_bytes(mssd)


def test_clone_shares_no_buffer_with_its_original():
    mssd = _used_device("full", small_config())
    original = _image_bytes(mssd)
    clone = image.crash_clone(mssd)
    loaded = clone.writelog.active_gen.tail_slots
    clone.block_write(0, b"\x40" * 4096)       # flags sidecar rows in place
    for i in range(loaded + 50):               # grows the payload and sidecar
        clone.byte_write(4096 + 64 * (i % 512), bytes([i % 256]) * 64)
    clone.clean()
    assert clone.writelog.active_gen.gen_id > 0
    assert _image_bytes(mssd) == original
    mssd.byte_write(0, b"\x41" * 64)           # saving left no buffer pinned
    mssd.tx_commit(mssd.tx_begin())            # nor a TxLog array
    assert _image_bytes(mssd) != original


def test_unsupported_image_version_rejected():
    blob = bytearray(_image_bytes(populated_mssd()))
    struct.pack_into("<I", blob, 4, image.FORMAT_VERSION + 1)
    with pytest.raises(InvalidArgument, match="unsupported image version"):
        image.load(io.BytesIO(blob))


def _section_at(blob, sec_id: int) -> int:
    """The offset of section `sec_id`'s header in `blob`."""
    at = 12 + struct.calcsize(image._CONFIG_FMT)
    while struct.unpack_from("<I", blob, at)[0] != sec_id:
        at += 16 + struct.unpack_from("<Q", blob, at + 4)[0]
    return at


def test_section_out_of_order_rejected():
    blob = bytearray(_image_bytes(populated_mssd()))
    struct.pack_into("<I", blob, _section_at(blob, image.SEC_FTL),
                     image.SEC_CLOCK)
    with pytest.raises(RecoveryFailed, match="unexpected section") as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == image.SEC_CLOCK


def test_section_longer_than_the_image_rejected():
    blob = bytearray(_image_bytes(populated_mssd()))
    struct.pack_into("<Q", blob, _section_at(blob, image.SEC_CLOCK) + 4, 17)
    with pytest.raises(RecoveryFailed, match="truncated image") as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == image.SEC_CLOCK


def test_log_region_with_more_slots_than_the_log_rejected():
    slots = small_config().log_region_bytes // 64 + 1
    blob = _with_section(
        _image_bytes(populated_mssd()), image.SEC_LOG_REGION,
        lambda p: struct.pack("<IQ", 1, slots) + bytes(64 * slots))
    with pytest.raises(RecoveryFailed, match="more slots") as exc:
        image.load(io.BytesIO(blob))
    assert exc.value.section_id == image.SEC_LOG_REGION
