import dataclasses
import io
import struct
import zlib

import pytest

from bytefs import bench, image
from bytefs.device import DeviceConfig, KiB, MiB
from bytefs.errors import InvalidArgument, RecoveryFailed
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


def _txlog_image(txids, stamps):
    """An image whose TxLog section lists `txids` with `stamps`."""
    mssd = Mssd(small_config())
    mssd.txlog.stamps = dict(zip(range(1, len(txids) + 1), stamps))
    buf = io.BytesIO()
    image.save(mssd, buf)
    blob = bytearray(buf.getvalue())
    count = len(txids)
    payload = struct.pack(f"<Q{count}I{count}Q", count, *txids, *stamps)
    at = len(blob) - 32 - len(payload)  # the clock section (32 B) is last
    blob[at:at + len(payload)] = payload
    blob[at - 4:at] = struct.pack("<I", zlib.crc32(payload))
    return blob


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
    assert _image_bytes(mssd) != original
