import io

import pytest

from bytefs import image
from bytefs.errors import InvalidArgument, RecoveryFailed
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
    loaded = image.load(buf, log_enabled=False)
    assert loaded.writelog is None
    assert loaded.clock_ns == mssd.clock_ns
    assert loaded.block_read(0) == mssd.block_read(0)
    assert loaded.byte_read(64, 128) == b"\x20" * 64 + b"\x30" * 64
    assert loaded.txlog.entries == [txid]
    assert loaded.recover() == RecoveryReport()
    assert loaded.txlog.entries == []
    buf.seek(0)
    assert image.load(buf).writelog.active_gen.tail_slots == 0


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
    buf.seek(0)
    with pytest.raises(InvalidArgument):
        image.load(buf, log_enabled=False)
