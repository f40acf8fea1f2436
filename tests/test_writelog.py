import random

import pytest

from bytefs.device import CACHELINE
from bytefs.errors import AddressFault, BackPressure, InvalidArgument
from bytefs.mssd import Mssd

from conftest import small_config


def test_single_cacheline_write_appends_one_slot(mssd):
    t0 = mssd.clock_ns
    mssd.byte_write(4096, b"\xaa" * 64)
    assert mssd.writelog.active_gen.tail_slots == 1
    assert mssd.clock_ns - t0 == 600


def test_one_byte_write_consumes_full_slot_with_length_one(mssd):
    mssd.byte_write(0, b"\x42")
    gen = mssd.writelog.active_gen
    assert gen.tail_slots == 1
    assert gen.entries["length"][0] == 1


def test_two_cacheline_writes_visible_through_block_read(mssd):
    mssd.byte_write(0, b"\x11" * 64)
    mssd.byte_write(64, b"\x22" * 64)
    page = mssd.block_read(0)
    assert page[:64] == b"\x11" * 64
    assert page[64:128] == b"\x22" * 64
    assert page == mssd.shadow_read(0, 4096)


def test_read_just_written_hits_log(mssd):
    mssd.byte_write(128, b"\x33" * 64)
    flash_before = mssd.traffic_snapshot().flash_read_bytes
    t0 = mssd.clock_ns
    assert mssd.byte_read(128, 64) == b"\x33" * 64
    assert mssd.clock_ns - t0 == 4_800
    assert mssd.traffic_snapshot().flash_read_bytes == flash_before


def test_read_never_written_returns_zeros_with_one_flash_read(mssd):
    flash_before = mssd.traffic_snapshot().flash_read_bytes
    assert mssd.byte_read(8192, 64) == bytes(64)
    assert mssd.traffic_snapshot().flash_read_bytes - flash_before == 4096


def test_half_covered_read_merges_with_flash(mssd):
    mssd.block_write(2, bytes([7]) * 4096)
    mssd.byte_write(2 * 4096, b"\x99" * 64)
    got = mssd.byte_read(2 * 4096, 128)
    assert got == b"\x99" * 64 + bytes([7]) * 64
    assert got == mssd.shadow_read(2 * 4096, 128)


def test_block_read_overlays_dirty_cachelines(mssd):
    base = bytes(range(256)) * 16
    mssd.block_write(1, base)
    for off in (0, 5, 63):
        mssd.byte_write(4096 + off * 64, bytes([off]) * 64)
    page = mssd.block_read(1)
    expect = bytearray(base)
    for off in (0, 5, 63):
        expect[off * 64:(off + 1) * 64] = bytes([off]) * 64
    assert page == bytes(expect)


def test_newest_version_wins_on_same_cacheline(mssd):
    mssd.byte_write(0, b"\x01" * 64)
    mssd.byte_write(0, b"\x02" * 64)
    assert mssd.block_read(0)[:64] == b"\x02" * 64


def test_block_write_invalidates_log_entries(mssd):
    mssd.byte_write(0, b"\x01" * 64)
    mssd.block_write(0, b"\x55" * 4096)
    assert mssd.block_read(0) == b"\x55" * 4096
    assert mssd.writelog.index_lookup(0) == []


def test_block_write_page_skipped_by_cleaning(mssd_noauto):
    mssd = mssd_noauto
    mssd.byte_write(0, b"\x01" * 64)
    mssd.block_write(0, b"\x55" * 4096)
    report = mssd.clean()
    assert report.pages_flushed == 0
    assert mssd.block_read(0) == b"\x55" * 4096


def test_write_crossing_page_boundary_is_split_by_shim(mssd):
    addr = 4096 - 64
    mssd.byte_write(addr, b"\xab" * 128)
    assert mssd.byte_read(addr, 128) == b"\xab" * 128
    with pytest.raises(InvalidArgument):
        mssd.writelog.byte_write(addr, b"\xab" * 128)


def test_unaligned_byte_write_padded_to_cacheline(mssd):
    mssd.block_write(0, bytes([9]) * 4096)
    mssd.byte_write(10, b"\xee" * 5)
    assert mssd.byte_read(0, 64) == bytes([9]) * 10 + b"\xee" * 5 + bytes([9]) * 49


def test_out_of_range_byte_access_faults(mssd):
    with pytest.raises(AddressFault):
        mssd.byte_write(mssd.config.capacity_bytes, b"\x00")
    with pytest.raises(AddressFault):
        mssd.byte_read(mssd.config.capacity_bytes - 32, 64)


def test_index_lookup_empty(mssd):
    assert mssd.writelog.index_lookup(17) == []


def test_index_lookup_sorted_by_block_offset(mssd):
    for off in (5, 1, 3):
        mssd.byte_write(off * 64, bytes([off]) * 64)
    entries = mssd.writelog.index_lookup(0)
    assert [e.block_offset for e in entries] == [1, 3, 5]


def test_index_random_ops_match_sorted_map_oracle(mssd_noauto):
    mssd = mssd_noauto
    rng = random.Random(7)
    oracle = {}  # (lpa, off) -> payload
    for step in range(900):
        lpa = rng.randrange(8)
        off = rng.randrange(64)
        if rng.random() < 0.7:
            payload = bytes([step % 256]) * 64
            mssd.byte_write(lpa * 4096 + off * 64, payload)
            oracle[(lpa, off)] = payload
        else:
            mssd.block_write(lpa, bytes(4096))
            for key in [k for k in oracle if k[0] == lpa]:
                del oracle[key]
        if step % 200 == 0:
            for check_lpa in range(8):
                got = [e.block_offset
                       for e in mssd.writelog.index_lookup(check_lpa)]
                want = sorted(o for l, o in oracle if l == check_lpa)
                assert got == want


def test_utilization_fresh_log_is_zero(mssd):
    assert mssd.utilization() == 0.0


def test_cleaning_triggered_strictly_above_threshold():
    mssd = Mssd(small_config(), auto_clean=True)
    slots = mssd.writelog.active_gen.capacity_slots
    target = int(slots * mssd.config.clean_threshold)
    for i in range(target):
        mssd.byte_write((i % 64) * 64 + (i // 64) * 4096, bytes([1]) * 64)
    assert mssd.utilization() <= mssd.config.clean_threshold
    assert mssd.writelog.active_gen.gen_id == 0  # not yet
    mssd.byte_write(0, b"\x01" * 64)
    assert mssd.writelog.active_gen.gen_id == 1  # cleaned and swapped


def test_clean_single_committed_entry_one_read_one_write(mssd_noauto):
    mssd = mssd_noauto
    mssd.byte_write(3 * 4096, b"\x77" * 64)
    report = mssd.clean()
    assert report.flash_reads == 1
    assert report.flash_writes == 1
    assert report.pages_flushed == 1
    assert mssd.device.read_lpa(3)[:64] == b"\x77" * 64
    assert mssd.block_read(3) == mssd.shadow_read(3 * 4096, 4096)


def test_clean_fully_covered_page_skips_flash_read(mssd_noauto):
    mssd = mssd_noauto
    for off in range(64):
        mssd.byte_write(4096 + off * 64, bytes([off]) * 64)
    report = mssd.clean()
    assert report.flash_reads == 0
    assert report.flash_writes == 1


def test_uncommitted_entries_survive_cleaning(mssd_noauto):
    mssd = mssd_noauto
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\xcd" * 64)
    report = mssd.clean()
    assert report.entries_migrated == 1
    assert report.pages_flushed == 0
    # still readable from the new generation
    assert mssd.byte_read(0, 64) == b"\xcd" * 64
    # and not yet on flash
    assert mssd.device.read_lpa(0)[:64] == bytes(64)


def test_aborted_tx_entries_dropped_at_cleaning(mssd_noauto):
    mssd = mssd_noauto
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\xcd" * 64)
    mssd.tx_abort(txid)
    report = mssd.clean()
    assert report.entries_migrated == 0
    assert mssd.byte_read(0, 64) == bytes(64)


def test_clean_after_clean_leaves_only_uncommitted(mssd_noauto):
    mssd = mssd_noauto
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 64, b"\x01" * 64)
    mssd.byte_write(128, b"\x02" * 64)
    mssd.clean()
    gen = mssd.writelog.active_gen
    assert gen.tail_slots == 1
    assert gen.entries["txid"][0] == txid


def test_commit_order_wins_at_flush(mssd_noauto):
    mssd = mssd_noauto
    t1 = mssd.tx_begin()
    mssd.tx_write(t1, 0, b"\x01" * 64)
    mssd.tx_commit(t1)
    t2 = mssd.tx_begin()
    mssd.tx_write(t2, 0, b"\x02" * 64)
    mssd.tx_commit(t2)
    mssd.clean()
    assert mssd.device.read_lpa(0)[:64] == b"\x02" * 64


def test_back_pressure_when_log_cannot_drain():
    mssd = Mssd(small_config(), auto_clean=True)
    slots = mssd.writelog.active_gen.capacity_slots
    txid = mssd.tx_begin()
    with pytest.raises(BackPressure):
        for i in range(2 * slots):
            mssd.tx_write(txid, (i % 64) * 64 + (i // 64 % 128) * 4096,
                          bytes([3]) * 64)


def test_host_byte_traffic_is_multiple_of_64(mssd):
    mssd.byte_write(0, b"\x01")
    mssd.byte_write(4096, b"\x02" * 100)
    total = mssd.traffic_snapshot().host_to_ssd_bytes
    assert total % CACHELINE == 0
    assert total == 3 * 64  # 1 slot + 2 slots


def test_shadow_oracle_randomized_mixed_ops(mssd):
    rng = random.Random(42)
    page_count = 16
    for _ in range(3_000):
        lpa = rng.randrange(page_count)
        r = rng.random()
        if r < 0.4:
            off = rng.randrange(4096 - 64)
            size = rng.randrange(1, 65)
            mssd.byte_write(lpa * 4096 + off, bytes([rng.randrange(256)]) * size)
        elif r < 0.6:
            data = bytes([rng.randrange(256)]) * 4096
            mssd.block_write(lpa, data)
        elif r < 0.8:
            off = rng.randrange(4096 - 64)
            size = rng.randrange(1, 64)
            assert mssd.byte_read(lpa * 4096 + off, size) == \
                mssd.shadow_read(lpa * 4096 + off, size)
        else:
            assert mssd.block_read(lpa) == mssd.shadow_read(lpa * 4096, 4096)
    for lpa in range(page_count):
        assert mssd.block_read(lpa) == mssd.shadow_read(lpa * 4096, 4096)


def test_clean_merges_partial_entry_over_older_full_entry():
    # an older full-cacheline entry followed by a newer short entry for the
    # same cacheline: the flushed page must contain the merged bytes
    mssd = Mssd(small_config(), auto_clean=False)
    mssd.byte_write(0, b"\xaa" * 64)
    mssd.byte_write(0, b"\xbb" * 13)
    mssd.clean()
    page = mssd.device.read_lpa(0, "untagged")
    assert page[:13] == b"\xbb" * 13
    assert page[13:64] == b"\xaa" * 51


def test_recover_merges_partial_entry_over_older_full_entry():
    from bytefs.image import crash_clone

    mssd = Mssd(small_config())
    mssd.byte_write(0, b"\xaa" * 64)
    mssd.byte_write(0, b"\xbb" * 13)
    after = crash_clone(mssd)
    after.recover()
    page = after.block_read(0)
    assert page[:13] == b"\xbb" * 13
    assert page[13:64] == b"\xaa" * 51
