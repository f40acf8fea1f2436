import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bytefs import bench
from bytefs.device import CACHELINE
from bytefs.errors import (
    AddressFault, BackPressure, TxAborted,
)
from bytefs.mssd import Mssd
from bytefs.writelog import ACTIVE_KEY, merge_order

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


def test_block_read_without_log_entries_is_the_flash_page(mssd):
    mssd.block_write(2, b"\x44" * 4096)
    mssd.byte_write(4 * 4096, b"\x55" * 64)  # an entry on another page
    for lpa in (2, 3):
        assert mssd.writelog.page_entries(lpa) == []
        flash = mssd.device.pages.get(mssd.device.ftl_translate(lpa),
                                      bytes(4096))
        assert mssd.writelog.block_read(lpa) == flash
    assert mssd.writelog.block_read(2) == b"\x44" * 4096


def test_block_write_invalidates_log_entries(mssd):
    mssd.byte_write(0, b"\x01" * 64)
    mssd.block_write(0, b"\x55" * 4096)
    assert mssd.block_read(0) == b"\x55" * 4096
    assert mssd.writelog.index_lookup(0) == []


def test_block_write_page_skipped_by_cleaning(mssd):
    mssd.byte_write(0, b"\x01" * 64)
    mssd.block_write(0, b"\x55" * 4096)
    report = mssd.clean()
    assert report.pages_flushed == 0
    assert mssd.block_read(0) == b"\x55" * 4096


def test_write_crossing_page_boundary_is_split_by_shim(mssd):
    addr = 4096 - 64
    mssd.byte_write(addr, b"\xab" * 128)
    assert mssd.byte_read(addr, 128) == b"\xab" * 128
    # the log holds one cacheline in each page
    assert [len(mssd.writelog.page_entries(lpa)) for lpa in (0, 1)] == [1, 1]


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


def test_index_random_ops_match_sorted_map_oracle(mssd):
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
    mssd = Mssd(small_config())
    slots = mssd.writelog.active_gen.capacity_slots
    target = int(slots * mssd.config.clean_threshold)
    for i in range(target):
        mssd.byte_write((i % 64) * 64 + (i // 64) * 4096, bytes([1]) * 64)
    assert mssd.utilization() <= mssd.config.clean_threshold
    assert mssd.writelog.active_gen.gen_id == 0  # not yet
    mssd.byte_write(0, b"\x01" * 64)
    assert mssd.writelog.active_gen.gen_id == 1  # cleaned and swapped


def test_clean_that_leaves_log_above_threshold_is_not_repeated(mssd):
    # the first clean carries every entry of the open transaction, which
    # leaves the log above its threshold; later pieces must not clean again
    cleans = []
    clean = mssd.writelog.clean
    mssd.writelog.clean = lambda: cleans.append(1) or clean()
    txid = mssd.tx_begin()
    for i in range(1000):
        mssd.tx_write(txid, i * 64, bytes([i % 255 + 1]) * 64)
    assert len(cleans) == 1
    assert mssd.writelog.active_gen.gen_id == 1
    assert mssd.utilization() > mssd.config.clean_threshold
    assert mssd.device.traffic.flash_write_bytes == 0
    mssd.tx_commit(txid)
    assert mssd.byte_read(0, 64000) == mssd.shadow_read(0, 64000) == b"".join(
        bytes([i % 255 + 1]) * 64 for i in range(1000))


def record_cleans(mssd):
    """The `CleanReport` of every clean of `mssd`'s write log, in order."""
    reports = []
    clean = mssd.writelog.clean
    mssd.writelog.clean = lambda: reports.append(clean()) or reports[-1]
    return reports


def test_piece_that_crosses_the_threshold_cleans_after_the_crossing_entry(
        mssd):
    # the 871st entry of the 1024-slot log is the first above 85%
    for i in range(869):
        mssd.byte_write((i % 64) * 64 + (i // 64) * 4096, b"\x01" * 64)
    reports = record_cleans(mssd)
    mssd.byte_write(20 * 4096, bytes(range(1, 5)) * 64)   # 4 cachelines
    # entries 870 and 871 went in, the log cleaned, then entries 872-873
    assert [(r.entries_flushed, r.entries_migrated) for r in reports] == [
        (871, 0)]
    gen = mssd.writelog.active_gen
    assert (gen.gen_id, gen.tail_slots) == (1, 2)
    assert gen.entries["block_offset"].tolist() == [2, 3]
    assert mssd.device.read_lpa(20)[:256] == (
        bytes(range(1, 5)) * 32 + bytes(128))
    assert mssd.byte_read(20 * 4096, 4096) == mssd.shadow_read(20 * 4096, 4096)


def test_piece_larger_than_the_free_room_cleans_at_the_full_generation(mssd):
    reports = record_cleans(mssd)
    txid = mssd.tx_begin()
    for i in range(1000):  # the clean at entry 871 carries all 871
        mssd.tx_write(txid, i * 64, bytes([i % 255 + 1]) * 64)
    assert [(r.entries_flushed, r.entries_migrated) for r in reports] == [
        (0, 871)]
    # 64 entries with room for 24: the log fills, cleans out the plain
    # entries and carries the transaction's, twice, and takes the rest
    mssd.byte_write(100 * 4096, b"\x5a" * 4096)
    assert [(r.entries_flushed, r.entries_migrated) for r in reports[1:]] == [
        (24, 1000), (24, 1000)]
    gen = mssd.writelog.active_gen
    assert (gen.gen_id, gen.tail_slots) == (3, 1016)
    for i in range(1000, 1024):  # the log fills again, with 16 plain entries
        mssd.tx_write(txid, i * 64, bytes([i % 255 + 1]) * 64)
    assert [(r.entries_flushed, r.entries_migrated) for r in reports[3:]] == [
        (16, 1008)]
    assert mssd.writelog.active_gen.tail_slots == 1024
    # the transaction's entries now fill the log alone
    with pytest.raises(BackPressure):
        mssd.tx_write(txid, 1024 * 64, b"\x01" * 64)
    with pytest.raises(BackPressure):
        mssd.byte_write(101 * 4096, b"\x02" * 64)
    mssd.tx_abort(txid)
    mssd.byte_write(101 * 4096, b"\x02" * 64)
    assert mssd.writelog.active_gen.tail_slots == 1
    assert mssd.byte_read(0, 102 * 4096) == mssd.shadow_read(0, 102 * 4096)


@pytest.mark.parametrize("cache_bytes, want", [
    (None, [(40, 736, 3, 40), (33, 496, 1, 33), (30, 404, 1, 30),
            (24, 344, 1, 24)]),
    (64 * 1024, [(44, 726, 3, 44), (33, 506, 3, 33), (32, 416, 1, 32),
                 (27, 350, 1, 27)]),
])
def test_self_clean_reports_of_a_kvstore_replay_pinned(cache_bytes, want):
    """(pages flushed, entries flushed, entries migrated, flash reads) of
    each self-clean of a 2000-record kvstore replay in full mode, as
    recorded before the write path appended a piece in one step."""
    fs = bench.format_and_mount(small_config(), "full", "ordered",
                                cache_bytes)
    reports = record_cleans(fs.mssd)
    bench.replay(fs, bench.build_workload(
        bench.WorkloadSpec("kvstore", seed=1, ops=2000)))
    assert [(r.pages_flushed, r.entries_flushed, r.entries_migrated,
             r.flash_reads) for r in reports] == want


def test_clean_single_committed_entry_one_read_one_write(mssd):
    mssd.byte_write(3 * 4096, b"\x77" * 64)
    report = mssd.clean()
    assert report.flash_reads == 1
    assert mssd.device.traffic.flash_write_bytes == 4096
    assert report.pages_flushed == 1
    assert mssd.device.read_lpa(3)[:64] == b"\x77" * 64
    assert mssd.block_read(3) == mssd.shadow_read(3 * 4096, 4096)


def test_clean_fully_covered_page_skips_flash_read(mssd):
    for off in range(64):
        mssd.byte_write(4096 + off * 64, bytes([off]) * 64)
    report = mssd.clean()
    assert report.flash_reads == 0
    assert report.pages_flushed == 1


def test_uncommitted_entries_survive_cleaning(mssd):
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\xcd" * 64)
    report = mssd.clean()
    assert report.entries_migrated == 1
    assert report.pages_flushed == 0
    # still readable from the new generation
    assert mssd.byte_read(0, 64) == b"\xcd" * 64
    # and not yet on flash
    assert mssd.device.read_lpa(0)[:64] == bytes(64)


def test_aborted_tx_entries_dropped_at_cleaning(mssd):
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\xcd" * 64)
    mssd.tx_abort(txid)
    report = mssd.clean()
    assert report.entries_migrated == 0
    assert mssd.byte_read(0, 64) == bytes(64)


def test_clean_after_clean_leaves_only_uncommitted(mssd):
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 64, b"\x01" * 64)
    mssd.byte_write(128, b"\x02" * 64)
    mssd.clean()
    gen = mssd.writelog.active_gen
    assert gen.tail_slots == 1
    assert gen.entries["txid"][0] == txid


def test_commit_order_wins_at_flush(mssd):
    t1 = mssd.tx_begin()
    mssd.tx_write(t1, 0, b"\x01" * 64)
    mssd.tx_commit(t1)
    t2 = mssd.tx_begin()
    mssd.tx_write(t2, 0, b"\x02" * 64)
    mssd.tx_commit(t2)
    mssd.clean()
    assert mssd.device.read_lpa(0)[:64] == b"\x02" * 64


def test_back_pressure_when_log_cannot_drain():
    mssd = Mssd(small_config())
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
    mssd = Mssd(small_config())
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


def reference_order(cell, key, seq):
    return np.lexsort((seq, key, cell))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("plain", "tx", "commit", "abort",
                                           "clean")),
                          st.integers(0, 2 ** 16 - 1)),
                max_size=60))
def test_merge_order_matches_lexsort_on_a_live_log(ops):
    """Sidecars from plain writes and up to three open transactions
    committed in any order; a clean carries the entries of open ones.  A
    `tx` write goes to a new transaction when `n` picks none open."""
    mssd = Mssd(small_config())
    open_txs = []
    for op, n in ops:
        addr = (n % 8) * 4096 + (n // 8 % 4) * CACHELINE
        if op == "plain":
            mssd.byte_write(addr, bytes([n % 251 + 1]) * (n % 64 + 1))
        elif op == "tx":
            pick = n % (len(open_txs) + 1)
            if pick == len(open_txs):
                if pick == 3:
                    continue
                open_txs.append(mssd.tx_begin())
            t = open_txs[pick]
            try:
                mssd.tx_write(t, addr, bytes([n % 251 + 1]) * 64)
            except TxAborted:
                open_txs.remove(t)
        elif op in ("commit", "abort") and open_txs:
            t = open_txs.pop(n % len(open_txs))
            (mssd.tx_commit if op == "commit" else mssd.tx_abort)(t)
        elif op == "clean":
            mssd.clean()
    log = mssd.writelog
    entries = log.active_gen.entries
    visible, key = log.visibility()
    cell = (entries["lpa"].astype(np.int64) * (4096 // CACHELINE)
            + entries["block_offset"])
    for keep in (visible & (key < ACTIVE_KEY), visible):
        kept = np.flatnonzero(keep)
        got = merge_order(cell[kept], key[kept])
        want = reference_order(cell[kept], key[kept], entries["seq"][kept])
        assert got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5)),
                min_size=1, max_size=200))
def test_merge_order_matches_lexsort_on_wide_cells_and_keys(rows):
    """Cacheline numbers up to the largest a 32-bit LPA gives with 64
    cachelines a page, and keys up to `ACTIVE_KEY`; seq is slot order."""
    cells = np.array([2 ** 38 - 1 - 2 ** 35, 2 ** 38 - 1, 0, 1, 2 ** 20,
                      2 ** 37, 5, 2 ** 38 - 2], dtype=np.int64)
    keys = np.array([ACTIVE_KEY, 1, 2 ** 62, 7, 3, 2 ** 40], dtype=np.int64)
    cell = cells[[c for c, _ in rows]]
    key = keys[[k for _, k in rows]]
    seq = np.arange(len(rows))
    assert merge_order(cell, key).tolist() == \
        reference_order(cell, key, seq).tolist()
