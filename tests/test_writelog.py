import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bytefs import bench, image
from bytefs.device import CACHELINE, CATEGORIES, KiB
from bytefs.errors import (
    AddressFault, BackPressure, StateError, TxAborted,
)
from bytefs.mssd import Mssd
from bytefs.writelog import (
    ACTIVE_KEY, FLAG_COMMITTED_AT_WRITE, FLAG_INVALID, SIDECAR_DTYPE,
    merge_order,
)

from conftest import small_config
from shadow import ShadowMssd


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
    # the transaction's entries now fill the log alone, and the write
    # the log refuses ends the transaction
    with pytest.raises(BackPressure):
        mssd.tx_write(txid, 1024 * 64, b"\x01" * 64)
    with pytest.raises(StateError):
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


def test_shadow_holds_nothing_of_a_write_the_full_log_refused():
    # an open transaction's 16 entries fill the 16-slot log
    mssd = ShadowMssd(small_config(log_region_bytes=1024))
    t = mssd.tx_begin()
    mssd.tx_write(t, 0, b"\x11" * 16 * 64)
    with pytest.raises(BackPressure):
        mssd.byte_write(8192, b"\x22" * 192)
    assert mssd.byte_read(8192, 192) == mssd.shadow_read(8192, 192) == bytes(
        192)
    mssd.tx_commit(t)
    assert mssd.block_read(2) == mssd.shadow_read(8192, 4096) == bytes(4096)
    assert mssd.block_read(0) == mssd.shadow_read(0, 4096)


def test_shadow_holds_only_the_cachelines_the_full_log_took():
    # 10 entries of an open transaction leave 6 of 16 slots for its next
    # write of 10 cachelines: the log takes 6 and refuses the rest, which
    # ends the transaction, so neither the device nor the shadow holds any
    mssd = ShadowMssd(small_config(log_region_bytes=1024))
    t = mssd.tx_begin()
    mssd.tx_write(t, 0, b"\x11" * 10 * 64)
    with pytest.raises(BackPressure):
        mssd.tx_write(t, 4096, b"\x33" * 640)
    assert mssd.byte_read(4096, 640) == mssd.shadow_read(4096, 640) == bytes(
        640)
    with pytest.raises(StateError):
        mssd.tx_commit(t)
    assert mssd.byte_read(0, 8192) == mssd.shadow_read(0, 8192) == bytes(8192)
    assert mssd.block_read(1) == mssd.shadow_read(4096, 4096)


def test_transactional_write_the_full_log_refuses_ends_its_transaction():
    # the log takes 6 of the 10 cachelines of the transaction's second
    # write; none of the transaction may become durable
    mssd = ShadowMssd(small_config(log_region_bytes=1024))
    t = mssd.tx_begin()
    mssd.tx_write(t, 0, b"\x11" * 10 * 64)
    with pytest.raises(BackPressure):
        mssd.tx_write(t, 4096, b"\x33" * 640)
    clone = image.crash_clone(mssd)
    clone.recover()
    for dev in (mssd, clone):
        assert dev.byte_read(0, 8192) == bytes(8192)
        with pytest.raises(StateError):
            dev.tx_commit(t)
        assert dev.byte_read(0, 8192) == bytes(8192)
    assert mssd.shadow_read(0, 8192) == bytes(8192)
    # its cacheline locks went with it
    u = mssd.tx_begin()
    mssd.tx_write(u, 4096, b"\x44" * 64)
    mssd.tx_commit(u)
    assert mssd.byte_read(4096, 64) == mssd.shadow_read(4096, 64) == \
        b"\x44" * 64


def test_shadow_pads_a_partly_taken_write_across_a_page_as_the_device():
    # a transaction's write from inside a cacheline, over a page boundary:
    # the 5 slots that another's 11 open entries leave take its padded
    # piece on page 0 (2 entries) and 3 of the 5 entries of page 1's, and
    # the refusal ends it; once the other commits, a new transaction's
    # same write lands whole
    mssd = ShadowMssd(small_config(log_region_bytes=1024))
    mssd.byte_write(4096 - 128, b"\x44" * 128)
    other = mssd.tx_begin()
    mssd.tx_write(other, 8 * 4096, b"\x11" * 11 * 64)
    t = mssd.tx_begin()
    with pytest.raises(BackPressure):
        mssd.tx_write(t, 4096 - 100, b"\x55" * 400)
    want = b"\x44" * 128 + bytes(300)
    assert mssd.byte_read(4096 - 128, 428) == want
    assert mssd.shadow_read(4096 - 128, 428) == want
    with pytest.raises(StateError):
        mssd.tx_commit(t)
    mssd.tx_commit(other)
    u = mssd.tx_begin()
    mssd.tx_write(u, 4096 - 100, b"\x55" * 400)
    mssd.tx_commit(u)
    want = b"\x44" * 28 + b"\x55" * 400
    assert mssd.byte_read(4096 - 128, 428) == want
    assert mssd.shadow_read(4096 - 128, 428) == want


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


def _state(mssd):
    out = io.BytesIO()
    image.save(mssd, out)
    return (out.getvalue(), mssd.clock_ns,
            mssd.traffic_snapshot().by_category)


def _by_cacheline(addr, data):
    """`data` at `addr` as pieces that each stay inside one cacheline."""
    pos = 0
    while pos < len(data):
        take = min(CACHELINE - (addr + pos) % CACHELINE, len(data) - pos)
        yield addr + pos, data[pos:pos + take]
        pos += take


@settings(max_examples=100, deadline=None)
@given(st.integers(640, 869), st.lists(
    st.tuples(st.sampled_from(("plain", "tx", "commit")),
              st.integers(0, 48 * 4096 - 1),   # unaligned, in 48 pages
              st.integers(1, 5000), st.integers(1, 255)),
    min_size=4, max_size=40))
def test_a_write_appends_charges_and_cleans_as_its_cachelines_one_by_one(
        filled, ops):
    """A byte write, plain or transactional, of one or several pages,
    leaves the same device image, clock and traffic as the same bytes
    written one cacheline per call, also where the log cleans in the
    middle of it: the log (1024 slots, `clean_at` 871) starts with
    `filled` entries, so runs cross `clean_at`.  One transaction is open
    at a time, and it commits before it could fill the log."""
    whole, split = Mssd(small_config()), Mssd(small_config())
    for mssd in (whole, split):
        mssd.byte_write(64 * 4096, b"\x01" * (filled * CACHELINE))
    txid, tx_entries = None, 0
    for kind, addr, length, fill in ops:
        if kind == "commit":
            if txid is not None:
                whole.tx_commit(txid)
                split.tx_commit(txid)
                txid = None
            continue
        data = bytes([fill]) * length
        if kind == "tx":
            entries = (addr + length - 1) // CACHELINE - addr // CACHELINE + 1
            if txid is not None and tx_entries + entries > 512:
                whole.tx_commit(txid)
                split.tx_commit(txid)
                txid = None
            if txid is None:
                txid, tx_entries = whole.tx_begin(), 0
                assert split.tx_begin() == txid
            tx_entries += entries
            whole.tx_write(txid, addr, data, "data")
            for a, piece in _by_cacheline(addr, data):
                split.tx_write(txid, a, piece, "data")
        else:
            whole.byte_write(addr, data, "inode")
            for a, piece in _by_cacheline(addr, data):
                split.byte_write(a, piece, "inode")
        assert _state(whole) == _state(split)
        assert whole.txmgr._lock_owner == split.txmgr._lock_owner


def test_sidecar_rows_survive_growth_and_carry():
    """The sidecar's rows are copied as bytes when a generation grows and
    when a clean carries an open transaction's entries: each field of each
    row is what was appended, and the carried rows stay writable."""
    mssd = Mssd(small_config(log_region_bytes=256 * KiB))  # 4096 slots
    first_rows = len(mssd.writelog.active_gen.side)
    t = mssd.tx_begin()
    want = []
    for i in range(first_rows + 200):  # grows once, at entry first_rows
        lpa, cl, length = i % 2000, i % 64, 1 + i % 64
        txid = t if i % 3 == 0 else 0
        cat = CATEGORIES[i % len(CATEGORIES)]
        data = bytes([i % 251]) * length
        if txid:
            mssd.tx_write(txid, lpa * 4096 + cl * 64, data, cat)
        else:
            mssd.byte_write(lpa * 4096 + cl * 64, data, cat)
        want.append((lpa, cl, length, 0 if txid else FLAG_COMMITTED_AT_WRITE,
                     i % len(CATEGORIES), txid, i + 1))
    gen = mssd.writelog.active_gen
    assert len(gen.side) > first_rows and gen.entries.tolist() == want

    mssd.clean()  # carries t's entries into generation 1
    carried = [row for row in want if row[5] == t]
    gen = mssd.writelog.active_gen
    assert gen.gen_id == 1 and gen.side.dtype == SIDECAR_DTYPE
    assert gen.entries.tolist() == carried
    assert gen.side.flags.writeable
    # a block write marks a carried entry invalid in place, and the next
    # append grows the carried array
    mssd.block_write(0, bytes(4096))
    mssd.byte_write(5 * 4096, b"\x07" * 64)
    after = [(r[0], r[1], r[2], r[3] | (FLAG_INVALID if r[0] == 0 else 0),
              *r[4:]) for r in carried]
    after.append((5, 0, 64, FLAG_COMMITTED_AT_WRITE,
                  CATEGORIES.index("untagged"), 0, len(want) + 1))
    assert mssd.writelog.active_gen.entries.tolist() == after
