import numpy as np
import pytest

from bytefs.device import CATEGORIES, MiB
from bytefs.errors import (
    AddressFault, InvalidArgument, SpaceExhausted, StateError, TxAborted,
)
from bytefs.image import crash_clone
from bytefs.mssd import Mssd
from bytefs.txn import TxLog
from bytefs.writelog import (
    ACTIVE_KEY, FLAG_COMMITTED_AT_WRITE, FLAG_INVALID,
)

from conftest import small_config


def test_begins_return_distinct_increasing_ids(mssd):
    a = mssd.tx_begin()
    b = mssd.tx_begin()
    assert b > a


def test_first_txid_is_one(mssd):
    assert mssd.tx_begin() == 1  # 0 is reserved


def test_thousand_begins_unique(mssd):
    ids = {mssd.tx_begin() for _ in range(1000)}
    assert len(ids) == 1000


def test_txid_space_ends_below_two_to_the_32(mssd):
    """A TxId is a u32 in the TxLog and in the image."""
    mssd.txmgr.next_txid = 2 ** 32 - 1
    assert mssd.tx_begin() == 2 ** 32 - 1
    with pytest.raises(SpaceExhausted, match="TxId"):
        mssd.tx_begin()
    assert list(mssd.txmgr.table) == [2 ** 32 - 1]


def test_commit_appends_one_txlog_entry(mssd):
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\x01" * 64)
    before = len(mssd.txlog.entries)
    mssd.tx_commit(txid)
    assert len(mssd.txlog.entries) == before + 1  # one 4B commit entry


def test_empty_transaction_commit_is_legal(mssd):
    txid = mssd.tx_begin()
    mssd.tx_commit(txid)
    assert mssd.txlog.entries == [txid]


def test_write_to_unknown_or_committed_tx_rejected(mssd):
    with pytest.raises(StateError):
        mssd.tx_write(99, 0, b"\x00" * 64)
    txid = mssd.tx_begin()
    mssd.tx_commit(txid)
    with pytest.raises(StateError):
        mssd.tx_write(txid, 0, b"\x00" * 64)


def test_disjoint_cachelines_do_not_block(mssd):
    t1 = mssd.tx_begin()
    t2 = mssd.tx_begin()
    mssd.tx_write(t1, 0, b"\x01" * 64)
    mssd.tx_write(t2, 64, b"\x02" * 64)  # returns without blocking
    mssd.tx_commit(t1)
    mssd.tx_commit(t2)


def test_same_cacheline_conflict_aborts_at_once(mssd):
    t1 = mssd.tx_begin()
    t2 = mssd.tx_begin()
    mssd.tx_write(t2, 64, b"\x02" * 64)
    mssd.tx_write(t1, 0, b"\x01" * 64)
    entries = mssd.writelog.active_gen.tail_slots
    clock = mssd.clock_ns
    traffic = mssd.traffic_snapshot().by_category
    shadow = {lpa: bytes(page) for lpa, page in mssd.shadow.items()}
    assert mssd.txmgr._lock_owner == {0: t1, 1: t2}
    with pytest.raises(TxAborted, match=f"locked by tx {t1}"):
        mssd.tx_write(t2, 0, b"\x22" * 64)
    # the conflicting write changed nothing; the abort released t2's lock
    assert mssd.txmgr._lock_owner == {0: t1}
    assert mssd.txmgr.table == {t1: {0}}
    assert mssd.writelog.active_gen.tail_slots == entries
    assert mssd.clock_ns == clock
    assert mssd.traffic_snapshot().by_category == traffic
    assert {lpa: bytes(page) for lpa, page in mssd.shadow.items()} == shadow
    # t1's write stays visible; t2's earlier write went with its abort
    assert mssd.shadow_read(0, 128) == b"\x01" * 64 + bytes(64)
    assert mssd.byte_read(0, 128) == b"\x01" * 64 + bytes(64)
    # the requester is no longer active
    assert mssd.txmgr.active_txids() == {t1}
    with pytest.raises(StateError):
        mssd.tx_write(t2, 128, b"\x02" * 64)
    with pytest.raises(StateError):
        mssd.tx_commit(t2)
    with pytest.raises(StateError):
        mssd.tx_abort(t2)
    # its earlier lock is released: a third transaction takes it
    t3 = mssd.tx_begin()
    mssd.tx_write(t3, 64, b"\x03" * 64)
    mssd.tx_commit(t3)
    mssd.tx_commit(t1)
    assert mssd.block_read(0)[:128] == b"\x01" * 64 + b"\x03" * 64


def test_write_over_two_cachelines_locks_neither_on_conflict(mssd):
    t1 = mssd.tx_begin()
    t2 = mssd.tx_begin()
    mssd.tx_write(t1, 64, b"\x01" * 64)
    with pytest.raises(TxAborted):
        mssd.tx_write(t2, 32, b"\x02" * 64)  # cachelines 0 and 1
    assert mssd.txmgr._lock_owner == {1: t1}
    t3 = mssd.tx_begin()
    mssd.tx_write(t3, 0, b"\x03" * 64)  # cacheline 0 is free
    mssd.tx_commit(t3)
    mssd.tx_commit(t1)
    assert mssd.block_read(0)[:128] == b"\x03" * 64 + b"\x01" * 64


@pytest.mark.parametrize("addr, data, category, error", [
    (64, b"x" * 8, "bogus", InvalidArgument),
    (8 * MiB, b"x", "untagged", AddressFault),
    (65, b"", "untagged", InvalidArgument),
    (8 * MiB - 32, b"x" * 64, "untagged", AddressFault),
], ids=["unknown_category", "past_the_end", "empty_unaligned",
        "from_the_last_page_past_the_end"])
def test_refused_tx_write_takes_no_lock(mssd, addr, data, category, error):
    a, b = mssd.tx_begin(), mssd.tx_begin()
    with pytest.raises(error):
        mssd.tx_write(a, addr, data, category=category)
    assert mssd.txmgr._lock_owner == {}
    assert mssd.txmgr.active_txids() == {a, b}
    line = min(addr, mssd.config.capacity_bytes - 64) // 64 * 64
    mssd.tx_write(b, line, b"y" * 8)                 # no TxAborted
    assert mssd.txmgr._lock_owner == {line // 64: b}


def test_tx_write_across_a_page_boundary_into_a_held_line_changes_nothing(
        mssd):
    """The conflict is on the second page: the write is refused before
    its first page gets an entry."""
    holder, t = mssd.tx_begin(), mssd.tx_begin()
    mssd.tx_write(holder, 4096, b"\x01" * 64)       # page 1, cacheline 0
    locks = dict(mssd.txmgr._lock_owner)
    entries = mssd.writelog.active_gen.entries.copy()
    clock = mssd.clock_ns
    traffic = mssd.traffic_snapshot().by_category
    shadow = {lpa: bytes(page) for lpa, page in mssd.shadow.items()}
    with pytest.raises(TxAborted, match=f"cacheline 64 is locked by tx "
                                        f"{holder}"):
        mssd.tx_write(t, 4096 - 100, b"\x02" * 200)
    assert mssd.txmgr._lock_owner == locks
    assert mssd.txmgr.active_txids() == {holder}
    assert mssd.writelog.active_gen.entries.tolist() == entries.tolist()
    assert mssd.clock_ns == clock
    assert mssd.traffic_snapshot().by_category == traffic
    assert {lpa: bytes(page) for lpa, page in mssd.shadow.items()} == shadow
    assert mssd.shadow_tx.keys() == {holder}


def test_tx_write_across_a_page_boundary_appends_each_cacheline(mssd):
    t = mssd.tx_begin()
    mssd.tx_write(t, 4096 - 100, b"\x02" * 200, "dentry")  # lines 62-65
    rows = mssd.writelog.active_gen.entries
    assert rows[["lpa", "block_offset", "length"]].tolist() == [
        (0, 62, 64), (0, 63, 64), (1, 0, 64), (1, 1, 36)]
    assert rows[["flags", "category", "txid"]].tolist() == [
        (0, CATEGORIES.index("dentry"), t)] * 4
    assert np.diff(rows["seq"]).tolist() == [1, 1, 1]
    assert sorted(mssd.txmgr._lock_owner) == [62, 63, 64, 65]
    mssd.tx_commit(t)
    assert mssd.byte_read(4096 - 100, 200) == b"\x02" * 200


def test_only_tx_write_carries_a_txid(mssd):
    with pytest.raises(TypeError):
        mssd.byte_write(0, b"\x11" * 64, txid=5)
    # a transaction not yet begun, or txid 0, cannot write
    for txid in (5, 0):
        with pytest.raises(StateError):
            mssd.tx_write(txid, 0, b"\x11" * 64)
    for _ in range(5):
        mssd.tx_begin()
    assert mssd.byte_read(0, 4) == mssd.shadow_read(0, 4) == bytes(4)
    assert mssd.writelog.active_gen.tail_slots == 0
    mssd.tx_commit(5)
    assert mssd.clean().entries_flushed == 0


def test_conflict_aborts_requester_and_holder_commits():
    mssd = Mssd(small_config())
    t1 = mssd.tx_begin()
    t2 = mssd.tx_begin()
    mssd.tx_write(t1, 0, b"\x01" * 64)
    with pytest.raises(TxAborted):
        mssd.tx_write(t2, 0, b"\x02" * 64)
    # t1 can still commit
    mssd.tx_commit(t1)


def test_txlog_full_triggers_clean_then_retry():
    mssd = Mssd(small_config(txlog_bytes=8))  # room for two commit entries
    for i in range(5):
        txid = mssd.tx_begin()
        mssd.tx_write(txid, i * 64, bytes([i]) * 64)
        mssd.tx_commit(txid)
    # all committed data durable despite intermediate cleans
    for i in range(5):
        assert mssd.block_read(0)[i * 64:(i + 1) * 64] == bytes([i]) * 64


def test_txlog_append_refuses_a_repeated_txid_and_a_full_log():
    txlog = TxLog(8)  # room for two entries
    txlog.append(5, 1)
    with pytest.raises(StateError):
        txlog.append(5, 2)
    txlog.append(3, 2)  # commit order, not txid order
    with pytest.raises(SpaceExhausted):
        txlog.append(7, 3)
    assert txlog.entries == [5, 3] and txlog.stamps.tolist() == [1, 2]
    assert txlog.index == {5: 1, 3: 2}


def test_crash_before_commit_discards_data(mssd):
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\xaa" * 64)
    after = crash_clone(mssd)
    after.recover()
    assert after.block_read(0) == bytes(4096)


def test_crash_after_commit_preserves_data(mssd):
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\xaa" * 64)
    mssd.tx_commit(txid)
    after = crash_clone(mssd)
    report = after.recover()
    assert report.entries_flushed == 1
    assert after.block_read(0)[:64] == b"\xaa" * 64


def test_recover_mixed_committed_uncommitted(mssd):
    ta = mssd.tx_begin()
    tb = mssd.tx_begin()
    mssd.tx_write(ta, 0, b"\xa1" * 64)
    mssd.tx_write(tb, 64, b"\xb1" * 64)
    mssd.tx_commit(ta)
    after = crash_clone(mssd)
    report = after.recover()
    assert report.entries_discarded == 1
    page = after.block_read(0)
    assert page[:64] == b"\xa1" * 64
    assert page[64:128] == bytes(64)


def test_recover_empty_log_is_noop(mssd):
    after = crash_clone(mssd)
    report = after.recover()
    assert (report.entries_scanned, report.entries_flushed) == (0, 0)


def test_recover_is_idempotent(mssd):
    txid = mssd.tx_begin()
    mssd.tx_write(txid, 0, b"\xcc" * 64)
    mssd.tx_commit(txid)
    after = crash_clone(mssd)
    after.recover()
    state1 = after.block_read(0)
    report2 = after.recover()
    assert report2.entries_scanned == 0
    assert after.block_read(0) == state1


def test_recover_honors_txlog_commit_order(mssd):
    t1 = mssd.tx_begin()
    mssd.tx_write(t1, 0, b"\x01" * 64)
    mssd.tx_commit(t1)
    t2 = mssd.tx_begin()
    mssd.tx_write(t2, 0, b"\x02" * 64)
    mssd.tx_commit(t2)
    after = crash_clone(mssd)
    after.recover()
    assert after.block_read(0)[:64] == b"\x02" * 64


def _flash_state(mssd):
    dev = mssd.device
    return ({ppa: bytes(page) for ppa, page in dev.pages.items()},
            dict(dev.ftl.lpa_to_ppa), mssd.writelog.active_gen.gen_id)


def test_recovery_is_a_clean_of_a_device_with_no_open_transaction(mssd):
    mssd.byte_write(0, b"\x01" * 100)                      # plain writes
    mssd.byte_write(4096 + 10, b"\x02" * 70)
    committed = mssd.tx_begin()
    mssd.tx_write(committed, 8192, b"\x03" * 200)
    mssd.tx_write(committed, 64, b"\x04" * 64)
    aborted = mssd.tx_begin()
    mssd.tx_write(aborted, 12288, b"\x05" * 64)
    open_tx = mssd.tx_begin()
    mssd.tx_write(open_tx, 16384, b"\x06" * 128)
    mssd.tx_commit(committed)
    mssd.tx_abort(aborted)
    mssd.byte_write(20480, b"\x07" * 64)
    mssd.block_write(5, b"\x08" * 4096)                   # supersedes 20480
    recovered, cleaned = crash_clone(mssd), crash_clone(mssd)
    scanned = recovered.writelog.active_gen.tail_slots
    report = recovered.recover()
    clean_report = cleaned.clean()
    assert _flash_state(recovered) == _flash_state(cleaned)
    assert recovered.writelog.active_gen.gen_id == 1
    assert recovered.clock_ns == cleaned.clock_ns
    assert recovered.txlog.entries == cleaned.txlog.entries == []
    # 2 + 2 plain entries and the committed transaction's 4 + 1
    assert report.entries_flushed == clean_report.entries_flushed == 9
    assert (report.entries_scanned, clean_report.entries_migrated) \
        == (scanned, 0)
    assert recovered.block_read(2)[:256] == b"\x03" * 200 + bytes(56)
    assert recovered.block_read(3) == recovered.block_read(4) == bytes(4096)
    assert recovered.block_read(5) == b"\x08" * 4096


def test_random_crash_points_match_committed_prefix_oracle():
    # scripted workload: each tx writes its id to a distinct cacheline
    for crash_at in range(0, 20, 3):
        mssd = Mssd(small_config())
        committed = []
        for i in range(20):
            if i == crash_at:
                break
            txid = mssd.tx_begin()
            mssd.tx_write(txid, i * 64, bytes([i + 1]) * 64)
            if i % 3 != 2:  # leave every third uncommitted
                mssd.tx_commit(txid)
                committed.append(i)
        after = crash_clone(mssd)
        after.recover()
        page = after.block_read(0)
        for i in range(20):
            expect = bytes([i + 1]) * 64 if i in committed else bytes(64)
            assert page[i * 64:(i + 1) * 64] == expect


def _reference_recovery(crashed) -> tuple[dict[int, bytes], int]:
    """Recovered pages, and the number of entries replayed, from replaying
    the committed entries of a crashed device one at a time, in commit
    order, onto its flash pages."""
    dev = crashed.device
    pages = {lpa: bytearray(dev.pages.get(ppa, bytes(4096)))
             for lpa, ppa in dev.ftl.lpa_to_ppa.items()}
    stamps = dict(zip(crashed.txlog.txids, crashed.txlog.stamps))
    gen = crashed.writelog.active_gen
    replay = []
    for slot, row in enumerate(gen.entries.tolist()):
        lpa, off, length, flags, _cat, txid, seq = row
        if flags & FLAG_INVALID:
            continue
        if flags & FLAG_COMMITTED_AT_WRITE:
            key = seq
        elif txid in stamps:
            key = stamps[txid]
        else:
            continue
        replay.append((key, seq, lpa, off, gen.buf[slot * 64:slot * 64 + length]))
    for _key, _seq, lpa, off, data in sorted(replay):
        page = pages.setdefault(lpa, bytearray(4096))
        page[off * 64:off * 64 + len(data)] = data
    return {lpa: bytes(page) for lpa, page in pages.items()}, len(replay)


def test_recovery_matches_reference_merge():
    import random

    rng = random.Random(1)
    mssd = Mssd(small_config())
    writers = {}  # cacheline -> kinds of writes since its page's last block write
    open_txs = {}  # txid -> addresses written, for up to three at once
    for _ in range(300):
        addr = rng.randrange(0, 256) * 64   # four pages: many collisions
        data = bytes([rng.randrange(1, 255)]) * rng.choice((13, 32, 64))
        r = rng.random()
        if r < 0.01:
            lpa = addr // 4096
            mssd.block_write(lpa, bytes([rng.randrange(256)]) * 4096)
            for cl in range(lpa * 64, lpa * 64 + 64):
                writers.pop(cl * 64, None)
            continue
        if r < 0.4:
            mssd.byte_write(addr, data)
            writers.setdefault(addr, set()).add("plain")
            continue
        if not open_txs or (len(open_txs) < 3 and rng.random() < 0.5):
            open_txs[mssd.tx_begin()] = set()
        t = rng.choice(list(open_txs))
        try:
            mssd.tx_write(t, addr, data)
        except TxAborted:
            del open_txs[t]
            continue
        open_txs[t].add(addr)
        if rng.random() < 0.5:
            # finish any open transaction, not only the oldest
            t = rng.choice(list(open_txs))
            written = open_txs.pop(t)
            if rng.random() < 0.85:
                mssd.tx_commit(t)
                for a in written:
                    writers.setdefault(a, set()).add("tx")
            else:
                mssd.tx_abort(t)
    # the mix interleaves tx and non-tx writes on the same cachelines
    assert sum(kinds == {"plain", "tx"} for kinds in writers.values()) > 10
    # commits out of append order: the keys are not sorted in slot order
    visible, key = mssd.writelog.visibility()
    assert (np.diff(key[visible & (key < ACTIVE_KEY)]) < 0).any()

    after = crash_clone(mssd)
    want, flushed = _reference_recovery(crash_clone(mssd))
    report = after.recover()
    assert report.entries_scanned == mssd.writelog.active_gen.tail_slots
    assert report.entries_flushed == flushed
    assert report.entries_discarded == report.entries_scanned - flushed
    for lpa in range(4):
        assert after.device.read_lpa(lpa) == want.get(lpa, bytes(4096))


def test_recover_orders_plain_write_after_earlier_commit():
    mssd = Mssd(small_config())
    t = mssd.tx_begin()
    mssd.tx_write(t, 0, b"\x01" * 64)
    mssd.tx_commit(t)
    mssd.byte_write(0, b"\x02" * 64)
    assert mssd.byte_read(0, 64) == b"\x02" * 64
    after = crash_clone(mssd)
    after.recover()
    assert after.byte_read(0, 64) == b"\x02" * 64


def test_power_cut_inside_clean_keeps_committed_pages():
    class PowerCut(Exception):
        pass

    mssd = Mssd(small_config(write_buffer_bytes=4096))
    for lpa in range(4):
        mssd.byte_write(lpa * 4096, bytes([lpa + 1]) * 64)
    clone = crash_clone(mssd)
    write_pages = clone.device.write_pages
    batches = []

    def cut_after_first_batch(requests):
        batches.append(requests)
        if len(batches) > 1:
            raise PowerCut
        write_pages(requests)

    clone.device.write_pages = cut_after_first_batch
    with pytest.raises(PowerCut):
        clone.clean()
    after = crash_clone(clone)
    after.recover()
    for lpa in range(4):
        assert after.byte_read(lpa * 4096, 64) == bytes([lpa + 1]) * 64
