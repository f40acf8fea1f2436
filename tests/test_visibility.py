"""One visibility rule for the write log: reads, cleaning and recovery show
the same entries in the same order, and the shadow oracle agrees."""

from hypothesis import event, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from bytefs.errors import BackPressure, TxAborted
from bytefs.image import crash_clone
from bytefs.mssd import Mssd
from bytefs.writelog import ACTIVE_KEY, FLAG_COMMITTED_AT_WRITE, FLAG_INVALID

from conftest import small_config
from shadow import ShadowMssd

PAGES = (0, 1)
SLICES = ((0, 256), (70, 100), (0, 13))  # (offset, length) within a page


def reads(block_read, byte_read) -> list[bytes]:
    """Each page whole, and the same byte slices of each page."""
    return [block_read(lpa) for lpa in PAGES] + [
        byte_read(lpa * 4096 + off, n) for lpa in PAGES for off, n in SLICES]


def device_reads(mssd: Mssd) -> list[bytes]:
    return reads(mssd.block_read, mssd.byte_read)


def committed_reads(mssd: ShadowMssd) -> list[bytes]:
    """`reads` of the shadow oracle's committed bytes: no open
    transaction's writes."""
    def read(addr, n):
        lpa, off = divmod(addr, 4096)
        return bytes(mssd.shadow.get(lpa, bytes(4096))[off:off + n])
    return reads(lambda lpa: read(lpa * 4096, 4096), read)


def test_aborted_write_is_never_visible(mssd):
    mssd.byte_write(0, b"\x11" * 64)
    t = mssd.tx_begin()
    mssd.tx_write(t, 0, b"\xaa" * 64)
    assert mssd.byte_read(0, 4) == b"\xaa" * 4   # the writer's own write
    mssd.tx_abort(t)
    assert mssd.byte_read(0, 4) == b"\x11" * 4
    mssd.clean()
    assert mssd.byte_read(0, 4) == b"\x11" * 4
    assert mssd.block_read(0) == mssd.shadow_read(0, 4096)


def test_commit_order_is_read_order(mssd):
    # a transaction's write, a later plain write, then the commit: the
    # transaction wins before the commit, after it, and after a clean
    tb = mssd.tx_begin()
    mssd.tx_write(tb, 0, b"\xb1" * 64)
    mssd.byte_write(0, b"\xc1" * 64)
    assert mssd.byte_read(0, 4) == b"\xb1" * 4
    mssd.tx_commit(tb)
    assert mssd.byte_read(0, 4) == b"\xb1" * 4
    mssd.clean()
    assert mssd.byte_read(0, 4) == b"\xb1" * 4
    assert mssd.block_read(0) == mssd.shadow_read(0, 4096)


def test_padding_holds_no_other_transactions_bytes(mssd):
    # a plain write inside a cacheline that an open transaction wrote is
    # padded with committed bytes, so the abort leaves none of the
    # transaction's bytes behind
    t = mssd.tx_begin()
    mssd.tx_write(t, 0, b"\xaa" * 64)
    mssd.byte_write(10, b"\x22" * 5)
    mssd.tx_abort(t)
    want = bytes(10) + b"\x22" * 5 + bytes(1)
    assert mssd.byte_read(0, 16) == mssd.shadow_read(0, 16) == want
    after = crash_clone(mssd)
    after.recover()
    assert after.byte_read(0, 16) == want
    mssd.clean()
    assert mssd.byte_read(0, 16) == mssd.shadow_read(0, 16) == want


def test_block_write_drops_an_open_transactions_writes_to_its_page(mssd):
    # the rule: a block write to a page supersedes the buffered writes of
    # active transactions to that page, so their commit makes nothing of
    # them durable; the transaction's writes to other pages stay
    t = mssd.tx_begin()
    mssd.tx_write(t, 64, b"\xaa" * 64)
    mssd.tx_write(t, 4096 + 64, b"\xbb" * 64)
    mssd.block_write(0, b"\x33" * 4096)
    assert mssd.byte_read(64, 64) == mssd.shadow_read(64, 64) == b"\x33" * 64
    mssd.tx_commit(t)
    for lpa, want in ((0, b"\x33" * 64), (1, b"\xbb" * 64)):
        assert mssd.byte_read(lpa * 4096 + 64, 64) == want
        assert mssd.shadow_read(lpa * 4096 + 64, 64) == want
    after = crash_clone(mssd)
    after.recover()
    mssd.clean()
    for dev in (after, mssd):
        assert dev.block_read(0) == b"\x33" * 4096
        assert dev.block_read(1) == mssd.shadow_read(4096, 4096)
        assert dev.block_read(1)[64:128] == b"\xbb" * 64


def test_index_lookup_skips_aborted_entries(mssd):
    mssd.byte_write(64, b"\x01" * 64)
    t = mssd.tx_begin()
    mssd.tx_write(t, 128, b"\x02" * 64)
    assert [e.block_offset for e in mssd.writelog.index_lookup(0)] == [1, 2]
    mssd.tx_abort(t)
    assert [e.block_offset for e in mssd.writelog.index_lookup(0)] == [1]


def test_finished_transactions_are_forgotten(mssd):
    committed, aborted, active = (mssd.tx_begin() for _ in range(3))
    mssd.tx_commit(committed)
    mssd.tx_abort(aborted)
    assert mssd.txmgr.active_txids() == {active}
    assert list(mssd.txmgr.table) == [active]


class VisibilityMachine(RuleBasedStateMachine):
    """Byte writes, block writes and transactions on a few cachelines of
    two pages, with a write log of `SLOTS` slots, small enough to clean by
    itself."""

    SLOTS = 32

    def __init__(self):
        super().__init__()
        self.mssd = ShadowMssd(small_config(log_region_bytes=self.SLOTS * 64,
                                            txlog_bytes=8))
        self.active: list[int] = []
        self.tx_lines: dict[int, set[int]] = {}  # cachelines each tx wrote

    writes = st.tuples(
        st.sampled_from(PAGES), st.integers(0, 3),          # page, cacheline
        st.sampled_from([(0, 64), (0, 13), (0, 1), (20, 30),  # start, length
                         (0, 256), (40, 100)]),
        st.integers(1, 255))

    @staticmethod
    def _addr_data(write):
        lpa, cl, (start, length), value = write
        return lpa * 4096 + cl * 64 + start, bytes([value]) * length

    def _byte_write(self, addr, data, txid=0):
        """A plain write (txid 0) or a transaction's, which a full log may
        refuse after it took some of its cachelines: a transaction ends
        with such a write."""
        try:
            if txid:
                self.mssd.tx_write(txid, addr, data)
            else:
                self.mssd.byte_write(addr, data)
        except BackPressure:
            event("BackPressure")
            if txid:
                assert txid not in self.mssd.txmgr.table
                self._end(txid)

    @rule(write=writes)
    def plain_write(self, write):
        self._byte_write(*self._addr_data(write))

    @precondition(lambda self: any(self.tx_lines.values()))
    @rule(pick=st.integers(0, 7), value=st.integers(1, 255))
    def plain_write_into_tx_line(self, pick, value):
        # padded with the bytes before it: never an open transaction's
        lines = sorted(set().union(*self.tx_lines.values()))
        self._byte_write(lines[pick % len(lines)] + 20, bytes([value]) * 30)

    @rule(lpa=st.sampled_from(PAGES), value=st.integers(0, 255))
    def block_write(self, lpa, value):
        self.mssd.block_write(lpa, bytes([value]) * 4096)

    @precondition(lambda self: len(self.active) < 2)
    @rule()
    def begin(self):
        self.active.append(self.mssd.tx_begin())

    @precondition(lambda self: self.active)
    @rule(which=st.integers(0, 1), write=writes)
    def tx_write(self, which, write):
        txid = self.active[which % len(self.active)]
        addr, data = self._addr_data(write)
        try:
            self._byte_write(addr, data, txid)
        except TxAborted:
            self._end(txid)
        if txid in self.active:  # the transaction holds the line
            self.tx_lines.setdefault(txid, set()).add(addr - addr % 64)

    def _end(self, txid):
        self.active.remove(txid)
        self.tx_lines.pop(txid, None)

    @precondition(lambda self: self.active)
    @rule(which=st.integers(0, 1))
    def commit(self, which):
        txid = self.active[which % len(self.active)]
        self._end(txid)
        self.mssd.tx_commit(txid)

    @precondition(lambda self: self.active)
    @rule(which=st.integers(0, 1))
    def abort(self, which):
        txid = self.active[which % len(self.active)]
        self._end(txid)
        self.mssd.tx_abort(txid)

    @rule()
    def clean(self):
        before = device_reads(self.mssd)
        self.mssd.clean()
        assert device_reads(self.mssd) == before

    @rule()
    def crash_and_recover(self):
        # recovery keeps what is committed; open transactions vanish
        after = crash_clone(self.mssd)
        after.recover()
        assert device_reads(after) == committed_reads(self.mssd)

    @invariant()
    def reads_match_shadow(self):
        shadow = self.mssd.shadow_read
        assert device_reads(self.mssd) == reads(
            lambda lpa: shadow(lpa * 4096, 4096), shadow)


VisibilityMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
test_visibility_rule_matches_shadow = VisibilityMachine.TestCase


class FullLogVisibilityMachine(VisibilityMachine):
    """The same on a log of 4 slots, which the entries of open
    transactions fill in 15-30% of the examples: the log refuses a
    write, or takes only some of its cachelines."""

    SLOTS = 4


FullLogVisibilityMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=100, deadline=None)
test_visibility_rule_matches_shadow_on_a_full_log = (
    FullLogVisibilityMachine.TestCase)


def reference_visibility(mssd: Mssd) -> list[tuple[bool, int | None]]:
    """`WriteLog.visibility` entry by entry, from the TxLog's index and the
    active set: (visible, key), with key None for a hidden entry."""
    stamps, active = mssd.txlog.index, mssd.txmgr.active_txids()
    entries = mssd.writelog.active_gen.entries.tolist()
    out = []
    for _, _, _, flags, _, txid, seq in entries:
        if flags & FLAG_INVALID:
            out.append((False, None))
        elif flags & FLAG_COMMITTED_AT_WRITE:
            out.append((True, seq))
        elif txid in stamps:
            out.append((True, stamps[txid]))
        elif txid in active:
            out.append((True, ACTIVE_KEY))
        else:
            out.append((False, None))
    return out


def assert_visibility_matches_reference(mssd: Mssd) -> None:
    visible, key = mssd.writelog.visibility()
    got = [(v, k if v else None)
           for v, k in zip(visible.tolist(), key.tolist())]
    assert got == reference_visibility(mssd)


log_ops = st.lists(st.one_of(
    st.tuples(st.just("begin")),
    # a transaction's write: which open one, cacheline, cachelines
    st.tuples(st.just("tx_write"), st.integers(0, 3), st.integers(0, 15),
              st.integers(1, 3)),
    # a run of plain writes: first cacheline, writes
    st.tuples(st.just("plain"), st.integers(0, 15), st.integers(1, 4)),
    st.tuples(st.just("commit"), st.integers(0, 3)),
    st.tuples(st.just("abort"), st.integers(0, 3)),
    st.tuples(st.just("block_write"), st.integers(0, 1)),
), min_size=20, max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops=log_ops, slots=st.sampled_from((48, 512)))
def test_visibility_matches_per_entry_reference(ops, slots):
    """Interleaved transactions, commits out of begin order, aborts, runs
    of plain writes and block writes that invalidate entries, on a log
    that cleans by itself (48 slots) or never (512); and the same on a
    crash clone, where no transaction is active and the TxLog's index is
    built from its arrays."""
    mssd = Mssd(small_config(log_region_bytes=slots * 64, txlog_bytes=32))
    open_tx: list[int] = []

    def pick(which):
        return open_tx[which % len(open_tx)]

    for op, *args in ops:
        try:
            if op == "begin":
                open_tx.append(mssd.tx_begin())
            elif op == "tx_write" and open_tx:
                which, line, n = args
                txid = pick(which)
                mssd.tx_write(txid, line * 256, bytes([txid]) * (64 * n))
            elif op == "plain":
                line, n = args
                for i in range(n):
                    mssd.byte_write((line + i) * 256, b"\x01" * 64)
            elif op == "commit" and open_tx:
                txid = pick(args[0])
                open_tx.remove(txid)
                mssd.tx_commit(txid)
            elif op == "abort" and open_tx:
                txid = pick(args[0])
                open_tx.remove(txid)
                mssd.tx_abort(txid)
            elif op == "block_write":
                mssd.block_write(args[0], b"\x02" * 4096)
        except (TxAborted, BackPressure):
            open_tx = [t for t in open_tx if t in mssd.txmgr.table]
        assert_visibility_matches_reference(mssd)
    entries = mssd.writelog.active_gen.entries
    event(f"{entries.size // 16 * 16}+ entries, "
          f"{len(set(entries['txid'].tolist()))} txids")
    clone = crash_clone(mssd)
    assert clone.txmgr.active_txids() == set()
    assert_visibility_matches_reference(clone)
