import pytest
from hypothesis import given, strategies as st

from bytefs import bench
from bytefs.device import (
    CACHELINE, CATEGORIES, DeviceConfig, FlashDevice, GiB, KiB, MiB, spans,
)
from bytefs.errors import (
    AddressFault, InvalidArgument, SpaceExhausted, TxAborted,
)
from bytefs.mssd import Mssd

from conftest import small_config
from shadow import ShadowMssd


def make_device(**overrides):
    return FlashDevice(small_config(**overrides))


def test_flash_read_advances_clock_by_read_latency():
    dev = make_device()
    dev.flash_read_page(0)
    assert dev.clock.now_ns == 40_000


def test_freshly_formatted_page_reads_zero():
    dev = make_device()
    assert dev.flash_read_page(0) == bytes(4096)


def test_batch_reads_on_distinct_channels_overlap():
    dev = make_device()
    # PPAs 0 and 1 live on different channels (ppa mod channel_count)
    dev.read_pages([(0, "untagged"), (1, "untagged")])
    assert dev.clock.now_ns == 40_000


def test_batch_reads_on_same_channel_serialize():
    dev = make_device()
    dev.read_pages([(0, "untagged"), (8, "untagged")])
    assert dev.clock.now_ns == 80_000


def test_flash_write_advances_clock_by_write_latency():
    dev = make_device()
    dev.flash_write_page(0, bytes(4096))
    assert dev.clock.now_ns == 60_000


def test_write_then_read_roundtrip():
    dev = make_device()
    data = bytes(range(256)) * 16
    dev.flash_write_page(3, data)
    assert dev.flash_read_page(3) == data


def test_eight_channel_batch_write_takes_one_write_latency():
    dev = make_device()
    dev.write_pages([(ppa, bytes(4096), "untagged") for ppa in range(8)])
    assert dev.clock.now_ns == 60_000


def test_wrong_size_write_rejected():
    dev = make_device()
    with pytest.raises(InvalidArgument):
        dev.flash_write_page(0, b"short")


def test_batch_with_unknown_category_stores_no_page():
    dev = make_device()
    with pytest.raises(InvalidArgument):
        dev.write_pages([(0, bytes(4096), "data"), (1, bytes(4096), "bogus")])
    assert dev.pages == {}
    assert dev.clock.now_ns == 0
    assert dev.traffic.flash_write_bytes == 0


@pytest.mark.parametrize("bad, error", [((1, "bogus"), InvalidArgument),
                                        ((-1, "data"), AddressFault)],
                         ids=["category", "ppa"])
def test_refused_batch_read_charges_nothing(bad, error):
    dev = make_device()
    with pytest.raises(error):
        dev.read_pages([(0, "data"), bad])
    assert dev.clock.now_ns == 0
    assert dev.traffic.flash_read_bytes == 0


def test_out_of_range_ppa_faults():
    dev = make_device()
    with pytest.raises(AddressFault):
        dev.flash_read_page(dev.config.phys_page_count)


def test_ftl_translate_is_stable():
    dev = make_device()
    assert dev.ftl_translate(5) == dev.ftl_translate(5)


def test_ftl_translate_bounds():
    dev = make_device()
    with pytest.raises(AddressFault):
        dev.ftl_translate(dev.config.page_count)


def test_all_lpas_translate_to_distinct_ppas():
    dev = make_device()
    ppas = {dev.ftl_translate(lpa) for lpa in range(dev.config.page_count)}
    assert len(ppas) == dev.config.page_count


def test_default_capacity_page_count():
    cfg = DeviceConfig()
    assert cfg.capacity_bytes == 32 * GiB
    assert cfg.page_count == 8_388_608


def test_device_full_raises_space_exhausted():
    dev = FlashDevice(small_config(capacity_bytes=64 * 4096))
    for lpa in range(dev.config.page_count):
        dev.ftl_translate(lpa)
    # burn through over-provisioned headroom too
    with pytest.raises(SpaceExhausted):
        for _ in range(dev.config.phys_page_count):
            dev.ftl.allocate_ppa()


def test_traffic_snapshot_copies_and_categorizes():
    dev = make_device()
    dev.flash_write_page(0, bytes(4096), category="data")
    snap = dev.traffic_snapshot()
    assert snap.by_category["flash_write"]["data"] == 4096
    dev.flash_write_page(1, bytes(4096), category="data")
    assert snap.by_category["flash_write"]["data"] == 4096  # copy, not view


def test_clock_never_decreases():
    dev = make_device()
    last = 0
    for i in range(20):
        dev.flash_read_page(i % 4)
        assert dev.clock.now_ns >= last
        last = dev.clock.now_ns


@pytest.mark.parametrize("field", [
    "flash_read_latency_ns", "flash_write_latency_ns",
    "cacheline_read_latency_ns", "cacheline_write_latency_ns"])
def test_negative_latency_rejected(field):
    cfg = DeviceConfig(capacity_bytes=8 * MiB, log_region_bytes=64 * KiB,
                       **{field: -5})
    with pytest.raises(InvalidArgument, match="latencies"):
        cfg.validate()
    with pytest.raises(InvalidArgument, match="latencies"):
        Mssd(cfg)
    DeviceConfig(capacity_bytes=8 * MiB, **{field: 0}).validate()


def test_negative_latency_in_a_config_file_refused_before_any_access():
    options = bench.parse_config_text("capacity_bytes = 8MiB\n"
                                      "log_region_bytes = 64KiB\n"
                                      "flash_read_latency_ns = -5\n")
    config = bench.split_config(options)[0]
    assert config.flash_read_latency_ns == -5
    with pytest.raises(InvalidArgument, match="latencies"):
        Mssd(config)


def test_invalid_configs_rejected():
    with pytest.raises(InvalidArgument):
        DeviceConfig(capacity_bytes=4096 + 1).validate()
    with pytest.raises(InvalidArgument):
        DeviceConfig(page_size=100).validate()
    with pytest.raises(InvalidArgument):
        DeviceConfig(clean_threshold=0.0).validate()
    with pytest.raises(InvalidArgument):
        DeviceConfig(clean_threshold=1.5).validate()
    with pytest.raises(InvalidArgument, match="log_region_bytes"):
        DeviceConfig(log_region_bytes=100).validate()
    with pytest.raises(InvalidArgument, match="channel_count"):
        DeviceConfig(channel_count=0).validate()
    with pytest.raises(InvalidArgument, match="too small"):
        DeviceConfig(txlog_bytes=3).validate()
    with pytest.raises(InvalidArgument, match="too small"):
        DeviceConfig(write_buffer_bytes=4095).validate()
    # the write log's sidecar holds an LPA in a u4 and a cacheline in a u1
    with pytest.raises(InvalidArgument, match="2\\*\\*32 pages"):
        DeviceConfig(capacity_bytes=2 ** 44 + 4096).validate()
    with pytest.raises(InvalidArgument, match="16 KiB"):
        DeviceConfig(page_size=16384 + CACHELINE,
                     capacity_bytes=(16384 + CACHELINE) * 64).validate()
    # a cacheline number and a log slot rank must pack into 63 bits
    DeviceConfig(capacity_bytes=2 ** 44, log_region_bytes=2 ** 31).validate()
    with pytest.raises(InvalidArgument, match="merge"):
        DeviceConfig(capacity_bytes=2 ** 44,
                     log_region_bytes=2 ** 32).validate()


@pytest.mark.parametrize("page_size, pages", [(4096, 2 ** 32), (16384, 64)])
def test_largest_sidecar_fields_round_trip(page_size, pages):
    # the write log's sidecar holds an LPA in a u4 and a cacheline of its
    # page in a u1: the last cacheline of the last page fits both
    mssd = Mssd(DeviceConfig(capacity_bytes=page_size * pages,
                             page_size=page_size, log_region_bytes=2 ** 20))
    addr = page_size * pages - CACHELINE
    mssd.byte_write(addr, b"\x77" * CACHELINE)
    assert mssd.writelog.active_gen.entries[["lpa", "block_offset"]][0] \
        .tolist() == (pages - 1, page_size // CACHELINE - 1)
    mssd.clean()
    assert mssd.byte_read(addr, CACHELINE) == b"\x77" * CACHELINE


@given(st.integers(0, 10_000), st.integers(0, 3_000),
       st.sampled_from((1, 7, 64, 512, 4096)))
def test_spans_tile_the_range_without_crossing_a_boundary(offset, length,
                                                          size):
    pieces = list(spans(offset, length, size))
    # byte by byte: each address of the range, its unit and offset in it
    want = [divmod(offset + i, size) + (i,) for i in range(length)]
    got = [(unit, off + k, pos + k)
           for unit, off, take, pos in pieces for k in range(take)]
    assert got == want
    for unit, off, take, pos in pieces:
        assert take > 0 and off + take <= size


def _device_state(mssd):
    """Everything a host access may change: clock, traffic, flash and
    FTL, the write log and the shadow oracle, with the writes of its open
    transactions."""
    gen = mssd.writelog.active_gen if mssd.log_enabled else None
    return (mssd.clock_ns, mssd.traffic_snapshot().by_category,
            {ppa: bytes(page) for ppa, page in mssd.device.pages.items()},
            dict(mssd.device.ftl.lpa_to_ppa),
            gen and (gen.gen_id, gen.tail_slots, bytes(gen.buf)),
            {lpa: bytes(page) for lpa, page in mssd.shadow.items()},
            {txid: list(writes) for txid, writes in mssd.shadow_tx.items()})


# each refused before it pads, splits, maps, stores or charges anything;
# the write log checks none of them
REFUSED_ACCESSES = {
    "empty_byte_write": (lambda m: m.byte_write(64, b""), InvalidArgument),
    "empty_read": (lambda m: m.byte_read(64, 0), InvalidArgument),
    "byte_write_out_of_range": (
        lambda m: m.byte_write(m.config.capacity_bytes - 32, b"\x01" * 64),
        AddressFault),
    "byte_read_out_of_range": (lambda m: m.byte_read(-1, 64), AddressFault),
    "short_block_write": (lambda m: m.block_write(5, bytes(100)),
                          InvalidArgument),
    "byte_write_unknown_category": (
        lambda m: m.byte_write(10, b"\x01" * 5, category="bogus"),
        InvalidArgument),
    "block_write_unknown_category": (
        lambda m: m.block_write(5, bytes(4096), category="bogus"),
        InvalidArgument),
    # the write log serves this read, so the clock would move first
    "byte_read_unknown_category": (
        lambda m: m.byte_read(0, 64, category="bogus"), InvalidArgument),
    # LPA 7 is unmapped, so the FTL would map it first
    "block_read_unknown_category": (
        lambda m: m.block_read(7, category="bogus"), InvalidArgument),
    "block_read_out_of_range": (
        lambda m: m.block_read(m.config.page_count), AddressFault),
    # the shadow oracle lands a block write only once the device takes it
    "block_write_out_of_range": (
        lambda m: m.block_write(m.config.page_count, b"\x33" * 4096),
        AddressFault),
    # LPAs 7 and 8 are unmapped, so the FTL would map them first
    "block_read_run_unknown_category": (
        lambda m: m.block_read_run(7, 2, category="bogus"), InvalidArgument),
    "empty_block_read_run": (lambda m: m.block_read_run(7, 0),
                             InvalidArgument),
    "block_read_run_from_the_end": (
        lambda m: m.block_read_run(m.config.page_count, 1), AddressFault),
    # its first two LPAs are in range and unmapped: a run that maps page
    # by page before it checks the end would map them
    "block_read_run_past_the_end": (
        lambda m: m.block_read_run(m.config.page_count - 2, 3), AddressFault),
}


@pytest.mark.parametrize("log_enabled", [True, False],
                         ids=["write_log", "no_write_log"])
@pytest.mark.parametrize("access", REFUSED_ACCESSES)
def test_refused_host_access_changes_nothing(access, log_enabled):
    mssd = ShadowMssd(small_config(), log_enabled=log_enabled)
    mssd.block_write(3, b"\x11" * 4096)
    mssd.byte_write(0, b"\x22" * 100)
    # an open transaction on page 5, which a block write there would drop
    mssd.tx_write(mssd.tx_begin(), 5 * 4096 + 64, b"\x44" * 64)
    before = _device_state(mssd)
    call, error = REFUSED_ACCESSES[access]
    with pytest.raises(error):
        call(mssd)
    assert _device_state(mssd) == before


def _two_devices():
    """Two devices in one state: page 3 written, LPA 9 mapped but never
    written."""
    devs = []
    for _ in range(2):
        dev = FlashDevice(small_config())
        dev.write_lpa(3, b"\x5a" * 4096, "data")
        dev.ftl_translate(9)
        devs.append(dev)
    return devs


def _flash_state(dev):
    return (dev.clock.now_ns, dev.traffic.by_category,
            dict(dev.ftl.lpa_to_ppa), dev.ftl._next_unused)


@pytest.mark.parametrize("lpa", [3, 9, 12], ids=["written", "mapped",
                                               "unmapped"])
def test_read_lpa_charges_what_one_read_pages_request_charges(lpa):
    by_lpa, by_batch = _two_devices()
    got = by_lpa.read_lpa(lpa, "inode")
    want = by_batch.read_pages([(by_batch.ftl_translate(lpa), "inode")])
    assert [got] == want
    assert _flash_state(by_lpa) == _flash_state(by_batch)


RUN_PAGES = 6  # the set-up writes and reads pages 0-5 only

# the set-up steps of one page, in order: a block read (which maps the
# LPA without writing it), a block write, or a byte write at an offset in
# the page (it may run into the next one) that is plain or of a
# transaction that commits, aborts or stays open
_PAGE_STEPS = st.lists(st.tuples(
    st.sampled_from(("read", "block", "plain", "commit", "abort", "open")),
    st.integers(0, 4095), st.integers(1, 300)), max_size=4)


def _set_up_run_device(page_steps, log_enabled):
    mssd = Mssd(small_config(), log_enabled=log_enabled)
    for lpa, steps in enumerate(page_steps):
        for i, (kind, off, size) in enumerate(steps):
            fill = bytes([lpa * 4 + i + 1])
            if kind == "read":
                mssd.block_read(lpa, "bitmap")
            elif kind == "block":
                mssd.block_write(lpa, fill * 4096, "data")
            elif kind == "plain":
                mssd.byte_write(lpa * 4096 + off, fill * size, "inode")
            else:
                txid = mssd.tx_begin()
                try:  # an open transaction may hold one of the lines
                    mssd.tx_write(txid, lpa * 4096 + off, fill * size,
                                  "dentry")
                except TxAborted:
                    continue
                if kind == "commit":
                    mssd.tx_commit(txid)
                elif kind == "abort":
                    mssd.tx_abort(txid)
    return mssd


@pytest.mark.parametrize("log_enabled", [True, False],
                         ids=["write_log", "no_write_log"])
@given(page_steps=st.lists(_PAGE_STEPS, min_size=RUN_PAGES,
                          max_size=RUN_PAGES),
       lpa=st.integers(0, RUN_PAGES + 2), count=st.integers(1, 8),
       category=st.sampled_from(CATEGORIES))
def test_block_read_run_matches_single_block_reads(log_enabled, page_steps,
                                                   lpa, count, category):
    """A run read returns, charges and maps what `count` block reads do,
    over pages with plain, committed, aborted, open and block-written
    entries, mapped and unmapped."""
    by_run = _set_up_run_device(page_steps, log_enabled)
    one_by_one = _set_up_run_device(page_steps, log_enabled)
    got = by_run.block_read_run(lpa, count, category)
    want = [one_by_one.block_read(lpa + i, category) for i in range(count)]
    assert got == want
    assert all(type(page) is bytes for page in got)
    assert _flash_state(by_run.device) == _flash_state(one_by_one.device)
