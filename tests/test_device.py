import pytest
from hypothesis import given, strategies as st

from bytefs.device import DeviceConfig, FlashDevice, GiB, spans
from bytefs.errors import AddressFault, InvalidArgument, SpaceExhausted

from conftest import small_config


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


def test_invalid_configs_rejected():
    with pytest.raises(InvalidArgument):
        DeviceConfig(capacity_bytes=4096 + 1).validate()
    with pytest.raises(InvalidArgument):
        DeviceConfig(page_size=100).validate()
    with pytest.raises(InvalidArgument):
        DeviceConfig(clean_threshold=0.0).validate()
    with pytest.raises(InvalidArgument):
        DeviceConfig(clean_threshold=1.5).validate()


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
