import pytest

from bytefs.device import DeviceConfig, KiB, MiB

from shadow import ShadowMssd


def small_config(**overrides) -> DeviceConfig:
    params = dict(
        capacity_bytes=8 * MiB,
        page_size=4096,
        channel_count=8,
        log_region_bytes=64 * KiB,
        txlog_bytes=1 * KiB,
        write_buffer_bytes=16 * KiB,
    )
    params.update(overrides)
    return DeviceConfig(**params)


@pytest.fixture
def mssd():
    return ShadowMssd(small_config())
