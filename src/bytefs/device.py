"""Emulated memory-semantic SSD substrate.

Flash array with page-granular access, page-level FTL, a simulated
nanosecond clock, and per-category traffic accounting.  Pages are stored
sparsely; erased flash reads as zeros.  Requests submitted in one batch to
distinct channels overlap fully: elapsed time is the max over channels of
the per-channel serial sums.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .errors import AddressFault, InvalidArgument, SpaceExhausted

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

CACHELINE = 64

# Traffic category tags mirror the file-system data structures that the
# traffic is attributed to.
CATEGORIES = (
    "superblock",
    "bitmap",
    "inode",
    "dentry",
    "data_pointer",
    "data",
    "journal",
    "untagged",
)

# Over-provisioned physical pages beyond logical capacity (1/16).
OVERPROVISION_DIVISOR = 16


def spans(offset: int, length: int, size: int):
    """Split the range [offset, offset + length) at multiples of `size`.
    Yields (unit index, offset in unit, length, offset in range) per piece,
    in address order."""
    pos = 0
    while pos < length:
        unit, off = divmod(offset + pos, size)
        take = min(size - off, length - pos)
        yield unit, off, take, pos
        pos += take


@dataclass
class DeviceConfig:
    capacity_bytes: int = 32 * GiB
    page_size: int = 4096
    channel_count: int = 8
    flash_read_latency_ns: int = 40_000
    flash_write_latency_ns: int = 60_000
    cacheline_read_latency_ns: int = 4_800
    cacheline_write_latency_ns: int = 600
    log_region_bytes: int = 256 * MiB
    txlog_bytes: int = 2 * MiB
    write_buffer_bytes: int = 16 * MiB
    clean_threshold: float = 0.85

    def validate(self) -> None:
        if self.page_size <= 0 or self.page_size % CACHELINE:
            raise InvalidArgument("page_size must be a positive multiple of 64")
        if self.capacity_bytes <= 0 or self.capacity_bytes % self.page_size:
            raise InvalidArgument("capacity_bytes must be a multiple of page_size")
        if self.log_region_bytes <= 0 or self.log_region_bytes % CACHELINE:
            raise InvalidArgument("log_region_bytes must be a multiple of 64")
        if not (0.0 < self.clean_threshold <= 1.0):
            raise InvalidArgument("clean_threshold must be in (0, 1]")
        if self.channel_count <= 0:
            raise InvalidArgument("channel_count must be positive")
        if self.txlog_bytes < 4 or self.write_buffer_bytes < self.page_size:
            raise InvalidArgument("txlog/write buffer too small")

    @property
    def page_count(self) -> int:
        return self.capacity_bytes // self.page_size

    @property
    def phys_page_count(self) -> int:
        return self.page_count + self.page_count // OVERPROVISION_DIVISOR

    @property
    def cachelines_per_page(self) -> int:
        return self.page_size // CACHELINE


class SimClock:
    """Monotonically nondecreasing simulated-nanosecond clock."""

    __slots__ = ("now_ns",)

    def __init__(self, now_ns: int = 0):
        self.now_ns = now_ns

    def advance(self, delta_ns: int) -> None:
        if delta_ns < 0:
            raise InvalidArgument("clock cannot go backward")
        self.now_ns += delta_ns


class TrafficCounters:
    """Byte counters for host<->SSD and SSD<->flash traffic, per category."""

    DIRECTIONS = ("host_to_ssd", "ssd_to_host", "flash_read", "flash_write")

    def __init__(self):
        self.by_category = {
            d: {c: 0 for c in CATEGORIES} for d in self.DIRECTIONS
        }

    def record(self, direction: str, category: str, nbytes: int) -> None:
        if category not in CATEGORIES:
            raise InvalidArgument(f"unknown traffic category {category!r}")
        self.by_category[direction][category] += nbytes

    def total(self, direction: str) -> int:
        return sum(self.by_category[direction].values())

    @property
    def host_to_ssd_bytes(self) -> int:
        return self.total("host_to_ssd")

    @property
    def flash_read_bytes(self) -> int:
        return self.total("flash_read")

    @property
    def flash_write_bytes(self) -> int:
        return self.total("flash_write")

    def snapshot(self) -> "TrafficCounters":
        snap = TrafficCounters()
        snap.by_category = copy.deepcopy(self.by_category)
        return snap

    def delta(self, earlier: "TrafficCounters") -> "TrafficCounters":
        d = TrafficCounters()
        for direction in self.DIRECTIONS:
            for cat in CATEGORIES:
                d.by_category[direction][cat] = (
                    self.by_category[direction][cat]
                    - earlier.by_category[direction][cat]
                )
        return d


class FtlMap:
    """Page-level logical-to-physical mapping.

    Physical pages are handed out from a high-water mark, so no free list
    is materialized for large devices.
    """

    def __init__(self, phys_page_count: int):
        self.phys_page_count = phys_page_count
        self.lpa_to_ppa: dict[int, int] = {}
        self._next_unused = 0

    def allocate_ppa(self) -> int:
        if self._next_unused >= self.phys_page_count:
            raise SpaceExhausted("no free physical pages")
        ppa = self._next_unused
        self._next_unused += 1
        return ppa


class FlashDevice:
    """The flash array plus FTL, clock, and counters.

    Internally serialized: callers observe a total order.  Batch
    submission (read_pages/write_pages) is the only parallelism
    mechanism and feeds the channel-timing rule.
    """

    def __init__(self, config: DeviceConfig | None = None):
        self.config = config or DeviceConfig()
        self.config.validate()
        self.pages: dict[int, bytearray] = {}
        self.ftl = FtlMap(self.config.phys_page_count)
        self.clock = SimClock()
        self.traffic = TrafficCounters()

    # -- address helpers ---------------------------------------------------

    def channel_of(self, ppa: int) -> int:
        return ppa % self.config.channel_count

    def _check_ppa(self, ppa: int) -> None:
        if not (0 <= ppa < self.config.phys_page_count):
            raise AddressFault(f"PPA {ppa} out of range")

    def ftl_translate(self, lpa: int) -> int:
        if not (0 <= lpa < self.config.page_count):
            raise AddressFault(f"LPA {lpa} out of range")
        ppa = self.ftl.lpa_to_ppa.get(lpa)
        if ppa is None:
            ppa = self.ftl.allocate_ppa()
            self.ftl.lpa_to_ppa[lpa] = ppa
        return ppa

    def is_mapped(self, lpa: int) -> bool:
        return lpa in self.ftl.lpa_to_ppa

    # -- page access -------------------------------------------------------

    def _page_bytes(self, ppa: int) -> bytes:
        page = self.pages.get(ppa)
        if page is None:
            return bytes(self.config.page_size)
        return bytes(page)

    def flash_read_page(self, ppa: int, category: str = "untagged") -> bytes:
        return self.read_pages([(ppa, category)])[0]

    def flash_write_page(self, ppa: int, data: bytes, category: str = "untagged") -> None:
        self.write_pages([(ppa, data, category)])

    def read_pages(self, requests: list[tuple[int, str]]) -> list[bytes]:
        """Batch page read; distinct channels overlap fully."""
        per_channel: dict[int, int] = {}
        out = []
        for ppa, category in requests:
            self._check_ppa(ppa)
            out.append(self._page_bytes(ppa))
            self.traffic.record("flash_read", category, self.config.page_size)
            ch = self.channel_of(ppa)
            per_channel[ch] = per_channel.get(ch, 0) + self.config.flash_read_latency_ns
        if per_channel:
            self.clock.advance(max(per_channel.values()))
        return out

    def write_pages(self, requests: list[tuple[int, bytes, str]]) -> None:
        """Batch page write; distinct channels overlap fully."""
        for ppa, data, _ in requests:
            self._check_ppa(ppa)
            if len(data) != self.config.page_size:
                raise InvalidArgument(
                    f"page write must be exactly {self.config.page_size} bytes"
                )
        per_channel: dict[int, int] = {}
        for ppa, data, category in requests:
            self.pages[ppa] = bytearray(data)
            self.traffic.record("flash_write", category, self.config.page_size)
            ch = self.channel_of(ppa)
            per_channel[ch] = per_channel.get(ch, 0) + self.config.flash_write_latency_ns
        if per_channel:
            self.clock.advance(max(per_channel.values()))

    # -- logical-page convenience (translate + access) ---------------------

    def read_lpa(self, lpa: int, category: str = "untagged") -> bytes:
        return self.flash_read_page(self.ftl_translate(lpa), category)

    def write_lpa(self, lpa: int, data: bytes, category: str = "untagged") -> None:
        self.flash_write_page(self.ftl_translate(lpa), data, category)

    def traffic_snapshot(self) -> TrafficCounters:
        return self.traffic.snapshot()
