"""Benchmark and trace harness.

Workloads are generated as deterministic per-thread operation streams and
interleaved round-robin, so a (profile, seed) pair always produces the
same trace regardless of host scheduling.  Reports carry the full traffic
breakdown per category and direction, in both a human table and
machine-readable ``section.key value`` lines.

Each stream draws its integers through ``_below`` over its own bound
``getrandbits``: ``randrange(a, b)`` is ``a + _below(bits, b - a)`` and
``choice(seq)`` is ``seq[_below(bits, len(seq))]``.  ``_below`` makes
the draws CPython's ``randrange`` and ``choice`` make, so the traces are
the same as when the generators called those, and they no longer depend
on how a Python release implements them.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .device import (
    CATEGORIES, DeviceConfig, GiB, KiB, MiB, TrafficCounters,
)
from .errors import InvalidArgument
from .fs import (
    DEFAULT_CACHE_BYTES, JOURNAL_MODES, MODES, ByteFS, make_mssd, mkfs,
    recover_fs,
)
from .image import crash_clone
from .layout import ITYPE_DIR

PROFILES = ("create", "delete", "mkdir", "rmdir", "varmail", "fileserver",
            "webproxy", "webserver", "oltp", "kvstore")

DEFAULT_THREADS = 4
DEFAULT_OPS = 2000


# ---------------------------------------------------------------------------
# trace records


@dataclass(slots=True)
class TraceRecord:
    op: str
    path: str
    offset: int = 0
    size: int = 0
    fsync: bool = False

    def format(self) -> str:
        line = f"{self.op} {self.path} {self.offset} {self.size}"
        if self.fsync:
            line += " F"
        return line

    @classmethod
    def parse(cls, line: str) -> "TraceRecord":
        parts = line.split()
        if len(parts) < 4:
            raise InvalidArgument(f"bad trace line: {line!r}")
        op, path, offset, size = parts[:4]
        fsync = len(parts) > 4 and parts[4] == "F"
        if op not in ("create", "mkdir", "unlink", "rmdir", "write", "read",
                      "fsync"):
            raise InvalidArgument(f"unknown trace op {op!r}")
        return cls(op, path, int(offset), int(size), fsync)


def write_trace(records: list[TraceRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.format() + "\n")


def read_trace(path) -> list[TraceRecord]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(TraceRecord.parse(line))
    return out


def _pattern(path: str, offset: int, size: int) -> bytes:
    """Deterministic payload so a replayed trace reproduces content."""
    seed = hashlib.blake2b(f"{path}:{offset}".encode(),
                           digest_size=8).digest()
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


# ---------------------------------------------------------------------------
# workload generation


@dataclass
class WorkloadSpec:
    profile: str
    seed: int = 0
    ops: int = DEFAULT_OPS
    threads: int = DEFAULT_THREADS
    io_size: int = 4 * KiB
    file_size: int = 32 * KiB

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise InvalidArgument(f"unknown profile {self.profile!r}")
        if self.threads < 1 or self.io_size < 1:
            raise InvalidArgument("threads and io_size must be at least 1")
        if self.ops < 0:
            raise InvalidArgument(f"ops {self.ops} is below 0")
        # thread t draws from the stream seeded (seed << 8) | t
        if self.threads > 256:
            raise InvalidArgument(f"threads {self.threads} is above 256, "
                                  f"the most with a stream each")
        # oltp updates below file_size - 512, fileserver whole io_size units
        least = {"oltp": 513, "fileserver": self.io_size}.get(self.profile, 1)
        if self.file_size < least:
            raise InvalidArgument(f"file_size {self.file_size} is below "
                                  f"{least}, the least {self.profile} uses")


def _below(bits, n: int) -> int:
    """A uniform draw from ``range(n)`` through ``bits``, a bound
    ``Random.getrandbits``: CPython's ``_randbelow_with_getrandbits``,
    which ``randrange`` and ``choice`` call.

    n must be at least 1: ``bits(0)`` is always 0, so with n = 0 the loop
    never ends.  A generator draws from ``live`` only when ``not live`` is
    false, and ``WorkloadSpec`` keeps ``file_size >= io_size`` for
    fileserver and ``file_size > 512`` for oltp; every other bound is a
    positive constant."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _gen_namespace(op: str, undo: str | None, tid: int,
                   rng: random.Random, spec: WorkloadSpec):
    """Repeat `op` on fresh names in a per-thread directory, each followed
    by `undo` of the same name when given."""
    yield TraceRecord("mkdir", f"/t{tid}")
    prefix = "d" if op == "mkdir" else "f"
    for i in itertools.count():
        path = f"/t{tid}/{prefix}{i:06d}"
        yield TraceRecord(op, path)
        if undo:
            yield TraceRecord(undo, path)


def _gen_varmail(tid: int, rng: random.Random, spec: WorkloadSpec):
    """Mail-server pattern: create, append, fsync, read, delete."""
    bits = rng.getrandbits
    yield TraceRecord("mkdir", f"/t{tid}")
    live: list[str] = []
    i = 0
    while True:
        roll = rng.random()
        if roll < 0.35 or not live:
            path = f"/t{tid}/m{i:06d}"
            i += 1
            size = 256 + _below(bits, 4 * KiB - 256)
            yield TraceRecord("create", path)
            yield TraceRecord("write", path, 0, size, True)
            live.append(path)
        elif roll < 0.60:
            path = live[_below(bits, len(live))]
            size = 128 + _below(bits, 2 * KiB - 128)
            yield TraceRecord("write", path, 0, size, True)
        elif roll < 0.85:
            path = live[_below(bits, len(live))]
            yield TraceRecord("read", path, 0, 4 * KiB)
        else:
            path = live.pop(_below(bits, len(live)))
            yield TraceRecord("unlink", path)


def _gen_fileserver(tid: int, rng: random.Random, spec: WorkloadSpec):
    bits = rng.getrandbits
    yield TraceRecord("mkdir", f"/t{tid}")
    live: list[str] = []
    i = 0
    units = spec.file_size // spec.io_size
    while True:
        roll = rng.random()
        if roll < 0.30 or not live:
            path = f"/t{tid}/f{i:06d}"
            i += 1
            yield TraceRecord("create", path)
            for off in range(0, spec.file_size, spec.io_size):
                yield TraceRecord("write", path, off, spec.io_size)
            yield TraceRecord("fsync", path, 0, 0)
            live.append(path)
        elif roll < 0.55:
            path = live[_below(bits, len(live))]
            off = _below(bits, units) * spec.io_size
            yield TraceRecord("write", path, off, spec.io_size, True)
        elif roll < 0.90:
            path = live[_below(bits, len(live))]
            yield TraceRecord("read", path, 0, spec.file_size)
        else:
            path = live.pop(_below(bits, len(live)))
            yield TraceRecord("unlink", path)


def _gen_webproxy(tid: int, rng: random.Random, spec: WorkloadSpec):
    """Proxy cache: create-once objects, read-heavy afterwards."""
    bits = rng.getrandbits
    yield TraceRecord("mkdir", f"/t{tid}")
    live: list[str] = []
    i = 0
    while True:
        if rng.random() < 0.2 or not live:
            path = f"/t{tid}/o{i:06d}"
            i += 1
            size = 1 * KiB + _below(bits, 16 * KiB - 1 * KiB)
            yield TraceRecord("create", path)
            yield TraceRecord("write", path, 0, size, True)
            live.append((path, size))
        else:
            path, size = live[_below(bits, len(live))]
            yield TraceRecord("read", path, 0, size)


def _gen_webserver(tid: int, rng: random.Random, spec: WorkloadSpec):
    """Static content reads plus a small append-only access log."""
    bits = rng.getrandbits
    yield TraceRecord("mkdir", f"/t{tid}")
    pages = [f"/t{tid}/p{i:03d}" for i in range(20)]
    for path in pages:
        yield TraceRecord("create", path)
        yield TraceRecord("write", path, 0, 8 * KiB, True)
    log = f"/t{tid}/access.log"
    yield TraceRecord("create", log)
    log_off = 0
    while True:
        for _ in range(10):
            path = pages[_below(bits, len(pages))]
            yield TraceRecord("read", path, 0, 8 * KiB)
        yield TraceRecord("write", log, log_off, 128, True)
        log_off += 128


def _gen_oltp(tid: int, rng: random.Random, spec: WorkloadSpec):
    """Database pattern: WAL append + small in-place update, fsync both."""
    bits = rng.getrandbits
    yield TraceRecord("mkdir", f"/t{tid}")
    table = f"/t{tid}/table.db"
    wal = f"/t{tid}/wal.log"
    yield TraceRecord("create", table)
    yield TraceRecord("create", wal)
    for off in range(0, spec.file_size, spec.io_size):
        yield TraceRecord("write", table, off, spec.io_size)
    yield TraceRecord("fsync", table, 0, 0)
    span = spec.file_size - 512
    sizes = (64, 128, 256)
    wal_off = 0
    while True:
        yield TraceRecord("write", wal, wal_off, 128, True)
        wal_off += 128
        off = _below(bits, span)
        size = sizes[_below(bits, len(sizes))]
        yield TraceRecord("write", table, off, size, True)


def _gen_kvstore(tid: int, rng: random.Random, spec: WorkloadSpec):
    """Key-value store: fixed-size slots, read-modify-write per update."""
    bits = rng.getrandbits
    yield TraceRecord("mkdir", f"/t{tid}")
    store = f"/t{tid}/store.kv"
    slots = max(16, spec.file_size // 256)
    yield TraceRecord("create", store)
    for off in range(0, slots * 256, spec.io_size):
        yield TraceRecord("write", store, off, spec.io_size)
    yield TraceRecord("fsync", store, 0, 0)
    while True:
        slot = _below(bits, slots)
        if rng.random() < 0.4:
            yield TraceRecord("read", store, slot * 256, 256)
        else:
            yield TraceRecord("write", store, slot * 256, 128, True)


_GENERATORS = {
    "create": partial(_gen_namespace, "create", None),
    "delete": partial(_gen_namespace, "create", "unlink"),
    "mkdir": partial(_gen_namespace, "mkdir", None),
    "rmdir": partial(_gen_namespace, "mkdir", "rmdir"),
    "varmail": _gen_varmail,
    "fileserver": _gen_fileserver, "webproxy": _gen_webproxy,
    "webserver": _gen_webserver, "oltp": _gen_oltp, "kvstore": _gen_kvstore,
}


def build_workload(spec: WorkloadSpec) -> list[TraceRecord]:
    """Interleave the per-thread streams round-robin into one trace."""
    gen = _GENERATORS[spec.profile]
    streams = [gen(t, random.Random((spec.seed << 8) | t), spec)
               for t in range(spec.threads)]
    rounds, rest = divmod(spec.ops, spec.threads)
    records = list(itertools.chain.from_iterable(
        itertools.islice(zip(*streams), rounds)))
    records += [next(stream) for stream in streams[:rest]]
    return records


# ---------------------------------------------------------------------------
# execution


def apply_record(fs: ByteFS, rec: TraceRecord, fds: dict[str, int]) -> None:
    if rec.op == "create":
        fs.create(rec.path)
    elif rec.op == "mkdir":
        fs.mkdir(rec.path)
    elif rec.op == "unlink":
        fd = fds.pop(rec.path, None)
        if fd is not None:
            fs.close(fd)
        fs.unlink(rec.path)
    elif rec.op == "rmdir":
        fs.rmdir(rec.path)
    elif rec.op == "write":
        fd = _fd(fs, fds, rec.path)
        fs.write(fd, rec.offset, _pattern(rec.path, rec.offset, rec.size))
        if rec.fsync:
            fs.fsync(fd)
    elif rec.op == "read":
        fs.read(_fd(fs, fds, rec.path), rec.offset, rec.size)
    elif rec.op == "fsync":
        fs.fsync(_fd(fs, fds, rec.path))
    else:
        raise InvalidArgument(f"unknown trace op {rec.op!r}")


def _fd(fs: ByteFS, fds: dict[str, int], path: str) -> int:
    fd = fds.get(path)
    if fd is None:
        fd = fds[path] = fs.open(path)
    return fd


@dataclass
class RunReport:
    profile: str
    mode: str
    journal: str
    seed: int
    ops: int
    sim_ns: int
    wall_s: float
    traffic: dict = field(default_factory=dict)
    log_utilization: float = 0.0
    fsck_problems: int = 0

    def emit(self) -> str:
        lines = [
            f"run.profile {self.profile}",
            f"run.mode {self.mode}",
            f"run.journal {self.journal}",
            f"run.seed {self.seed}",
            f"run.ops {self.ops}",
            f"run.sim_ns {self.sim_ns}",
            f"run.wall_s {self.wall_s:.3f}",
            f"run.log_utilization {self.log_utilization:.4f}",
            f"run.fsck_problems {self.fsck_problems}",
        ]
        for d in TrafficCounters.DIRECTIONS:
            lines.append(f"traffic.{d}.total {sum(self.traffic[d].values())}")
            for cat in CATEGORIES:
                lines.append(f"traffic.{d}.{cat} {self.traffic[d][cat]}")
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        head = (f"profile={self.profile} mode={self.mode} "
                f"journal={self.journal} seed={self.seed} ops={self.ops}")
        rows = [head,
                f"sim time: {self.sim_ns / 1e6:.3f} ms   "
                f"wall: {self.wall_s:.3f} s   "
                f"log utilization: {self.log_utilization:.1%}"]
        width = max(len(c) for c in CATEGORIES)
        header = "category".ljust(width) + "".join(
            f"{d:>14}" for d in TrafficCounters.DIRECTIONS)
        rows.append(header)
        for cat in CATEGORIES:
            vals = [self.traffic[d][cat] for d in TrafficCounters.DIRECTIONS]
            if not any(vals):
                continue
            rows.append(cat.ljust(width) + "".join(f"{v:>14}" for v in vals))
        rows.append("total".ljust(width) + "".join(
            f"{sum(self.traffic[d].values()):>14}"
            for d in TrafficCounters.DIRECTIONS))
        return "\n".join(rows) + "\n"


def run(spec: WorkloadSpec, config: DeviceConfig | None = None,
        mode: str = "full", journal: str = "ordered",
        cache_bytes: int | None = None):
    """Format a device, execute the workload, report traffic.
    Returns (fs, report, trace records)."""
    records = build_workload(spec)
    fs = format_and_mount(config, mode, journal, cache_bytes)
    report = replay(fs, records, spec=spec)
    return fs, report, records


def format_and_mount(config: DeviceConfig | None, mode: str, journal: str,
                     cache_bytes: int | None = None) -> ByteFS:
    """A freshly formatted device, mounted; `cache_bytes` None, as `run`
    and `crash_run` pass it by default, is the default page-cache size."""
    mssd = make_mssd(config, mode)
    mkfs(mssd)
    fs = ByteFS(mssd, mode=mode, journal=journal, cache_bytes=(
        DEFAULT_CACHE_BYTES if cache_bytes is None else cache_bytes))
    fs.mount()
    return fs


def replay(fs: ByteFS, records: list[TraceRecord],
           spec: WorkloadSpec | None = None) -> RunReport:
    before = fs.mssd.traffic_snapshot()
    sim_start = fs.mssd.clock_ns
    wall_start = time.monotonic()
    fds: dict[str, int] = {}
    for rec in records:
        apply_record(fs, rec, fds)
    for fd in fds.values():
        fs.close(fd)
    wall = time.monotonic() - wall_start
    delta = fs.mssd.traffic_snapshot().delta(before)
    problems = fs.fsck()
    return RunReport(
        profile=spec.profile if spec else "trace",
        mode=fs.mode, journal=fs.journal_mode,
        seed=spec.seed if spec else 0,
        ops=len(records),
        sim_ns=fs.mssd.clock_ns - sim_start,
        wall_s=wall,
        traffic={d: dict(delta.by_category[d])
                 for d in TrafficCounters.DIRECTIONS},
        log_utilization=fs.mssd.utilization(),
        fsck_problems=len(problems),
    )


# ---------------------------------------------------------------------------
# crash runs


@dataclass
class CrashVerdict:
    crash_at: int
    ok: bool
    missing: list[str] = field(default_factory=list)
    corrupt: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)
    fsck_problems: list[str] = field(default_factory=list)

    def emit(self) -> str:
        lines = [f"crash.at {self.crash_at}",
                 f"crash.ok {int(self.ok)}",
                 f"crash.missing {len(self.missing)}",
                 f"crash.corrupt {len(self.corrupt)}",
                 f"crash.unexpected {len(self.unexpected)}",
                 f"crash.fsck_problems {len(self.fsck_problems)}"]
        return "\n".join(lines) + "\n"


class DurabilityOracle:
    """Tracks what must survive a crash: every completed namespace
    operation, and file data up to its last fsync.  It keeps the set of
    directories and one record per file, ``[bytes at the last fsync,
    bytes now]``.

    Page-cache eviction may write unsynced data back early, together with
    the file size, so a file may be as long as its last fsync or as long as
    its latest write or anything between, and each byte may hold its synced
    or its latest value; past the synced end, the synced value is a hole's
    zero.

    `check` walks the recovered namespace once, with one `readdir` per
    directory and one `lookup` per path, and takes the missing and the
    unexpected paths and each file's inode from that walk.
    """

    def __init__(self):
        self.dirs: set[str] = set()
        self.files: dict[str, list] = {}  # created: [synced, latest]

    def apply(self, rec: TraceRecord) -> None:
        if rec.op == "mkdir":
            self.dirs.add(rec.path)
        elif rec.op == "rmdir":
            self.dirs.discard(rec.path)
        elif rec.op == "create":
            self.files[rec.path] = [b"", bytearray()]
        elif rec.op == "unlink":
            self.files.pop(rec.path, None)
        elif rec.op in ("write", "fsync") and rec.path in self.files:
            record = self.files[rec.path]
            if rec.op == "write":
                latest = record[1]
                end = rec.offset + rec.size
                if end > len(latest):
                    latest += bytes(end - len(latest))
                latest[rec.offset:end] = _pattern(rec.path, rec.offset,
                                                  rec.size)
            if rec.op == "fsync" or rec.fsync:
                record[0] = bytes(record[1])

    def check(self, fs: ByteFS) -> CrashVerdict:
        tree = {}  # path -> inode, in the order of the walk

        def walk(root: str) -> None:
            for name in fs.readdir(root):
                path = root.rstrip("/") + "/" + name
                inode = tree[path] = fs.lookup(path)
                if inode.itype == ITYPE_DIR:
                    walk(path)

        walk("/")
        expected = self.dirs | self.files.keys()
        verdict = CrashVerdict(crash_at=0, ok=True,
                               missing=sorted(expected - tree.keys()))
        for path, (synced, latest) in sorted(self.files.items()):
            inode = tree.get(path)
            if inode is None:
                continue  # already reported missing
            size = inode.size
            if not len(synced) <= size <= len(latest):
                verdict.corrupt.append(f"{path} size {size} not in "
                                       f"[{len(synced)}, {len(latest)}]")
                continue
            if size:
                fd = fs.open(path)
                got = fs.read(fd, 0, size)
                fs.close(fd)
                new = bytes(latest[:size])
                old = synced.ljust(size, b"\0")  # a hole past the synced end
                if got != new:
                    g, a, b = (np.frombuffer(x, dtype=np.uint8)
                               for x in (got, new, old))
                    if not ((g == a) | (g == b)).all():
                        verdict.corrupt.append(f"{path} content mismatch")
        verdict.unexpected = [p for p in tree if p not in expected]
        verdict.fsck_problems = fs.fsck()
        verdict.ok = not (verdict.missing or verdict.corrupt
                          or verdict.unexpected or verdict.fsck_problems)
        return verdict


def crash_run(spec: WorkloadSpec, crash_at: int,
              config: DeviceConfig | None = None, mode: str = "full",
              journal: str = "ordered",
              cache_bytes: int | None = None) -> CrashVerdict:
    """Execute the workload, crash after ``crash_at`` operations, recover,
    and verify the durability oracle plus fsck."""
    records = build_workload(spec)
    crash_at = min(crash_at, len(records))
    fs = format_and_mount(config, mode, journal, cache_bytes)
    oracle = DurabilityOracle()
    fds: dict[str, int] = {}
    for rec in records[:crash_at]:
        apply_record(fs, rec, fds)
        oracle.apply(rec)
    recovered, _report = recover_fs(crash_clone(fs.mssd), mode=mode,
                                    journal=journal,
                                    cache_bytes=fs.cache_bytes)
    verdict = oracle.check(recovered)
    verdict.crash_at = crash_at
    return verdict


# ---------------------------------------------------------------------------
# mode sweeps


def sweep(spec: WorkloadSpec, config: DeviceConfig | None = None,
          journal: str = "ordered") -> dict[str, RunReport]:
    """Run the same workload in each mount mode for ablation comparisons."""
    return {mode: run(spec, config, mode=mode, journal=journal)[1]
            for mode in MODES}


def sweep_table(reports: dict[str, RunReport]) -> str:
    rows = ["mode".ljust(12) + "".join(
        f"{d:>14}" for d in TrafficCounters.DIRECTIONS) + f"{'sim_ms':>12}"]
    for mode, rep in reports.items():
        rows.append(mode.ljust(12) + "".join(
            f"{sum(rep.traffic[d].values()):>14}"
            for d in TrafficCounters.DIRECTIONS)
            + f"{rep.sim_ns / 1e6:>12.3f}")
    return "\n".join(rows) + "\n"


def sweep_emit(reports: dict[str, RunReport]) -> str:
    out = []
    for mode, rep in reports.items():
        for line in rep.emit().splitlines():
            out.append(f"{mode}.{line}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# config files


_SIZE_SUFFIXES = {"kib": KiB, "mib": MiB, "gib": GiB,
                  "k": KiB, "m": MiB, "g": GiB}

# DeviceConfig field -> the type of its default value
DEVICE_KEYS = {f.name: type(f.default) for f in fields(DeviceConfig)}
FS_KEYS = {"mode", "journal", "cache_bytes"}
WORKLOAD_KEYS = {"profile", "seed", "ops", "threads", "io_size", "file_size"}


def _parse_value(key: str, raw: str):
    if key in ("mode", "journal", "profile"):
        return raw
    if DEVICE_KEYS.get(key) is float:
        return float(raw)
    low = raw.lower()
    for suffix, mult in _SIZE_SUFFIXES.items():
        if low.endswith(suffix):
            return int(float(low[:-len(suffix)]) * mult)
    return int(raw, 0)


def parse_config_text(text: str) -> dict:
    """``key = value`` lines; '#' comments; unknown keys are errors."""
    known = DEVICE_KEYS.keys() | FS_KEYS | WORKLOAD_KEYS
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgument(f"config line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise InvalidArgument(f"config line {lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw)
    if "mode" in out and out["mode"] not in MODES:
        raise InvalidArgument(f"unknown mode {out['mode']!r}")
    if "journal" in out and out["journal"] not in JOURNAL_MODES:
        raise InvalidArgument(f"unknown journal mode {out['journal']!r}")
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read())


def split_config(options: dict):
    """Partition parsed options into device / fs / workload groups."""
    device = {k: v for k, v in options.items() if k in DEVICE_KEYS}
    fs_opts = {k: v for k, v in options.items() if k in FS_KEYS}
    workload = {k: v for k, v in options.items() if k in WORKLOAD_KEYS}
    config = DeviceConfig(**device) if device else None
    return config, fs_opts, workload
