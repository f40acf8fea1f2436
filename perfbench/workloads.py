"""The three workloads and the measured session that each run repeats.

A round is one session as a ``bytefs-bench`` user waits for it: build the
trace, format and mount a fresh device, replay every record, cut power at
evenly spaced points between records (each cut recovers a clone, so the
replay goes on undisturbed), and check the file system after the replay.
The benchmark's own checks run between the timed steps.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

from bytefs import bench, image
from bytefs import fs as fsmod
from bytefs.device import KiB, MiB, DeviceConfig, TrafficCounters
from bytefs.fs import DEFAULT_CACHE_BYTES, ByteFS

import model
from tracer import LAYERS, Tracer

MODE = "full"
SETUP_PROBES = 2      # extra set-ups, so setup_s is a median of 4 or more
MIN_ROUNDS = 2        # a run compares at least two replays of its trace


class PowerCut(Exception):
    """Raised inside a flush to stand for power failing there."""


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    ops: int
    threads: int
    device: dict                 # DeviceConfig overrides; {} is the default
    cache_bytes: int
    cuts: int                    # evenly spaced, the last after all records
    mid_clean: tuple[int, ...] = ()   # 1-based cuts that also cut a clean
    creates: int = 0             # files the trace must create; 0: any

    def spec(self, seed: int) -> bench.WorkloadSpec:
        return bench.WorkloadSpec(self.profile, seed=seed, ops=self.ops,
                                  threads=self.threads)

    def config(self) -> DeviceConfig:
        return DeviceConfig(**self.device)

    def cut_points(self) -> list[int]:
        step = self.ops // self.cuts
        return [step * k for k in range(1, self.cuts)] + [self.ops]

    def trace_seed(self, seed: int) -> int:
        """The workload seed the run replays.  With ``creates``, it is the
        first of ``seed * 1000 + j`` whose trace creates exactly that many
        files, so every seed makes the same number of block allocations."""
        if not self.creates:
            return seed
        for candidate in range(seed * 1000, seed * 1000 + 1000):
            records = bench.build_workload(self.spec(candidate))
            if sum(rec.op == "create" for rec in records) == self.creates:
                return candidate
        raise RuntimeError(f"no trace with {self.creates} creates "
                           f"near seed {seed}")


WORKLOADS = {w.name: w for w in (
    # The default 32 GiB device: costs that grow with capacity (block
    # allocation, fsck, log buffer fill); the write log stays idle.
    Workload(
        "varmail_default", profile="varmail", ops=128, threads=2, device={},
        cache_bytes=DEFAULT_CACHE_BYTES, cuts=1,
        # each create allocates a block; 35 is the commonest count
        creates=35),
    # Small log, TxLog and page cache: log cleaning, eviction, reads
    # overlaid from the log.
    Workload(
        "kvstore_smallcache", profile="kvstore", ops=20000, threads=4,
        device=dict(capacity_bytes=8 * MiB, log_region_bytes=64 * KiB,
                    txlog_bytes=1 * KiB, write_buffer_bytes=16 * KiB),
        cache_bytes=64 * KiB, cuts=20),
    # A log that holds ~55k entries: image save and load, recovery of a
    # well-filled log, power cuts inside a clean.
    Workload(
        "crash_oltp", profile="oltp", ops=20000, threads=4,
        device=dict(capacity_bytes=64 * MiB, log_region_bytes=4 * MiB,
                    write_buffer_bytes=256 * KiB),
        cache_bytes=DEFAULT_CACHE_BYTES, cuts=10, mid_clean=(3, 6, 9)),
)}


# ---------------------------------------------------------------------------
# one round


@dataclass
class Round:
    setup_s: float = 0.0
    replay_s: float = 0.0
    fsck_s: float = 0.0
    cut_s: list[float] = field(default_factory=list)
    mid_clean_s: list[float] = field(default_factory=list)
    sim: tuple = ()
    attempted: int = 0
    failed: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def session_s(self) -> float:
        return (self.setup_s + self.replay_s + self.fsck_s
                + sum(self.cut_s) + sum(self.mid_clean_s))


def set_up(w: Workload, seed: int):
    records = bench.build_workload(w.spec(seed))
    mssd = fsmod.make_mssd(w.config(), MODE)
    fsmod.mkfs(mssd)
    fs = ByteFS(mssd, mode=MODE, cache_bytes=w.cache_bytes)
    fs.mount()
    return records, mssd, fs


def timed_setup(w: Workload, seed: int) -> float:
    gc.collect()
    start = time.perf_counter()
    set_up(w, seed)
    return time.perf_counter() - start


def _recover(w: Workload, crashed) -> ByteFS:
    return fsmod.recover_fs(crashed, mode=MODE,
                            cache_bytes=w.cache_bytes)[0]


def _cut_mid_clean(w: Workload, mssd) -> ByteFS:
    """Power fails on a clone of the device after the first flush batch
    of a log clean."""
    clone = image.crash_clone(mssd)
    write_pages = clone.device.write_pages
    batches = 0

    def cut_after_first_batch(requests):
        nonlocal batches
        batches += 1
        if batches > 1:
            raise PowerCut
        return write_pages(requests)

    clone.device.write_pages = cut_after_first_batch
    try:
        clone.clean()
    except PowerCut:
        pass
    return _recover(w, image.crash_clone(clone))


def _power_cut(rnd: Round, times: list[float], label: str, cut, mdl) -> None:
    """Time ``cut()`` (power loss through a mounted, recovered file
    system), then count it as failed if anything synced did not survive."""
    rnd.attempted += 1
    start = time.perf_counter()
    try:
        recovered = cut()
    except Exception as exc:  # a cut that breaks recovery is a failed cut
        recovered, lost = None, [f"{type(exc).__name__}: {exc}"]
    times.append(time.perf_counter() - start)
    if recovered is not None:
        try:
            lost = model.check_survived(recovered, mdl)
        except Exception as exc:
            lost = [f"{type(exc).__name__}: {exc}"]
    if lost:
        rnd.failed += 1
        rnd.failures.append((label, f"{lost[0]} ({len(lost)} problems)"))
    # a device holds reference cycles: free each clone before the next cut
    recovered = None
    gc.collect()


def sim_problems(delta: TrafficCounters, page_size: int) -> list[str]:
    problems = []
    if delta.host_to_ssd_bytes % 64:
        problems.append("host-to-SSD bytes not a multiple of 64")
    if delta.flash_write_bytes % page_size:
        problems.append("flash write bytes not a multiple of the page size")
    for d in TrafficCounters.DIRECTIONS:
        if sum(delta.by_category[d].values()) != delta.total(d):
            problems.append(f"{d}: categories do not sum to the total")
    return problems


def run_round(w: Workload, seed: int, tracer=None) -> Round:
    rnd = Round()
    gc.collect()
    start = time.perf_counter()
    records, mssd, fs = set_up(w, seed)
    rnd.setup_s = time.perf_counter() - start

    mdl = model.ContentModel()
    fds: dict[str, int] = {}
    clock0, traffic0 = mssd.clock_ns, mssd.traffic_snapshot()
    replay_pages = 0
    done = 0
    for k, point in enumerate(w.cut_points(), 1):
        pages0 = tracer.counts["device.pages_written"] if tracer else 0
        if tracer:
            tracer.sampling = True
        start = time.perf_counter()
        for rec in records[done:point]:
            bench.apply_record(fs, rec, fds)
        if point == len(records):
            for fd in fds.values():
                fs.close(fd)
        rnd.replay_s += time.perf_counter() - start
        if tracer:
            tracer.sampling = False
            replay_pages += tracer.counts["device.pages_written"] - pages0
        rnd.attempted += point - done
        for rec in records[done:point]:
            mdl.apply(rec)
        done = point

        _power_cut(rnd, rnd.cut_s, f"cut after record {point}",
                   lambda: _recover(w, image.crash_clone(mssd)), mdl)
        if k in w.mid_clean:
            _power_cut(rnd, rnd.mid_clean_s,
                       f"cut inside a clean after record {point}",
                       lambda: _cut_mid_clean(w, mssd), mdl)

    delta = mssd.traffic_snapshot().delta(traffic0)
    rnd.sim = (mssd.clock_ns - clock0,
               {d: dict(delta.by_category[d])
                for d in TrafficCounters.DIRECTIONS})
    start = time.perf_counter()
    fsck = fs.fsck()
    rnd.fsck_s = time.perf_counter() - start

    page_size = mssd.config.page_size
    rnd.problems += [f"fsck: {p}" for p in fsck]
    rnd.problems += model.check_live(fs, mdl)
    rnd.problems += sim_problems(delta, page_size)
    if tracer and replay_pages * page_size != delta.flash_write_bytes:
        rnd.problems.append(f"device wrote {replay_pages} pages in the "
                            f"replay, traffic says "
                            f"{delta.flash_write_bytes // page_size}")
    return rnd


# ---------------------------------------------------------------------------
# runs


@dataclass
class RunResult:
    """``attempted``, ``failed`` and ``failures`` are those of one round:
    every round repeats the same operations on a fresh device, so they
    read the same however many rounds fit in a run."""
    trace_seed: int
    rounds: list[Round]
    metrics: dict            # name -> (value, unit)
    problems: list[str]

    @property
    def attempted(self) -> int:
        return self.rounds[0].attempted

    @property
    def failed(self) -> int:
        return self.rounds[0].failed

    @property
    def failures(self) -> list[str]:
        return [f"{label}: {detail}"
                for label, detail in self.rounds[0].failures]


def _sim_metrics(rounds: list[Round]) -> tuple[dict, list[str]]:
    first = rounds[0].sim
    problems = []
    if any(r.sim != first for r in rounds[1:]):
        problems.append("replays of one trace differ in simulated output")
    sim_ns, traffic = first
    return {
        "sim_ns": (sim_ns, "ns"),
        "host_to_ssd_bytes": (sum(traffic["host_to_ssd"].values()), "B"),
        "flash_write_bytes": (sum(traffic["flash_write"].values()), "B"),
    }, problems


def _problems(rounds: list[Round]) -> list[str]:
    problems = [p for r in rounds for p in r.problems]
    failed = [[label for label, _ in r.failures] for r in rounds]
    if any(f != failed[0] for f in failed[1:]):
        problems.append("rounds of one trace fail different operations")
    return problems


def measure(w: Workload, seed: int, seconds: float) -> RunResult:
    """End-to-end metrics: whole rounds until ``seconds`` have passed."""
    tseed = w.trace_seed(seed)
    setups = [timed_setup(w, tseed) for _ in range(SETUP_PROBES)]
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(run_round(w, tseed))
    setups += [r.setup_s for r in rounds]
    cuts = [s for r in rounds for s in r.cut_s]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(rounds) * w.ops / sum(r.replay_s for r in rounds),
                      "1/s"),
        "run_s": (statistics.median(r.session_s for r in rounds), "s"),
        "recover_s": (sum(cuts) / len(cuts), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }
    sim, problems = _sim_metrics(rounds)
    metrics.update(sim)
    return RunResult(tseed, rounds, metrics, _problems(rounds) + problems)


def trace(w: Workload, seed: int) -> RunResult:
    """Per-layer metrics: one untraced round as the base, then one traced
    round."""
    tseed = w.trace_seed(seed)
    base = run_round(w, tseed)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = run_round(w, tseed, tracer)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    rounds = [base, traced]
    _, problems = _sim_metrics(rounds)

    c = tracer.counts
    m = {f"{layer}.self_s": (s, "s")
         for layer, s in tracer.layer_self_s().items()}
    m.update({
        "bench.build_workload_s": (tracer.total_s("bench.build_workload"),
                                   "s"),
        "bench.oracle_check_s": (tracer.total_s("bench.check_live")
                                 + tracer.total_s("bench.check_survived"),
                                 "s"),
        "fs.fsck_s": (tracer.total_s("fs.fsck"), "s"),
        "fs.mount_s": (tracer.total_s("fs.mount"), "s"),
        "pagecache.hits": (c["pagecache.hits"], "count"),
        "pagecache.misses": (c["pagecache.misses"], "count"),
        "pagecache.dirty_evictions": (c["pagecache.dirty_evictions"],
                                      "count"),
        "mssd.init_s": (tracer.total_s("mssd.init"), "s"),
        "mssd.byte_writes": (tracer.calls("mssd.byte_write"), "count"),
        "mssd.block_writes": (tracer.calls("mssd.block_write"), "count"),
        "mssd.block_reads": (tracer.calls("mssd.block_read"), "count"),
        "txn.commits": (tracer.calls("txn.tx_commit"), "count"),
        "txn.recover_s": (tracer.total_s("txn.recover"), "s"),
        "txn.entries_scanned": (c["txn.entries_scanned"], "count"),
        "txn.entries_flushed": (c["txn.entries_flushed"], "count"),
        "writelog.clean_s": (tracer.total_s("writelog.clean"), "s"),
        "writelog.cleans": (tracer.calls("writelog.clean"), "count"),
        "writelog.pages_flushed": (c["writelog.pages_flushed"], "count"),
        "writelog.entries_migrated": (c["writelog.entries_migrated"],
                                      "count"),
        "skiplist.calls": (sum(tracer.calls(f"skiplist.{f}")
                               for f in ("get", "insert", "delete")),
                           "count"),
        "device.pages_written": (c["device.pages_written"], "count"),
        "device.pages_read": (c["device.pages_read"], "count"),
        "device.write_batches": (c["device.write_batches"], "count"),
        "image.save_s": (tracer.total_s("image.save"), "s"),
        "image.load_s": (tracer.total_s("image.load"), "s"),
        "image.bytes": (c["image.bytes"], "B"),
        "trace.wall_s": (wall, "s"),
        "trace.untimed_s": (wall - tracer.covered_s, "s"),
        "trace.replay_s": (traced.replay_s, "s"),
        "trace.untraced_replay_s": (base.replay_s, "s"),
        "trace.overhead_s": (traced.replay_s - base.replay_s, "s"),
    })
    for op in ("create", "write", "read", "fsync", "unlink"):
        m[f"fs.{op}_p50_us"] = (tracer.p50_us(f"fs.{op}"), "us")
    layer_sum = sum(m[f"{layer}.self_s"][0] for layer in LAYERS)
    if abs(layer_sum + m["trace.untimed_s"][0] - wall) > 1e-6 * max(1, wall):
        problems.append("layer self times and untimed do not add up to wall")
    return RunResult(tseed, rounds, m, _problems(rounds) + problems)
