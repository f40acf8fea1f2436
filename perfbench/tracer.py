"""Per-layer wall time from outside the program.

``Tracer.install`` wraps the public functions of each ``bytefs`` module
in place, so the traced run needs no change to the package.  A span's
self time is its duration minus the time its child spans cover; the self
times of all spans add up to the time the outermost spans cover, and the
rest of the traced wall time is ``untimed`` (the benchmark's own loop).

Spans are aggregated per name as they end (calls, total, self), which
keeps memory flat on runs of millions of calls.  ``SimClock.advance``,
``TrafficCounters.record``, ``LogIndex`` and the skip list's generators
are not wrapped: they are called per cacheline or per node, and their
cost counts to the span that calls them.
"""

from __future__ import annotations

import collections
import functools
import statistics
import time

import model
from bytefs import bench, device, fs, image, mssd, pagecache, skiplist, txn
from bytefs import writelog

# (layer, owner, public functions); an owner is a module or a class
TARGETS = (
    ("bench", bench, ("build_workload", "apply_record")),
    # the benchmark's own checks
    ("bench", model, ("check_live", "check_survived")),
    ("fs", fs, ("make_mssd", "mkfs", "recover_fs")),
    ("fs", fs.ByteFS, ("mount", "create", "mkdir", "unlink", "rmdir",
                       "rename", "open", "close", "read", "write", "fsync",
                       "fdatasync", "sync", "fsck", "lookup", "exists",
                       "readdir")),
    ("pagecache", pagecache.PageCache, ("get", "insert", "drop_inode",
                                        "dirty_pages")),
    ("pagecache", pagecache.CachedPage, ("dirty_cachelines",)),
    ("mssd", mssd.Mssd, ("__init__", "byte_write", "byte_read",
                         "block_read", "block_write", "clean", "recover",
                         "reset_log", "tx_begin", "tx_write", "tx_commit",
                         "tx_abort")),
    # Mssd.recover calls the name it imported from txn
    ("txn", mssd, ("recover",)),
    ("txn", txn.TxManager, ("tx_begin", "tx_write", "tx_commit", "tx_abort",
                            "active_txids")),
    ("txn", txn.TxLog, ("append", "clear")),
    ("writelog", writelog.WriteLog, ("byte_write", "byte_read", "block_read",
                                     "block_write", "clean",
                                     "index_lookup")),
    ("skiplist", skiplist.SkipList, ("get", "insert", "delete")),
    ("device", device.FlashDevice, ("read_pages", "write_pages",
                                    "flash_read_page", "flash_write_page",
                                    "read_lpa", "write_lpa", "ftl_translate",
                                    "is_mapped", "traffic_snapshot")),
    ("image", image, ("save", "load", "crash_clone")),
)

LAYERS = ("bench", "fs", "pagecache", "mssd", "txn", "writelog", "skiplist",
          "device", "image")

# file-system calls whose per-call durations are kept while sampling
SAMPLED = ("fs.create", "fs.write", "fs.read", "fs.fsync", "fs.unlink")


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = {n: [] for n in SAMPLED}
        self.sampling = False   # set by the caller around replayed records
        # child time of each open span; [0] collects the outermost spans
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` timed as span ``name``; ``after(args, result)``
        runs once the span has ended, on normal return only."""
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        samples = self.samples.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = stack.pop()
                stack[-1] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - child
                if samples is not None and tracer.sampling:
                    samples.append(dur)
            if after is not None:
                after(args, result)
            return result

        return traced

    @property
    def covered_s(self) -> float:
        """Time covered by outermost spans (the sum of all self times)."""
        return self._stack[0]

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target."""
        hooks = self._hooks()
        for layer, owner, names in TARGETS:
            for attr in names:
                name = f"{layer}.{attr.strip('_')}"
                fn = (owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr))
                self._patch(owner, attr,
                            self.wrap(fn, name, hooks.get(name)))
        # count every call of the page cache's writeback callback
        counts = self.counts
        init = pagecache.PageCache.__init__

        def counted_init(cache, capacity_bytes, page_size, writeback_cb):
            def writeback(page):
                counts["pagecache.dirty_evictions"] += 1
                return writeback_cb(page)
            init(cache, capacity_bytes, page_size, writeback)

        self._patch(pagecache.PageCache, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self) -> dict:
        counts = self.counts

        def cache_get(args, page):
            counts["pagecache.hits" if page is not None
                   else "pagecache.misses"] += 1

        def read_pages(args, result):
            counts["device.pages_read"] += len(args[1])

        def write_pages(args, result):
            counts["device.pages_written"] += len(args[1])
            counts["device.write_batches"] += 1

        def clean(args, report):
            counts["writelog.pages_flushed"] += report.pages_flushed
            counts["writelog.entries_migrated"] += report.entries_migrated

        def recover(args, report):
            counts["txn.entries_scanned"] += report.entries_scanned
            counts["txn.entries_flushed"] += report.entries_flushed

        def save(args, result):
            # crash_clone saves into a fresh in-memory buffer
            counts["image.bytes"] += args[1].tell()

        return {"pagecache.get": cache_get, "device.read_pages": read_pages,
                "device.write_pages": write_pages, "writelog.clean": clean,
                "txn.recover": recover, "image.save": save}

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + stat.self_s
        return out

    def total_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total_s if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def p50_us(self, name: str) -> float:
        samples = self.samples[name]
        return statistics.median(samples) * 1e6 if samples else 0.0
