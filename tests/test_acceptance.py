"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (to the real stdout, so it shows regardless of capture settings)."""

import random
import sys
import time

import numpy as np

from bytefs import bench
from bytefs.bench import WorkloadSpec
from bytefs.device import CACHELINE, DeviceConfig, KiB, MiB
from bytefs.errors import FsError
from bytefs.fs import MODES, ByteFS, make_mssd, mkfs
from bytefs.mssd import Mssd
from bytefs.skiplist import SkipList

from conftest import small_config
from refmodel import RefFS
from shadow import ShadowMssd
from test_fs import fsync_file, make_fs, read_file, remount, write_file


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_device_ops_vs_shadow_oracle():
    desc = "1e5 randomized device ops match the shadow oracle through cleans"
    rng = random.Random(0xC1)
    mssd = ShadowMssd(small_config())
    pages = 256
    t0 = time.perf_counter()
    ok = True
    for i in range(100_000):
        r = rng.random()
        addr = rng.randrange(0, pages * 4096 - 256)
        if r < 0.40:
            mssd.byte_write(addr, rng.randbytes(rng.randrange(1, 256)))
        elif r < 0.65:
            n = rng.randrange(1, 256)
            if mssd.byte_read(addr, n) != mssd.shadow_read(addr, n):
                ok = False
                break
        elif r < 0.80:
            mssd.block_write(addr // 4096, rng.randbytes(4096))
        else:
            lpa = addr // 4096
            if mssd.block_read(lpa) != mssd.shadow_read(lpa * 4096, 4096):
                ok = False
                break
    wall = time.perf_counter() - t0
    cleans = mssd.writelog.active_gen.gen_id
    ok = ok and cleans >= 10 and wall < 60.0
    report(1, ok, desc, f"cleans={cleans} wall={wall:.1f}s")


def test_criterion_02_fs_ops_vs_reference_model():
    desc = "1e4+ randomized FS ops match the reference model in all 4 modes"
    total = 0
    ok = True
    detail = []
    for mode in MODES:
        fs = make_fs(mode)
        ref = RefFS()
        rng = random.Random(0xC2)
        dirs = ["/"] + [f"/d{i}" for i in range(4)]
        names = [f"f{i}" for i in range(8)]

        def rand_path():
            d = rng.choice(dirs)
            return (d if d != "/" else "") + "/" + rng.choice(names)

        def paired(fs_fn, ref_fn, *args):
            try:
                fs_fn(*args)
            except FsError as exc:
                try:
                    ref_fn(*args)
                except type(exc):
                    return True
                return False
            try:
                ref_fn(*args)
            except FsError:
                return False
            return True

        for _ in range(2600):
            total += 1
            op = rng.randrange(8)
            if op == 0:
                ok &= paired(fs.mkdir, ref.mkdir, rng.choice(dirs[1:]))
            elif op == 1:
                ok &= paired(fs.create, ref.create, rand_path())
            elif op == 2:
                ok &= paired(fs.unlink, ref.unlink, rand_path())
            elif op == 3:
                ok &= paired(fs.rmdir, ref.rmdir, rng.choice(dirs[1:]))
            elif op == 4:
                ok &= paired(fs.rename, ref.rename, rand_path(), rand_path())
            elif op == 5:
                path = rand_path()
                offset = rng.randrange(0, 3 * 4096)
                data = rng.randbytes(rng.randrange(1, 900))
                try:
                    fd = fs.open(path)
                except FsError as exc:
                    try:
                        ref.write(path, offset, data)
                        ok = False
                    except type(exc):
                        pass
                    continue
                fs.write(fd, offset, data)
                if rng.random() < 0.3:
                    fs.fsync(fd)
                fs.close(fd)
                ref.write(path, offset, data)
            elif op == 6:
                path = rand_path()
                offset = rng.randrange(0, 3 * 4096)
                length = rng.randrange(1, 2000)
                try:
                    got = read_file(fs, path, offset, length)
                except FsError as exc:
                    try:
                        ref.read(path, offset, length)
                        ok = False
                    except type(exc):
                        pass
                    continue
                ok &= got == ref.read(path, offset, length)
            else:
                path = rng.choice(dirs)
                try:
                    got = fs.readdir(path)
                except FsError:
                    continue
                ok &= got == ref.readdir(path)
            if not ok:
                break
        # deep comparison, live and after a synced remount
        fs.sync()
        for check_fs in (fs, remount(fs)):
            for path in ref.walk_files():
                size = ref.size(path)
                ok &= check_fs.lookup(path).size == size
                if size:
                    ok &= read_file(check_fs, path, 0, size) == \
                        ref.read(path, 0, size)
        ok &= fs.fsck() == []
        detail.append(mode)
        if not ok:
            break
    report(2, ok, desc, f"ops={total} modes={','.join(detail)}")


def test_criterion_03_200_random_crash_points():
    desc = "200 random crash points: durable state intact, fsck clean"
    rng = random.Random(0xC3)
    failures = 0
    for i in range(200):
        spec = WorkloadSpec("varmail", seed=rng.randrange(1 << 16),
                            ops=120, threads=2)
        crash_at = rng.randrange(0, 121)
        verdict = bench.crash_run(spec, crash_at, small_config(), mode="full")
        if not verdict.ok:
            failures += 1
    report(3, failures == 0, desc, f"failures={failures}/200")


def test_criterion_04_create_traffic_full_vs_block_only():
    desc = "1e4 creates: full-mode write traffic >=3x (total) / >=5x (metadata) lower"
    config = DeviceConfig(capacity_bytes=128 * MiB,
                          log_region_bytes=16 * MiB, txlog_bytes=128 * KiB,
                          write_buffer_bytes=1 * MiB)
    meta_cats = ("inode", "bitmap", "dentry", "data_pointer")
    totals, metas = {}, {}
    for mode in ("full", "block_only"):
        mssd = make_mssd(config, mode)
        mkfs(mssd, inode_count=16384)
        fs = ByteFS(mssd, mode=mode)
        fs.mount()
        for d in range(10):
            fs.mkdir(f"/d{d}")
        before = mssd.traffic_snapshot()
        for i in range(10_000):
            fs.create(f"/d{i % 10}/file-{i:05d}")
        delta = mssd.traffic_snapshot().delta(before)
        totals[mode] = delta.host_to_ssd_bytes
        metas[mode] = sum(delta.by_category["host_to_ssd"][c]
                          for c in meta_cats)
    total_ratio = totals["block_only"] / totals["full"]
    meta_ratio = metas["block_only"] / metas["full"]
    ok = total_ratio >= 3.0 and meta_ratio >= 5.0
    report(4, ok, desc,
           f"total {total_ratio:.1f}x, metadata {meta_ratio:.1f}x")


def test_criterion_05_oltp_flash_writes_dual_log_vs_dual():
    desc = "oltp small overwrites: dual_log flash writes <=0.5x dual"
    spec = WorkloadSpec("oltp", seed=11, ops=600, threads=2,
                        file_size=16 * KiB)
    flash = {}
    for mode in ("dual", "dual_log"):
        _fs, rep, _ = bench.run(spec, small_config(), mode=mode)
        flash[mode] = sum(rep.traffic["flash_write"].values())
    ratio = flash["dual_log"] / flash["dual"]
    report(5, ratio <= 0.5, desc, f"ratio={ratio:.3f}")


def test_criterion_06_interface_selection_boundaries():
    desc = "interface selection exact at 7/8 dirty cachelines and 512/513B"
    ok = True
    detail = []
    for n, expect in ((7, 7 * CACHELINE), (8, 4096)):
        fs = make_fs("full")
        fs.create("/f")
        write_file(fs, "/f", 0, bytes(4096))
        fsync_file(fs, "/f")
        fd = fs.open("/f")
        for i in range(n):
            fs.write(fd, i * 512, b"\xff")
        before = fs.mssd.traffic_snapshot()
        fs.fsync(fd)
        got = fs.mssd.traffic_snapshot().delta(before) \
            .by_category["host_to_ssd"]["data"]
        ok &= got == expect
        detail.append(f"wb{n}={got}")
    for size, expect in ((512, 512), (513, 4096)):
        fs = make_fs("full")
        fs.create("/f")
        fd = fs.open("/f", direct=True)
        before = fs.mssd.traffic_snapshot()
        fs.write(fd, 0, b"\x5a" * size)
        got = fs.mssd.traffic_snapshot().delta(before) \
            .by_category["host_to_ssd"]["data"]
        ok &= got == expect
        detail.append(f"direct{size}={got}")
    report(6, ok, desc, " ".join(detail))


def test_criterion_07_skiplist_against_sorted_map():
    desc = "1e6 skip-list ops match a sorted-map oracle; O(log n) comparisons"
    rng = random.Random(0xC7)
    sl = SkipList(seed=1)
    oracle: dict[int, int] = {}
    ok = True
    for i in range(1_000_000):
        k = rng.randrange(1 << 20)
        r = rng.random()
        if r < 0.45:
            sl.insert(k, i)
            oracle[k] = i
        elif r < 0.80:
            if sl.get(k) != oracle.get(k):
                ok = False
                break
        else:
            sl.delete(k)
            oracle.pop(k, None)
    ok = ok and list(sl.items()) == sorted(oracle.items())

    def mean_comparisons(n: int) -> float:
        probe = SkipList(seed=2)
        keys = list(range(n))
        for k in keys:
            probe.insert(k, k)
        sample = random.Random(3).sample(keys, min(512, n))
        probe.comparisons = 0
        for k in sample:
            probe.get(k)
        return probe.comparisons / len(sample)

    m8 = mean_comparisons(2 ** 8)
    m16 = mean_comparisons(2 ** 16)
    scaling_ok = m16 <= 2 * (m8 * 2)
    report(7, ok and scaling_ok, desc,
           f"mean comps: 2^8={m8:.1f}, 2^16={m16:.1f}")


def test_criterion_08_sim_time_matches_analytic_sum():
    desc = "1000-op scripted sequence: simulated time equals the analytic sum"
    cfg = small_config()
    mssd = Mssd(cfg)
    start = mssd.clock_ns
    for i in range(500):                     # one 64B slot each
        mssd.byte_write(i * 64, bytes([i % 255 + 1]) * 64)
    for i in range(300):                     # log hits, one cacheline each
        mssd.byte_read(i * 64, 64)
    for i in range(100):                     # single-page flash writes
        mssd.block_write(100 + i, b"\x77" * 4096)
    for i in range(100):                     # single-page flash reads
        mssd.block_read(100 + i)
    elapsed = mssd.clock_ns - start
    expected = (500 * cfg.cacheline_write_latency_ns
                + 300 * cfg.cacheline_read_latency_ns
                + 100 * cfg.flash_write_latency_ns
                + 100 * cfg.flash_read_latency_ns)
    report(8, elapsed == expected, desc,
           f"sim={elapsed}ns analytic={expected}ns")


def test_criterion_09_clean_commit_order_and_migration():
    desc = "scripted clean: commit-order winners flushed, uncommitted migrated"
    mssd = Mssd(small_config())
    ta = mssd.tx_begin()
    mssd.tx_write(ta, 0, b"\xa1" * 64)
    mssd.tx_commit(ta)
    mssd.byte_write(64, b"\xc2" * 64)              # committed at write
    tb = mssd.tx_begin()
    mssd.tx_write(tb, 0, b"\xb1" * 64)
    mssd.byte_write(0, b"\xc1" * 64)               # appended after tb's write
    mssd.tx_commit(tb)                             # ...but committed later
    tc = mssd.tx_begin()
    mssd.tx_write(tc, 128, b"\xd1" * 64)           # stays uncommitted
    td = mssd.tx_begin()
    mssd.tx_write(td, 192, b"\xe1" * 64)
    mssd.tx_abort(td)

    rep = mssd.clean()
    page = mssd.device.read_lpa(0, "untagged")
    ok = (page[:64] == b"\xb1" * 64                # tb outranks the later
          and page[64:128] == b"\xc2" * 64         # txid0 append by commit
          and page[128:192] == bytes(64)           # uncommitted not flushed
          and page[192:256] == bytes(64))          # aborted dropped
    ok &= rep.entries_migrated == 1
    ok &= rep.entries_flushed == 4                 # ta, c2, tb and c1
    slots = mssd.writelog.index.get(0)
    entries = mssd.writelog.active_gen.entries
    ok &= slots is not None and len(slots) == 1 \
        and entries["txid"][slots[0]] == tc \
        and entries["block_offset"][slots[0]] == 2
    mssd.tx_commit(tc)
    mssd.clean()
    ok &= mssd.device.read_lpa(0, "untagged")[128:192] == b"\xd1" * 64
    report(9, ok, desc, f"migrated={rep.entries_migrated}")


def test_criterion_10_full_log_recovery_under_5s():
    desc = "recovery of a fully utilized 256 MiB log in under 5s wall"
    from bytefs.writelog import SIDECAR_DTYPE, LogGeneration

    cfg = DeviceConfig()                     # 256 MiB log region
    mssd = Mssd(cfg)
    n = cfg.log_region_bytes // CACHELINE    # 4,194,304 slots
    cl_per_page = cfg.cachelines_per_page

    recs = np.zeros(n, dtype=SIDECAR_DTYPE)
    recs["lpa"] = np.arange(n) // cl_per_page
    recs["block_offset"] = np.arange(n) % cl_per_page
    recs["length"] = CACHELINE
    recs["seq"] = np.arange(n) + 1
    recs["flags"] = 1                        # committed at write
    # pages 500..999 belong to a committed transaction
    committed = (recs["lpa"] >= 500) & (recs["lpa"] < 1000)
    recs["flags"][committed] = 0
    recs["txid"][committed] = 7
    # the first cacheline of pages 0..499 belongs to an uncommitted tx
    uncommitted = (recs["lpa"] < 500) & (recs["block_offset"] == 0)
    recs["flags"][uncommitted] = 0
    recs["txid"][uncommitted] = 9999
    payload = np.random.default_rng(0).integers(
        0, 256, size=n * CACHELINE, dtype=np.uint8).tobytes()

    mssd.writelog.install(LogGeneration(0, cfg.log_region_bytes,
                                        bytearray(payload), recs))
    mssd.txlog.append(7, mssd.next_stamp())

    t0 = time.perf_counter()
    rep = mssd.recover()
    wall = time.perf_counter() - t0

    ok = wall < 5.0 and rep.entries_scanned == n
    ok &= rep.entries_discarded == int(uncommitted.sum())
    # spot checks: committed pages carry their payload, discarded cells zero
    view = np.frombuffer(payload, dtype=np.uint8).reshape(n // cl_per_page,
                                                          cfg.page_size)
    for lpa in (123, 700, 40000):
        got = mssd.block_read(lpa)
        want = bytearray(view[lpa].tobytes())
        if lpa < 500:
            want[:CACHELINE] = bytes(CACHELINE)
        ok &= got == bytes(want)
    report(10, ok, desc, f"wall={wall:.2f}s scanned={rep.entries_scanned}")
