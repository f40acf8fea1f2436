import copy
import dataclasses
import hashlib
import itertools
import random
import runpy
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bytefs import bench, cli, image
from bytefs.bench import TraceRecord, WorkloadSpec
from bytefs.device import DeviceConfig, KiB, MiB
from bytefs.errors import InvalidArgument
from bytefs.fs import MODES, ByteFS, _Txn, recover_fs
from bytefs.layout import ITYPE_DIR

from conftest import small_config


def small_spec(profile, **kw):
    kw.setdefault("ops", 300)
    kw.setdefault("threads", 2)
    kw.setdefault("file_size", 16 * 1024)
    return WorkloadSpec(profile, **kw)


# ---------------------------------------------------------------------------
# workload generation


def test_workloads_are_deterministic_per_seed():
    a = bench.build_workload(small_spec("varmail", seed=7))
    b = bench.build_workload(small_spec("varmail", seed=7))
    c = bench.build_workload(small_spec("varmail", seed=8))
    assert a == b
    assert a != c
    assert len(a) == 300


# sha256 of each namespace profile's trace (4 threads, 200 records), the
# same for every seed: these profiles draw no random numbers
NAMESPACE_TRACES = {
    "create": "4049cb47607e440b47140ef82c7d41f626c39a16c320ce1fbccfb69715c5d7b5",
    "delete": "ec1e21f18b7c9353df011d82203d0acbc3581ac6d194b39588f96fd88067b94f",
    "mkdir": "78d00cd1d340e53c9c24bdab6a336f182beee7cbed56db9be5d469fe23d0ee4f",
    "rmdir": "65dc3bc5e2502aeeda79bd4e65024e44fd3f1e546918e30c75a0f11abac5e219",
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("profile", sorted(NAMESPACE_TRACES))
def test_namespace_traces_pinned(profile, seed):
    records = bench.build_workload(WorkloadSpec(profile, seed=seed, ops=200,
                                                threads=4))
    text = "".join(rec.format() + "\n" for rec in records)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        NAMESPACE_TRACES[profile]


# sha256 of each profile's traces over a grid of seeds, thread counts, op
# counts and file sizes (the default and the least the profile accepts),
# taken before the generators drew through `bench._below`
TRACE_GRID = {
    "create": "3586d72c2acf356fb71bbd498fa6efecbedcebbff362504d4bca9faad8e9546b",
    "delete": "e0667ca5c8c17bf7669304faa09ea43dc61e67cab78fb4ab6b1a4a91ae52ad64",
    "mkdir": "77a4addc25900672dbdb94a3589482832f1343daf7201c1f77a6fc38c2f5a033",
    "rmdir": "f1edaece4e6053025f5c4774e306e5a7e0253859909f16ebba2835621e72cdf2",
    "varmail": "9c5e8f223cad4517ac316763ae390259d8bc188537bb66c8f523d3f7d6918eac",
    "fileserver": "28634c264fb64537f2d5519cd712472da37ffc7056c5e14c6378903f6e3125da",
    "webproxy": "05ef53d69daac14605607455eed68c102c36257e57c3d2658d544aaed3000cf1",
    "webserver": "ab0c2e0ba56395ed1a0877921cc6ae96407c060233c2fa4276fbbe12b4279f48",
    "oltp": "1ba0af838f859144934500d404fb7dd1dc8aa2ce69fe4ee118fa690b772532e8",
    "kvstore": "ab0e61291a6afdec14a9fc052b37b4d380c20c8b27ae1832eb9ce45083e7e457",
}


@pytest.mark.parametrize("profile", bench.PROFILES)
def test_every_trace_pinned(profile):
    least = {"oltp": 513, "fileserver": 4 * KiB}.get(profile, 1)
    digest = hashlib.sha256()
    for seed, threads, ops, file_size in itertools.product(
            (0, 1, 7), (1, 3, 4), (0, 1, 5, 2001), (32 * KiB, least)):
        records = bench.build_workload(WorkloadSpec(
            profile, seed=seed, ops=ops, threads=threads,
            file_size=file_size))
        assert len(records) == ops
        digest.update(("\n".join(rec.format() for rec in records)
                       + "\n\n").encode())
    assert digest.hexdigest() == TRACE_GRID[profile]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 2**70),
       draws=st.integers(1, 8))
def test_below_draws_what_randrange_draws(seed, n, draws):
    bits = random.Random(seed).getrandbits
    ref = random.Random(seed)
    assert [bench._below(bits, n) for _ in range(draws)] == \
        [ref.randrange(n) for _ in range(draws)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(1, 300),
       draws=st.integers(1, 8))
def test_below_picks_what_choice_picks(seed, size, draws):
    seq = range(size)
    bits = random.Random(seed).getrandbits
    ref = random.Random(seed)
    assert [seq[bench._below(bits, len(seq))] for _ in range(draws)] == \
        [ref.choice(seq) for _ in range(draws)]


def test_varmail_at_default_config():
    """The default 32 GiB device, where a scan over the whole bitmap or
    the whole page cache costs seconds per operation.  The values are
    the model's output for this run, unchanged since the scans were
    replaced."""
    fs, report, _records = bench.run(WorkloadSpec("varmail", seed=0),
                                     DeviceConfig())
    assert report.ops == 2000
    assert report.sim_ns == 37_446_800
    assert sum(report.traffic["host_to_ssd"].values()) == 2_661_760
    assert sum(report.traffic["flash_write"].values()) == 2_285_568
    assert report.fsck_problems == 0
    assert fs.fsck() == []


@pytest.mark.parametrize("profile", bench.PROFILES)
def test_every_profile_runs_clean(profile):
    spec = small_spec(profile, ops=150)
    _fs, report, records = bench.run(spec, small_config(), mode="full")
    assert report.ops == len(records) == 150
    assert report.fsck_problems == 0
    assert sum(report.traffic["host_to_ssd"].values()) > 0
    assert report.sim_ns > 0


def test_unknown_profile_rejected():
    with pytest.raises(InvalidArgument):
        WorkloadSpec("defrag")


# ---------------------------------------------------------------------------
# traces


def test_trace_format_roundtrip():
    recs = [TraceRecord("create", "/a/b"),
            TraceRecord("write", "/a/b", 128, 512, fsync=True),
            TraceRecord("read", "/a/b", 0, 4096)]
    lines = [r.format() for r in recs]
    assert lines[1] == "write /a/b 128 512 F"
    assert [TraceRecord.parse(l) for l in lines] == recs
    with pytest.raises(InvalidArgument):
        TraceRecord.parse("chmod /a/b 0 0")
    with pytest.raises(InvalidArgument):
        TraceRecord.parse("write /a/b")


def test_replay_reproduces_run_exactly(tmp_path):
    spec = small_spec("varmail", seed=3)
    _fs, report, records = bench.run(spec, small_config(), mode="full")
    path = tmp_path / "run.trace"
    bench.write_trace(records, path)
    loaded = bench.read_trace(path)
    assert loaded == records
    mssd = bench.make_mssd(small_config(), "full")
    bench.mkfs(mssd)
    from bytefs.fs import ByteFS
    fs = ByteFS(mssd, mode="full")
    fs.mount()
    replayed = bench.replay(fs, loaded)
    assert replayed.traffic == report.traffic
    assert replayed.sim_ns == report.sim_ns


# ---------------------------------------------------------------------------
# crash runs


@pytest.mark.parametrize("crash_at", [0, 37, 150, 299])
def test_crash_run_verdicts_pass(crash_at):
    verdict = bench.crash_run(small_spec("varmail", seed=5), crash_at,
                              small_config(), mode="full")
    assert verdict.ok, (verdict.missing, verdict.corrupt,
                        verdict.unexpected, verdict.fsck_problems)


@pytest.mark.parametrize("mode", ["block_only", "dual"])
def test_crash_run_without_write_log(mode, monkeypatch):
    recovered = []

    def recover_and_keep(mssd, **kwargs):
        recovered.append(mssd)
        return recover_fs(mssd, **kwargs)

    monkeypatch.setattr(bench, "recover_fs", recover_and_keep)
    verdict = bench.crash_run(small_spec("varmail", seed=5), 150,
                              small_config(), mode=mode)
    assert verdict.ok, (verdict.missing, verdict.corrupt,
                        verdict.unexpected, verdict.fsck_problems)
    assert [m.writelog for m in recovered] == [None]


def test_crash_run_emit_lines():
    verdict = bench.crash_run(small_spec("varmail", seed=5), 40,
                              small_config(), mode="full")
    lines = dict(l.split() for l in verdict.emit().splitlines())
    assert lines["crash.ok"] == "1"
    assert lines["crash.at"] == "40"


def test_crash_run_accepts_unsynced_data_written_back_by_eviction():
    # a 64 KiB page cache evicts unsynced file data, with its size, before
    # the crash; that is not a loss of synced data
    verdict = bench.crash_run(WorkloadSpec("fileserver", seed=1, ops=150),
                              150, DeviceConfig(capacity_bytes=32 * MiB),
                              cache_bytes=64 * KiB)
    assert verdict.ok, (verdict.missing, verdict.corrupt,
                        verdict.unexpected, verdict.fsck_problems)


@pytest.mark.parametrize("mode", ["dual_log", "full"])
def test_cuts_inside_block_writes_recover(mode):
    # Power fails right after the flash write of each block write (in the
    # log modes only `WriteLog.block_write` calls `write_lpa`), before the
    # write log marks the entries the new page supersedes.  A write
    # record that spans two pages is then torn: one page new, one old.
    # Recovery must give the state before the in-flight record, or the
    # state after it with the record's data unsynced (each byte old or new).
    records = bench.build_workload(WorkloadSpec("oltp", seed=3, ops=300))
    cache = 64 * KiB
    fs = bench.format_and_mount(small_config(capacity_bytes=16 * MiB), mode,
                                "ordered", cache)
    oracle = bench.DurabilityOracle()
    cuts, failed = [], []
    write_lpa = fs.mssd.device.write_lpa

    def cut_after_flash_write(lpa, data, category="untagged"):
        write_lpa(lpa, data, category)
        recovered, _ = recover_fs(image.crash_clone(fs.mssd), mode=mode,
                                  cache_bytes=cache)
        after = copy.deepcopy(oracle)
        after.apply(dataclasses.replace(records[i], fsync=False))
        cuts.append(i)
        if not (after.check(recovered).ok or oracle.check(recovered).ok):
            failed.append(records[i].format())

    fs.mssd.device.write_lpa = cut_after_flash_write
    fds: dict[str, int] = {}
    for i, rec in enumerate(records):
        bench.apply_record(fs, rec, fds)
        oracle.apply(rec)
    # full sends most oltp data by byte: 32 block writes against 288
    assert len(cuts) >= 32 and not failed, (len(cuts), failed)


def test_durability_oracle_reports_lost_synced_byte():
    records = bench.build_workload(small_spec("varmail", seed=1, ops=200))
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    oracle = bench.DurabilityOracle()
    fds: dict[str, int] = {}
    for rec in records:
        bench.apply_record(fs, rec, fds)
        oracle.apply(rec)
    recovered, _report = recover_fs(image.crash_clone(fs.mssd))
    assert oracle.check(recovered).ok
    path, synced = next(
        (p, d) for p, (d, latest) in sorted(oracle.files.items())
        if d and latest[0] == d[0])
    fd = recovered.open(path)
    recovered.write(fd, 0, bytes([synced[0] ^ 0xFF]))
    recovered.close(fd)
    assert oracle.check(recovered).corrupt == [f"{path} content mismatch"]


def _synced_then_grown():
    """A file "/f" synced at 8 KiB, then rewritten from 4 KiB to 12 KiB
    without a sync, with the oracle that tracks it: bytes [0, 4096) must
    hold their one value, [4096, 8192) the synced or the latest one, and
    [8192, 12288) the latest one or a hole's zero."""
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    oracle = bench.DurabilityOracle()
    fds: dict[str, int] = {}
    for rec in (TraceRecord("create", "/f"),
                TraceRecord("write", "/f", 0, 8192, fsync=True),
                TraceRecord("write", "/f", 4096, 8192)):
        bench.apply_record(fs, rec, fds)
        oracle.apply(rec)
    assert oracle.check(fs).ok
    return fs, oracle, bytes(oracle.files["/f"][1])


def _overwrite(fs, offset, data):
    fd = fs.open("/f")
    fs.write(fd, offset, data)
    fs.close(fd)


def test_durability_oracle_reports_one_flipped_synced_byte():
    fs, oracle, latest = _synced_then_grown()
    _overwrite(fs, 100, bytes([latest[100] ^ 0x01]))
    assert oracle.check(fs).corrupt == ["/f content mismatch"]


def test_durability_oracle_accepts_synced_bytes_and_holes():
    fs, oracle, latest = _synced_then_grown()
    synced = oracle.files["/f"][0]
    _overwrite(fs, 4096, synced[4096:8192])   # the synced value
    _overwrite(fs, 8192, bytes(4096))         # a hole past the synced end
    assert latest[4096:] != synced[4096:] + bytes(4096)
    assert oracle.check(fs).ok


def test_durability_oracle_rejects_a_byte_past_the_synced_end():
    fs, oracle, latest = _synced_then_grown()
    wrong = 0x55 if latest[9000] == 0xAA else 0xAA  # neither latest nor zero
    _overwrite(fs, 8192, bytes(4096))
    _overwrite(fs, 9000, bytes([wrong]))
    assert oracle.check(fs).corrupt == ["/f content mismatch"]


def _verdict_digest(verdicts) -> str:
    digest = hashlib.sha256()
    for v in verdicts:
        digest.update(v.emit().encode())
        for lines in (v.missing, v.corrupt, v.unexpected, v.fsck_problems):
            digest.update(repr(lines).encode())
    return digest.hexdigest()


def test_crash_verdicts_pinned():
    # every profile in every mode, 200 records cut after record 150, a
    # 64 KiB cache; the digest was computed before the oracle walked the
    # recovered tree once
    verdicts = [bench.crash_run(WorkloadSpec(profile, seed=3, ops=200), 150,
                                small_config(), mode=mode,
                                cache_bytes=64 * KiB)
                for profile in bench.PROFILES for mode in MODES]
    assert _verdict_digest(verdicts) == \
        "8d0d6b89529515860c4eebe1c8e6b9a409354bb8a1426f739149680e4fdc0e90"


def test_oracle_verdicts_on_other_prefixes_pinned():
    # the same cuts, checked by oracles that saw 100 or 200 of the records:
    # their verdicts list missing, unexpected and corrupt paths
    verdicts = []
    for profile in bench.PROFILES:
        records = bench.build_workload(WorkloadSpec(profile, seed=3, ops=200))
        for mode in MODES:
            fs = bench.format_and_mount(small_config(), mode, "ordered",
                                        64 * KiB)
            fds: dict[str, int] = {}
            for rec in records[:150]:
                bench.apply_record(fs, rec, fds)
            recovered, _ = recover_fs(image.crash_clone(fs.mssd), mode=mode,
                                      cache_bytes=64 * KiB)
            for seen in (100, 200):
                oracle = bench.DurabilityOracle()
                for rec in records[:seen]:
                    oracle.apply(rec)
                verdicts.append(oracle.check(recovered))
    assert sum(len(v.missing) for v in verdicts) == 596
    assert sum(len(v.unexpected) for v in verdicts) == 676
    assert sum(len(v.corrupt) for v in verdicts) == 136
    assert _verdict_digest(verdicts) == \
        "dd268cd983cec8b03d5ff24a12dffa40aa5e1135447a60d44818f6fc232a5015"


def test_durability_oracle_looks_up_each_path_of_the_tree_once(monkeypatch):
    records = bench.build_workload(small_spec("fileserver", seed=2, ops=200))
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    oracle = bench.DurabilityOracle()
    fds: dict[str, int] = {}
    for rec in records[:150]:
        bench.apply_record(fs, rec, fds)
        oracle.apply(rec)
    recovered, _ = recover_fs(image.crash_clone(fs.mssd))
    paths, dirs, todo = [], [], ["/"]
    while todo:
        root = todo.pop()
        for name in recovered.readdir(root):
            paths.append(root.rstrip("/") + "/" + name)
            if recovered.lookup(paths[-1]).itype == ITYPE_DIR:
                dirs.append(paths[-1])
                todo.append(paths[-1])
    assert len(paths) > 10 and dirs
    looked_up = []
    lookup = recovered.lookup

    def counted(path):
        looked_up.append(path)
        return lookup(path)

    monkeypatch.setattr(recovered, "lookup", counted)
    assert oracle.check(recovered).ok
    assert sorted(looked_up) == sorted(paths)


def _oracle_of(*records):
    oracle = bench.DurabilityOracle()
    for rec in records:
        oracle.apply(rec)
    return oracle


def test_durability_oracle_forgets_a_removed_directory():
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    fs.mkdir("/d")
    made = _oracle_of(TraceRecord("mkdir", "/d"))
    removed = _oracle_of(TraceRecord("mkdir", "/d"), TraceRecord("rmdir", "/d"))
    assert made.check(fs).ok
    assert removed.check(fs).unexpected == ["/d"]
    fs.rmdir("/d")
    assert removed.check(fs).ok
    assert made.check(fs).missing == ["/d"]


def test_durability_oracle_reports_paths_the_tree_lacks():
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    fs.create("/a")
    oracle = _oracle_of(TraceRecord("mkdir", "/d"),
                        TraceRecord("create", "/f"),
                        TraceRecord("write", "/f", 0, 100, fsync=True),
                        TraceRecord("create", "/a/b"))
    verdict = oracle.check(fs)
    # a lost file with synced data is reported missing, not corrupt
    assert verdict.missing == ["/a/b", "/d", "/f"]
    assert verdict.corrupt == [] and verdict.unexpected == ["/a"]
    assert not verdict.ok


def test_durability_oracle_reports_paths_it_does_not_expect():
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    for path in ("/x", "/x/y", "/x/y/z", "/w"):
        fs.mkdir(path)
    fs.create("/x/f")
    verdict = _oracle_of(TraceRecord("mkdir", "/x")).check(fs)
    assert verdict.unexpected == ["/w", "/x/f", "/x/y", "/x/y/z"]
    assert verdict.missing == [] and not verdict.ok


# ---------------------------------------------------------------------------
# sweeps and reports


def test_sweep_covers_all_modes_and_orders_metadata_traffic():
    spec = small_spec("create", ops=400)
    reports = bench.sweep(spec, small_config())
    assert set(reports) == set(MODES)
    meta = {m: sum(r.traffic["host_to_ssd"][c]
                   for c in ("inode", "bitmap", "dentry", "data_pointer"))
            for m, r in reports.items()}
    assert meta["full"] < meta["block_only"]
    table = bench.sweep_table(reports)
    assert "block_only" in table and "full" in table


def test_report_emit_is_machine_readable():
    _fs, report, _ = bench.run(small_spec("oltp", ops=100), small_config())
    parsed = {}
    for line in report.emit().splitlines():
        key, value = line.split(" ", 1)
        parsed[key] = value
    assert parsed["run.profile"] == "oltp"
    assert int(parsed["traffic.host_to_ssd.total"]) == \
        sum(report.traffic["host_to_ssd"].values())
    assert "traffic.flash_write.data" in parsed


# ---------------------------------------------------------------------------
# config files


def test_config_parsing_types_and_suffixes():
    options = bench.parse_config_text("""
        # device
        capacity_bytes = 16MiB
        page_size = 4096
        clean_threshold = 0.9
        mode = dual_log
        profile = varmail
        ops = 500
    """)
    assert options["capacity_bytes"] == 16 * 1024 * 1024
    assert options["clean_threshold"] == 0.9
    assert options["mode"] == "dual_log"
    config, fs_opts, workload = bench.split_config(options)
    assert config.capacity_bytes == 16 * 1024 * 1024
    assert fs_opts == {"mode": "dual_log"}
    assert workload == {"profile": "varmail", "ops": 500}


def test_config_unknown_key_is_error():
    with pytest.raises(InvalidArgument, match="unknown key"):
        bench.parse_config_text("block_sized = 4096")
    with pytest.raises(InvalidArgument, match="unknown mode"):
        bench.parse_config_text("mode = turbo")
    with pytest.raises(InvalidArgument, match="key = value"):
        bench.parse_config_text("just some words")
    with pytest.raises(InvalidArgument, match="unknown journal mode"):
        bench.parse_config_text("journal = writeback")


def test_apply_record_refuses_an_unknown_op():
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    with pytest.raises(InvalidArgument, match="unknown trace op"):
        bench.apply_record(fs, TraceRecord("chmod", "/f"), {})


# ---------------------------------------------------------------------------
# command-line interface


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "bench.conf"
    path.write_text(
        "capacity_bytes = 8MiB\n"
        "log_region_bytes = 64KiB\n"
        "txlog_bytes = 1KiB\n"
        "write_buffer_bytes = 16KiB\n"
        "ops = 150\n"
        "threads = 2\n"
        "file_size = 16KiB\n"
    )
    return str(path)


def test_cli_run_and_replay(tmp_path, cfg_file, capsys):
    out = str(tmp_path / "report.txt")
    rc = cli.main(["run", "--config", cfg_file, "--profile", "varmail",
                   "--seed", "2", "--mode", "full", "--out", out])
    assert rc == 0
    assert "profile=varmail" in capsys.readouterr().out
    report = dict(l.split(" ", 1) for l in open(out).read().splitlines())
    assert report["run.ops"] == "150"
    rc = cli.main(["replay", out + ".trace", "--config", cfg_file,
                   "--mode", "full"])
    assert rc == 0


def test_cli_replay_honours_cache_bytes(tmp_path):
    cfg = tmp_path / "small_cache.conf"
    cfg.write_text("capacity_bytes = 8MiB\ncache_bytes = 64KiB\nops = 2000\n")
    out = str(tmp_path / "run.txt")
    assert cli.main(["run", "--config", str(cfg), "--profile", "kvstore",
                     "--seed", "1", "--out", out]) == 0
    replayed = str(tmp_path / "replay.txt")
    assert cli.main(["replay", out + ".trace", "--config", str(cfg),
                     "--out", replayed]) == 0

    def simulated(path):
        return [line for line in open(path).read().splitlines()
                if line.startswith(("run.sim_ns", "traffic."))]

    assert simulated(replayed) == simulated(out)


def test_cli_crash(cfg_file, capsys):
    rc = cli.main(["crash", "--config", cfg_file, "--profile", "varmail",
                   "--seed", "4", "--crash-at", "60"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_crash_prints_each_fault_of_a_failing_verdict(monkeypatch,
                                                         capsys):
    verdict = bench.CrashVerdict(7, False, missing=["/a"], corrupt=["/b"],
                                 unexpected=["/c"],
                                 fsck_problems=["block 9 allocated but "
                                                "unreferenced"])
    monkeypatch.setattr(bench, "crash_run", lambda *args, **kw: verdict)
    assert cli.main(["crash", "--profile", "oltp", "--crash-at", "7"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "crash after 7 ops: FAIL", "  missing: /a", "  corrupt: /b",
        "  unexpected: /c", "  fsck: block 9 allocated but unreferenced"]


def test_cli_sweep(cfg_file, capsys):
    rc = cli.main(["sweep", "--config", cfg_file, "--profile", "oltp",
                   "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for mode in MODES:
        assert mode in out


def test_cli_fsck_and_recover(tmp_path, cfg_file, capsys):
    spec = small_spec("varmail", seed=9, ops=120)
    fs, _report, _records = bench.run(spec, small_config(), mode="full")
    img = str(tmp_path / "dev.img")
    image.save(fs.mssd, img)
    rc = cli.main(["fsck", "--image", img])
    assert rc == 0
    assert "clean" in capsys.readouterr().out
    out_img = str(tmp_path / "recovered.img")
    rc = cli.main(["recover", "--image", img, "--out", out_img])
    assert rc == 0
    assert (tmp_path / "recovered.img").exists()


def test_cli_fsck_and_recover_report_the_problems_of_an_image(tmp_path,
                                                             capsys):
    # a directory whose size runs past its one full block hides its files
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    fs.mkdir("/d")
    for i in range(64):
        fs.create(f"/d/f{i:02d}")
    d = fs.lookup("/d")
    d.size += 4096
    with _Txn(fs):
        fs._persist_inode_lower(d)
    img = str(tmp_path / "dev.img")
    image.save(fs.mssd, img)
    problems = ["dir inode 3 size 8192 runs past its extents (/d)"] + [
        f"inode {ino} allocated but unreachable" for ino in range(4, 68)]
    assert cli.main(["fsck", "--image", img]) == 1
    assert capsys.readouterr().out.splitlines() == problems + [
        "65 problem(s) found"]
    assert cli.main(["recover", "--image", img]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "fsck: 65 problem(s)"


class PowerCut(Exception):
    pass


@pytest.mark.parametrize("mode", MODES)
def test_cli_fsck_and_recover_replay_a_data_journal(mode, tmp_path,
                                                    monkeypatch, capsys):
    """Power is cut after a data-journal record commits and before its
    checkpoint.  The journaled page survives `fsck` and `recover`, which
    used to recover with the ordered journal and drop it."""
    fs = bench.format_and_mount(small_config(), mode, "data")
    fs.create("/f")
    fd = fs.open("/f")
    fs.write(fd, 0, b"\x07" * 4096)
    img = str(tmp_path / "cut.img")

    def cut(fs, txn, base):
        image.save(fs.mssd, img)
        raise PowerCut

    monkeypatch.setattr(ByteFS, "_journal_checkpoint", cut)
    with pytest.raises(PowerCut):
        fs.fsync(fd)
    assert cli.main(["fsck", "--image", img]) == 0
    out_img = str(tmp_path / "recovered.img")
    assert cli.main(["recover", "--image", img, "--out", out_img]) == 0
    assert "fsck: clean" in capsys.readouterr().out
    mssd = image.load(out_img)
    after = ByteFS(mssd, "full" if mssd.log_enabled else "dual")
    after.mount()
    assert after.read(after.open("/f"), 0, 8192) == b"\x07" * 4096


def test_cli_fsck_takes_the_mode_from_the_image(tmp_path, capsys):
    spec = small_spec("varmail", seed=9, ops=120)
    fs, _report, _records = bench.run(spec, small_config(), mode="dual")
    img = str(tmp_path / "dev.img")
    image.save(fs.mssd, img)
    assert cli.main(["fsck", "--image", img]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    """`python -m bytefs.cli` exits with the command's status."""
    fs = bench.format_and_mount(small_config(), "full", "ordered")
    img = str(tmp_path / "dev.img")
    image.save(fs.mssd, img)
    monkeypatch.delitem(sys.modules, "bytefs.cli")  # run a fresh copy
    monkeypatch.setattr(sys, "argv", ["bytefs-bench", "fsck", "--image", img])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("bytefs.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "clean\n"


@pytest.mark.parametrize("argv", [
    ["replay", "t.trace", "--seed", "1"],
    ["replay", "t.trace", "--profile", "oltp"],
    ["sweep", "--profile", "oltp", "--mode", "dual"],
    ["fsck", "--image", "x", "--seed", "9"],
    ["fsck", "--image", "x", "--profile", "oltp"],
    ["fsck", "--image", "x", "--out", "y"],
    ["fsck", "--image", "x", "--mode", "full"],
    ["recover", "--image", "x", "--seed", "9"],
    ["recover", "--image", "x", "--profile", "oltp"],
    ["recover", "--image", "x", "--mode", "full"],
    ["fsck", "--image", "x", "--config", "c"],
    ["recover", "--image", "x", "--config", "c"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_cli_refuses_an_option_its_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("key", ["threads", "io_size"])
def test_workload_spec_refuses_a_count_below_one(key):
    with pytest.raises(InvalidArgument):
        WorkloadSpec(profile="fileserver", **{key: 0})


def test_workload_spec_refuses_a_negative_op_count():
    with pytest.raises(InvalidArgument, match="ops"):
        WorkloadSpec("oltp", ops=-1)
    assert bench.build_workload(WorkloadSpec("oltp", ops=0)) == []


def test_workload_spec_refuses_threads_that_would_share_a_stream():
    """Thread t's stream is seeded (seed << 8) | t, so thread 256 would
    replay thread 0's draws."""
    with pytest.raises(InvalidArgument, match="threads"):
        WorkloadSpec("oltp", seed=1, threads=257)
    records = bench.build_workload(WorkloadSpec("oltp", seed=1, ops=600,
                                                threads=256))
    assert {rec.path.split("/")[1] for rec in records} == \
        {f"t{t}" for t in range(256)}


def test_cli_reports_a_negative_op_count_as_an_error(tmp_path, capsys):
    cfg = tmp_path / "negative_ops.conf"
    cfg.write_text("capacity_bytes = 8MiB\nops = -5\n")
    rc = cli.main(["run", "--config", str(cfg), "--profile", "oltp"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ops -5")


@pytest.mark.parametrize("profile, file_size, io_size", [
    ("varmail", 0, 4096),
    ("oltp", 512, 4096),
    ("fileserver", 1024, 4096),
])
def test_workload_spec_refuses_a_file_size_its_profile_cannot_use(
        profile, file_size, io_size):
    with pytest.raises(InvalidArgument, match="file_size"):
        WorkloadSpec(profile, file_size=file_size, io_size=io_size)


@pytest.mark.parametrize("profile, file_size, io_size", [
    ("oltp", 513, 4096),
    ("fileserver", 4096, 4096),
    ("kvstore", 1, 4096),
])
def test_smallest_usable_file_size_builds_a_workload(profile, file_size,
                                                     io_size):
    spec = WorkloadSpec(profile, ops=40, file_size=file_size, io_size=io_size)
    assert len(bench.build_workload(spec)) == 40


def test_cli_reports_a_file_size_too_small_for_oltp(tmp_path, capsys):
    cfg = tmp_path / "small_file.conf"
    cfg.write_text("capacity_bytes = 8MiB\nfile_size = 512\n")
    rc = cli.main(["run", "--config", str(cfg), "--profile", "oltp"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: file_size 512")


def test_cli_reports_a_zero_io_size_as_an_error(tmp_path, capsys):
    cfg = tmp_path / "zero_io.conf"
    cfg.write_text("capacity_bytes = 8MiB\nio_size = 0\n")
    rc = cli.main(["run", "--config", str(cfg), "--profile", "fileserver"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_missing_profile_errors(capsys):
    rc = cli.main(["run"])
    assert rc == 2
    assert "profile" in capsys.readouterr().err
