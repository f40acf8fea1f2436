import pytest

from bytefs import bench, cli, image
from bytefs.bench import TraceRecord, WorkloadSpec
from bytefs.device import DeviceConfig, KiB, MiB
from bytefs.errors import InvalidArgument
from bytefs.fs import MODES, recover_fs

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
        (p, d) for p, d in sorted(oracle.synced.items())
        if d and p in oracle.files and oracle.pending[p][0] == d[0])
    fd = recovered.open(path)
    recovered.write(fd, 0, bytes([synced[0] ^ 0xFF]))
    recovered.close(fd)
    assert oracle.check(recovered).corrupt == [f"{path} content mismatch"]


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
    rc = cli.main(["fsck", "--image", img, "--mode", "full"])
    assert rc == 0
    assert "clean" in capsys.readouterr().out
    out_img = str(tmp_path / "recovered.img")
    rc = cli.main(["recover", "--image", img, "--mode", "full",
                   "--out", out_img])
    assert rc == 0
    assert (tmp_path / "recovered.img").exists()


def test_cli_missing_profile_errors(capsys):
    rc = cli.main(["run"])
    assert rc == 2
    assert "profile" in capsys.readouterr().err
