"""Tests of the benchmark itself.  Run with

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from bytefs import bench  # noqa: E402
from bytefs.device import KiB, MiB  # noqa: E402

SMALL_DEVICE = dict(capacity_bytes=8 * MiB, log_region_bytes=64 * KiB,
                    txlog_bytes=1 * KiB, write_buffer_bytes=16 * KiB)

TINY = {
    "varmail_default": dict(ops=40, device=SMALL_DEVICE, creates=0),
    "kvstore_smallcache": dict(ops=600),
    "crash_oltp": dict(ops=1000, device=dict(SMALL_DEVICE,
                                             log_region_bytes=256 * KiB)),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_tiny_and_passes_its_checks(name):
    w = tiny(name)
    result = workloads.measure(w, seed=3, seconds=0)
    assert result.problems == []
    assert len(result.rounds) == workloads.MIN_ROUNDS
    # only cuts inside a clean may lose data; counts are those of one round
    assert result.failed <= len(w.mid_clean)
    assert result.attempted == w.ops + w.cuts + len(w.mid_clean)
    for value, _unit in result.metrics.values():
        assert value > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_simulated_output_matches_bench_run(name):
    w = tiny(name)
    rnd = workloads.run_round(w, 5)
    _fs, report, _records = bench.run(w.spec(5), w.config(), mode="full",
                                      cache_bytes=w.cache_bytes)
    assert rnd.sim == (report.sim_ns, report.traffic)


def test_trace_seed_fixes_the_number_of_creates():
    w = workloads.WORKLOADS["varmail_default"]
    for seed in (1, 2):
        records = bench.build_workload(w.spec(w.trace_seed(seed)))
        assert sum(r.op == "create" for r in records) == w.creates
    assert w.trace_seed(1) != w.trace_seed(2)


def test_traced_round_reports_every_layer_and_adds_up():
    w = tiny("crash_oltp")
    result = workloads.trace(w, seed=2)
    assert result.problems == []
    m = {k: v for k, (v, _unit) in result.metrics.items()}
    layers = sum(m[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
    assert layers + m["trace.untimed_s"] == pytest.approx(m["trace.wall_s"])
    assert m["writelog.cleans"] > 0 and m["txn.commits"] > 0
    assert m["device.pages_written"] > 0 and m["image.bytes"] > 0
    # tracing leaves no wrapper behind
    assert bench.apply_record.__code__.co_name == "apply_record"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "time",
                        types.SimpleNamespace(perf_counter=clock))
    t = tracer_mod.Tracer()
    calls = {}

    def leaf():
        clock.now += 2

    def mid():
        clock.now += 1
        calls["leaf"]()
        clock.now += 1
        calls["leaf"]()

    def top():
        calls["mid"]()
        clock.now += 3

    def failing():
        clock.now += 5
        raise ValueError

    calls["leaf"] = t.wrap(leaf, "device.leaf")
    calls["mid"] = t.wrap(mid, "mssd.mid")
    t.wrap(top, "fs.top")()
    with pytest.raises(ValueError):
        t.wrap(failing, "fs.failing")()

    stats = t.stats
    assert (stats["fs.top"].total_s, stats["fs.top"].self_s) == (9, 3)
    assert (stats["mssd.mid"].total_s, stats["mssd.mid"].self_s) == (6, 2)
    assert stats["device.leaf"].calls == 2
    assert stats["device.leaf"].self_s == 4
    assert stats["fs.failing"].self_s == 5
    layers = t.layer_self_s()
    assert (layers["fs"], layers["mssd"], layers["device"]) == (8, 2, 4)
    assert sum(layers.values()) == t.covered_s == 14


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crash_oltp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
