"""Each demo script, and the tools, run to completion."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if demo.stem == "02_write_log_and_cleaning":
        assert "cleaned by write 871 of a 1024-slot log" in result.stdout
    if demo.stem == "03_transactions_and_recovery":
        assert "second writer: TxAborted" in result.stdout


def test_cut_phases_tool_runs():
    tool = ROOT / "tools" / "cut_phases.py"
    result = subprocess.run(
        [sys.executable, str(tool), "--record", "300", "--reps", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["log_entries"] > 0
    assert list(report["phases_s"]) == ["save", "load", "visibility",
                                        "merge", "cut"]


def test_model_digest_tool_runs():
    tool = ROOT / "tools" / "model_digest.py"
    result = subprocess.run(
        [sys.executable, str(tool), "--ops", "60",
         "--profiles", "oltp,varmail", "--modes", "block_only,full"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    *lines, total = result.stdout.splitlines()
    # 2 profiles x 2 modes x 2 page caches x 2 journal modes, then the
    # log mode's 2 x 2 x 2 again on the small-log device
    assert len(lines) == 24
    assert lines[0].split()[0] == "oltp/block_only/default/ordered"
    assert "fsck=0" in lines[0].split()
    label, gen = lines[16].split()[:2]
    assert label == "oltp/full/default/ordered/small-log"
    assert gen.startswith("gen=")
    assert total == "all " + hashlib.sha256(
        "\n".join(lines).encode()).hexdigest()


# The last line of `tools/model_digest.py` over the log modes' grid of
# three profiles.  A change to the model updates it, and says so.
LOG_MODES_DIGEST = ("all b28d5ca71f7f0cdf6879165d04464e4dacac3bbbfea55928"
                    "bc404d89b3275bdf")


def test_model_outputs_of_the_log_modes_pinned():
    """sim_ns, traffic, flash, image and recovery of oltp, kvstore and
    fileserver in full and dual_log, on both devices, both caches and
    both journal modes (48 configurations of 400 records)."""
    tool = ROOT / "tools" / "model_digest.py"
    result = subprocess.run(
        [sys.executable, str(tool), "--ops", "400",
         "--profiles", "oltp,kvstore,fileserver", "--modes", "full,dual_log"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == LOG_MODES_DIGEST


def test_unreached_tool_runs():
    tool = ROOT / "tools" / "unreached.py"
    result = subprocess.run(
        [sys.executable, str(tool), "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_skiplist.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = {line.split(":")[0]: line for line in result.stdout.splitlines()
              if line.startswith(("src/", "total:"))}
    modules = sorted((ROOT / "src" / "bytefs").glob("*.py"))
    assert len(report) == len(modules) + 1
    # the skip list's tests run all of it; nothing imports the CLI
    assert report["src/bytefs/skiplist.py"].split()[1] == "0"
    cli = report["src/bytefs/cli.py"].split()
    assert cli[1] == cli[3] != "0"
