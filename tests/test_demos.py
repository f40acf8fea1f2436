"""Each demo script, and the cut-phase measuring tool, runs to completion."""

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
