"""Wall time of the phases of one simulated power cut on crash_oltp.

Usage, from the root of a source checkout:

    python3 tools/cut_phases.py [--seed N] [--record R] [--reps K]

Replays ``crash_oltp`` (the workload of ``perfbench/workloads.py``) up to
record R, then cuts power K times on that one device.  Each repetition
times the four phases of a cut on a fresh clone: ``image.save`` into a
``BytesIO``, ``image.load`` of it, ``WriteLog.visibility`` and
``WriteLog.merge_and_flush``; and, on another clone, the whole cut as the
benchmark times it (``image.crash_clone`` plus ``recover_fs``).  Prints
one JSON object: per phase, the median and quartiles in seconds, plus the
number of log entries at the cut.  The package is imported from ``src/``
of the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PHASES = ("save", "load", "visibility", "merge", "cut")


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def measure(seed: int, record: int, reps: int) -> dict:
    from bytefs import bench, image
    from bytefs import fs as fsmod
    from bytefs.writelog import ACTIVE_KEY

    import workloads

    w = workloads.WORKLOADS["crash_oltp"]
    records, mssd, fs = workloads.set_up(w, w.trace_seed(seed))
    fds: dict[str, int] = {}
    for rec in records[:record]:
        bench.apply_record(fs, rec, fds)
    times = {phase: [] for phase in PHASES}
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        buf = io.BytesIO()
        image.save(mssd, buf)
        t1 = time.perf_counter()
        buf.seek(0)
        clone = image.load(buf)
        t2 = time.perf_counter()
        visible, key = clone.writelog.visibility()
        t3 = time.perf_counter()
        clone.writelog.merge_and_flush(visible & (key < ACTIVE_KEY), key)
        t4 = time.perf_counter()
        for phase, (a, b) in zip(PHASES, ((t0, t1), (t1, t2), (t2, t3),
                                          (t3, t4))):
            times[phase].append(b - a)
        buf = clone = None
        gc.collect()
        t0 = time.perf_counter()
        fsmod.recover_fs(image.crash_clone(mssd), mode=workloads.MODE,
                         cache_bytes=w.cache_bytes)
        times["cut"].append(time.perf_counter() - t0)
    return {
        "workload": w.name, "seed": seed, "record": record, "reps": reps,
        "log_entries": mssd.writelog.active_gen.tail_slots,
        "phases_s": {phase: _quartiles(s) for phase, s in times.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/cut_phases.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", type=int, default=14000)
    parser.add_argument("--reps", type=int, default=25)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(json.dumps(measure(args.seed, args.record, args.reps), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
