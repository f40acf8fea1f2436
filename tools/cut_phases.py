"""Wall time of the phases of one simulated power cut.

Usage, from the root of a source checkout:

    python3 tools/cut_phases.py [--workload W] [--seed N] [--record R]
                                [--reps K]

Replays workload W of ``perfbench/workloads.py`` (``crash_oltp``, the
default, or ``varmail_default``) up to record R, then cuts power K times
on that one device.  R defaults to 14 000 for ``crash_oltp`` and to the
last record, where its one cut falls, for ``varmail_default``.  Each
repetition times the four phases of a cut on a fresh clone:
``image.save`` into a ``BytesIO``, ``image.load`` of it (of a ``BytesIO``
made from its ``getvalue``, as ``image.crash_clone`` loads it),
``WriteLog.visibility`` and ``WriteLog.merge_and_flush``; and, on another
clone, the whole cut as the benchmark times it (``image.crash_clone``
plus ``recover_fs``), split into ``recover`` (the device recovery that
``recover_fs`` starts with) and ``mount`` (the rest of ``recover_fs``).
Each phase is also charged the minor page faults its own process took
in it (the ``ru_minflt`` delta of ``getrusage(RUSAGE_SELF)``), so a cost
of fresh memory shows beside the time it takes.  glibc raises its mmap
threshold once a large block is freed, so a buffer the first repetition
takes fresh from the kernel may come from the heap later: the fault
counts give the first repetition too, which is what a process that cuts
power once pays.  Prints one JSON object: per phase, the median and
quartiles in seconds (``phases_s``) and in minor faults
(``phases_minflt``, with ``first``), plus the number of write-log
entries (``log_entries``) and of TxLog entries (``txlog_entries``) at
the cut: ``save``, ``load`` and ``visibility`` handle both.  The
package is imported from ``src/`` of the checkout that holds this
script.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PHASES = ("save", "load", "visibility", "merge", "cut", "recover", "mount")

# the default cut point of each workload
RECORD = {"crash_oltp": 14000, "varmail_default": 128}


def _stamp() -> tuple[float, int]:
    """Wall time and minor page faults of this process so far."""
    return (time.perf_counter(),
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def measure(workload: str, seed: int, record: int, reps: int) -> dict:
    from bytefs import bench, image
    from bytefs import fs as fsmod
    from bytefs.writelog import ACTIVE_KEY

    import workloads

    w = workloads.WORKLOADS[workload]
    records, mssd, fs = workloads.set_up(w, w.trace_seed(seed))
    fds: dict[str, int] = {}
    for rec in records[:record]:
        bench.apply_record(fs, rec, fds)
    times = {phase: [] for phase in PHASES}
    faults = {phase: [] for phase in PHASES}

    def charge(phase, a, b):
        times[phase].append(b[0] - a[0])
        faults[phase].append(b[1] - a[1])

    for _ in range(reps):
        gc.collect()
        t0 = _stamp()
        buf = io.BytesIO()
        image.save(mssd, buf)
        t1 = _stamp()
        clone = image.load(io.BytesIO(buf.getvalue()))  # as crash_clone
        t2 = _stamp()
        visible, key = clone.writelog.visibility()
        t3 = _stamp()
        clone.writelog.merge_and_flush(visible & (key < ACTIVE_KEY), key)
        t4 = _stamp()
        for phase, (a, b) in zip(PHASES, ((t0, t1), (t1, t2), (t2, t3),
                                          (t3, t4))):
            charge(phase, a, b)
        buf = clone = None
        gc.collect()
        t0 = _stamp()
        clone = image.crash_clone(mssd)
        t1 = _stamp()
        recovered = []
        device_recover = clone.recover

        def recover():
            report = device_recover()
            recovered.append(_stamp())
            return report

        clone.recover = recover
        fsmod.recover_fs(clone, mode=workloads.MODE,
                         cache_bytes=w.cache_bytes)
        t2 = _stamp()
        charge("cut", t0, t2)
        charge("recover", t1, recovered[0])
        charge("mount", recovered[0], t2)
        clone = device_recover = None
    return {
        "workload": w.name, "seed": seed, "record": record, "reps": reps,
        "log_entries": mssd.writelog.active_gen.tail_slots,
        "txlog_entries": len(mssd.txlog.entries),
        "phases_s": {phase: _quartiles(s) for phase, s in times.items()},
        "phases_minflt": {phase: {**_quartiles(n), "first": n[0]}
                          for phase, n in faults.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/cut_phases.py")
    parser.add_argument("--workload", choices=sorted(RECORD),
                        default="crash_oltp")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", type=int)
    parser.add_argument("--reps", type=int, default=25)
    args = parser.parse_args(argv)
    record = RECORD[args.workload] if args.record is None else args.record
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(json.dumps(measure(args.workload, args.seed, record, args.reps),
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
