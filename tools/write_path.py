"""Wall time of the byte write path, on the device and in a replay.

Usage, from the root of a source checkout:

    python3 tools/write_path.py [--seed N] [--reps K] [--ops M]

Prints one JSON object with two medians (and quartiles) over K
repetitions:

- ``device_us``: microseconds per transaction of begin, one 64 B
  ``tx_write`` on a cacheline and commit, on a fresh ``Mssd`` of the
  ``crash_oltp`` device (64 MiB, 4 MiB write log) per repetition.  Each
  repetition runs M transactions at consecutive cachelines, fewer than
  the log holds before it cleans, so no clean is timed.
- ``replay_s``: seconds of the ``apply_record`` loop over the whole
  ``crash_oltp`` trace of perfbench seed N, on a freshly set-up device
  per repetition, with no power cut.  The trace build, ``mkfs`` and
  ``mount`` are not timed.

Repetitions alternate the two measurements, and garbage is collected
before each.  The package is imported from ``src/`` of the checkout
that holds this script, and the workload from its ``perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def device_us(config, ops: int) -> float:
    """Microseconds per begin + one-cacheline tx_write + commit."""
    from bytefs.device import CACHELINE
    from bytefs.mssd import Mssd

    mssd = Mssd(config)
    data = b"\x5a" * CACHELINE
    begin, write, commit = mssd.tx_begin, mssd.tx_write, mssd.tx_commit
    start = time.perf_counter()
    for i in range(ops):
        txid = begin()
        write(txid, i * CACHELINE, data, "inode")
        commit(txid)
    elapsed = time.perf_counter() - start
    assert mssd.writelog.active_gen.gen_id == 0  # no clean was timed
    return elapsed / ops * 1e6


def replay_s(w, seed: int) -> float:
    """Seconds of the replay loop of one freshly set-up round."""
    from bytefs import bench

    import workloads

    records, _, fs = workloads.set_up(w, w.trace_seed(seed))
    fds: dict[str, int] = {}
    apply = bench.apply_record
    start = time.perf_counter()
    for rec in records:
        apply(fs, rec, fds)
    return time.perf_counter() - start


def measure(seed: int, reps: int, ops: int) -> dict:
    import workloads

    w = workloads.WORKLOADS["crash_oltp"]
    config = w.config()
    device, replay = [], []
    for _ in range(reps):
        gc.collect()
        device.append(device_us(config, ops))
        gc.collect()
        replay.append(replay_s(w, seed))
    return {"workload": w.name, "seed": seed, "reps": reps,
            "device_ops": ops, "device_us": _quartiles(device),
            "replay_s": _quartiles(replay)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/write_path.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--ops", type=int, default=20000)
    args = parser.parse_args(argv)
    if args.reps < 2 or args.ops < 1:
        parser.error("--reps must be at least 2 and --ops at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(json.dumps(measure(args.seed, args.reps, args.ops), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
