"""Crash-point harness: durability checking after recovery.

crash_run executes a workload up to a chosen operation index, clones the
device as it would look after power loss (host state gone, firmware log
and TxLog intact), recovers, and checks the recovered tree against a
durability oracle: namespace operations are durable once the call
returns; file contents and sizes are durable as of the last fsync.
"""

from bytefs import bench
from bytefs.bench import WorkloadSpec
from bytefs.device import DeviceConfig, KiB, MiB

cfg = DeviceConfig(capacity_bytes=8 * MiB, log_region_bytes=64 * KiB,
                   txlog_bytes=1 * KiB, write_buffer_bytes=16 * KiB)
spec = WorkloadSpec("varmail", seed=21, ops=150, threads=2)

print("== crash at several points in one varmail workload ==")
for crash_at in (0, 25, 75, 150):
    v = bench.crash_run(spec, crash_at, cfg, mode="full")
    status = "OK" if v.ok else (f"missing={v.missing} corrupt={v.corrupt} "
                                f"unexpected={v.unexpected} "
                                f"fsck={v.fsck_problems}")
    print(f"  crash_at={crash_at:>3}: {status}")

print()
print("The same harness is scriptable from the CLI, e.g.:")
print("  bytefs-bench run   --profile varmail --seed 21 --mode full"
      " --out run.txt")
print("  bytefs-bench crash --profile varmail --seed 21 --crash-at 75")
print("  bytefs-bench sweep --profile oltp --seed 7")
print("  bytefs-bench fsck  --image saved.bfsm")
