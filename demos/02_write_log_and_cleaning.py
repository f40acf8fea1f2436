"""Firmware write log and cleaning.

Byte writes land in a log-structured region of device DRAM, indexed by
partitioned skip lists so reads can be served from the log.  When the
region fills past its threshold, the log cleans itself: it merges
committed entries back to flash (batched to exploit channel parallelism)
and switches to a fresh log generation.  `Mssd.clean` runs a clean at
once.
"""

from bytefs.device import DeviceConfig, KiB, MiB
from bytefs.mssd import Mssd

cfg = DeviceConfig(capacity_bytes=8 * MiB, log_region_bytes=64 * KiB,
                   txlog_bytes=1 * KiB, write_buffer_bytes=16 * KiB)
mssd = Mssd(cfg)

print("== small writes absorb into the log; flash stays untouched ==")
before = mssd.traffic_snapshot()
for i in range(256):
    mssd.byte_write(i * 64, bytes([i % 255 + 1]) * 64, category="data")
d = mssd.traffic_snapshot().delta(before)
print(f"  256 writes: flash_write={d.total('flash_write')} bytes,"
      f" log utilization={mssd.utilization():.0%}")

print("== reads of logged data are log hits (no flash read) ==")
before = mssd.traffic_snapshot()
data = mssd.byte_read(10 * 64, 64)
d = mssd.traffic_snapshot().delta(before)
print(f"  byte_read hit: flash_read={d.total('flash_read')},"
      f" payload={data[:4].hex()}...")

print("== cleaning merges the log to flash and resets the generation ==")
rep = mssd.clean()
print(f"  pages_flushed={rep.pages_flushed} flash_reads={rep.flash_reads}")
print(f"  utilization after clean: {mssd.utilization():.0%},"
      f" generation={mssd.writelog.active_gen.gen_id}")

print("== flash now holds the merged content ==")
page = mssd.block_read(0)
print(f"  flash page0 cacheline 10 = {page[640:644].hex()}..."
      f" (expected {(bytes([11]) * 4).hex()})")

print("== partially dirty pages are read-modify-merged, not zero-filled ==")
mssd.block_write(5, b"\x99" * cfg.page_size)   # baseline flash content
mssd.byte_write(5 * 4096 + 128, b"\x11" * 64)  # one dirty cacheline
mssd.clean()
page = mssd.block_read(5)
print(f"  page5[128:132]={page[128:132].hex()} (new),"
      f" page5[0:4]={page[0:4].hex()} (preserved)")

print("== the log cleans itself once it passes its threshold ==")
gen = mssd.writelog.active_gen.gen_id
slots = mssd.writelog.active_gen.capacity_slots
for i in range(slots):
    mssd.byte_write((64 + i // 64) * 4096 + i % 64 * 64, b"\x22" * 64)
    if mssd.writelog.active_gen.gen_id != gen:
        break
print(f"  cleaned by write {i + 1} of a {slots}-slot log"
      f" (threshold {cfg.clean_threshold:.0%}): generation {gen} ->"
      f" {mssd.writelog.active_gen.gen_id},"
      f" utilization {mssd.utilization():.0%}")
