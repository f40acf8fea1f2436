"""Transactions, crash consistency, and log recovery.

Writes can be grouped into transactions.  The firmware TxLog records
committed transaction ids durably; at cleaning or recovery time, only
entries whose transaction committed reach flash, ordered by commit.
Recovery after a simulated crash is a clean of the log region that
survived: no transaction is open any more, so it discards the uncommitted
entries and flushes the rest — idempotently.  A write to a
cacheline another open transaction has written aborts the writer's
transaction at once (NO_WAIT): nothing waits, so every run is the same.
"""

from bytefs.device import DeviceConfig, KiB, MiB
from bytefs.errors import TxAborted
from bytefs.image import crash_clone
from bytefs.mssd import Mssd

cfg = DeviceConfig(capacity_bytes=8 * MiB, log_region_bytes=64 * KiB,
                   txlog_bytes=1 * KiB, write_buffer_bytes=16 * KiB)
mssd = Mssd(cfg)

print("== committed vs uncommitted writes ==")
ta = mssd.tx_begin()
mssd.tx_write(ta, 0, b"\xaa" * 64)
mssd.tx_commit(ta)
tb = mssd.tx_begin()
mssd.tx_write(tb, 64, b"\xbb" * 64)        # never commits
mssd.byte_write(128, b"\xcc" * 64)         # txid 0: committed at write
print(f"  before crash, reads see all three:"
      f" {mssd.byte_read(0, 64)[:2].hex()}"
      f" {mssd.byte_read(64, 64)[:2].hex()}"
      f" {mssd.byte_read(128, 64)[:2].hex()}")

print("== crash and recover ==")
crashed = crash_clone(mssd)                # drops all host-side state
rep = crashed.recover()
print(f"  scanned={rep.entries_scanned} discarded={rep.entries_discarded}"
      f" flushed={rep.entries_flushed}")
page = crashed.block_read(0)
print(f"  after recovery: committed tx={page[0:2].hex()},"
      f" uncommitted tx={page[64:66].hex()} (zeros),"
      f" committed-at-write={page[128:130].hex()}")

print("== conflict isolation: a colliding writer aborts at once ==")
mssd2 = Mssd(cfg)
t1 = mssd2.tx_begin()
mssd2.tx_write(t1, 0, b"\x11" * 64)
t2 = mssd2.tx_begin()
try:
    mssd2.tx_write(t2, 0, b"\x22" * 64)    # same cacheline, t1 still open
except TxAborted as exc:
    print(f"  second writer: {type(exc).__name__}: {exc}")
print(f"  still active: {sorted(mssd2.txmgr.active_txids())}")
mssd2.tx_commit(t1)
