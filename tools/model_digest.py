"""Digest of the simulator's outputs over a grid of configurations.

Usage, from the root of a source checkout:

    python3 tools/model_digest.py [--ops N] [--profiles P,...] [--modes M,...]

For each profile x mount mode x page cache (the default size, 64 KiB) x
journal mode (ordered, data), replays the seed-1 workload of N records
(default 1000) on a 32 MiB device with a 1 MiB write log and a 256 KiB
write buffer.  With every profile and mode that is 160 configurations.
None of them fills the log far enough to clean it, so the grid of the
two log modes runs once more on a small-log device (64 KiB write log,
1 KiB TxLog, 16 KiB write buffer), where every run cleans; those 80
lines end in ``/small-log`` and give the generation the log ended in.
Every bitmap of those devices is one block, so a last group replays
256 records of varmail and of create in each mount mode on the default
``DeviceConfig`` (32 GiB, multi-block bitmaps), with the default page
cache and ordered journaling; those 8 lines end in ``/default-config``.
Each prints one line: the configuration, ``sim_ns``, the fsck problem
count, the log utilization, and sha256 prefixes of the traffic by
direction and category, of the flash pages plus FTL map, of the device
image, and of the recovery report plus flash after ``crash_clone`` and
``recover_fs``.  The last line is the sha256 of all lines before it, so
two checkouts whose simulated outputs agree print the same last line.
The package is imported from ``src/`` of the checkout that holds this
script.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CACHES = (None, 64 * 1024)   # None: the file system's default page cache
LOG_MODES = ("dual_log", "full")
DEFAULT_CONFIG_PROFILES = ("varmail", "create")
DEFAULT_CONFIG_OPS = 256


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def _flash_parts(mssd):
    """The flash pages with their PPA, then the FTL map, in a fixed order."""
    dev = mssd.device
    for ppa in sorted(dev.pages):
        yield ppa.to_bytes(8, "little") + bytes(dev.pages[ppa])
    yield repr(sorted(dev.ftl.lpa_to_ppa.items())).encode()


def config_line(profile: str, mode: str, cache, journal: str,
                ops: int, device: str = "32MiB") -> str:
    """One digest line; `device` is ``32MiB``, ``small-log`` or
    ``default-config``."""
    from bytefs import bench, image
    from bytefs.device import DeviceConfig, KiB, MiB
    from bytefs.fs import recover_fs

    if device == "default-config":
        config = DeviceConfig()
    elif device == "small-log":
        config = DeviceConfig(capacity_bytes=32 * MiB,
                              log_region_bytes=64 * KiB, txlog_bytes=1 * KiB,
                              write_buffer_bytes=16 * KiB)
    else:
        config = DeviceConfig(capacity_bytes=32 * MiB,
                              log_region_bytes=1 * MiB,
                              write_buffer_bytes=256 * KiB)
    spec = bench.WorkloadSpec(profile, seed=1, ops=ops)
    fs, report, _ = bench.run(spec, config, mode=mode, journal=journal,
                              cache_bytes=cache)
    saved = io.BytesIO()
    image.save(fs.mssd, saved)
    recovered, recovery = recover_fs(image.crash_clone(fs.mssd), mode=mode,
                                     journal=journal,
                                     cache_bytes=fs.cache_bytes)
    crash = _sha(repr(recovery).encode(), *_flash_parts(recovered.mssd))
    label = f"{profile}/{mode}/{cache or 'default'}/{journal}"
    if device == "small-log":
        label += f"/small-log gen={fs.mssd.writelog.active_gen.gen_id}"
    elif device == "default-config":
        label += "/default-config"
    return " ".join((
        label,
        f"sim_ns={report.sim_ns}",
        f"fsck={report.fsck_problems}",
        f"util={report.log_utilization:.6f}",
        f"traffic={_sha(repr(sorted(report.traffic.items())).encode())}",
        f"flash={_sha(*_flash_parts(fs.mssd))}",
        f"image={_sha(saved.getvalue())}",
        f"crash={crash}",
    ))


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from bytefs.bench import PROFILES
    from bytefs.fs import JOURNAL_MODES, MODES

    parser = argparse.ArgumentParser(prog="tools/model_digest.py")
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--profiles", default=",".join(PROFILES))
    parser.add_argument("--modes", default=",".join(MODES))
    args = parser.parse_args(argv)
    profiles, modes = args.profiles.split(","), args.modes.split(",")
    lines = [config_line(profile, mode, cache, journal, args.ops)
             for profile in profiles
             for mode in modes
             for cache in CACHES
             for journal in JOURNAL_MODES]
    lines += [config_line(profile, mode, cache, journal, args.ops,
                          device="small-log")
              for profile in profiles
              for mode in modes if mode in LOG_MODES
              for cache in CACHES
              for journal in JOURNAL_MODES]
    lines += [config_line(profile, mode, None, "ordered", DEFAULT_CONFIG_OPS,
                          device="default-config")
              for profile in profiles if profile in DEFAULT_CONFIG_PROFILES
              for mode in modes]
    for line in lines:
        print(line)
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
