"""``bytefs-bench``: benchmark, trace replay, crash testing, image tools.

Subcommands: run | replay | crash | sweep | fsck | recover.
"""

from __future__ import annotations

import argparse
import sys

from . import bench, image
from .bench import WorkloadSpec
from .errors import ByteFSError
from .fs import recover_fs


_OPTIONS = {
    "--config": dict(metavar="PATH", help="key = value config file"),
    "--mode": dict(metavar="M",
                   help="mount mode: block_only|dual|dual_log|full"),
    "--seed": dict(metavar="N", type=int, help="workload seed"),
    "--profile": dict(metavar="P", help="workload profile ("
                      + "|".join(bench.PROFILES) + ")"),
    "--out": dict(metavar="PATH",
                  help="write the machine-readable report here"),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bytefs-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a workload profile")
    _add_options(p_run, "--config", "--mode", "--seed", "--profile", "--out")

    p_replay = sub.add_parser("replay", help="replay a recorded trace")
    p_replay.add_argument("trace", metavar="TRACE", help="trace file to replay")
    _add_options(p_replay, "--config", "--mode", "--out")

    p_crash = sub.add_parser("crash", help="crash mid-workload and verify "
                                           "recovery")
    _add_options(p_crash, "--config", "--mode", "--seed", "--profile", "--out")
    p_crash.add_argument("--crash-at", metavar="K", type=int, required=True,
                         help="crash after K operations")

    p_sweep = sub.add_parser("sweep", help="run one profile in every mode")
    _add_options(p_sweep, "--config", "--seed", "--profile", "--out")

    p_fsck = sub.add_parser("fsck", help="check a device image")
    _add_options(p_fsck, "--config")
    p_fsck.add_argument("--image", metavar="PATH", required=True,
                        help="device image file")

    p_recover = sub.add_parser("recover", help="recover a crashed image")
    _add_options(p_recover, "--config")
    p_recover.add_argument("--out", metavar="PATH",
                           help="write the recovered image here")
    p_recover.add_argument("--image", metavar="PATH", required=True,
                           help="device image file")
    return parser


def _load_options(args):
    options = bench.load_config(args.config) if args.config else {}
    config, fs_opts, workload = bench.split_config(options)
    fs_opts = {"mode": "full", "journal": "ordered", **fs_opts}
    if getattr(args, "mode", None):
        fs_opts["mode"] = args.mode
    if getattr(args, "profile", None):
        workload["profile"] = args.profile
    if getattr(args, "seed", None) is not None:
        workload["seed"] = args.seed
    return config, fs_opts, workload


def _spec(workload: dict) -> WorkloadSpec:
    if "profile" not in workload:
        raise ByteFSError("no profile given (use --profile or a config file)")
    return WorkloadSpec(**workload)


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)


def cmd_run(args) -> int:
    config, fs_opts, workload = _load_options(args)
    spec = _spec(workload)
    _fs, report, records = bench.run(
        spec, config, mode=fs_opts["mode"], journal=fs_opts["journal"],
        cache_bytes=fs_opts.get("cache_bytes"))
    print(report.table())
    _write_out(args, report.emit())
    if args.out:
        bench.write_trace(records, args.out + ".trace")
    return 0


def cmd_replay(args) -> int:
    config, fs_opts, _workload = _load_options(args)
    records = bench.read_trace(args.trace)
    fs = bench.format_and_mount(config, fs_opts["mode"], fs_opts["journal"],
                                fs_opts.get("cache_bytes"))
    report = bench.replay(fs, records)
    print(report.table())
    _write_out(args, report.emit())
    return 0


def cmd_crash(args) -> int:
    config, fs_opts, workload = _load_options(args)
    spec = _spec(workload)
    verdict = bench.crash_run(spec, args.crash_at, config,
                              mode=fs_opts["mode"], journal=fs_opts["journal"],
                              cache_bytes=fs_opts.get("cache_bytes"))
    print(f"crash after {verdict.crash_at} ops: "
          f"{'PASS' if verdict.ok else 'FAIL'}")
    for label, items in (("missing", verdict.missing),
                         ("corrupt", verdict.corrupt),
                         ("unexpected", verdict.unexpected),
                         ("fsck", verdict.fsck_problems)):
        for item in items:
            print(f"  {label}: {item}")
    _write_out(args, verdict.emit())
    return 0 if verdict.ok else 1


def cmd_sweep(args) -> int:
    config, fs_opts, workload = _load_options(args)
    spec = _spec(workload)
    reports = bench.sweep(spec, config, journal=fs_opts["journal"])
    print(bench.sweep_table(reports))
    _write_out(args, bench.sweep_emit(reports))
    return 0


def _recover_image(args):
    """Load `--image` and recover it in the mode its write log allows:
    full with a log, dual without."""
    _config, fs_opts, _workload = _load_options(args)
    mssd = image.load(args.image)
    fs, report = recover_fs(mssd, mode="full" if mssd.log_enabled else "dual",
                            journal=fs_opts["journal"])
    return mssd, fs, report


def cmd_fsck(args) -> int:
    _mssd, fs, _report = _recover_image(args)
    problems = fs.fsck()
    if problems:
        for p in problems:
            print(p)
        print(f"{len(problems)} problem(s) found")
        return 1
    print("clean")
    return 0


def cmd_recover(args) -> int:
    mssd, fs, report = _recover_image(args)
    print(f"scanned {report.entries_scanned} log entries, "
          f"flushed {report.entries_flushed}, "
          f"discarded {report.entries_discarded} "
          f"({report.elapsed_sim_ns} simulated ns)")
    problems = fs.fsck()
    print("fsck: clean" if not problems
          else f"fsck: {len(problems)} problem(s)")
    if args.out:
        image.save(mssd, args.out)
        print(f"recovered image written to {args.out}")
    return 0 if not problems else 1


_COMMANDS = {
    "run": cmd_run, "replay": cmd_replay, "crash": cmd_crash,
    "sweep": cmd_sweep, "fsck": cmd_fsck, "recover": cmd_recover,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ByteFSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
