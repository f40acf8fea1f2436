"""Host-cost benchmark of the bytefs simulator.

Usage, from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced round.  Each line is ``name value unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process.
The package is imported from ``src/`` of the checkout that holds this
script, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package():
    if not (SRC / "bytefs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bytefs sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bytefs
    if Path(bytefs.__file__).resolve().parent != SRC / "bytefs":
        sys.exit(f"perfbench: imported bytefs from {bytefs.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    import workloads

    if args.workload == "all":
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if subprocess.run(cmd).returncode:
                return 1
        return 0
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS) + " or all")

    if args.trace:
        result = workloads.trace(w, args.seed)
    else:
        result = workloads.measure(w, args.seed, args.seconds)
    for line in result.problems + result.failures:
        print(f"{w.name}: {line}", file=sys.stderr)
    print(f"# {w.name}: {w.profile} trace seed {result.trace_seed}, "
          f"{len(result.rounds)} rounds of {w.ops} records")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'}"
              f" {unit}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
