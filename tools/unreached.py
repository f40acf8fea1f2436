"""Lines of the bytefs package that no test runs.

Usage, from the root of a source checkout:

    python3 tools/unreached.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on ``tests/``) under a line
tracer, installed with ``sys.settrace`` and ``threading.settrace``, that
records only code in ``src/bytefs``; coverage.py is not a dependency of
the project.  Then prints, per module, how many of its executable lines
(those its code objects name in ``co_lines()``) no test ran and which
they are, as ranges, and last a total.  The exit status is pytest's.
The tracer slows the tests down several times: on a 2-core container
all of ``tests/`` takes about 3 minutes under it.  The package is
imported from ``src/`` of the checkout that holds this script.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bytefs"


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that its code objects attribute bytecode to
    (line 0 is the module's own entry, not a line of the file)."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line > 0)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Ascending line numbers as "a-b, c, ..." runs."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the tracer on; returns its exit code and the lines
    run per module file of the package."""
    import pytest

    hits: dict[str, set[int]] = {}
    # co_filename -> the line tracer of its module, or None outside the
    # package
    by_name: dict[str, object] = {}
    package = str(PACKAGE) + os.sep

    def line_tracer(seen: set[int]):
        def trace_lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        local = by_name.get(name, False)
        if local is False:
            path = os.path.abspath(name)
            local = by_name[name] = (
                line_tracer(hits.setdefault(path, set()))
                if path.startswith(package) else None)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    # read before the run, so the lines are those of the code it imports
    modules = {path: executable_lines(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    code, hits = run_traced(argv or ["-q", "-p", "no:cacheprovider",
                                     str(ROOT / "tests")])
    total = missed = 0
    for path, lines in modules.items():
        unreached = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed += len(unreached)
        where = f": {ranges(unreached)}" if unreached else ""
        print(f"{path.relative_to(ROOT)}: {len(unreached)} of {len(lines)} "
              f"lines unreached{where}")
    print(f"total: {missed} of {total} lines unreached")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
