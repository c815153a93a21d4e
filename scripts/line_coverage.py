"""List the lines of src/ghl that a pytest run never executes.

    python scripts/line_coverage.py [PYTEST ARGS...]

Run from the root of a source checkout; with no arguments it runs the
Tier-1 suite (`tests/`).  It uses the standard library only: a
`sys.settrace` hook records each line event in a file under src/ghl, and a
line counts as executable when a code object compiled from that file maps
bytecode to it (`co_lines`).  The output is one line per file with its
count of unexecuted lines out of the executable ones and their numbers,
then the totals; the exit code is pytest's.  Tracing slows the suite
several-fold."""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ghl"


def executable_lines(path: Path) -> set[int]:
    """The lines of path that some compiled code object holds bytecode for."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(SRC) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        left = sorted(lines - seen.get(str(path), set()))
        missed, total = missed + len(left), total + len(lines)
        print(f"{path.relative_to(ROOT)}: {len(left)} of {len(lines)} unexecuted"
              + (f": {', '.join(map(str, left))}" if left else ""))
    print(f"total: {missed} of {total} executable lines unexecuted")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
