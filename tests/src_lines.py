"""List every line of `src/mqsim` that the tier-1 suite never runs.

Run from anywhere, with the test dependencies installed:

    python tests/src_lines.py

The whole suite runs in this process, under `--hypothesis-seed=0` and with
every warning raised as an error (`-W error`), with a `sys.settrace` hook that
records each line run in a frame whose code lives in `src/mqsim`; frames of
other code get no line tracing.  A line counts as
runnable when one of the package's code objects maps an instruction to it
(`co_lines()`).  The script prints `module:line` for each runnable line that
never ran and exits 1 when there is one, or with pytest's own exit code when
the suite fails.  Lines run only in a forked worker process are not seen, so a
line that only a pool worker runs is listed.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mqsim"


def runnable_lines(path: Path) -> set[int]:
    """Every line that an instruction of the module's code objects maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module prologue
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_suite() -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code and the lines run, per resolved file of `src/mqsim`."""
    ran: dict[Path, set[int]] = {}
    hits_of: dict[str, set[int] | None] = {}  # co_filename -> its set in `ran`, None if not ours

    def trace_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in hits_of:
            path = Path(filename).resolve()
            hits_of[filename] = ran.setdefault(path, set()) if path.parent == SRC else None
        hits = hits_of[filename]
        if hits is None:
            return None

        def trace_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return trace_line

        return trace_line

    sys.path.insert(0, str(ROOT / "src"))  # the package whose files the hook watches
    sys.settrace(trace_call)
    try:
        # Every @given test sets derandomize=True, which ignores the seed; the
        # seed fixes the examples of any later test that does not.
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-W", "error", "--hypothesis-seed=0",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_suite()
    unrun = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in sorted(runnable_lines(path) - ran.get(path, set()))]
    for name, line in unrun:
        print(f"src/mqsim/{name}:{line}")
    print(f"{len(unrun)} line(s) of src/mqsim never ran")
    return code or (1 if unrun else 0)


if __name__ == "__main__":
    sys.exit(main())
