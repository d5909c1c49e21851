"""Byte-exact stdout, stderr and exit codes of the README commands and demos,
and the printed line of the README's `python` block.

Each case runs in-process: a CLI case through `mqsim.cli.main`, a demo through
`runpy` as `__main__`.  The expected output is in `tests/golden/<case>.stdout`
and `<case>.stderr`.  After an intended output change, rewrite those files
with `PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import io
import re
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import mqsim.cli as cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
WITNESS = "A 1\nA 2\nS\nA 1\nS\nS\n"
TRACE = "{trace}"  # replaced by the path of a file holding WITNESS

# (case, argv or demo script, exit code)
CASES = [
    ("simulate", ["simulate", "--values", "1", "2", "--caps", "1", "1", "--trace", TRACE], 0),
    ("verify", ["verify", "--values", "1", "2", "--caps", "1", "1", "--trace", TRACE], 0),
    ("bound", ["bound", "--values", "1", "2"], 0),
    ("search_exhaustive",
     ["search", "--values", "1", "2", "--caps", "1", "1", "--max-len", "10", "--jobs", "4"], 0),
    ("search_random", ["search", "--values", "1", "2", "--caps", "1", "1", "--samples", "5000",
                       "--seed", "42", "--max-len", "12"], 0),
    ("search_random_m4", ["search", "--values", "1", "3", "4", "10", "--caps", "2", "1", "2", "1",
                          "--samples", "300", "--seed", "7", "--max-len", "20"], 0),
    ("bound_123", ["bound", "--values", "1", "2", "3"], 0),
    ("state_cap", ["verify", "--values", "1", "2", "--caps", "1", "1", "--trace", TRACE,
                   "--state-cap", "3"], 3),
    ("demo_bounds_tour", "bounds_tour.py", 0),
    ("demo_trace_walkthrough", "trace_walkthrough.py", 0),
    ("demo_verification_report", "verification_report.py", 0),
    ("demo_worst_case_hunt", "worst_case_hunt.py", 0),
]


def run_case(command, trace_path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if isinstance(command, str):
            runpy.run_path(str(ROOT / "demos" / command), run_name="__main__")
            code = 0
        else:
            code = cli.main([str(trace_path) if a == TRACE else a for a in command])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case, command, expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(case, command, expected_code, tmp_path):
    trace_path = tmp_path / "witness.trace"
    trace_path.write_text(WITNESS)
    code, out, err = run_case(command, trace_path)
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.stdout").read_text()
    assert err == (GOLDEN / f"{case}.stderr").read_text()


def test_readme_library_block():
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "1 3/2 True\n"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "witness.trace"
        trace_path.write_text(WITNESS)
        for case, command, expected_code in CASES:
            code, out, err = run_case(command, trace_path)
            if code != expected_code:
                sys.exit(f"{case}: exit {code}, expected {expected_code}")
            (GOLDEN / f"{case}.stdout").write_text(out)
            (GOLDEN / f"{case}.stderr").write_text(err)
