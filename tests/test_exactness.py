"""No float creeps into the library: an AST scan of `src/mqsim/*.py`.

Every inequality mqsim checks is over ints and Fractions.  The scan flags the
four ways a float usually gets in: a float literal, the name `float`, a true
division `/` (a float on ints) and an import from `math`.  Each place where one
of them is exact, or is not an inequality, is allowlisted by module, enclosing
function and construct; anything else fails the first test, and an allowlist
entry that no longer matches fails the second, so the list stays exact.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mqsim"

# (module, enclosing function, construct) -> how many times it may appear
ALLOWED = Counter({
    # the sampler's fair coin; exact verdicts never read it
    ("adversary.py", "random_trace", "float literal 0.5"): 1,
    # rejects float input
    ("model.py", "as_rational", "name float"): 1,
    # integer-only helpers
    ("model.py", "<module>", "math import lcm"): 1,
    ("opt.py", "<module>", "math import prod"): 1,
    # Fraction / Fraction
    ("model.py", "compute_c", "true division"): 2,
})


def _constructs(node: ast.AST):
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        yield f"float literal {node.value!r}"
    elif isinstance(node, ast.Name) and node.id == "float":
        yield "name float"
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        yield "true division"
    elif isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "math":
                yield f"import {alias.name}"
    elif isinstance(node, ast.ImportFrom) and node.module == "math":
        for alias in node.names:
            yield f"math import {alias.name}"


def _scan(node: ast.AST, module: str, where: str, found: Counter) -> None:
    for child in ast.iter_child_nodes(node):
        for construct in _constructs(child):
            found[module, where, construct] += 1
        scope = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        _scan(child, module, scope, found)


def inexact_constructs(root: Path = SRC) -> Counter:
    found: Counter = Counter()
    for path in sorted(root.glob("*.py")):
        _scan(ast.parse(path.read_text()), path.name, "<module>", found)
    return found


def test_no_inexact_construct_outside_the_allowlist():
    assert inexact_constructs() - ALLOWED == Counter()


def test_every_allowlist_entry_is_still_needed():
    assert ALLOWED - inexact_constructs() == Counter()


def test_the_scan_flags_each_construct(tmp_path):
    (tmp_path / "bad.py").write_text(
        "import math\nfrom math import floor\n"
        "def f(a, b):\n    a /= b\n    return float(a) < 0.5 or a / b\n"
    )
    assert inexact_constructs(tmp_path) == Counter({
        ("bad.py", "<module>", "import math"): 1,
        ("bad.py", "<module>", "math import floor"): 1,
        ("bad.py", "f", "true division"): 2,
        ("bad.py", "f", "name float"): 1,
        ("bad.py", "f", "float literal 0.5"): 1,
    })
