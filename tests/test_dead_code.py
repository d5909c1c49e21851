"""No dead private code in the library: an AST scan of `src/mqsim/*.py`.

A private name (one leading underscore, not a dunder) is defined for the
library's own use, so one that nothing in `src/` reads is dead.  The scan
collects each module's private top-level functions, classes and assigned
names and each class's private methods, and every name that `src/` reads: a
loaded name, an attribute, or a name imported from a module.  A definition is
not a read, so a private function that nothing calls is flagged.  Tests may
import private names too, but that does not keep one alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mqsim"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module, module: str):
    """(module, name) of each private top-level definition and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        yield from ((module, name) for name in names if _private(name))


def _read(tree: ast.Module):
    """Every name the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread_private_names(root: Path = SRC) -> list[tuple[str, str]]:
    defined, read = [], set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += _defined(tree, path.name)
        read.update(_read(tree))
    return [(module, name) for module, name in defined if name not in read]


def test_every_private_name_is_read_in_src():
    assert unread_private_names() == []


def test_the_scan_flags_unread_private_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import _imported\n_TABLE = {}\n_unused = 1\n"
        "def _dead(x):\n    return x\n"
        "def _called():\n    return _TABLE\n"
        "class _Unused:\n    def _method(self):\n        return self._used()\n"
        "    def _used(self):\n        return _called()\n    def __len__(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text("def _imported():\n    pass\n")
    assert unread_private_names(tmp_path) == [
        ("a.py", "_unused"), ("a.py", "_dead"), ("a.py", "_Unused"), ("a.py", "_method")]
