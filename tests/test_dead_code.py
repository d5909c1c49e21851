"""No dead private code in the library: an AST scan of `src/mqsim/*.py`.

A private name (one leading underscore, not a dunder) is defined for the
library's own use, so one that nothing in `src/` reads is dead.  The scan
collects each module's private top-level functions, classes and assigned
names and each class's private methods, and every name that `src/` reads: a
loaded name, an attribute, or a name imported from a module.  A definition is
not a read, so a private function that nothing calls is flagged.  Tests may
import private names too, but that does not keep one alive.

A second scan flags a parameter that its function or lambda never reads: a
fact passed beside the argument that already holds it (a class count beside
the caps that fix it) is one a caller can get wrong.

A third flags an attribute that a private class assigns on `self` and that
no code in `src/` loads: a cache or constant left behind when the code that
used it went.
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


def unread_parameters(root: Path = SRC) -> list[tuple[str, str, str]]:
    """(module, function, parameter) of each parameter of a function or lambda
    that its body never reads; `self` and `cls` are skipped.  A read in a
    nested function or lambda counts, so a parameter a closure uses is live."""
    unread = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            name = getattr(node, "name", "<lambda>")
            unread += [(path.name, name, p.arg) for p in params
                       if p.arg not in read and p.arg not in ("self", "cls")]
    return unread


def unread_attributes(root: Path = SRC) -> list[tuple[str, str, str]]:
    """(module, class, attribute) of each attribute that a private class's
    methods assign on `self` and that no code in `root` loads.  Loads are
    matched by attribute name, on any object; a store, `self.x -= 1` too, is
    not a load."""
    assigned, loaded = [], set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _private(cls.name)):
                continue
            names = {node.attr for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name) and node.value.id == "self"}
            assigned += [(path.name, cls.name, name) for name in sorted(names)]
    return [entry for entry in assigned if entry[2] not in loaded]


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


def test_every_parameter_is_read_in_src():
    assert unread_parameters() == []


def test_the_scan_flags_unread_parameters(tmp_path):
    (tmp_path / "a.py").write_text(
        "def evaluate(events, caps, space):\n    return space.run(events)\n"
        "def outer(x, *args, y, **kwargs):\n    return lambda z: x + len(args)\n"
        "class C:\n    def method(self, v):\n        return v\n"
        "    @classmethod\n    def make(cls, unused=0):\n        return cls()\n"
    )
    assert unread_parameters(tmp_path) == [
        ("a.py", "evaluate", "caps"), ("a.py", "outer", "y"), ("a.py", "outer", "kwargs"),
        ("a.py", "make", "unused"), ("a.py", "<lambda>", "z")]


def test_every_attribute_of_a_private_class_is_read_in_src():
    assert unread_attributes() == []


def test_the_scan_flags_unread_attributes(tmp_path):
    (tmp_path / "a.py").write_text(
        "class _Space:\n"
        "    def __init__(self, n):\n"
        "        self.size, self.tail = n, [0]\n"
        "        self.room = self.drain = n\n"
        "    def take(self):\n"
        "        self.room -= 1\n"
        "class Public:\n"
        "    def __init__(self):\n"
        "        self.unread = 0\n"
    )
    (tmp_path / "b.py").write_text("def width(space):\n    return space.size\n")
    assert unread_attributes(tmp_path) == [
        ("a.py", "_Space", "drain"), ("a.py", "_Space", "room"), ("a.py", "_Space", "tail")]
