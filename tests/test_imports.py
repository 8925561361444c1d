"""Package layout rules that hold for every module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fiolab"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    # a module's private names are its own; what another module needs
    # is part of the public surface
    tree = ast.parse(path.read_text())
    private = [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


ROOT = SRC.parent.parent
# where a public name counts as used: the package, the demos and the
# benchmark, which names the functions it traces as "module.name"
USERS = [ROOT / "src", ROOT / "demos", ROOT / "perfbench"]


def _listed(tree):
    """The names of a module's literal ``__all__``; the package's own,
    built from its imports, lists nothing of its own."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                return ast.literal_eval(node.value)
    return []


def test_every_public_name_has_a_user():
    # a name counts as used where it is read, not where it is defined,
    # imported or listed in __all__; a name that nothing reads should go
    read, traced = set(), set()
    for path in (p for d in USERS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                traced.add(node.value)
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _listed(ast.parse(path.read_text()))
        if name not in read and f"{path.stem}.{name}" not in traced
    ]
    assert unused == []


def _unused_imports(path):
    """The names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports_in_src(path):
    # every name a module imports is read in it; the package's
    # __init__ imports only to re-export
    assert _unused_imports(path) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports_in_tests_and_demos(path):
    assert _unused_imports(path) == []
