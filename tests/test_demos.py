"""The demo scripts call the package API as it is, checked without running them."""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_and_keywords_exist(path):
    tree = ast.parse(path.read_text())
    imported = {}
    problems = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0):
            continue
        if node.module.split(".")[0] == "fiolab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    problems.append(f"{node.module} has no {alias.name}")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in imported:
            continue
        params = inspect.signature(imported[node.func.id]).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        problems += [
            f"{node.func.id}() takes no keyword {kw.arg!r}"
            for kw in node.keywords
            if kw.arg is not None and kw.arg not in params
        ]
    assert problems == []
