"""Every name a ``src/`` module imports is used by that module.

An unused import misleads a reader about what a module depends on.  The
scan is plain ``ast``: a name counts as used when the module loads it
anywhere, names it in a quoted annotation, or lists it in ``__all__``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                args.vararg,
                args.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(element.value for element in node.value.elts)
    return used


def unused_imports(source):
    """``(line, name)`` of every name ``source`` imports and never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((node.lineno, bound))
    return unused


def test_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Dict, List, Tuple as T\n"
        "__all__ = ['List']\n"
        "def f(x: 'Dict[str, int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "os"), (3, "T")]


def test_src_imports_no_unused_names():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
