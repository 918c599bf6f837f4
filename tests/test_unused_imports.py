"""Every name a ``repro`` module imports is read by that module.

CI's ruff job applies F401 to a few packages only; this check covers all
of ``src/repro`` with the standard library's ``ast``.  A package
``__init__`` may import names to re-export them, and any module may
import a name it lists in ``__all__``.  Quoted annotations count as
reads, since ``TYPE_CHECKING`` imports are often used only there.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SOURCE_ROOT = pathlib.Path(repro.__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in ``tree`` -> its line."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _read(tree: ast.Module) -> set[str]:
    """Names ``tree`` loads, including those inside quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(
                    inner.id for inner in ast.walk(quoted)
                    if isinstance(inner, ast.Name)
                )
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name == "__init__.py":
        return []
    used = _read(tree) | _exported(tree)
    return [
        f"{path.relative_to(SOURCE_ROOT.parent)}:{line}: {name}"
        for name, line in sorted(_imported(tree).items())
        if name not in used
    ]


def test_every_import_is_read():
    modules = sorted(SOURCE_ROOT.rglob("*.py"))
    assert len(modules) > 100
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []
