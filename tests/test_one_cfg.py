"""Each image has one CFG, and one definition of which sections are code.

Static analyses read the image's stored CFG (``analysis.cfg.image_cfg``
and the counted ``cached_cfg``), which also holds the block index and
each code segment's instruction boundaries; only ``analysis/cfg.py``
recovers a CFG.  Which sections hold code is ``EXEC_SECTIONS``, defined
in ``binfmt/object.py`` and read by ``SelfImage.code_segments``.  This
check walks every module under ``src/repro`` with the standard
library's ``ast``.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SOURCE_ROOT = pathlib.Path(repro.__file__).parent
CFG_MODULE = SOURCE_ROOT / "analysis" / "cfg.py"
SECTIONS_MODULE = SOURCE_ROOT / "binfmt" / "object.py"


def _modules() -> list[tuple[pathlib.Path, ast.Module]]:
    modules = sorted(SOURCE_ROOT.rglob("*.py"))
    assert len(modules) > 100
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in modules]


def _where(path: pathlib.Path, node: ast.AST) -> str:
    return f"{path.relative_to(SOURCE_ROOT.parent)}:{node.lineno}"


def _calls_build_cfg(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "build_cfg"


def _spells_code_sections(node: ast.AST) -> bool:
    """A tuple, list or set literal of exactly ``"text"`` and ``"plt"``."""
    if not isinstance(node, ast.Tuple | ast.List | ast.Set):
        return False
    values = [getattr(element, "value", None) for element in node.elts]
    return len(values) == 2 and set(values) == {"text", "plt"}


def test_only_the_cfg_module_recovers_a_cfg():
    found = [
        _where(path, node)
        for path, tree in _modules() if path != CFG_MODULE
        for node in ast.walk(tree) if _calls_build_cfg(node)
    ]
    assert found == []


def test_code_sections_are_spelled_once():
    found = [
        _where(path, node)
        for path, tree in _modules() if path != SECTIONS_MODULE
        for node in ast.walk(tree) if _spells_code_sections(node)
    ]
    assert found == []
