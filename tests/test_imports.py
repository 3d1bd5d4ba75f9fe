"""Every name a qromkit module imports is used there or re-exported, each
public name is listed once, and only ``circuit`` knows which index each
distinct gate has.

No linter ships with the project, so this ``ast`` walk catches the imports
that a deletion leaves behind, any module that keys anything by ``id``
(``circuit`` included: a circuit identifies its gates by index), and any
module other than ``circuit`` that reads ``Circuit._interned`` instead of
reading the circuit's distinct gates and index array.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import qromkit

MODULES = sorted(Path(qromkit.__file__).parent.glob("*.py"))

#: The modules whose ``__all__`` lists the package joins, in its order.
EXPORTING = (
    "circuit", "gatefile", "iteration", "qrom", "baselines", "costs", "simulate", "tablefile",
)


def module_at(path: Path):
    return qromkit if path.stem == "__init__" else importlib.import_module(f"qromkit.{path.stem}")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, mapped to the import's line number; a
    ``from .x import *`` binds every name in ``x.__all__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
            module = importlib.import_module(f"qromkit.{node.module}")
            names.update(dict.fromkeys(module.__all__, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def top_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module's own top-level statements define, imports left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(module_at(path), "__all__", ()))
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used and name not in exported
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_package_exports_each_module_name_once():
    modules = [importlib.import_module(f"qromkit.{name}") for name in EXPORTING]
    joined = [name for module in modules for name in module.__all__]
    assert qromkit.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        tree = ast.parse(Path(module.__file__).read_text())
        foreign = set(module.__all__) - top_level_definitions(tree)
        assert not foreign, f"{module.__name__}.__all__ lists names it does not define: {foreign}"
        for name in module.__all__:
            assert getattr(qromkit, name) is getattr(module, name), name
    assert inspect.isfunction(qromkit.simulate)


def test_a_star_import_binds_its_module_all():
    tree = ast.parse("from .costs import *\nfrom . import costs\n")
    assert imported_names(tree) == {**dict.fromkeys(qromkit.costs.__all__, 1), "costs": 2}


def gate_identity_uses(tree: ast.Module, interned_allowed: bool = False) -> list[int]:
    """Line numbers that use the builtin ``id``, or that read ``_interned``
    unless ``interned_allowed``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_interned" and not interned_allowed
        or isinstance(node, ast.Name) and node.id == "id"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_circuit_knows_gate_identity(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = gate_identity_uses(tree, interned_allowed=path.name == "circuit.py")
    assert not uses, f"{path.name}: id, or _interned outside circuit.py, on lines {uses}"


def test_identity_check_sees_id_and_interned():
    tree = ast.parse("ops = dict(zip(map(id, gates), gates))\nc._interned.values()\nid(g)\n")
    assert gate_identity_uses(tree) == [1, 2, 3]
    assert gate_identity_uses(tree, interned_allowed=True) == [1, 3]


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom re import compile as c, escape\nescape('x')\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == ["c", "os"]
