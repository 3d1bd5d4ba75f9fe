"""Every name a qromkit module imports is used there or re-exported, and
only ``circuit`` knows which index each distinct gate has.

No linter ships with the project, so this ``ast`` walk catches the imports
that a deletion leaves behind, any module that keys anything by ``id``
(``circuit`` included: a circuit identifies its gates by index), and any
module other than ``circuit`` that reads ``Circuit._interned`` instead of
reading the circuit's distinct gates and index array.
"""
import ast
from pathlib import Path

import pytest

import qromkit

MODULES = sorted(Path(qromkit.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, mapped to the import's line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used and name not in exported_names(tree)
    }
    assert not unused, f"{path.name}: unused imports {unused}"


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
