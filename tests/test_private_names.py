"""Each module of the package uses only the public names of its other
modules: a private name (`nco._x`) reached from another module couples the
two, and a change inside its owner breaks the other without warning."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "renyiflow"


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import noncomm_ops as nco
                modules.update(a.asname or a.name for a in node.names)
            else:  # from .generator import Generator
                uses += [f"{node.module}.{a.name}" for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            uses.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return [f"{path.name}: {use}" for use in uses]


def test_no_module_uses_a_private_name_of_another():
    uses = [use for path in sorted(SRC.glob("*.py")) for use in cross_module_private_uses(path)]
    assert uses == []
