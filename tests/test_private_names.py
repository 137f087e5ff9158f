"""Each module of the package uses only the public names of its other
modules: a private name (`nco._x`) reached from another module couples the
two, and a change inside its owner breaks the other without warning.  And
each module reads every name it imports, so a deletion leaves no stale
import behind (no linter is installed to catch one)."""

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


def unread_imports(path: Path) -> list[str]:
    """Names a module imports (a `__future__` import aside) that nothing in it reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}: {name} (line {line})" for name, line in imported.items() if name not in read]


def test_every_import_is_read():
    # `__init__` imports to re-export, so its names are read by the package's users
    unread = [u for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py" for u in unread_imports(path)]
    assert unread == []
