"""Every dotted package name that README.md shows in inline code must exist,
so deleting a function, method or constant without updating the README
fails here.  A name counts when its head is a package module (`flow`,
`noncomm_ops`, ...), one of the module aliases used throughout (`mc`,
`nco`, `dv`, `bc`) or a class defined in the package; it must resolve by
`getattr`, one dotted part at a time."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("balance_check", "cli", "divergence", "errors", "flow", "generator", "matcore", "noncomm_ops")
ALIASES = {"mc": "matcore", "nco": "noncomm_ops", "dv": "divergence", "bc": "balance_check"}


def _heads() -> dict:
    heads = {}
    for name in MODULES:
        module = importlib.import_module(f"renyiflow.{name}")
        heads[name] = module
        heads.update((n, obj) for n, obj in vars(module).items()
                     if inspect.isclass(obj) and obj.__module__.startswith("renyiflow."))
    heads.update((alias, heads[name]) for alias, name in ALIASES.items())
    return heads


def _readme_names(heads) -> list[str]:
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)  # fenced blocks are shell, not names
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        for match in re.finditer(r"(?<![\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span):
            if match.group(1).split(".")[0] in heads and match.group(1) not in names:
                names.append(match.group(1))
    return names


HEADS = _heads()
NAMES = _readme_names(HEADS)


def test_the_readme_names_package_members():
    # a pattern that silently matched nothing would pass every case below
    assert {"flow.suggested_dt", "KernelOperator.inverse", "Trajectory.min_eigenvalues", "Trajectory.states",
            "cli.MAX_SAMPLES", "cli.MAX_STARTS", "SpectralDecomposition.to_frame"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    head, *parts = name.split(".")
    obj = HEADS[head]
    for part in parts:
        assert hasattr(obj, part), f"README names `{name}`, but {obj!r} has no attribute {part!r}"
        obj = getattr(obj, part)
