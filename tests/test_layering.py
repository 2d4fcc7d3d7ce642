"""Each kerrcat module uses only the public names of the others."""

import ast
from pathlib import Path

import pytest

import kerrcat
from kerrcat import fock, loss, montecarlo, protocol

MODULES = sorted(Path(kerrcat.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "kerrcat"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def test_package_exports_every_public_module_name():
    exported = [name for module in (fock, protocol, loss, montecarlo) for name in module.__all__]
    assert sorted(kerrcat.__all__) == sorted([*exported, "__version__"])
    for module in (fock, protocol, loss, montecarlo):
        for name in module.__all__:
            assert getattr(kerrcat, name) is getattr(module, name), name
