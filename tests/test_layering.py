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



def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import statement names, ``from scipy import integrate`` as ``scipy.integrate``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "validation.py"], ids=lambda path: path.name
)
def test_only_validation_imports_scipy_integrate(path):
    # The kick statistics are closed forms; only validate's QUADPACK reference is a quadrature.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not [name for name in imported_modules(tree) if name.split(".")[:2] == ["scipy", "integrate"]]
