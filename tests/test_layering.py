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


def loss_model_tests(tree: ast.AST) -> list[str]:
    """The function, by qualified name, of every ``<expr>.loss is None`` or ``is not None`` test in ``tree``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Compare)
                and isinstance(child.left, ast.Attribute)
                and child.left.attr == "loss"
                and isinstance(child.ops[0], (ast.Is, ast.IsNot))
                and isinstance(child.comparators[0], ast.Constant)
                and child.comparators[0].value is None
            ):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_shot_engine_branches_on_the_loss_model_once():
    # _model resolves a config into the ideal or the lossy model; the engines, runs and predictions read that model.
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    assert sorted(loss_model_tests(tree)) == ["ExperimentConfig.__post_init__", "_apply_axis", "_model"]
