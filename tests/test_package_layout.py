"""One import path per name: packages hold modules, not re-exports.

Every public name is imported from the module that defines it.  A
package ``__init__.py`` keeps its module-map docstring and binds no name
from another module, so no package attribute can shadow a submodule
(``import repro.trace.replay as m`` must give the module, not the
function of the same name).
"""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: The only names a package ``__init__.py`` may bind, by package.
ALLOWED_BINDINGS = {
    "repro": {"__version__"},
    # Importing the rule modules is what registers the rules.
    "repro.analysis.checks": {
        module.name
        for module in pkgutil.iter_modules(
            [str(SRC / "repro" / "analysis" / "checks")]
        )
    },
    # perfbench/cases.py imports this one name from the package.
    "repro.workloads": {"dithering_programs"},
}


def _packages():
    names = ["repro"]
    names += [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return names


def _bound_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif not (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            names.add(f"<{type(node).__name__} statement>")
    return names


@pytest.mark.parametrize("package", _packages())
def test_package_init_binds_only_its_allowed_names(package):
    path = SRC.joinpath(*package.split(".")) / "__init__.py"
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{package} lost its module-map docstring"
    assert _bound_names(tree) == ALLOWED_BINDINGS.get(package, set())


@pytest.mark.parametrize("package", _packages())
def test_no_package_attribute_shadows_a_submodule(package):
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"{package}.{info.name}")
        assert getattr(pkg, info.name) is module, f"{package}.{info.name}"


def test_submodules_named_like_their_functions_import_as_modules():
    import repro.scenario.sweep as sweep_module
    import repro.trace.replay as replay_module

    assert isinstance(replay_module, types.ModuleType)
    assert isinstance(sweep_module, types.ModuleType)
    assert callable(replay_module.replay) and callable(sweep_module.sweep)


def _script_imports():
    for pattern in ("perfbench/*.py", "examples/*.py"):
        for path in sorted(REPO_ROOT.glob(pattern)):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (
                    node.level == 0
                    and node.module
                    and node.module.split(".")[0] == "repro"
                ):
                    for alias in node.names:
                        yield path.relative_to(REPO_ROOT), node.module, alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "repro":
                            yield path.relative_to(REPO_ROOT), alias.name, None


def test_script_imports_resolve():
    """perfbench and the examples import only names that exist (checked
    from their source, without running them)."""
    imports = list(_script_imports())
    assert imports
    missing = []
    for path, module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{path}: from {module_name} import {name}")
    assert not missing
