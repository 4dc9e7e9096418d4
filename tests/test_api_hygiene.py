"""API hygiene: documentation and import health of the public surface."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent


def iter_modules():
    for info in pkgutil.walk_packages([str(SRC)], prefix="repro."):
        yield info.name


ALL_MODULES = sorted(iter_modules())


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_imports_cleanly(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


def _public_defs(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not sub.name.startswith("_") and sub.name != "__init__":
                            yield sub


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_public_items_documented(path):
    undocumented = [
        node.name
        for node in _public_defs(path)
        if not ast.get_docstring(node)
    ]
    assert not undocumented, f"{path.name}: missing docstrings: {undocumented}"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_lint_public_api_is_stable():
    """repro.lint must keep exporting its documented stable surface."""
    import inspect

    import repro.lint as lint

    for name in ("run_lint", "Rule", "Finding"):
        assert name in lint.__all__, name
        assert getattr(lint, name, None) is not None, name
    assert callable(lint.run_lint)
    assert inspect.isclass(lint.Rule)
    assert inspect.isclass(lint.Finding)
    # The Finding wire-contract the baseline and CI JSON depend on.
    fields = set(inspect.signature(lint.Finding).parameters)
    assert {"rule", "path", "line", "message", "snippet"} <= fields


def test_no_circular_import_on_fresh_interpreter():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", "import repro; import repro.experiments"],
        capture_output=True,
    )
    assert out.returncode == 0, out.stderr.decode()


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy.stats takes most of a second to import and only ``mean_ci``
    needs it, so ``import repro.cli`` must not load it."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; assert 'scipy' not in sys.modules"],
        capture_output=True,
    )
    assert out.returncode == 0, out.stderr.decode()
