"""Examples guard: every ``repro`` import in ``examples/`` resolves.

The examples are not run by the test suite (each is a minutes-long
scenario), so a deleted or renamed public name would otherwise break them
silently.  This parses each script and imports exactly what it imports.
"""

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def repro_imports(path: pathlib.Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from repro… import name`` and
    (module, None) for each ``import repro…`` anywhere in the script."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend(
                (alias.name, None) for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return out


def test_examples_exist_and_import_repro():
    assert EXAMPLES
    assert all(repro_imports(path) for path in EXAMPLES)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    unresolved = []
    for module_name, name in repro_imports(path):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                unresolved.append(f"from {module_name} import {name}")
    assert unresolved == []
