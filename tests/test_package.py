"""Each public name has one import path, its own module: the package root binds only ``__version__``."""

import ast
from pathlib import Path

INIT = Path(__file__).resolve().parents[1] / "src" / "latpack" / "__init__.py"


def bound_names(tree) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
    return names


def test_package_root_binds_only_its_version():
    assert bound_names(ast.parse(INIT.read_text())) == ["__version__"]


def test_bound_names_sees_imports_definitions_and_assignments():
    snippet = "from .craig import CraigParams as P\nimport os.path\ndef f(): pass\nclass C: pass\nx = 1\n"
    assert bound_names(ast.parse(snippet)) == ["P", "os", "f", "C", "x"]
