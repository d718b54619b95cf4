"""The package's third-party imports are exactly its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def test_third_party_imports_are_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "blocklanczos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"blocklanczos"}
    assert third_party == declared


def test_every_imported_name_is_used():
    # a deleted function must not leave its imports behind
    for path in sorted((ROOT / "src" / "blocklanczos").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], path.name


def test_no_module_imports_another_modules_private_name():
    # a name with a leading underscore (not a dunder such as __version__)
    # belongs to its own module; a caller elsewhere means it wants a public
    # home or to be folded into its one caller
    for path in sorted((ROOT / "src" / "blocklanczos").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        private = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]
        assert private == [], path.name
