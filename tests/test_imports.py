"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "agreebox").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import json\nfrom math import gcd, lcm\nfrom x import y as z\nprint(lcm(1))\n"
    assert unused_imports(source) == [(1, "json"), (2, "gcd"), (3, "z")]
