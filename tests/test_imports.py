"""Every name a package module imports is used in that module, and every
name it binds at module level is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "agreebox"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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


def dead_names(sources):
    """(module, line, name) for each function, class or constant that a
    module binds at top level and nothing reads: not its own module, not a
    from-import elsewhere, not an attribute access anywhere in sources."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    dead = []
    for module, tree in trees.items():
        used = imported | attributes | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [
                (module, node.lineno, name) for name in bound
                if not name.startswith("__") and name not in used
            ]
    return sorted(dead)


def test_package_has_no_dead_module_level_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_names(sources) == []


def test_a_dead_module_level_name_is_found():
    sources = {
        "a": "ZERO = 0\nONE = 1\n\ndef f():\n    return ONE\n\nclass C:\n    pass\n",
        "b": "from .a import f\nfrom . import a\n\nprint(a.C)\n",
    }
    assert dead_names(sources) == [("a", 1, "ZERO")]
