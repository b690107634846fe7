"""Every module of ``src/gradedbv`` uses each name it imports.

The package's ``__init__`` is exempt: its imports are the public API it
re-exports.  Read with the stdlib ``ast`` module; nothing is imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedbv"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names ``source`` binds by an import, anywhere in the module,
    and never reads as a name; ``__future__`` imports are not names."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == [
        (1, "os"), (2, "c")]
    assert unused_imports("import os.path\nos.path.join\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_the_package_modules_are_found():
    assert "core.py" in MODULES and len(MODULES) >= 9


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
