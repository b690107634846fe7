"""Every top-level definition and public method of ``src/gradedbv`` has a
caller in ``src`` or is exported by the package's ``__init__``.

A caller is a read of the name (``f(...)``, ``x.f``) anywhere in the
package outside the definition's own body; a recursive call does not
count.  Read with the stdlib ``ast`` module; nothing is imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedbv"

# Definitions with no caller in ``src`` that stay, each with its reason.
ALLOWED = {
    "expr.resolve_spaces": "bench/tracing.py traces it by name",
    "expr._infer_source_spaces": "bench/tracing.py traces it by name",
    "checks.relation_residual": "bench/tracing.py times relations by "
                                "wrapping it",
    "checks.residual_on_key": "the public one-tuple check; bench/tracing.py "
                              "counts key evaluations by wrapping it",
    "core.Element.tensor": "bench/tracing.py counts its calls",
    "core.Rationals.add": "the field's scalar sum, the tests' reference "
                          "for accumulate",
    "core.PrimeField.add": "the field's scalar sum, the tests' reference "
                           "for accumulate",
    "structures.relation_ids": "bench/child.py lists the catalog with it",
}


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of
    each public method of a top-level class, of a module's tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield "%s.%s" % (node.name, item.name), item


def _reads(tree, skip=None):
    """The names and attribute names read in ``tree``, outside ``skip``."""
    reads, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return reads


def uncalled(sources, exported=()):
    """The ``module.name`` of each definition of ``sources`` (a dict from
    module name to its text) that nothing reads and ``exported`` does not
    name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    out = []
    for module, tree in sorted(trees.items()):
        for qualified, node in _definitions(tree):
            name = qualified.rpartition(".")[2]
            if name in exported:
                continue
            if not any(name in _reads(other, skip=node)
                       for other in trees.values()):
                out.append("%s.%s" % (module, qualified))
    return out


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_the_checker_sees_an_uncalled_definition():
    sources = {"a": "def f():\n    return f()\n\n"
                    "def g():\n    return 1\n\n"
                    "class C:\n    def used(self):\n        pass\n"
                    "    def unused(self):\n        pass\n"
                    "    def _private(self):\n        pass\n",
               "b": "from a import g\nC().used()\nh = 1\n"}
    # an import is not a read: b imports g and never calls it
    assert uncalled(sources) == ["a.f", "a.g", "a.C.unused"]
    assert uncalled(sources, exported={"f", "unused"}) == ["a.g"]


def test_every_definition_has_a_caller_or_an_export():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    assert len(sources) >= 9
    assert sorted(uncalled(sources, _exports())) == sorted(ALLOWED)
