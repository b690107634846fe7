"""The traced benchmark run (``bench/run.py --trace 1``) looks up engine
names without a default: every one it names must resolve in gradedbv.

``bench/tracing.py`` is only read and parsed here, never imported."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
TABLES = ("COUNTED", "CUMULATIVE", "SPANNED")


def _tables():
    """The literal tables of tracing.py, by name."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TABLES}


def _traced_names():
    """(module, qualname) of every name the tables look up."""
    tables = _tables()
    names = [pair for pairs in tables["COUNTED"].values() for pair in pairs]
    names += list(tables["CUMULATIVE"].values())
    names += [(module, name) for module, names_ in tables["SPANNED"].items()
              for name in names_]
    return names


def test_the_tables_are_read():
    assert set(_tables()) == set(TABLES)
    assert len(_traced_names()) >= 28


@pytest.mark.parametrize("module,qualname", _traced_names()
                         + [("checks", "relation_residual"),
                            ("checks", "residual_on_key"),
                            ("core", "GradedMap.__init__")])
def test_every_traced_name_resolves(module, qualname):
    obj = importlib.import_module("gradedbv." + module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_maps_keep_their_cache_where_the_tracer_reads_it():
    from gradedbv.core import QQ, FiniteSpace, table_map
    space = FiniteSpace("V", {"x": 0})
    gmap = table_map((space,), (space,), 0, QQ, [], "f")
    assert gmap._cache == {}
