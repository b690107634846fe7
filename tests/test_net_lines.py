"""tools/net_lines.py counts logical source lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "net_lines.py"
_spec = importlib.util.spec_from_file_location("net_lines", TOOL)
net_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(net_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
def f(x,
      # a comment inside the brackets
      y):
    """Docstring."""
    text = """a string
that is a value"""
    return (x +
            y)


class C:
    "a class docstring"
    z = 1
'''


def test_logical_lines_skip_comments_docstrings_and_blanks():
    # import, def (2 lines), text (2), return (2), class, z
    assert net_lines.logical_lines(SAMPLE) == 9


def test_logical_lines_of_empty_and_docstring_only_sources():
    assert net_lines.logical_lines("") == 0
    assert net_lines.logical_lines('"""only a docstring"""\n\n# x\n') == 0
    assert net_lines.logical_lines("x = 1") == 1


def test_main_prints_one_row_per_module_and_the_total(tmp_path, capsys):
    for side, body in (("old", "a = 1\nb = 2\n"), ("new", "a = 1\n")):
        package = tmp_path / side / "src" / "gradedbv"
        package.mkdir(parents=True)
        (package / "m.py").write_text(body)
    (tmp_path / "new" / "src" / "gradedbv" / "n.py").write_text("c = 3\n")
    assert net_lines.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["m.py", "2", "1", "-1"], ["n.py", "0", "1", "+1"],
                    ["total", "2", "2", "+0"]]
