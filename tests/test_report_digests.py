"""tools/report_digests.py: the comparison of two checkouts' reports."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", TOOL)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)

REPO = str(TOOL.parent.parent)


def test_equal_results_are_the_same():
    parent = {"a": (0, "d1"), "b": (3, "d2")}
    rows = report_digests.compare(parent, dict(parent))
    assert [row[3] for row in rows] == [True, True]
    assert [row[0] for row in rows] == ["a", "b"]


def test_a_different_digest_or_exit_code_differs():
    parent = {"a": (0, "d1"), "b": (0, "d2"), "c": (0, None)}
    change = {"a": (0, "dX"), "b": (3, "d2"), "c": (0, None)}
    assert [row[3] for row in report_digests.compare(parent, change)] == [
        False, False, True]


def test_a_missing_report_or_command_differs():
    parent = {"a": (0, "d1"), "b": (0, "d2")}
    change = {"a": (0, None)}
    rows = report_digests.compare(parent, change)
    assert [row[3] for row in rows] == [False, False]
    assert "not run" in report_digests.format_row(rows[1])
    assert "exit 0 -" in report_digests.format_row(rows[0])


def test_the_fixed_commands_cover_the_listed_runs():
    commands = report_digests.COMMANDS
    assert len(commands) == len(set(commands)) == 9
    assert "check sphere:3 --suite all --window 4 --field Fp:101" in commands
    assert "double three-dim" in commands


def test_a_checkout_agrees_with_itself(monkeypatch, capsys):
    monkeypatch.setattr(report_digests, "COMMANDS",
                        ("check trivial --suite bvui",
                         "check trivial --field Fp:6"))
    assert report_digests.main([REPO, REPO]) == 0
    out = capsys.readouterr().out
    assert "0 of 2 commands differ" in out
    # the rejected field writes no report and exits 64 on both sides
    assert "exit 64 -" in out
