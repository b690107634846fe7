"""tools/work_counts.py: exact work counts of a checkout's commands."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "work_counts.py"
_spec = importlib.util.spec_from_file_location("work_counts", TOOL)
work_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counts)

REPO = str(TOOL.parent.parent)


def test_counts_do_not_depend_on_the_hash_seed(monkeypatch):
    results = []
    for seed in ("0", "7"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        results.append(work_counts.run_command(
            REPO, "check exterior-bv --suite all"))
    code, rule_runs, accumulate_calls = results[0]
    assert code == 0 and rule_runs > 0 and accumulate_calls > 0
    assert results[1] == results[0]


def test_rows_read_same_only_for_equal_counts():
    row = work_counts.format_row("gysin x", (0, 1234, 5), (0, 1234, 5))
    assert row == ("same gysin x\n"
                   "    parent exit 0, 1,234 rule runs, 5 accumulate calls\n"
                   "    change exit 0, 1,234 rule runs, 5 accumulate calls")
    assert work_counts.format_row("c", (0, 1, 5), (0, 1, 6)).startswith(
        "DIFFERS c\n")
    assert "no counts" in work_counts.format_row("c", None, None)
    assert work_counts.format_row("c", None, None).startswith("DIFFERS")


def test_the_commands_are_report_digests_commands(monkeypatch, capsys):
    assert len(work_counts.COMMANDS) == 20
    monkeypatch.setattr(work_counts, "COMMANDS", ("check trivial --suite bvui",))
    assert work_counts.main([REPO, REPO]) == 0
    out = capsys.readouterr().out
    assert out.startswith("same check trivial --suite bvui\n")
    assert out.endswith("0 of 1 commands differ\n")
