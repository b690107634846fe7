"""tools/report_digests.py: the comparison of two checkouts' reports and
work counts."""

import importlib.util
import os
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


def test_a_command_only_the_change_can_run_is_new():
    parent = {"a": (64, None), "b": (64, None), "c": (64, None),
              "d": (0, "d1")}
    change = {"a": (0, "dN"), "b": (64, None), "c": (3, None),
              "d": (64, None)}
    rows = report_digests.compare(parent, change)
    assert [(row[3], row[4]) for row in rows] == [
        (False, True), (True, False), (False, True), (False, False)]
    assert report_digests.format_row(rows[0]).startswith("NEW a\n")
    assert report_digests.format_row(rows[1]).startswith("same b\n")
    # a command the change can no longer run differs
    assert report_digests.format_row(rows[3]).startswith("DIFFERS d\n")


def test_new_commands_do_not_set_the_exit_code(monkeypatch, capsys):
    results = {"parent": (64, None), "change": (0, "d1")}
    monkeypatch.setattr(report_digests, "COMMANDS", ("check new-model",))
    # the report files are named after their side
    monkeypatch.setattr(report_digests, "run_command",
                        lambda checkout, command, out_path: results[
                            os.path.basename(out_path).split("-")[0]])
    assert report_digests.main([REPO, REPO]) == 0
    assert "0 of 1 commands differ; 1 new" in capsys.readouterr().out


def test_differing_counts_do_not_set_the_exit_code(monkeypatch, capsys):
    results = {"parent": (0, "d1", 10, 20), "change": (0, "d1", 10, 21)}
    monkeypatch.setattr(report_digests, "COMMANDS", ("check x",))
    monkeypatch.setattr(report_digests, "run_command",
                        lambda checkout, command, out_path: results[
                            os.path.basename(out_path).split("-")[0]])
    assert report_digests.main([REPO, REPO]) == 0
    out = capsys.readouterr().out
    assert out.startswith("same check x\n")
    assert out.endswith("    counts: DIFFERS\n"
                        "totals over 1 commands: parent 10 rule runs, 20 "
                        "accumulate calls; change 10 rule runs, 21 accumulate "
                        "calls; rule runs +0.0%, accumulate calls +5.0%\n"
                        "0 of 1 commands differ\n"
                        "work counts differ on 1 of 1 commands\n")


def test_the_fixed_commands_cover_the_listed_runs():
    commands = report_digests.COMMANDS
    assert len(commands) == len(set(commands)) == 20
    assert "check sphere:3 --suite all --window 4 --field Fp:101" in commands
    # a Gysin run over a prime field, where the transported signs matter
    assert "gysin sphere:5 --window 6 --field Fp:101" in commands
    assert "double three-dim" in commands


def test_a_checkout_agrees_with_itself(monkeypatch, capsys):
    monkeypatch.setattr(report_digests, "COMMANDS",
                        ("check trivial --suite bvui",
                         "check trivial --field Fp:6"))
    assert report_digests.main([REPO, REPO]) == 0
    out = capsys.readouterr().out
    assert "0 of 2 commands differ" in out
    # the rejected field writes no report and exits 64 on both sides,
    # having run no rule
    assert "exit 64 -, 0 rule runs, 0 accumulate calls" in out


def test_a_checkout_has_the_same_work_counts_as_itself(monkeypatch, capsys):
    monkeypatch.setattr(report_digests, "COMMANDS",
                        ("check trivial --suite bvui",))
    assert report_digests.main([REPO, REPO]) == 0
    out = capsys.readouterr().out
    assert out.startswith("same check trivial --suite bvui\n")
    totals = out.splitlines()[-3]
    assert totals.startswith("totals over 1 commands: parent ")
    assert totals.endswith("; rule runs +0.0%, accumulate calls +0.0%")
    assert out.endswith("    counts: same\n" + totals + "\n"
                        "0 of 1 commands differ\n"
                        "work counts differ on 0 of 1 commands\n")


def test_counts_do_not_depend_on_the_hash_seed(monkeypatch, tmp_path):
    results = []
    for seed in ("0", "7"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        results.append(report_digests.run_command(
            REPO, "check exterior-bv --suite all",
            str(tmp_path / ("%s.json" % seed))))
    code, digest, rule_runs, accumulate_calls = results[0]
    assert code == 0 and digest and rule_runs > 0 and accumulate_calls > 0
    assert results[1] == results[0]


def test_rows_read_same_only_for_equal_counts():
    def row(parent, change):
        (row,) = report_digests.compare({"gysin x": parent},
                                        {"gysin x": change})
        return report_digests.format_row(row)

    assert row((0, "d1", 1234, 5), (0, "d1", 1234, 5)) == (
        "same gysin x\n"
        "    parent exit 0 d1, 1,234 rule runs, 5 accumulate calls\n"
        "    change exit 0 d1, 1,234 rule runs, 5 accumulate calls\n"
        "    counts: same")
    # counts never decide whether a command differs
    assert row((0, "d1", 1, 5), (0, "d1", 1, 6)).startswith("same gysin x\n")
    assert row((0, "d1", 1, 5), (0, "d1", 1, 6)).endswith("counts: DIFFERS")
    assert row((0, "d1", 1, 5), (0, "d2", 1, 5)).startswith("DIFFERS")
    assert row((0, "d1", 1, 5), (0, "d2", 1, 5)).endswith("counts: same")
    # a side without counts never reads same
    assert "no counts" in row((0, "d1"), (0, "d1"))
    assert row((0, "d1"), (0, "d1")).endswith("counts: DIFFERS")
    assert row((0, "d1", 1, 5), (0, "d1")).endswith("counts: DIFFERS")
    assert row((0, "d1", 1, 5), None).endswith("counts: DIFFERS")


def test_the_totals_line_sums_the_counted_commands():
    rows = report_digests.compare(
        {"a": (0, "d1", 2820, 15684), "b": (0, "d2", 3586, 26733),
         "c": (64, None), "d": (0, "d3", 5, 5)},
        {"a": (0, "d1", 810, 13108), "b": (0, "d2", 1404, 19786),
         "c": (0, "d4", 7, 7)})
    # a command either side did not count (c, d) is left out of both sums
    assert report_digests.format_totals(rows) == (
        "totals over 2 commands: parent 6,406 rule runs, 42,417 accumulate "
        "calls; change 2,214 rule runs, 32,894 accumulate calls; rule runs "
        "-65.4%, accumulate calls -22.5%")
    # no counted work on the parent's side: no percent change
    (row,) = report_digests.compare({"e": (0, "d", 0, 0)}, {"e": (0, "d", 0, 3)})
    assert report_digests.format_totals([row]).endswith(
        "rule runs n/a, accumulate calls n/a")
