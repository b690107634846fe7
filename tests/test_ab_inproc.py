"""tools/ab_inproc.py: in-process A/B timing of two checkouts."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_inproc.py"
_spec = importlib.util.spec_from_file_location("ab_inproc", TOOL)
ab_inproc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inproc)

REPO = str(TOOL.parent.parent)


def test_summary_of_pairs():
    parent, change, relative, wins = ab_inproc.summary(
        [(1.0, 0.8), (2.0, 2.5), (3.0, 2.4)])
    assert (parent, change, wins) == (2.0, 2.4, 2)
    assert abs(relative - 0.2) < 1e-12


def test_quartiles_of_runs():
    assert ab_inproc.quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == (2.0, 3.0, 4.0)
    assert ab_inproc.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_runs_default_to_forty_and_print_the_quartiles(monkeypatch, capsys):
    seconds = iter(range(1, 100))
    monkeypatch.setattr(ab_inproc, "workload_commands", lambda *args: [])
    monkeypatch.setattr(ab_inproc, "load_side", lambda checkout: {})
    monkeypatch.setattr(ab_inproc, "run_once",
                        lambda modules, commands, workdir: (next(seconds), []))
    assert ab_inproc.main([REPO, REPO, "--workload", "sphere-deep"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    # untimed runs take 1 and 2, then the side that goes first takes the
    # next number: parent 3, 6, 7, 10, ..., change 4, 5, 8, 9, ...
    assert last == ("median CPU seconds (quartiles): parent 42.5000 "
                    "(22.7500-62.2500) change 42.5000 (23.2500-61.7500) "
                    "(+0.0%); change wins 20 of 40 runs")


def test_workload_commands_write_their_reports_and_keep_the_saved_doubles():
    commands = ab_inproc.workload_commands(REPO, "finite-negative", 5)
    assert all(argv[-2:] == ["--out", "report-%d.json" % index]
               for index, (argv, _) in enumerate(commands))
    argvs = [" ".join(argv) for argv, _ in commands]
    assert any(a.startswith("double trivial --save D-trivial.json") for a in argvs)
    assert any(a.startswith("check D-three-dim.json") for a in argvs)
    assert any("sphere:5" in a for a in argvs)
    assert not any("{n}" in a for a in argvs)


def test_each_side_is_its_own_set_of_modules():
    before = dict(sys.modules)
    path = list(sys.path)
    first, second = ab_inproc.load_side(REPO), ab_inproc.load_side(REPO)
    assert sys.modules == before and sys.path == path
    assert {"gradedbv", "gradedbv.cli", "gradedbv.core", "gradedbv.double"} <= set(first)
    assert set(first) == set(second)
    assert all(first[name] is not second[name] for name in first)
    assert first["gradedbv.expr"].permute is first["gradedbv.core"].permute


def test_a_checkout_against_itself(monkeypatch, capsys):
    monkeypatch.setattr(ab_inproc, "workload_commands", lambda *args: [
        (["check", "sphere:3", "--suite", "all", "--window", "2",
          "--out", "report-0.json"], 0)])
    assert ab_inproc.main([REPO, REPO, "--workload", "sphere-wide",
                           "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "run 2 (change first)" in out
    assert "of 2 runs" in out and "not correct" not in out


def test_an_unexpected_exit_code_is_not_correct(monkeypatch, capsys):
    monkeypatch.setattr(ab_inproc, "workload_commands", lambda *args: [
        (["check", "sphere:x", "--out", "report-0.json"], 0)])
    assert ab_inproc.main([REPO, REPO, "--workload", "sphere-wide",
                           "--runs", "1"]) == 1
    out = capsys.readouterr().out
    assert "parent exit codes [64], expected [0]" in out
    assert "a run was not correct" in out


def test_all_workloads_run_in_turn_with_one_summary_line_each(monkeypatch,
                                                              capsys):
    assert ab_inproc.benchmark_workloads(REPO) == [
        "sphere-wide", "sphere-deep", "finite-negative"]
    seen = []
    seconds = iter(range(1, 100))

    def commands(checkout, workload, n):
        seen.append(workload)
        return []

    monkeypatch.setattr(ab_inproc, "workload_commands", commands)
    monkeypatch.setattr(ab_inproc, "load_side", lambda checkout: {})
    monkeypatch.setattr(ab_inproc, "run_once",
                        lambda modules, commands, workdir: (next(seconds), []))
    assert ab_inproc.main([REPO, REPO, "--workload", "all",
                           "--runs", "2"]) == 0
    assert seen == ["sphere-wide", "sphere-deep", "finite-negative"]
    out = capsys.readouterr().out.splitlines()
    # each workload: two untimed runs, then rounds of two runs
    assert sum(line.startswith("run ") for line in out) == 6
    # parent 3, 6 and change 4, 5 in the first workload's rounds, then 7
    # onwards in the next
    assert out[-3:] == [
        "sphere-wide: median CPU seconds (quartiles): parent 4.5000 "
        "(3.7500-5.2500) change 4.5000 (4.2500-4.7500) (+0.0%); change "
        "wins 1 of 2 runs",
        "sphere-deep: median CPU seconds (quartiles): parent 10.5000 "
        "(9.7500-11.2500) change 10.5000 (10.2500-10.7500) (+0.0%); change "
        "wins 1 of 2 runs",
        "finite-negative: median CPU seconds (quartiles): parent 16.5000 "
        "(15.7500-17.2500) change 16.5000 (16.2500-16.7500) (+0.0%); "
        "change wins 1 of 2 runs"]


def test_all_workloads_on_the_real_package(capsys):
    assert ab_inproc.main([REPO, REPO, "--workload", "all", "--runs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[-3:]] == [
        "sphere-wide", "sphere-deep", "finite-negative"]
    assert "not correct" not in "\n".join(out)
