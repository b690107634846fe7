"""tools/bench_pairs.py: seed ranges and the statistics of the gate."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text,seeds", [
    ("401-410", list(range(401, 411))),
    ("7", [7]),
    (" 3-3 ", [3]),
])
def test_seed_ranges(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["5-3", "x", "1-", "", "1-3,9"])
def test_bad_seed_ranges_are_rejected(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)


def test_quartiles_are_exclusive_as_in_the_benchmark():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def _pairs(parent, change):
    return list(zip(parent, change))


def test_verdict_passes_nine_wins_beyond_the_parent_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 0.80]
    change = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99]
    gate = bench_pairs.verdict(_pairs(parent, change))
    assert gate["wins"] == 9 and gate["pairs"] == 10
    assert gate["parent"] == pytest.approx((1.0075, 1.035, 1.0625))
    assert gate["gain"] == pytest.approx(1.035 - 0.945)
    assert gate["parent_iqr"] == pytest.approx(0.055)
    assert gate["passed"]


def test_verdict_fails_with_eight_wins_or_a_gain_inside_the_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]
    eight = [p - 0.1 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert not bench_pairs.verdict(_pairs(parent, eight))["passed"]
    small = [p - 0.001 for p in parent]
    gate = bench_pairs.verdict(_pairs(parent, small))
    assert gate["wins"] == 10 and gate["gain"] < gate["parent_iqr"]
    assert not gate["passed"]


@pytest.mark.parametrize("better,parent,change,beyond", [
    ("lower", 0.20, 0.25, True),      # 25% slower, bound 20%
    ("lower", 0.20, 0.23, False),     # 15% slower
    ("lower", 0.20, 0.10, False),     # better
    ("higher", 100.0, 70.0, True),    # 30% fewer per second
    ("higher", 100.0, 85.0, False),
])
def test_end_to_end_flag_beyond_the_bound(better, parent, change, beyond):
    assert bench_pairs.beyond_bound(parent, change, better, 0.2) is beyond


def test_end_to_end_bounds_are_read_from_the_benchmark():
    bounds = bench_pairs.end_to_end_bounds(str(TOOL.parent.parent))
    assert bounds["wall_s"] == ("lower", 0.2)
    assert bounds["tuples_per_s"] == ("higher", 0.2)
    assert set(bounds) == {"wall_s", "tuples_per_s", "setup_s", "peak_rss_mb"}


def test_verdict_in_the_higher_direction_for_tuples_per_s():
    # tuples_per_s: higher is better, so a larger change value wins
    parent = [100.0 + i for i in range(10)]
    change = [p + 20.0 for p in parent[:9]] + [parent[9] - 1.0]
    gate = bench_pairs.verdict(_pairs(parent, change), "higher")
    assert gate["wins"] == 9
    assert gate["gain"] == pytest.approx(123.5 - 104.5)
    assert gate["passed"]
    # the same pairs read the other way round are a loss
    lower = bench_pairs.verdict(_pairs(parent, change), "lower")
    assert lower["wins"] == 1 and lower["gain"] < 0 and not lower["passed"]
    # and a fall in tuples_per_s never passes
    slower = [p - 20.0 for p in parent]
    assert not bench_pairs.verdict(_pairs(parent, slower), "higher")["passed"]


def _fake_runs(monkeypatch, values):
    """run_bench replaced by a lookup of {(checkout, seed): metrics}."""
    calls = []

    def run_bench(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": value}
                            for name, value in values[checkout, seed].items()}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    return calls


def _metrics(setup, wall=0.1, rate=1000.0, rss=20.0):
    return {"wall_s": wall, "tuples_per_s": rate, "setup_s": setup,
            "peak_rss_mb": rss}


def test_the_last_line_is_the_json_of_the_pairs_and_the_verdict(
        monkeypatch, capsys):
    import json
    root = str(TOOL.parent.parent)
    values = {}
    for seed in range(1, 11):
        values[root, seed] = _metrics(0.110 + 0.001 * (seed % 3))
        values["change", seed] = _metrics(0.095 + 0.001 * (seed % 3))
    calls = _fake_runs(monkeypatch, values)
    code = bench_pairs.main([root, "change", "--workload", "sphere-wide",
                             "--metric", "setup_s", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["verdict"]["passed"]
    # the default seeds are 1-10, and the first side alternates
    assert [c[1] for c in calls] == [s for s in range(1, 11) for _ in (0, 1)]
    assert [r["first"] for r in result["pairs"]] == ["parent", "change"] * 5
    assert result["metric"] == "setup_s" and result["better"] == "lower"
    assert result["verdict"]["wins"] == 10
    assert result["pairs"][0]["parent"] == values[root, 1]
    assert result["pairs"][0]["change"] == values["change", 1]
    assert set(result["medians"]) == {"wall_s", "tuples_per_s", "setup_s",
                                      "peak_rss_mb"}
    assert result["medians"]["setup_s"]["bound"] == "within"


def test_a_gain_in_tuples_per_s_passes_and_a_loss_is_beyond_the_bound(
        monkeypatch, capsys):
    import json
    root = str(TOOL.parent.parent)
    values = {}
    for seed in range(1, 4):
        values[root, seed] = _metrics(0.1, rate=1000.0 + seed)
        values["change", seed] = _metrics(0.1, rate=1500.0 + seed)
    _fake_runs(monkeypatch, values)
    argv = ["--workload", "sphere-wide", "--metric", "tuples_per_s",
            "--seeds", "1-3"]
    assert bench_pairs.main([root, "change"] + argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["better"] == "higher" and result["verdict"]["wins"] == 3
    # the same runs with the sides swapped: 33% fewer tuples per second
    values.update({("change", s): values[root, s] for s in range(1, 4)})
    values.update({(root, s): _metrics(0.1, rate=1500.0 + s) for s in range(1, 4)})
    assert bench_pairs.main([root, "change"] + argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["verdict"]["wins"] == 0 and not result["verdict"]["passed"]
    assert result["medians"]["tuples_per_s"]["bound"] == "beyond"


def test_the_metric_must_be_an_end_to_end_metric(monkeypatch, capsys):
    root = str(TOOL.parent.parent)
    _fake_runs(monkeypatch, {})
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([root, "change", "--workload", "sphere-wide",
                          "--metric", "checks.key_evals"])
    assert exit_info.value.code == 2
    assert "end-to-end" in capsys.readouterr().err
