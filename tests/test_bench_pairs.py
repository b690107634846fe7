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
