"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py PARENT CHANGE --workload sphere-wide \\
        --seeds 401-410 --seconds 30

PARENT and CHANGE are two checkouts of the repository (for example two
``git worktree``s).  For each seed of the range, ``bench/run.py
--trace 0`` runs once in each checkout; the side that goes first
alternates from seed to seed, so drift in the host's load falls on both
sides alike.  The gate metric is ``wall_s`` (lower is better).  The
script prints each pair's ``wall_s``, each side's median and quartiles,
the number of pairs the change wins, each metric's medians, and the
verdict of the gate: the change wins at least 9 of every 10 pairs, and
its median is lower than the parent's by more than the parent's
interquartile range.  Each end-to-end metric that PARENT's
``BENCHMARK.json`` lists is flagged ``beyond bound`` when the change's
median is worse than the parent's, in the metric's ``better``
direction, by more than ``bound`` times the parent's median, else
``within bound``; the flags do not enter the verdict.  Stdlib only;
nothing under ``bench/`` is written, and ``BENCHMARK.json`` is only
read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

METRIC = "wall_s"
WIN_SHARE = 0.9


def parse_seeds(text):
    """Seeds from a range ``401-410`` or a single seed ``7``, in order."""
    first, sep, last = text.strip().partition("-")
    try:
        low = int(first)
        high = int(last) if sep else low
    except ValueError:
        raise ValueError("bad seed range %r" % text) from None
    if high < low:
        raise ValueError("empty seed range %r" % text)
    return list(range(low, high + 1))


def quartiles(values):
    """(first quartile, median, third quartile), with the default
    (exclusive) method of ``statistics.quantiles``, as in
    ``bench/baseline.py``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs):
    """The gate on (parent, change) ``wall_s`` pairs: a dict with the
    wins, both sides' quartiles, the median gain and ``passed``."""
    wins = sum(1 for parent, change in pairs if change < parent)
    parent_q = quartiles([p for p, _ in pairs])
    change_q = quartiles([c for _, c in pairs])
    gain = parent_q[1] - change_q[1]
    iqr = parent_q[2] - parent_q[0]
    return {"wins": wins, "pairs": len(pairs), "parent": parent_q,
            "change": change_q, "gain": gain, "parent_iqr": iqr,
            "passed": wins >= WIN_SHARE * len(pairs) and gain > iqr}


def beyond_bound(parent, change, better, bound):
    """Whether the median ``change`` is worse than the median ``parent``
    in the ``better`` direction ("lower" or "higher") by more than
    ``bound`` times ``parent``."""
    worse = change - parent if better == "lower" else parent - change
    return worse > bound * abs(parent)


def end_to_end_bounds(checkout):
    """{metric: (better, bound)} for the end-to-end metrics of the
    checkout's ``BENCHMARK.json``."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_bench(checkout, workload, seed, seconds):
    """bench/run.py's result object for one run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("bench/run.py failed in %s (exit %d): %s"
                           % (checkout, proc.returncode, proc.stderr[-500:]))
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    pairs, correct = [], True
    runs = {"parent": [], "change": []}
    for index, seed in enumerate(args.seeds):
        sides = [("parent", args.parent), ("change", args.change)]
        if index % 2:
            sides.reverse()
        values = {}
        for name, checkout in sides:
            result = run_bench(checkout, args.workload, seed, args.seconds)
            correct &= result["correct"] and result["failed"] == 0
            runs[name].append(result["metrics"])
            values[name] = result["metrics"][METRIC]["value"]
        pairs.append((values["parent"], values["change"]))
        print("seed %d (%s first): parent %.6g change %.6g (%+.1f%%)"
              % (seed, sides[0][0], values["parent"], values["change"],
                 100 * (values["change"] / values["parent"] - 1)), flush=True)

    gate = verdict(pairs)
    bounds = end_to_end_bounds(args.parent)
    for metric in sorted(runs["parent"][0]):
        medians = [statistics.median(run[metric]["value"] for run in runs[side])
                   for side in ("parent", "change")]
        flag = ""
        if metric in bounds:
            better, bound = bounds[metric]
            flag = "; %s bound %g" % ("beyond" if beyond_bound(*medians, better, bound)
                                      else "within", bound)
        print("%s median: parent %.6g change %.6g (%+.1f%%)%s"
              % (metric, medians[0], medians[1],
                 100 * (medians[1] / medians[0] - 1), flag))
    for side in ("parent", "change"):
        q1, median, q3 = gate[side]
        print("%s %s: median %.6g, quartiles %.6g .. %.6g"
              % (side, METRIC, median, q1, q3))
    print("change wins %d of %d pairs; median %s by %.6g, parent IQR %.6g"
          % (gate["wins"], gate["pairs"], "better" if gate["gain"] > 0 else "worse",
             abs(gate["gain"]), gate["parent_iqr"]))
    passed = gate["passed"] and correct
    print("verdict: %s%s" % ("pass" if passed else "fail",
                             "" if correct else " (a run was not correct)"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
