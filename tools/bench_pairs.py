"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py PARENT CHANGE --workload sphere-wide \\
        --metric setup_s --seeds 401-410 --seconds 30

PARENT and CHANGE are two checkouts of the repository (for example two
``git worktree``s).  For each seed of the range (1-10 by default),
``bench/run.py --trace 0`` runs once in each checkout; the side that
goes first alternates from seed to seed, so drift in the host's load
falls on both sides alike.  The gate metric is ``--metric``, any
end-to-end metric that PARENT's ``BENCHMARK.json`` lists (``wall_s`` by
default), judged in that metric's ``better`` direction.  The script
prints each pair's value of the gate metric, each side's median and
quartiles, the number of pairs the change wins, each metric's medians,
and the verdict of the gate: the change wins at least 9 of every 10
pairs, and its median is better than the parent's by more than the
parent's interquartile range.  Each end-to-end metric is flagged
``beyond bound`` when the change's median is worse than the parent's,
in the metric's ``better`` direction, by more than ``bound`` times the
parent's median, else ``within bound``; the flags do not enter the
verdict.  The last line printed is one JSON object: the workload, the
gate metric, each pair's seed, first side and both sides' end-to-end
metrics, each end-to-end metric's medians and flag, and the verdict.
Stdlib only; nothing under ``bench/`` is written, and
``BENCHMARK.json`` is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

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


def verdict(pairs, better="lower"):
    """The gate on (parent, change) pairs of one metric whose ``better``
    direction is "lower" or "higher": a dict with the wins, both sides'
    quartiles, the median gain (positive when the change is better) and
    ``passed``."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for parent, change in pairs if sign * (parent - change) > 0)
    parent_q = quartiles([p for p, _ in pairs])
    change_q = quartiles([c for _, c in pairs])
    gain = sign * (parent_q[1] - change_q[1])
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
    parser.add_argument("--metric", default="wall_s")
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    bounds = end_to_end_bounds(args.parent)
    if args.metric not in bounds:
        parser.error("--metric must be one of the end-to-end metrics %s"
                     % ", ".join(sorted(bounds)))
    metric, better = args.metric, bounds[args.metric][0]

    pairs, records, correct = [], [], True
    for index, seed in enumerate(args.seeds):
        sides = [("parent", args.parent), ("change", args.change)]
        if index % 2:
            sides.reverse()
        record = {"seed": seed, "first": sides[0][0]}
        for name, checkout in sides:
            result = run_bench(checkout, args.workload, seed, args.seconds)
            correct &= result["correct"] and result["failed"] == 0
            record[name] = {m: result["metrics"][m]["value"] for m in bounds}
        records.append(record)
        pairs.append((record["parent"][metric], record["change"][metric]))
        print("seed %d (%s first): parent %.6g change %.6g (%+.1f%%)"
              % (seed, record["first"], *pairs[-1],
                 100 * (pairs[-1][1] / pairs[-1][0] - 1)), flush=True)

    gate = verdict(pairs, better)
    medians = {}
    for name in sorted(bounds):
        parent, change = (statistics.median(r[side][name] for r in records)
                          for side in ("parent", "change"))
        flag = "beyond" if beyond_bound(parent, change, *bounds[name]) else "within"
        medians[name] = {"parent": parent, "change": change, "bound": flag}
        print("%s median: parent %.6g change %.6g (%+.1f%%); %s bound %g"
              % (name, parent, change, 100 * (change / parent - 1), flag,
                 bounds[name][1]))
    for side in ("parent", "change"):
        q1, median, q3 = gate[side]
        print("%s %s: median %.6g, quartiles %.6g .. %.6g"
              % (side, metric, median, q1, q3))
    print("change wins %d of %d pairs; median %s by %.6g, parent IQR %.6g"
          % (gate["wins"], gate["pairs"], "better" if gate["gain"] > 0 else "worse",
             abs(gate["gain"]), gate["parent_iqr"]))
    passed = gate["passed"] and correct
    print("verdict: %s%s" % ("pass" if passed else "fail",
                             "" if correct else " (a run was not correct)"))
    print(json.dumps({"workload": args.workload, "metric": metric,
                      "better": better, "seconds": args.seconds,
                      "pairs": records, "medians": medians,
                      "verdict": dict(gate, correct=correct, passed=passed)},
                     sort_keys=True))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
