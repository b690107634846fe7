"""Report digests and work counts of fixed CLI commands in two checkouts.

    python3 tools/report_digests.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  Each command of
``COMMANDS`` runs once per checkout, in a child process of its own with
``PYTHONPATH=<checkout>/src``, through that checkout's
``gradedbv.cli.main`` with ``--out FILE`` (its printed output is
discarded).  The child counts two kinds of work:

- rule runs: calls of ``GradedMap.on_key`` on a key not yet in the map's
  cache, the only calls that run a map's rule and check its output;
- ``accumulate`` calls: calls of either field's ``accumulate`` kernel.

The script prints, per command, each side's exit code, the SHA-256 of
its ``--out`` file ("-" when none was written) and its two counts,
whether the two sides' exit codes and reports differ, and then
``counts: same`` or ``counts: DIFFERS``.  After the rows, one totals
line gives each side's rule runs and ``accumulate`` calls summed over
the commands both sides counted, with the percent change of each sum.
A command the parent cannot run (usage exit 64, no report) but the
change can, such as one naming a model new in the change, is printed
as NEW and does not count as differing.  It exits 1 when any other
command differs, else 0.  The counts are exact, so a change that claims
to keep the engine's work must read ``counts: same`` on every command;
they never set the exit code.
Stdlib only; the report files go to a temporary directory that is
removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = (
    "check sphere:3 --suite all --window 4",
    "check sphere:3 --suite all --window 6",
    "check sphere:3 --suite all --window 8",
    "check sphere:3 --suite all --window 4 --field Fp:101",
    "mutate sphere:3 --mutation lambda-u-flip --window 3",
    "mutate sphere:3 --mutation delta-au-doubled --window 3",
    "check three-dim --suite all --field Fp:101",
    "check sphere-frob:3 --suite all",
    "check sphere:3 --suite all --window 10 --window3 2 --field Fp:101",
    "gysin sphere:3",
    "gysin sphere:3 --window 6",
    "gysin sphere:5 --window 6 --field Fp:101",
    "gysin three-dim",
    "double three-dim",
    "double trivial",
    "double exterior",
    "check exterior-bv --suite all",
    "double exterior-bv",
    "gysin exterior-bv",
    "gysin exterior-bv --field Fp:101",
)


# Run in the child: one CLI command with its work counted; print [rule
# runs, accumulate calls] as JSON, also when the command exits early.
CHILD = r"""
import contextlib, itertools, json, os, sys
from gradedbv import core
from gradedbv.cli import main

rule_runs, accumulate_calls = itertools.count(), itertools.count()
on_key = core.GradedMap.on_key


def counted_on_key(self, key):
    if tuple(key) not in self._cache:
        next(rule_runs)
    return on_key(self, key)


def counted(accumulate):
    def counted_accumulate(self, acc, terms, scalar):
        next(accumulate_calls)
        return accumulate(self, acc, terms, scalar)
    return counted_accumulate


core.GradedMap.on_key = counted_on_key
for field in (core.Rationals, core.PrimeField):
    field.accumulate = counted(field.accumulate)
try:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = main(sys.argv[1:])
finally:
    print(json.dumps([next(rule_runs), next(accumulate_calls)]))
sys.exit(code)
"""


def run_command(checkout, command, out_path):
    """(exit code, SHA-256 hex of the ``--out`` file or None, rule runs,
    accumulate calls) of one command run in ``checkout``; the last two
    are missing when the child printed no counts."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    argv = [sys.executable, "-c", CHILD, *command.split(), "--out", out_path]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True)
    try:
        with open(out_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        digest = None
    try:
        counts = tuple(json.loads(proc.stdout.splitlines()[-1]))
    except (IndexError, ValueError):
        counts = ()
    return (proc.returncode, digest) + counts


# what a side that cannot run a command reports: usage exit, no report
NOT_RUNNABLE = (64, None)


def compare(parent, change):
    """Rows (command, parent result, change result, same, new, same
    counts) for the commands of two {command: result} dicts, in the
    order of ``parent``, a result being (exit code, digest) and its
    counts, if any; a command missing from ``change`` differs, and one
    the parent cannot run but the change can is new.  Only the exit code
    and digest decide whether a command differs; its counts are the same
    when both sides have them and they are equal."""
    rows = []
    for command, result in parent.items():
        other = change.get(command)
        report = other and other[:2]
        new = result[:2] == NOT_RUNNABLE and report not in (None, NOT_RUNNABLE)
        rows.append((command, result, other, report == result[:2], new,
                     len(result) > 2 and result[2:] == (other or ())[2:]))
    return rows


def format_row(row):
    command, parent, change, same, new, same_counts = row

    def side(result):
        if result is None:
            return "not run"
        code, digest, *counts = result
        work = ("%s rule runs, %s accumulate calls"
                % tuple(format(n, ",") for n in counts) if counts
                else "no counts")
        return "exit %d %s, %s" % (code, digest or "-", work)

    label = "same" if same else "NEW" if new else "DIFFERS"
    return "%s %s\n    parent %s\n    change %s\n    counts: %s" % (
        label, command, side(parent), side(change),
        "same" if same_counts else "DIFFERS")


def format_totals(rows):
    """One line: each side's rule runs and ``accumulate`` calls summed
    over the rows both sides counted, and each sum's percent change."""
    counted = [(row[1][2:], row[2][2:]) for row in rows
               if len(row[1]) > 2 and row[2] is not None and len(row[2]) > 2]
    sums = [[sum(counts[side][i] for counts in counted) for i in (0, 1)]
            for side in (0, 1)]

    def change(i):
        before, after = sums[0][i], sums[1][i]
        return "%+.1f%%" % (100.0 * (after - before) / before) if before else "n/a"

    return ("totals over %d commands: parent %s rule runs, %s accumulate "
            "calls; change %s rule runs, %s accumulate calls; rule runs %s, "
            "accumulate calls %s" % (
                len(counted), *(format(n, ",") for side in sums for n in side),
                change(0), change(1)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    results = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for index, command in enumerate(COMMANDS):
            for side in ("parent", "change"):
                checkout = os.path.abspath(getattr(args, side))
                out_path = os.path.join(tmp, "%s-%d.json" % (side, index))
                results[side][command] = run_command(checkout, command, out_path)
    rows = compare(results["parent"], results["change"])
    for row in rows:
        print(format_row(row))
    print(format_totals(rows))
    differing = sum(not row[3] and not row[4] for row in rows)
    new = sum(row[4] for row in rows)
    print("%d of %d commands differ%s" % (
        differing, len(rows), "; %d new" % new if new else ""))
    print("work counts differ on %d of %d commands" % (
        sum(not row[5] for row in rows), len(rows)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
