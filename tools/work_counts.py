"""Exact work counts of fixed CLI commands in two checkouts.

    python3 tools/work_counts.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  Each command of
``tools/report_digests.py``'s ``COMMANDS`` runs once per checkout, in a
child process of its own with ``PYTHONPATH=<checkout>/src``, through
that checkout's ``gradedbv.cli.main`` (its output is discarded).  The
child counts two kinds of work:

- rule runs: calls of ``GradedMap.on_key`` on a key not yet in the map's
  cache, the only calls that run a map's rule and check its output;
- ``accumulate`` calls: calls of either field's ``accumulate`` kernel.

The script prints, per command, each side's exit code and two counts,
and ``same`` or ``DIFFERS``.  The counts are exact, so a change that
claims to keep the engine's work must read ``same`` on every command.
It always exits 0.  Stdlib only; nothing is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys

_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "report_digests.py")
_spec = importlib.util.spec_from_file_location("report_digests", _DIGESTS)
_report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_report_digests)
COMMANDS = _report_digests.COMMANDS

# Run in the child: count the work of one CLI command, print
# [exit code, rule runs, accumulate calls] as JSON.
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
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(json.dumps([code, next(rule_runs), next(accumulate_calls)]))
"""


def run_command(checkout, command):
    """(exit code, rule runs, accumulate calls) of one command run in
    ``checkout``, or None when the child printed no counts."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, *command.split()],
                          cwd=checkout, env=env, capture_output=True,
                          text=True)
    try:
        return tuple(json.loads(proc.stdout.splitlines()[-1]))
    except (IndexError, ValueError):
        return None


def same(parent, change):
    """Whether two sides' results are counts, and equal."""
    return parent is not None and parent == change


def format_row(command, parent, change):
    def side(result):
        if result is None:
            return "no counts"
        return "exit %d, %s rule runs, %s accumulate calls" % (
            result[0], format(result[1], ","), format(result[2], ","))

    label = "same" if same(parent, change) else "DIFFERS"
    return "%s %s\n    parent %s\n    change %s" % (
        label, command, side(parent), side(change))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    differing = 0
    for command in COMMANDS:
        results = run_command(parent, command), run_command(change, command)
        differing += not same(*results)
        print(format_row(command, *results))
    print("%d of %d commands differ" % (differing, len(COMMANDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
