"""In-process A/B timing of a benchmark workload in two checkouts.

    python3 tools/ab_inproc.py PARENT CHANGE --workload sphere-deep \\
        [--runs 40] [--n 3]
    python3 tools/ab_inproc.py PARENT CHANGE --workload all [--runs 40]

PARENT and CHANGE are two checkouts of the repository.  Each checkout's
``src/gradedbv`` is imported as its own set of modules into this one
process, and swapped into ``sys.modules`` while that side runs, so both
sides share the interpreter and meet the host's load at the same
moments.  A run executes the commands of PARENT's
``bench/workloads/W.json`` (only read; ``{n}`` is the sphere dimension
``--n``), as PARENT's ``bench/run.py`` builds them, each with ``--out``,
through the side's ``gradedbv.cli.main`` in the side's own temporary
working directory: finite-negative's
``check D-*.json`` commands read the files its ``double`` commands save
there.  Each side runs once untimed first, so module-level caches are
warm in every timed run.  Then each of ``--runs`` rounds runs both
sides, the side that goes first alternating from round to round.  A
run's time is the CPU seconds of the process (``time.process_time``)
over its commands, after a garbage collection.

The script prints each round, each side's median seconds with its
quartiles beside it, the relative change of the medians and the number
of rounds the change wins.  ``--workload all`` times every workload of
PARENT's ``BENCHMARK.json`` in turn, each with ``--runs`` rounds, and
ends with one such summary line per workload, led by its name.
``--runs`` defaults to 40: on a loaded 2-vCPU host a side's per-run CPU
seconds can spread by a factor of two, and three 16-round readings of
the same two trees read from -6.6% to +16.5%, so a 16-round reading
cannot decide a change of a few percent; compare the change of the
medians with the spread of the quartiles.  It
exits 1 when a command's exit code differs from the workload's, or when
the two sides' ``--out`` reports differ, else 0.  Stdlib only; nothing
in either checkout is written but Python's bytecode caches.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import statistics
import sys
import tempfile
import time

PACKAGE = "gradedbv"


def workload_commands(checkout, workload, n):
    """(argv, expected exit code) of each command of the workload in
    ``checkout``: the argv, with ``{n}`` replaced and ``--out`` appended,
    is the one that checkout's ``bench/run.py`` builds."""
    path = os.path.join(checkout, "bench", "run.py")
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    commands = bench.load_workload(workload)
    return list(zip(bench.command_lines(commands, n),
                    (command["exit"] for command in commands["commands"])))


def _package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


@contextlib.contextmanager
def _swapped(modules):
    """``sys.modules`` with ``modules`` in place of the package's
    current modules, restored on exit."""
    saved = _package_modules()
    for name in saved:
        del sys.modules[name]
    sys.modules.update(modules)
    try:
        yield
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def load_side(checkout):
    """{module name: module} of ``checkout``'s package, every submodule
    imported; ``sys.modules`` and ``sys.path`` are left as they were."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    try:
        with _swapped({}):
            package = importlib.import_module(PACKAGE)
            for info in pkgutil.iter_modules(package.__path__):
                importlib.import_module(PACKAGE + "." + info.name)
            return _package_modules()
    finally:
        sys.path.remove(src)


def run_once(modules, commands, workdir):
    """(CPU seconds, exit codes) of one run of ``commands`` through the
    side's ``cli.main`` in ``workdir``."""
    main = modules[PACKAGE + ".cli"].main
    codes = []
    cwd = os.getcwd()
    gc.collect()
    with _swapped(modules), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.chdir(workdir)
        try:
            start = time.process_time()
            for argv, _ in commands:
                try:
                    codes.append(main(list(argv)))
                except SystemExit as exc:
                    codes.append(exc.code)
            seconds = time.process_time() - start
        finally:
            os.chdir(cwd)
    return seconds, codes


def report_digests(commands, workdir):
    """The SHA-256 of each command's ``--out`` file (None when absent)."""
    digests = []
    for argv, _ in commands:
        try:
            with open(os.path.join(workdir, argv[-1]), "rb") as handle:
                digests.append(hashlib.sha256(handle.read()).hexdigest())
        except FileNotFoundError:
            digests.append(None)
    return digests


def quartiles(values):
    """(lower quartile, median, upper quartile) of ``values`` (the
    inclusive method); a single value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(pairs):
    """(parent median, change median, relative change, change wins) of
    (parent, change) seconds pairs."""
    parent = statistics.median(p for p, _ in pairs)
    change = statistics.median(c for _, c in pairs)
    return parent, change, change / parent - 1, sum(c < p for p, c in pairs)


def compare(args, workload, sides, tmp):
    """Time ``workload`` on both sides (see the module docstring): (its
    summary line, whether every run was correct)."""
    commands = workload_commands(args.parent, workload, args.n)
    expected = [code for _, code in commands]
    workdirs = {}
    for name in sides:
        workdirs[name] = os.path.join(tmp, workload, name)
        os.makedirs(workdirs[name])
    correct = True
    for name, modules in sides.items():
        _, codes = run_once(modules, commands, workdirs[name])
        if codes != expected:
            print("%s exit codes %s, expected %s" % (name, codes, expected))
            correct = False
    if report_digests(commands, workdirs["parent"]) != report_digests(
            commands, workdirs["change"]):
        print("the two sides' reports differ")
        correct = False
    pairs = []
    for index in range(args.runs):
        order = ["parent", "change"][::-1 if index % 2 else 1]
        seconds = {}
        for name in order:
            seconds[name], codes = run_once(sides[name], commands,
                                            workdirs[name])
            correct &= codes == expected
        pairs.append((seconds["parent"], seconds["change"]))
        print("run %d (%s first): parent %.4f s change %.4f s (%+.1f%%)"
              % (index + 1, order[0], seconds["parent"], seconds["change"],
                 100 * (seconds["change"] / seconds["parent"] - 1)),
              flush=True)
    parent, change, relative, wins = summary(pairs)
    spread = [quartiles([pair[side] for pair in pairs]) for side in (0, 1)]
    return ("median CPU seconds (quartiles): parent %.4f (%.4f-%.4f) change "
            "%.4f (%.4f-%.4f) (%+.1f%%); change wins %d of %d runs"
            % (parent, spread[0][0], spread[0][2], change, spread[1][0],
               spread[1][2], 100 * relative, wins, len(pairs))), correct


def benchmark_workloads(checkout):
    """The workload names of ``checkout``'s ``BENCHMARK.json``, in order."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        return [workload["name"] for workload in json.load(f)["workloads"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--runs", type=int, default=40)
    parser.add_argument("--n", type=int, default=3)
    args = parser.parse_args(argv)

    workloads = ([args.workload] if args.workload != "all"
                 else benchmark_workloads(args.parent))
    lines, correct = [], True
    with tempfile.TemporaryDirectory() as tmp:
        sides = {name: load_side(getattr(args, name))
                 for name in ("parent", "change")}
        for workload in workloads:
            line, ok = compare(args, workload, sides, tmp)
            lines.append(line)
            correct &= ok
    if len(workloads) == 1:
        print(lines[0])
    else:
        for workload, line in zip(workloads, lines):
            print("%s: %s" % (workload, line))
    if not correct:
        print("a run was not correct")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
