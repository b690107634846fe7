"""Benchmark driver for the gradedbv CLI.

    python3 bench/run.py --workload sphere-wide --seed 1 --seconds 30 --trace 0

Run from the repository root; stdlib only.  Each workload is a list of
``gradedbv`` commands (``bench/workloads/<name>.json``), run through
``gradedbv.cli.main(argv)`` in a fresh Python process (``child.py``) with
``PYTHONPATH=src``, again and again until ``--seconds`` are used up.  A
fresh process per repetition means the module-level caches
(``structures._CATALOG``, ``double._dual_cache``,
``models._verified_examples``) start cold every time, as they do for a
user.

The seed picks the odd sphere dimension ``n`` in {3, 5, 7} for every
``sphere:n`` command.  Every relation entry of every command's report is
one operation; it fails when its command raised or exited unexpectedly,
when its status, witness count or tuple count differs from the workload
file, or when the command's ``--out`` bytes differ from the recorded
SHA-256.

``--trace 0`` reports the end-to-end metrics: medians over the
repetitions, with times calibrated against the host's speed while
they ran (see ``end_to_end`` and ``child.SpeedSampler``).  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones (see tracing.py);
``trace.overhead_s`` is the difference of the two medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print the same metrics by name and unit, and the run's environment.
The exit code is 0 whenever that line was printed, and 2 when the
benchmark cannot run at all (for example, no ``src/gradedbv`` here).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
WORKLOADS = ("sphere-wide", "sphere-deep", "finite-negative")
SPHERE_DIMS = (3, 5, 7)
SETUP_RUNS = 5          # set-up-only processes per run, beside each repetition's own
MIN_RUNS = 3            # untraced repetitions, even past --seconds
MIN_TRACED_RUNS = 2     # traced repetitions, so counts can be compared
CHILD_TIMEOUT_S = 150
RUN_DEADLINE_S = 170    # a run ends within this, even when a child hangs
# Seconds the calibration kernel in child.py takes on the reference machine
# (2 vCPUs, Python 3.11.7); calibrated times are scaled to it.
CALIBRATION_REFERENCE_S = 0.001
# Traced self times plus trace.other_s equal the traced wall time by
# construction; the layers must leave at most this share of it unaccounted.
ACCOUNTING_TOLERANCE = 0.10
# The Gysin agreement entry is computed without relation_residual, so it
# has no relation time of its own.
UNTIMED_RELATIONS = ("GysinJacobiAgreement",)

END_TO_END_UNITS = {"wall_s": "s", "tuples_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_workload(name):
    with open(os.path.join(WORKLOAD_DIR, name + ".json"), encoding="utf-8") as handle:
        return json.load(handle)


def sphere_dim(seed):
    return SPHERE_DIMS[seed % len(SPHERE_DIMS)]


def command_lines(workload, n):
    """The workload's argv lists for sphere dimension n, each with --out."""
    out = []
    for index, command in enumerate(workload["commands"]):
        argv = [arg.replace("{n}", str(n)) for arg in command["argv"]]
        out.append(argv + ["--out", "report-%d.json" % index])
    return out


def relation_ids():
    """Every relation any workload runs through relation_residual, in order."""
    seen = []
    for name in WORKLOADS:
        for command in load_workload(name)["commands"]:
            for rid in command["relations"]:
                if rid not in seen and rid not in UNTIMED_RELATIONS:
                    seen.append(rid)
    return seen


def spawn(mode, workdir, commands=(), timeout=CHILD_TIMEOUT_S):
    """Run child.py once in a fresh process; its result dict, or None."""
    workdir = os.path.abspath(workdir)
    job = os.path.join(workdir, "job.json")
    result = os.path.join(workdir, "result.json")
    with open(job, "w", encoding="utf-8") as handle:
        json.dump({"commands": list(commands)}, handle)
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, job,
             result, repr(t_spawn)],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print("child timed out after %.0f s" % timeout, file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result):
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
        return None
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def check_commands(workload, n, results):
    """(attempted, failed, problems) over the relation entries of one repetition."""
    attempted = failed = 0
    problems = []
    for index, command in enumerate(workload["commands"]):
        expected = command["relations"]
        seed = workload["seed_engine"]["commands"][index]
        attempted += len(expected)
        got = results[index] if results else None
        where = "command %d (%s)" % (index, " ".join(command["argv"][:2]))
        if got is None:
            failed += len(expected)
            problems.append("%s: no result" % where)
            continue
        whole = None
        if got["error"]:
            whole = "raised %s" % got["error"]
        elif got["exit"] != command["exit"]:
            whole = "exit %r, expected %r" % (got["exit"], command["exit"])
        elif got["sha256"] != seed["sha256"][str(n)]:
            whole = "report bytes differ from the seed engine's"
        elif [r[0] for r in got["reports"]] != expected:
            whole = "relations %s" % [r[0] for r in got["reports"]]
        elif command["expect"] == "some-fail" and not any(
                r[1] == "fail" for r in got["reports"]):
            whole = "no relation failed"
        if whole:
            failed += len(expected)
            problems.append("%s: %s" % (where, whole))
            continue
        for (rid, status, tuples, witnesses), want_tuples in zip(
                got["reports"], seed["tuples"]):
            want_witnesses = seed["fail"].get(rid, 0)
            want_status = "fail" if want_witnesses else "pass"
            if (status, witnesses, tuples) != (want_status, want_witnesses, want_tuples):
                failed += 1
                problems.append("%s: %s is %s with %d witnesses over %d tuples"
                                % (where, rid, status, witnesses, tuples))
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def measure(args, workload, n, workdir):
    """Untraced and (with --trace 1) traced repetitions within --seconds."""
    deadline = time.monotonic() + RUN_DEADLINE_S

    def run_child(mode, commands=()):
        return spawn(mode, workdir, commands,
                     timeout=max(1.0, deadline - time.monotonic()))

    commands = command_lines(workload, n)
    run_child("setup")          # writes bytecode caches; not measured
    setups = []
    for _ in range(SETUP_RUNS):
        got = run_child("setup")
        if got is None:
            return None
        setups.append(got)
    plain, traced = [], []
    start = time.monotonic()
    last = 0.0
    while time.monotonic() < deadline:
        elapsed = time.monotonic() - start
        enough_plain = len(plain) >= (1 if args.trace else MIN_RUNS)
        enough_traced = not args.trace or len(traced) >= MIN_TRACED_RUNS
        if enough_plain and enough_traced and elapsed + last > args.seconds:
            break
        t0 = time.monotonic()
        plain.append(run_child("plain", commands))
        if args.trace:
            traced.append(run_child("traced", commands))
        last = time.monotonic() - t0
    return setups, plain, traced


def end_to_end(setups, plain):
    """Each metric as (calibrated median, raw median, sample count).

    A time is scaled by CALIBRATION_REFERENCE_S / (the kernel's time in
    the same process), so it reads in seconds on a machine where the
    kernel takes the reference time; that cancels most of the drift in
    the host's speed between runs.
    """
    ok = [p for p in plain if p is not None]
    ref = CALIBRATION_REFERENCE_S
    tuples = [sum(r[2] for c in p["commands"] for r in c["reports"]) for p in ok]
    walls = [(p["wall_s"] * ref / statistics.mean(p["calibration_s"]), p["wall_s"])
             for p in ok]
    rates = [(t / w, t / raw) for t, (w, raw) in zip(tuples, walls)]
    setups = [(s["setup_s"] * ref / statistics.mean(s["setup_calibration_s"]),
               s["setup_s"])
              for s in setups + ok]
    rss = [(p["peak_rss_kb"] / 1024.0,) * 2 for p in ok]
    metrics = {"wall_s": walls, "tuples_per_s": rates, "setup_s": setups,
               "peak_rss_mb": rss}
    return {name: (median([v[0] for v in values]), median([v[1] for v in values]),
                   len(values))
            for name, values in metrics.items()}


PER_LAYER_UNITS = {"_s": "s", "ratio": "ratio", "spread": "ratio",
                   "speedup": "x", "bytes": "bytes"}


def unit_of(name):
    if name.startswith("checks.relation_s."):
        return "s"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(workload, plain, traced):
    """Median per-layer metrics of the traced repetitions, and problems."""
    ok = [t for t in traced if t is not None]
    problems = []
    if not ok:
        return {}, ["no traced repetition finished"]
    rows = [t["trace"]["metrics"] for t in ok]
    values = {name: median([row[name] for row in rows]) for name in rows[0]}
    for rid in relation_ids():
        values["checks.relation_s." + rid] = median(
            [t["trace"]["relations"].get(rid, 0.0) for t in ok])
    values["reportio.report_bytes"] = median(
        [sum(c["bytes"] for c in t["commands"]) for t in ok])
    plain_totals = [p["total_s"] for p in plain if p is not None]
    values["trace.overhead_s"] = (median([t["total_s"] for t in ok])
                                  - median(plain_totals))
    on_key = [row["core.on_key_calls"] for row in rows]
    values["core.on_key_calls_spread"] = (
        (max(on_key) - min(on_key)) / median(on_key) if median(on_key) else 0.0)

    # counts that must repeat exactly; with a pool, GradedMap.on_key's
    # check-then-set cache races, so core/expr counts may drift there
    exact = ["checks.key_evals", "checks.witnesses", "checks.tuples_checked",
             "double.dual_map_calls"]
    if workload["threads"] == 1:
        exact += [k for k in rows[0] if k.startswith(("core.", "expr."))
                  and not k.endswith(("_s", "ratio"))]
    for name in exact:
        seen = sorted({row[name] for row in rows})
        if len(seen) > 1:
            problems.append("count %s differs between traced runs: %s" % (name, seen))
    for row in rows:
        if abs(row["trace.other_s"]) > ACCOUNTING_TOLERANCE * row["trace.wall_s"]:
            problems.append("self times leave %.3f s of %.3f s unaccounted"
                            % (row["trace.other_s"], row["trace.wall_s"]))
    return values, problems


def write_spans(args, traced):
    """Keep the last traced repetition's spans, for reading by hand."""
    done = [t for t in traced if t is not None]
    if done:
        path = os.path.join(".bench_work", "spans-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "command", "name", "start", "end",
                                  "parent", "info"],
                       "spans": done[-1]["trace"]["spans"]}, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gradedbv", "cli.py")):
        print("no src/gradedbv here: run from the repository root",
              file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    n = sphere_dim(args.seed)
    os.makedirs(".bench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=".bench_work")
    try:
        measured = measure(args, workload, n, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if measured is None:
        print("set-up failed: the engine does not import", file=sys.stderr)
        return 2
    setups, plain, traced = measured

    attempted = failed = 0
    problems = []
    for rep in plain + traced:
        a, f, p = check_commands(workload, n, rep["commands"] if rep else None)
        attempted += a
        failed += f
        problems.extend(p)

    print("workload %s seed %d: sphere:%d, field %s, windows %s, threads %d"
          % (args.workload, args.seed, n, workload["field"], workload["windows"],
             workload["threads"]))
    print("nproc %d, python %s" % (os.cpu_count() or 0, platform.python_version()))
    print("failed_ratio %.4f ratio (%d of %d relation entries)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    metrics = {}
    if args.trace:
        write_spans(args, traced)
        values, trace_problems = per_layer(workload, plain, traced)
        problems.extend(trace_problems)
        for name in sorted(values):
            unit = unit_of(name)
            print("%s %.6g %s" % (name, values[name], unit))
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        for name, (value, raw, count) in end_to_end(setups, plain).items():
            unit = END_TO_END_UNITS[name]
            note = "" if raw == value else "; uncalibrated %.6g" % raw
            print("%s %.6g %s (median of %d%s)" % (name, value, unit, count, note))
            metrics[name] = {"value": value, "unit": unit}
    for problem in problems[:20]:
        print("problem: %s" % problem)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
