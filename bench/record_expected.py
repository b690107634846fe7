"""Record the seed engine's byte-identity guard into the workload files.

    python3 bench/record_expected.py

Run from the repository root.  For every workload and every sphere
dimension the benchmark's seeds pick, it runs the command list once and
writes the ``seed_engine`` section of ``bench/workloads/<name>.json``:
per command the tuple count of each relation, the witness count of each
failing relation, and the SHA-256 of the ``--out`` report per dimension.

The hand-stated part of each file (exit codes, relation lists, and which
commands must pass every relation) is never written here; the script
refuses to record when the engine contradicts it, or when tuple or
verdict counts differ between dimensions.  Re-record only when a change
is meant to alter report bytes, and say so in CHANGES.md.
"""

import json
import os
import shutil
import sys
import tempfile

import run

NOTE = ("Recorded from the seed engine (initial commit) by record_expected.py: "
        "a byte-identity guard, not a statement of the paper.")


def record(name):
    workload = run.load_workload(name)
    commands = [None] * len(workload["commands"])
    os.makedirs(".bench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=".bench_work")
    try:
        for n in run.SPHERE_DIMS:
            got = run.spawn("plain", workdir, run.command_lines(workload, n))
            if got is None:
                sys.exit("%s: the command list did not run for n=%d" % (name, n))
            for index, (command, result) in enumerate(zip(workload["commands"],
                                                          got["commands"])):
                reports = result["reports"]
                statuses = {r[1] for r in reports}
                if (result["error"] or result["exit"] != command["exit"]
                        or [r[0] for r in reports] != command["relations"]
                        or (command["expect"] == "all-pass" and statuses != {"pass"})
                        or (command["expect"] == "some-fail" and "fail" not in statuses)):
                    sys.exit("%s: command %d contradicts the hand-stated "
                             "expectation for n=%d: %r" % (name, index, n, result))
                entry = {"tuples": [r[2] for r in reports],
                         "fail": {r[0]: r[3] for r in reports if r[1] == "fail"}}
                if commands[index] is None:
                    commands[index] = dict(entry, sha256={})
                elif {k: commands[index][k] for k in entry} != entry:
                    sys.exit("%s: command %d has other counts for n=%d"
                             % (name, index, n))
                commands[index]["sha256"][str(n)] = result["sha256"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workload["seed_engine"] = {"note": NOTE, "commands": commands}
    path = os.path.join(run.WORKLOAD_DIR, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workload, handle, indent=1)
        handle.write("\n")
    print("recorded %s" % path)


if __name__ == "__main__":
    for workload_name in run.WORKLOADS:
        record(workload_name)
