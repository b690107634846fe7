"""Re-measure the north-star commands with the benchmark's machinery.

    python3 bench/baseline.py

Run from the repository root.  Each of ROUNDS rounds runs every command
below once, each in a fresh process (``child.py``), in an order that
rotates between rounds so that drift in machine speed spreads over all
of them.  Prints, per command, the median and quartiles of the raw and
the calibrated wall time (see ``run.end_to_end``), and the exit code.
"""

import os
import shutil
import statistics
import tempfile

import run

ROUNDS = 5
COMMANDS = {
    "check w4": ["check", "sphere:3", "--suite", "all", "--window", "4"],
    "check w4 threads 2": ["check", "sphere:3", "--suite", "all", "--window", "4",
                           "--threads", "2"],
    "check w6": ["check", "sphere:3", "--suite", "all", "--window", "6"],
    "check w4 Fp:101": ["check", "sphere:3", "--suite", "all", "--window", "4",
                        "--field", "Fp:101"],
    "gysin": ["gysin", "sphere:3"],
    "double three-dim": ["double", "three-dim"],
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    names = list(COMMANDS)
    raw = {name: [] for name in names}
    calibrated = {name: [] for name in names}
    exits = {name: set() for name in names}
    os.makedirs(".bench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="baseline-", dir=".bench_work")
    try:
        run.spawn("setup", workdir)
        for round_index in range(ROUNDS):
            shift = round_index % len(names)
            for name in names[shift:] + names[:shift]:
                got = run.spawn("plain", workdir,
                                [COMMANDS[name] + ["--out", "report.json"]])
                if got is None:
                    raise SystemExit("%s did not run" % name)
                wall = got["wall_s"]
                raw[name].append(wall)
                calibrated[name].append(wall * run.CALIBRATION_REFERENCE_S
                                        / statistics.mean(got["calibration_s"]))
                exits[name].add(got["commands"][0]["exit"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%-20s %28s %28s  exit" % ("command", "raw s (q1 median q3)",
                                     "calibrated s (q1 median q3)"))
    for name in names:
        print("%-20s %8.3f %8.3f %8.3f    %8.3f %8.3f %8.3f  %s"
              % ((name,) + quartiles(raw[name]) + quartiles(calibrated[name])
                 + (sorted(exits[name]),)))


if __name__ == "__main__":
    main()
