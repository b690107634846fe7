"""Report digests of fixed CLI commands in two checkouts.

    python3 tools/report_digests.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  Each command of
``COMMANDS`` runs as ``python3 -m gradedbv.cli ... --out FILE`` with
``PYTHONPATH=<checkout>/src``, once per checkout; the script prints, per
command, each side's exit code and the SHA-256 of its ``--out`` file
("-" when none was written), and whether the two differ.  It exits 1
when any command differs, else 0.  Stdlib only; the report files go to a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
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
    "gysin sphere:3",
    "double three-dim",
)


def run_command(checkout, command, out_path):
    """(exit code, SHA-256 hex of the ``--out`` file or None) of one
    command run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    argv = [sys.executable, "-m", "gradedbv.cli", *command.split(),
            "--out", out_path]
    proc = subprocess.run(argv, cwd=checkout, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        with open(out_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        digest = None
    return proc.returncode, digest


def compare(parent, change):
    """Rows (command, parent result, change result, same) for the
    commands of two {command: (exit code, digest)} dicts, in the order of
    ``parent``; a command missing from ``change`` differs."""
    return [(command, result, change.get(command),
             change.get(command) == result)
            for command, result in parent.items()]


def format_row(row):
    command, parent, change, same = row

    def side(result):
        if result is None:
            return "not run"
        code, digest = result
        return "exit %d %s" % (code, digest or "-")

    return "%s %s\n    parent %s\n    change %s" % (
        "same" if same else "DIFFERS", command, side(parent), side(change))


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
    differing = sum(not row[3] for row in rows)
    print("%d of %d commands differ" % (differing, len(rows)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
