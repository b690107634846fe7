"""Report bytes stay identical to the seed engine's.

Runs the commands of three benchmark workloads for ``n = 3`` through
``cli.main`` and compares each exit code and the SHA-256 of each
``--out`` report with the ``seed_engine`` entries of
``bench/workloads/<workload>.json``.  The workload files are only read.

* ``finite-negative``: eight commands on finite models, the double and
  the Gysin layer;
* ``sphere-wide``: ``check sphere:3 --suite all --window 4`` over ``Q``,
  where coefficients pass through the rational field;
* ``sphere-deep``: ``check sphere:3 --window 10 --window3 2`` over
  ``Fp:101``, where long tensor keys pass through the tensor kernel.
"""

import hashlib
import json
from pathlib import Path

from gradedbv.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
N = 3


def _check_against_seed_engine(name, tmp_path, monkeypatch):
    workload = json.loads((WORKLOADS / (name + ".json")).read_text(
        encoding="utf-8"))
    monkeypatch.chdir(tmp_path)     # later commands read files earlier ones save
    for index, command in enumerate(workload["commands"]):
        out = "report-%d.json" % index
        argv = [arg.replace("{n}", str(N)) for arg in command["argv"]]
        assert main(argv + ["--out", out]) == command["exit"], argv
        digest = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
        seed = workload["seed_engine"]["commands"][index]["sha256"][str(N)]
        assert digest == seed, argv


def test_finite_negative_reports_match_seed_engine(tmp_path, monkeypatch,
                                                    capsys):
    _check_against_seed_engine("finite-negative", tmp_path, monkeypatch)
    capsys.readouterr()


def test_sphere_wide_reports_match_seed_engine(tmp_path, monkeypatch, capsys):
    _check_against_seed_engine("sphere-wide", tmp_path, monkeypatch)
    capsys.readouterr()


def test_sphere_deep_reports_match_seed_engine(tmp_path, monkeypatch, capsys):
    _check_against_seed_engine("sphere-deep", tmp_path, monkeypatch)
    capsys.readouterr()
