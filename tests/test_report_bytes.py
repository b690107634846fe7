"""Report bytes stay identical to the seed engine's.

Runs the eight ``finite-negative`` benchmark commands for ``n = 3``
through ``cli.main`` and compares each exit code and the SHA-256 of each
``--out`` report with ``bench/workloads/finite-negative.json``
(``seed_engine``).  The workload file is only read.
"""

import hashlib
import json
from pathlib import Path

from gradedbv.cli import main

WORKLOAD = (Path(__file__).resolve().parent.parent / "bench" / "workloads"
            / "finite-negative.json")
N = 3


def test_finite_negative_reports_match_seed_engine(tmp_path, monkeypatch,
                                                    capsys):
    workload = json.loads(WORKLOAD.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)     # later commands read files earlier ones save
    for index, command in enumerate(workload["commands"]):
        out = "report-%d.json" % index
        argv = [arg.replace("{n}", str(N)) for arg in command["argv"]]
        assert main(argv + ["--out", out]) == command["exit"], argv
        digest = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
        seed = workload["seed_engine"]["commands"][index]["sha256"][str(N)]
        assert digest == seed, argv
    capsys.readouterr()
