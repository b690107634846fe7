"""Start-up of the ``gradedbv`` CLI: what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules a CLI process need not load: ``dataclasses`` loads ``inspect``,
# which loads ``ast`` and ``dis``; ``typing`` is only for annotations.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "typing")

PROBE = """
import json, sys
import gradedbv.cli
from gradedbv.structures import builtin_relation, relation_ids
for rid in relation_ids():
    builtin_relation(rid)
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_import_and_catalog_load_no_heavy_modules():
    # -S: no site packages, whose .pth files may import typing themselves
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "gradedbv.cli" in loaded and "gradedbv.structures" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []


def test_the_suite_tests_this_checkouts_package():
    # pytest's ``pythonpath = ["src"]`` goes ahead of PYTHONPATH, so the
    # suite always tests the tree it runs in
    import gradedbv
    package = Path(gradedbv.__file__).resolve().parent
    assert package == (SRC / "gradedbv").resolve()
