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

It also pins the SHA-256 of the instance files written by ``double
--save`` for the finite built-ins over ``Q`` and ``Fp:101``, recorded
before the double's maps were built with ``core.table_map``, and of the
files ``reportio.save_instance`` writes for the finite built-ins
themselves, recorded before they were built by ``models._finite_model``.
"""

import hashlib
import json
from pathlib import Path

import pytest

import gradedbv as g
from gradedbv.cli import main
from gradedbv.reportio import save_instance

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


DOUBLE_SAVE_SHA256 = {
    ("trivial", "Q"):
        "10fce52a646ccffe55c296185e9cbecfed9169a5d5e7444573bf2f8a3f20a66d",
    ("trivial", "Fp:101"):
        "6a08360e75b182b5bb8341a488047b5f3037e8603b1b544e2a5e75256a1ff26e",
    ("exterior", "Q"):
        "020ab714235d084d01d257eddd76a52f148b20755fcd5d23b9f3e805f7e5bfc4",
    ("exterior", "Fp:101"):
        "4d7e590f2103cdd459095cd525225ab4711f0126f00f926f173678212befddc7",
    ("three-dim", "Q"):
        "9890544823bdf28b8195fd297a50ae4724b4115cfad1004b669c8c6f64a58bcd",
    ("three-dim", "Fp:101"):
        "80c4ae41628efc9199db8c1f55d658c7ef40cd471c119b36f1751fa893b4f5f0",
}


@pytest.mark.parametrize("model,field", sorted(DOUBLE_SAVE_SHA256))
def test_double_save_files_are_unchanged(tmp_path, capsys, model, field):
    saved = tmp_path / "double.json"
    assert main(["double", model, "--field", field, "--save", str(saved)]) == 0
    digest = hashlib.sha256(saved.read_bytes()).hexdigest()
    assert digest == DOUBLE_SAVE_SHA256[(model, field)]
    capsys.readouterr()


SAVE_INSTANCE_SHA256 = {
    ("trivial", "Q"):
        "15c96880efab3bcc1f17b36ce34fd6dd88dfffc91f8fe8c0073a7e9d389f57e3",
    ("trivial", "Fp:101"):
        "642df646da5aa58f6cd123fcfb328244cb85fd646bd29aa2bf179ae2bfb964a2",
    ("exterior", "Q"):
        "dc2f41749784a0d93299c36312487cbfd2fd1dc63f2fb9e1833b7795482ca271",
    ("exterior", "Fp:101"):
        "eb0a8417820b534197d7a51bfd5559158c58929d7f6fc65e82ef5440714394b0",
    ("three-dim", "Q"):
        "c41bfee5b87f93cbc72d0345547aaf4cbaa04971d0a3e9136ab0c9cf124a48d3",
    ("three-dim", "Fp:101"):
        "2126503a13b6b7a44b18418455b3b85946bb31881661b09d171da7dd1b5a3510",
    ("sphere-frob:3", "Q"):
        "24e5d8209fbe5b4b08e6ae85a9dd24f35c0eaaf169cb6f68e813441f3c56a256",
    ("sphere-frob:3", "Fp:101"):
        "31b1e002e72b8220554e50476c86e1ac4560982dfdee57e5c6bf6816762be489",
}


@pytest.mark.parametrize("model,field", sorted(SAVE_INSTANCE_SHA256))
def test_saved_finite_models_are_unchanged(tmp_path, model, field):
    saved = tmp_path / "model.json"
    save_instance(g.builtin_model(model, g.field_by_name(field)), saved)
    digest = hashlib.sha256(saved.read_bytes()).hexdigest()
    assert digest == SAVE_INSTANCE_SHA256[(model, field)]
