"""Instance files, report files, the command-line surface, exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gradedbv as g
from gradedbv.checks import Window
from gradedbv.cli import main
from gradedbv.reportio import (InstanceFileError, load_instance,
                               save_instance)


def _statuses(instance, suite=g.BVUI_FULL):
    return [(r.relation, r.status)
            for r in g.check_structure(instance, suite, Window())]


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def test_roundtrip_three_dim(tmp_path):
    original = g.builtin_model("three-dim")
    path = tmp_path / "three.json"
    save_instance(original, path)
    loaded = load_instance(path)
    assert _statuses(loaded) == _statuses(original)
    assert all(s == "pass" for _, s in _statuses(loaded))
    # byte determinism of the serialization
    path2 = tmp_path / "again.json"
    save_instance(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_frobenius_model(tmp_path):
    original = g.sphere_frobenius_model(3)
    path = tmp_path / "frob.json"
    save_instance(original, path)
    loaded = load_instance(path)
    assert loaded.has_counit
    reports = g.check_structure(loaded, g.FROBENIUS_FULL, Window())
    assert all(r.status == "pass" for r in reports)


def _minimal_doc(**overrides):
    doc = {
        "name": "t",
        "field": "Q",
        "lambda_degree": -1,
        "basis": [{"name": "1", "degree": 0}],
        "mu": [{"inputs": ["1", "1"], "output": [{"name": "1", "coeff": 1}]}],
        "lambda": [],
        "Delta": [],
        "eta": [{"name": "1", "coeff": 1}],
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_even_lambda_degree_rejected(tmp_path):
    path = _write(tmp_path, _minimal_doc(lambda_degree=-2))
    with pytest.raises(InstanceFileError) as err:
        load_instance(path)
    assert any("odd" in p for p in err.value.problems)


def test_all_violations_reported_not_only_first(tmp_path):
    doc = _minimal_doc(
        lambda_degree=0,
        mu=[{"inputs": ["1", "ghost"], "output": [{"name": "1", "coeff": 1}]}],
        Delta=[{"inputs": ["1"], "output": [{"name": "1", "coeff": 1}]}])
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceFileError) as err:
        load_instance(path)
    text = "\n".join(err.value.problems)
    assert "odd" in text            # even coproduct degree
    assert "ghost" in text          # undeclared name
    assert "degree" in text         # operator breaks degree additivity
    assert len(err.value.problems) >= 3


def test_repeated_element_entries_are_summed(tmp_path):
    path = tmp_path / "frob.json"
    save_instance(g.sphere_frobenius_model(3), path)
    doc = json.loads(path.read_text())
    doc["eta"] = [{"name": "1", "coeff": 2}, {"name": "1", "coeff": -1}]
    doc["epsilon"] = [{"name": "x", "coeff": 3}, {"name": "x", "coeff": -2}]
    loaded = load_instance(_write(tmp_path, doc))
    assert loaded.eta.coeffs == {("1",): 1}
    assert loaded.epsilon.on_key(("x",)).coeffs == {(): 1}


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", ')
    with pytest.raises(InstanceFileError) as err:
        load_instance(path)
    assert "line" in err.value.problems[0]


def test_empty_mu_loads_and_unit_fails(tmp_path):
    path = _write(tmp_path, _minimal_doc(mu=[]))
    inst = load_instance(path)
    reports = g.check_structure(inst, ("Unit",), Window())
    assert reports[0].status == "fail"
    key, group, residual = reports[0].witnesses[0]
    assert key == ("1",)
    assert str(residual) == "-1"


def test_counit_degree_validation(tmp_path):
    doc = _minimal_doc(
        basis=[{"name": "1", "degree": 0}, {"name": "x", "degree": -3}],
        epsilon=[{"name": "x", "coeff": 1}])
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceFileError) as err:
        load_instance(path)
    assert any("counit" in p for p in err.value.problems)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_exit_code_matrix_models_by_suites():
    # with a zero coproduct the Frobenius identities hold vacuously and
    # the counit checks are skipped; a nonzero non-Frobenius coproduct
    # fails the copairing reconstruction
    expected_frobenius = {"trivial": 0, "exterior": 0, "three-dim": 3,
                          "sphere:3": 3, "sphere-frob:3": 0}
    for model in ("trivial", "exterior", "three-dim", "sphere:3",
                  "sphere-frob:3"):
        for suite in ("bvui", "consequences", "all"):
            assert main(["check", model, "--suite", suite, "--window", "2",
                         "--window3", "2"]) == 0, (model, suite)
        got = main(["check", model, "--suite", "frobenius", "--window", "2",
                    "--window3", "2"])
        assert got == expected_frobenius[model], model


def test_check_sphere_full_suite_window_four():
    assert main(["check", "sphere:3", "--suite", "all", "--window", "4"]) == 0


def test_check_suites_on_sphere():
    for suite in ("bvui", "consequences"):
        assert main(["check", "sphere:3", "--suite", suite, "--window", "2",
                     "--window3", "2"]) == 0
    # epsilon relations are skipped on an instance without a counit
    assert main(["check", "sphere:3", "--suite", "frobenius", "--window", "2",
                 "--window3", "2"]) == 3  # Frobenius relation fails: not Frobenius


def test_eval_output_format(capsys):
    assert main(["eval", "sphere:3", "--expr", "lambda . Delta . mu",
                 "--input", "AU^1 (x) U^1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-2*1(x)A + 2*A(x)1"


def test_eval_scalar_input(capsys):
    assert main(["eval", "sphere:3", "--expr", "eta", "--input", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # a bare number on zero slots is that multiple of the scalar 1
    for text, field, want in (("2", "Q", "2*1"), ("1/2", "Q", "1/2*1"),
                              ("1/2", "Fp:101", "51*1"), ("0", "Q", "0")):
        assert main(["eval", "sphere:3", "--expr", "eta", "--input", text,
                     "--field", field]) == 0
        assert capsys.readouterr().out.strip() == want, (text, field)
    # a name that is not a number is no scalar literal
    for text in ("x", "1e5", "1 (x) 1"):
        assert main(["eval", "sphere:3", "--expr", "eta",
                     "--input", text]) == 64
        assert "expected a scalar literal" in capsys.readouterr().err


def test_eval_reads_the_input_on_the_expressions_source(capsys):
    from gradedbv.double import dual_map
    assert main(["eval", "three-dim", "--expr", "dual(mu)",
                 "--input", "a^"]) == 0
    mu = g.builtin_model("three-dim").mu
    assert capsys.readouterr().out.strip() == str(dual_map(mu).on_key(("a^",)))
    # dual(mu) is defined on the dual slot, whatever the instance's is
    assert main(["eval", "three-dim", "--expr", "dual(mu)",
                 "--input", "a"]) == 64
    assert "three-dim^" in capsys.readouterr().err


def test_eval_of_a_permutation_reads_the_instances_slots(capsys):
    assert main(["eval", "three-dim", "--expr", "tau",
                 "--input", "a(x)b"]) == 0
    assert capsys.readouterr().out.strip() == "-b(x)a"


def test_double_command_and_check_roundtrip(tmp_path):
    saved = tmp_path / "double.json"
    assert main(["double", "trivial", "--save", str(saved)]) == 0
    assert main(["check", str(saved), "--suite", "frobenius"]) == 0


def test_double_command_rejects_bad_input(capsys):
    assert main(["double", "sphere-frob:3"]) == 2
    assert "rejected" in capsys.readouterr().err


def test_gysin_command():
    assert main(["gysin", "sphere:3", "--window", "3"]) == 0
    assert main(["gysin", "trivial"]) == 0


def test_mutate_exit_codes():
    assert main(["mutate", "sphere:3", "--mutation", "lambda-u-flip",
                 "--window", "2", "--window3", "2"]) == 0
    assert main(["mutate", "sphere:3", "--mutation", "delta-au-doubled",
                 "--window", "2", "--window3", "2"]) == 0
    assert main(["mutate", "sphere:3", "--mutation", "identity",
                 "--window", "2", "--window3", "2"]) == 0
    # over F2 the sign flip is invisible: the expected failure is missing
    assert main(["mutate", "sphere:3", "--mutation", "lambda-u-flip",
                 "--field", "Fp:2", "--window", "2", "--window3", "2"]) == 4


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    from gradedbv import cli
    commands = [["mutate", "sphere:3", "--mutation", "lambda-u-flip",
                 "--field", "Fp:2", "--window", "2", "--window3", "2"],
                ["check", "sphere:3", "--window", "x"],
                ["check", "sphere:3", "--suite", "bvui", "--window", "2"]]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    separate = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "gradedbv.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        separate.append((proc.returncode, proc.stdout))
    tops, init = [], cli._Parser.__init__

    def counted(parser, *args, **kwargs):
        tops.append(kwargs.get("prog") == "gradedbv")
        init(parser, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    together = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:       # a usage error
            code = exc.code
        together.append((code, capsys.readouterr().out))
    assert tops.count(True) == 1
    assert [code for code, _ in separate] == [4, 64, 0]
    assert together == separate


def test_validation_exit_code(tmp_path):
    path = _write(tmp_path, _minimal_doc(lambda_degree=0))
    assert main(["check", str(path)]) == 2


def test_usage_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 64


def test_missing_file_exit_code():
    assert main(["check", "no-such-file.json"]) == 2


def test_bad_expression_exit_code():
    assert main(["eval", "sphere:3", "--expr", "mu . (", "--input", "1"]) == 64


@pytest.mark.parametrize("expr,value", [
    ("1/0*mu", "U(x)U"),
    ("mu", "1/0*U(x)U"),
])
def test_zero_denominator_is_a_parse_error(capsys, expr, value):
    assert main(["eval", "sphere:3", "--expr", expr, "--input", value]) == 64
    err = capsys.readouterr().err
    assert "parse error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value,shown", [
    ("dual(U) (x) U", "got dual(U)"),
    ("(U . AU) (x) U", "got U . AU"),
])
def test_a_literal_that_is_no_tensor_of_names_is_printed_as_parsed(
        capsys, value, shown):
    assert main(["eval", "sphere:3", "--expr", "mu", "--input", value]) == 64
    err = capsys.readouterr().err
    assert "parse error: element literals are tensors of basis names, " in err
    assert shown in err
    assert "Gen(" not in err and "Traceback" not in err


_LONG = "7" * 5000
_NESTED = "(" * 300 + "%s" + ")" * 300


@pytest.mark.parametrize("expr,value,message", [
    (_LONG + "*mu", "U(x)U", "coefficient of 5000 characters"),
    ("mu", _LONG + "*U(x)U", "coefficient of 5000 characters"),
    ("mu", "1/" + _LONG + "*U(x)U", "coefficient of 5002 characters"),
    (_NESTED % "mu", "U(x)U", "nest deeper than 100 at position 100"),
    ("mu", _NESTED % "U(x)U", "nest deeper than 100 at position 100"),
    ("dual(" * 300 + "mu" + ")" * 300, "U(x)U", "nest deeper than 100"),
])
def test_long_numbers_and_deep_nesting_are_parse_errors(capsys, expr, value,
                                                        message):
    assert main(["eval", "sphere:3", "--expr", expr, "--input", value]) == 64
    err = capsys.readouterr().err
    assert "parse error: " in err and message in err
    assert "Traceback" not in err


def test_coefficients_and_nesting_within_the_bounds_parse():
    coeff = "7" * g.expr.MAX_COEFF_CHARS
    assert g.parse(coeff + "*mu") == g.expr.Scal(Fraction(coeff), g.expr.Gen("mu"))
    depth = g.expr.MAX_NESTING
    assert g.parse("(" * depth + "mu" + ")" * depth) == g.expr.Gen("mu")


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["check", "sphere:3", "--suite", "bvui", "--window", "2",
            "--window3", "2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--threads", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["engine"].startswith("gradedbv")
    assert doc["summary"]["fail"] == 0
    assert all(r["description"] for r in doc["reports"])


@pytest.mark.parametrize("overrides,expected", [
    ({"basis": [1]}, "basis[0]"),
    ({"mu": [5]}, "mu[0]"),
    ({"gysin": {"basis": 3}}, "gysin.basis"),
    ({"name": [1]}, "name must be a string"),
    ({"name": 5}, "name must be a string"),
    ({"name": True}, "name must be a string"),
])
def test_malformed_instance_files_are_invalid(tmp_path, capsys, overrides,
                                              expected):
    path = _write(tmp_path, _minimal_doc(**overrides))
    assert main(["gysin", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid: %s" % expected in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "double"])
def test_non_string_instance_name_is_invalid(tmp_path, capsys, command):
    path = _write(tmp_path, _minimal_doc(name=[1]))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid: name must be a string, got [1]" in err
    assert "Traceback" not in err


def test_missing_or_empty_instance_name_is_unnamed(tmp_path):
    doc = _minimal_doc()
    del doc["name"]
    assert load_instance(_write(tmp_path, doc)).name == "unnamed"
    assert load_instance(_write(tmp_path, _minimal_doc(name=""))).name == "unnamed"
    assert load_instance(_write(tmp_path, _minimal_doc(name=None))).name == "unnamed"


@pytest.mark.parametrize("flag", ["--window", "--window3"])
def test_negative_window_is_a_usage_error(flag):
    with pytest.raises(SystemExit) as err:
        main(["check", "sphere:3", flag, "-2"])
    assert err.value.code == 64


def test_relation_failure_exit_code(tmp_path):
    path = _write(tmp_path, _minimal_doc(mu=[]))
    assert main(["check", str(path), "--suite", "bvui"]) == 3


def test_field_flag_runs_suite_over_fp():
    assert main(["check", "sphere:3", "--suite", "bvui", "--field", "Fp:101",
                 "--window", "2", "--window3", "2"]) == 0


def test_an_instance_file_is_checked_over_its_declared_field(tmp_path, capsys):
    saved = tmp_path / "D.json"
    assert main(["double", "exterior-bv", "--field", "Fp:101",
                 "--save", str(saved)]) == 0
    assert json.loads(saved.read_text())["field"] == "Fp:101"
    capsys.readouterr()
    # without --field the file's field is used: -1 is read as -1 mod 101
    out = tmp_path / "check.json"
    assert main(["check", str(saved), "--out", str(out)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.endswith(" over Fp:101")
    assert lines[-1] == "summary: 26 pass, 0 fail, 1 skipped"
    assert json.loads(out.read_text())["field"] == "Fp:101"
    # an explicit --field overrides it: over Q the residues 100 are not -1
    assert main(["check", str(saved), "--field", "Q", "--out", str(out)]) == 3
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.endswith(" over Q")
    assert lines[-1] == "summary: 12 pass, 14 fail, 1 skipped"
    assert json.loads(out.read_text())["field"] == "Q"
    # over another prime the same residues are other numbers still
    assert main(["check", str(saved), "--field", "Fp:3"]) == 3


def test_a_built_in_model_is_over_q_without_field(capsys):
    assert main(["check", "exterior-bv", "--suite", "bvui"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" over Q")
    assert main(["eval", "sphere:3", "--expr", "eta", "--input", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "1/2*1"


def _gysin_doc():
    # basis {1, z, w} with Delta z = w; classes {c} with E(z) = c, M(c) = w
    return {
        "name": "gy",
        "field": "Q",
        "lambda_degree": -1,
        "basis": [{"name": "1", "degree": 0}, {"name": "z", "degree": -2},
                  {"name": "w", "degree": -1}],
        "mu": [{"inputs": ["1", "1"], "output": [{"name": "1", "coeff": 1}]},
               {"inputs": ["1", "z"], "output": [{"name": "z", "coeff": 1}]},
               {"inputs": ["z", "1"], "output": [{"name": "z", "coeff": 1}]},
               {"inputs": ["1", "w"], "output": [{"name": "w", "coeff": 1}]},
               {"inputs": ["w", "1"], "output": [{"name": "w", "coeff": 1}]}],
        "lambda": [],
        "Delta": [{"inputs": ["z"], "output": [{"name": "w", "coeff": 1}]}],
        "eta": [{"name": "1", "coeff": 1}],
        "gysin": {
            "basis": [{"name": "c", "degree": -2}],
            "E": [{"inputs": ["z"], "output": [{"name": "c", "coeff": 1}]}],
            "M": [{"inputs": ["c"], "output": [{"name": "w", "coeff": 1}]}],
        },
    }


def test_user_supplied_gysin_data_from_file(tmp_path):
    from gradedbv.reportio import gysin_from_section
    path = _write(tmp_path, _gysin_doc(), "gy.json")
    inst = load_instance(path)
    data = gysin_from_section(load_instance(path).gysin_section, inst)
    assert data is not None
    assert data.validate(inst, Window())
    assert main(["gysin", str(path)]) == 0


def _gysin_case(case):
    doc = _gysin_doc()
    gy = doc["gysin"]
    if case == "class-degree":
        gy["basis"] = [{"name": "c", "degree": -3}]
    elif case == "duplicate-class":
        gy["basis"] = [{"name": "c", "degree": -2}, {"name": "c", "degree": -2}]
    elif case == "split-entries":
        gy["E"] = [{"inputs": ["z"], "output": [{"name": "c", "coeff": 2}]},
                   {"inputs": ["z"], "output": [{"name": "c", "coeff": -1}]}]
    elif case == "split-outputs":
        gy["E"] = [{"inputs": ["z"], "output": [{"name": "c", "coeff": 2},
                                                {"name": "c", "coeff": -1}]}]
    return doc


@pytest.mark.parametrize("case,code,message", [
    ("class-degree", 2, "invalid: gysin.E[0].output[0]: degree -3, "
                        "expected input -2 + map 0"),
    ("duplicate-class", 2, "invalid: gysin.basis[1]: duplicate name 'c'"),
    ("split-entries", 0, ""),
    ("split-outputs", 0, ""),
])
def test_gysin_section_is_read_like_the_instance(tmp_path, capsys, case,
                                                 code, message):
    path = _write(tmp_path, _gysin_case(case), "gy.json")
    assert main(["gysin", str(path)]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""


def _boolean_case(case):
    if case == "gysin-degree":
        doc = _gysin_doc()
        doc["gysin"]["basis"].append({"name": "d", "degree": False})
        return doc
    doc = _minimal_doc()
    if case == "degree":
        doc["basis"].append({"name": "x", "degree": True})
    elif case == "lambda_degree":
        doc["lambda_degree"] = True
    elif case == "coeff":
        doc["eta"] = [{"name": "1", "coeff": True}]
    return doc


@pytest.mark.parametrize("case,command,message", [
    ("degree", "check", "invalid: basis[1]: need {name, degree}"),
    ("lambda_degree", "check", "invalid: lambda_degree must be an integer"),
    ("coeff", "check", "invalid: eta[0]: bad coefficient True"),
    ("gysin-degree", "gysin", "invalid: gysin.basis[1]: need {name, degree}"),
])
def test_json_booleans_are_not_integers(tmp_path, capsys, case, command,
                                        message):
    path = _write(tmp_path, _boolean_case(case))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _eta_text(coeff_text):
    """An instance document whose eta coefficient is the JSON text
    ``coeff_text``, written as is."""
    text = json.dumps(_minimal_doc(eta=[{"name": "1", "coeff": 0}]))
    return text.replace('"coeff": 0}', '"coeff": %s}' % coeff_text)


@pytest.mark.parametrize("coeff_text,message", [
    ("7" * 5000, "parse error in "),
    ("-" + "7" * 101, "parse error in "),
    ('"1e3000000"', "invalid: eta[0]: bad coefficient '1e3000000'"),
    ('"1e30000000"', "invalid: eta[0]: bad coefficient '1e30000000'"),
    ('"%s"' % ("7" * 101), "invalid: eta[0]: bad coefficient '777"),
    ('"\\u0663"', "invalid: eta[0]: bad coefficient"),
    ('" 3"', "invalid: eta[0]: bad coefficient ' 3'"),
    ('"1_000"', "invalid: eta[0]: bad coefficient '1_000'"),
])
def test_oversized_or_malformed_coefficients_are_invalid(tmp_path, capsys,
                                                         coeff_text, message):
    path = tmp_path / "inst.json"
    path.write_text(_eta_text(coeff_text))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("coeff_text,value", [
    ("7" * 100, 7 * (10 ** 100 - 1) // 9),
    ('"-3/2"', Fraction(-3, 2)),
    ('"+0.25"', Fraction(1, 4)),
    ('"%s"' % ("1" * 100), int("1" * 100)),
])
def test_coefficients_within_the_bound_are_read(tmp_path, coeff_text, value):
    path = tmp_path / "inst.json"
    path.write_text(_eta_text(coeff_text))
    assert load_instance(path).eta.coeffs == {("1",): value}


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(_minimal_doc(name="\xe9")).replace(
        "\\u00e9", "\xe9").encode("latin-1"))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid: parse error in " in err
    assert "Traceback" not in err


def test_a_deeply_nested_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"name": "x", "basis": %s%s}' % ("[" * 100000, "]" * 100000))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid: parse error in " in err and "nest too deeply" in err
    assert "Traceback" not in err


def test_a_run_that_checks_nothing_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "empty.json"
    assert main(["gysin", "sphere:3", "--window", "0", "--out", str(out)]) == 64
    assert "error: no relation was checked" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"pass": 0, "fail": 0, "skipped": 6}
    agreement = doc["reports"][-1]
    assert agreement["relation"] == "GysinJacobiAgreement"
    assert agreement["status"] == "skipped"
    assert "skipped" in agreement["skip_reason"]
    # zero-space passes are checks that hold, not an empty run
    assert main(["gysin", "trivial"]) == 0
    captured = capsys.readouterr()
    assert "0 fail, 0 skipped" in captured.out
    assert captured.err == ""


def test_user_supplied_gysin_data_rejected_when_inconsistent(tmp_path):
    doc = _gysin_doc()
    doc["gysin"]["M"] = [{"inputs": ["c"],
                          "output": [{"name": "w", "coeff": 2}]}]
    path = _write(tmp_path, doc, "gy-bad.json")
    assert main(["gysin", str(path)]) == 2


def test_gysin_file_breaking_mark_erase_names_the_identity(tmp_path, capsys):
    doc = _gysin_doc()
    doc["gysin"]["M"] = []          # M.E(z) = 0, but Delta z = w
    path = _write(tmp_path, doc, "gy-me.json")
    assert main(["gysin", str(path), "--out", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "gysin data invalid: M.E != Delta at z\n"
    assert captured.out == "" and not (tmp_path / "r.json").exists()


def test_builtin_gysin_ignores_a_file_of_the_same_name(tmp_path, monkeypatch,
                                                       capsys):
    doc = _gysin_doc()
    doc["gysin"]["M"] = [{"inputs": ["c"],
                          "output": [{"name": "w", "coeff": 2}]}]
    runs = []
    for name in ("plain", "shadowed"):
        cwd = tmp_path / name
        cwd.mkdir()
        if name == "shadowed":
            _write(cwd, doc, "three-dim")
        monkeypatch.chdir(cwd)
        code = main(["gysin", "three-dim", "--window", "2", "--out", "r.json"])
        report = cwd / "r.json"
        runs.append((code, report.exists() and report.read_bytes(),
                     capsys.readouterr()))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_huge_input_u_power_is_a_usage_error(capsys, monkeypatch):
    # rejected while the input is read: no map is ever applied to a key
    from gradedbv.core import GradedMap

    def no_rule(self, key):
        raise AssertionError("a rule ran on %r" % (key,))

    monkeypatch.setattr(GradedMap, "on_key", no_rule)
    assert main(["eval", "sphere:3", "--expr", "lambda",
                 "--input", "U^99999999999999999999"]) == 64
    err = capsys.readouterr().err
    assert "exceeds the input bound %d" % g.models.MAX_INPUT_U_POWER in err
    assert "Traceback" not in err


def test_input_u_power_at_the_bound_is_evaluated(capsys):
    bound = g.models.MAX_INPUT_U_POWER
    assert main(["eval", "sphere:3", "--expr", "Delta",
                 "--input", "AU^%d" % bound]) == 0
    assert capsys.readouterr().out.strip() == "%d*U^%d" % (bound, bound - 1)
    assert main(["eval", "sphere:3", "--expr", "Delta",
                 "--input", "AU^%d" % (bound + 1)]) == 64
    capsys.readouterr()
    # leading zeros neither count against the bound nor overflow int()
    assert main(["eval", "sphere:3", "--expr", "Delta",
                 "--input", "AU^" + "0" * 5000 + "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_bad_model_parameter_is_a_usage_error(capsys):
    assert main(["check", "sphere:4"]) == 64
    assert "odd n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "mutate"])
@pytest.mark.parametrize("name", [
    "sphere:x", "sphere:", "sphere-frob:abc", "sphere:" + "7" * 5000,
    "sphere:\u0663", "sphere-frob:\u0663", "sphere:3:3", "sphere:-3",
    "sphere:" + "0" * g.models.MAX_DIMENSION_DIGITS + "3"])
def test_malformed_model_names_are_unknown_models(command, name, capsys):
    # "\u0663" is ARABIC-INDIC DIGIT THREE, which int() reads as 3
    argv = [command, name, "--window", "1"]
    if command == "mutate":
        argv += ["--mutation", "identity"]
    assert main(argv) == 64
    assert "unknown model" in capsys.readouterr().err


def test_model_dimension_at_the_digit_bound_is_read():
    digits = "0" * (g.models.MAX_DIMENSION_DIGITS - 1) + "3"
    assert g.builtin_model("sphere:" + digits).name == "sphere:3"
    assert g.builtin_model("sphere-frob:" + digits).name == "sphere-frob:3"


def test_double_rejects_a_base_name_that_is_a_shifted_dual_name(tmp_path,
                                                                 capsys):
    # the exterior model with x named "1'": its double would also name the
    # shifted dual of 1 "1'"
    path = _write(tmp_path, _minimal_doc(
        basis=[{"name": "1", "degree": 0}, {"name": "1'", "degree": -1}],
        mu=[{"inputs": ["1", "1"], "output": [{"name": "1", "coeff": 1}]},
            {"inputs": ["1", "1'"], "output": [{"name": "1'", "coeff": 1}]},
            {"inputs": ["1'", "1"], "output": [{"name": "1'", "coeff": 1}]}]))
    assert main(["check", str(path), "--suite", "bvui"]) == 0
    capsys.readouterr()
    assert main(["double", str(path)]) == 2
    err = capsys.readouterr().err
    assert "double rejected" in err and "\"1'\"" in err


def test_eval_over_a_prime_field(capsys):
    assert main(["eval", "sphere:3", "--expr", "lambda . Delta . mu",
                 "--input", "AU^1 (x) U^1", "--field", "Fp:101"]) == 0
    assert capsys.readouterr().out.strip() == "99*1(x)A + 2*A(x)1"


def test_rule_generated_instances_cannot_be_serialized(tmp_path):
    import gradedbv as g
    with pytest.raises(g.EngineError):
        save_instance(g.sphere_model(3), tmp_path / "nope.json")
