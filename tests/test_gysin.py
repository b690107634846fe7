"""Erase/mark layer: canonical construction, brackets, Lie bialgebra."""

import pytest

import gradedbv as g
from gradedbv.checks import Window
from gradedbv.core import (FiniteSpace, GradedMap, basis_element, table_map,
                           zero_element)
from gradedbv.gysin import GysinData, GysinError, canonical_gysin
from gradedbv.structures import BVUIInstance


@pytest.fixture(scope="module")
def sphere():
    return g.sphere_model(3)


@pytest.fixture(scope="module")
def sphere_gysin(sphere):
    return canonical_gysin(sphere, Window(5))


def test_canonical_sphere_classes(sphere, sphere_gysin):
    data = sphere_gysin
    assert data.space_b.window_names(4) == ("[AU]", "[AU^2]", "[AU^3]",
                                            "[AU^4]")
    y = basis_element((data.space_b,), sphere.field, ("[AU^3]",))
    assert data.mark(y) == basis_element((sphere.space,), sphere.field,
                                         ("U^2",), 3)
    x = basis_element((sphere.space,), sphere.field, ("AU^2",))
    assert data.erase(x) == basis_element((data.space_b,), sphere.field,
                                          ("[AU^2]",))
    assert data.erase(sphere.eta).is_zero()


@pytest.mark.parametrize("name", ["[AU^1]", "[AU^01]", "[A]", "[AU^0]",
                                  "[U^2]", "AU", "[AU"])
def test_sphere_classes_reject_non_canonical_names(sphere_gysin, name):
    from gradedbv.core import UnknownBasisName
    b = sphere_gysin.space_b
    assert b.contains("[AU]") and b.degree("[AU]") == -1
    assert b.degree("[AU^2]") == b.sphere.degree("AU^2") == 1
    assert not b.contains(name)
    for _ in range(2):      # rejected again once "[AU]" is memoized
        with pytest.raises(UnknownBasisName):
            b.degree(name)
    y = basis_element((b,), sphere_gysin.mark.field, (name,))
    with pytest.raises(UnknownBasisName):
        sphere_gysin.mark(y)


def test_canonical_sphere_validates_on_window(sphere, sphere_gysin):
    assert sphere_gysin.validate(sphere, Window(5))


def test_trivial_canonical_data_is_zero():
    triv = g.builtin_model("trivial")
    data = canonical_gysin(triv, Window())
    assert data.space_b.basis_names() == ()
    assert data.erase(triv.eta).is_zero()


def test_string_bracket_vanishes_on_sphere(sphere, sphere_gysin):
    bracket = g.string_bracket(sphere, sphere_gysin)
    assert bracket.degree == 2
    names = sphere_gysin.space_b.window_names(4)
    for a in names:
        for b in names:
            assert bracket.on_key((a, b)).is_zero()


def test_string_cobracket_vanishes_on_sphere(sphere, sphere_gysin):
    cobracket = g.string_cobracket(sphere, sphere_gysin)
    assert cobracket.degree == sphere.lam_degree + 1
    for a in sphere_gysin.space_b.window_names(5):
        assert cobracket.on_key((a,)).is_zero()


def test_lie_bialgebra_checks_pass_on_sphere(sphere, sphere_gysin):
    reports = g.check_lie_bialgebra(sphere, sphere_gysin, Window(4, 3))
    assert [r.relation for r in reports] == [
        "GysinJacobi", "GysinCoJacobi", "GysinDrinfeld", "GysinNineTerm",
        "GysinSevenTerm", "GysinJacobiAgreement"]
    assert all(r.status == "pass" for r in reports)


def test_bracket_and_cobracket_check_and_cache_each_key_once(
        monkeypatch, sphere, sphere_gysin):
    # the installed bracket and cobracket run their composite's rule, so
    # the composite compiled in the same context never fills its cache
    from gradedbv import gysin
    from gradedbv.expr import parse
    contexts, build = [], gysin._gysin_context

    def capture(*args):
        contexts.append(build(*args))
        return contexts[-1]

    monkeypatch.setattr(gysin, "_gysin_context", capture)
    reports = g.check_lie_bialgebra(sphere, sphere_gysin, Window(5, 3))
    assert all(r.status == "pass" for r in reports)
    (ctx,) = contexts
    b = sphere_gysin.space_b
    for name, text, arity in (("bracket", "E . mu . (M (x) M)", 2),
                              ("cobracket", "(E (x) E) . lambda . M", 1)):
        composite = ctx.plans[parse(text), (b,) * arity]
        assert not composite._cache, name
        assert ctx.maps[name]._cache, name
        assert ctx.maps[name].rule is composite.rule


def test_zero_data_on_nonempty_space_passes():
    inst = g.builtin_model("exterior")  # operator is zero
    b_space = FiniteSpace("b", {"p": 0, "q": 1})
    erase = table_map((inst.space,), (b_space,), 0, inst.field, [], "E")
    mark = table_map((b_space,), (inst.space,), 1, inst.field, [], "M")
    data = GysinData(b_space, erase, mark)
    assert data.validate(inst, Window())
    reports = g.check_lie_bialgebra(inst, data, Window())
    assert all(r.status == "pass" for r in reports)


def test_invalid_data_rejected(sphere):
    # E = identity on the sphere gives M.E = Delta but E.M != 0
    sp, field = sphere.space, sphere.field
    erase = GradedMap((sp,), (sp,), 0, field, name="E",
                      rule=lambda key: basis_element((sp,), field, key))
    mark = GradedMap((sp,), (sp,), 1, field, name="M",
                     rule=lambda key: sphere.delta.on_key(key))
    data = GysinData(sp, erase, mark)
    with pytest.raises(GysinError) as err:
        data.validate(sphere, Window(3))
    assert "E.M != 0" in str(err.value)


def test_degree_constraints_on_data(sphere):
    sp, field = sphere.space, sphere.field
    wrong = GradedMap((sp,), (sp,), 0, field, name="M0",
                      rule=lambda key: zero_element((sp,), field))
    with pytest.raises(GysinError):
        GysinData(sp, wrong, wrong)  # mark must have degree 1


def _finite_delta_instance():
    """Basis {1, z1, z2, w}: Delta z1 = w, Delta z2 = 2w, else zero."""
    field = g.QQ
    space = FiniteSpace("fin", {"1": 0, "z1": -2, "z2": -2, "w": -1})
    s1, s2 = (space,), (space, space)
    mu = table_map(s2, s1, 0, field, [
        (("1", n), (n,), 1) for n in space.basis_names()] + [
        ((n, "1"), (n,), 1) for n in space.basis_names() if n != "1"], "mu")
    lam = table_map(s1, s2, -1, field, [], "lambda")
    delta = table_map(s1, s1, 1, field, [
        (("z1",), ("w",), 1), (("z2",), ("w",), 2)], "Delta")
    return BVUIInstance("fin", space, field, mu,
                        basis_element(s1, field, ("1",)), lam, delta, -1)


def test_finite_canonical_construction_by_elimination():
    inst = _finite_delta_instance()
    data = canonical_gysin(inst, Window())
    assert data.space_b.basis_names() == ("[z1]",)
    z2 = basis_element((inst.space,), inst.field, ("z2",))
    # E(z2) = 2 [z1] so that M.E(z2) = 2w = Delta(z2)
    assert data.erase(z2) == basis_element((data.space_b,), inst.field,
                                           ("[z1]",), 2)
    assert data.validate(inst, Window())


def test_canonical_rejects_nonsquarezero_operator():
    field = g.QQ
    space = FiniteSpace("bad", {"z": -2, "w": -1, "v": 0, "1": 0})
    s1, s2 = (space,), (space, space)
    mu = table_map(s2, s1, 0, field, [], "mu")
    lam = table_map(s1, s2, -1, field, [], "lambda")
    delta = table_map(s1, s1, 1, field, [
        (("z",), ("w",), 1), (("w",), ("v",), 1)], "Delta")
    inst = BVUIInstance("bad", space, field, mu,
                        basis_element(s1, field, ("1",)), lam, delta, -1)
    with pytest.raises(GysinError) as err:
        canonical_gysin(inst, Window())
    assert "square" in str(err.value)


def test_transported_nine_term_is_zero_tuple_by_tuple(sphere, sphere_gysin):
    # (E (x) E) . term . (M (x) M) summed with the nine-term signs
    from gradedbv.checks import residual_on_key
    from gradedbv.expr import Gen, Tensor
    from gradedbv.gysin import _gysin_context, _transported
    ctx = _gysin_context(sphere, sphere_gysin)
    groups = _transported("NineTerm", Tensor((Gen("M"), Gen("M"))),
                          Tensor((Gen("E"), Gen("E"))))
    from gradedbv.checks import RelationSpec
    spec = RelationSpec("t9", 2, "", groups)
    b = sphere_gysin.space_b
    for a in b.window_names(3):
        for c in b.window_names(3):
            assert residual_on_key(spec, ctx, (b, b), (a, c)) is None


def _zw_instance(extra=None):
    """Basis {1, z, w} with Delta z = w, and ``extra`` Delta rows."""
    from gradedbv.core import table_map
    field = g.QQ
    degrees = {"1": 0, "z": -2, "w": -1, "v": 0}
    rows = [(("z",), ("w",), 1)] + (extra or [])
    names = ("1", "z", "w") + (("v",) if extra else ())
    space = FiniteSpace("zw", {n: degrees[n] for n in names})
    s1, s2 = (space,), (space, space)
    mu = table_map(s2, s1, 0, field, [(("1", n), (n,), 1) for n in names]
                   + [((n, "1"), (n,), 1) for n in names if n != "1"], "mu")
    return BVUIInstance("zw", space, field, mu,
                        basis_element(s1, field, ("1",)),
                        table_map(s1, s2, -1, field, [], "lambda"),
                        table_map(s1, s1, 1, field, rows, "Delta"), -1)


def _zw_data(inst, b_degrees, erase_rows, mark_rows):
    from gradedbv.core import table_map
    b = FiniteSpace("zw/classes", b_degrees)
    return GysinData(b, table_map((inst.space,), (b,), 0, inst.field,
                                  erase_rows, "E"),
                     table_map((b,), (inst.space,), 1, inst.field,
                               mark_rows, "M"))


@pytest.mark.parametrize("b_degrees,erase_rows,mark_rows,message", [
    # M(c) = 2w, so M.E(z) = 2w while Delta z = w
    ({"c": -2}, [(("z",), ("c",), 1)], [(("c",), ("w",), 2)],
     "M.E != Delta at z"),
    # E(w) = d: E.Delta(z) = d, and E.M(c) = d
    ({"c": -2, "d": -1}, [(("z",), ("c",), 1), (("w",), ("d",), 1)],
     [(("c",), ("w",), 1)], "E.Delta != 0 at z; E.M != 0 at c"),
    # M(d) = 1 and E(1) = e: only E.M fails
    ({"c": -2, "d": -1, "e": 0}, [(("z",), ("c",), 1), (("1",), ("e",), 1)],
     [(("c",), ("w",), 1), (("d",), ("1",), 1)], "E.M != 0 at d"),
    # M(d) = z: Delta.M(d) = w, and E.M(d) = E(z) = c
    ({"c": -2, "d": -3}, [(("z",), ("c",), 1)],
     [(("c",), ("w",), 1), (("d",), ("z",), 1)],
     "E.M != 0 at d; Delta.M != 0 at d"),
])
def test_each_broken_identity_is_named_with_its_witness(
        b_degrees, erase_rows, mark_rows, message):
    inst = _zw_instance()
    good = _zw_data(inst, {"c": -2}, [(("z",), ("c",), 1)],
                    [(("c",), ("w",), 1)])
    assert good.validate(inst, Window())
    data = _zw_data(inst, b_degrees, erase_rows, mark_rows)
    with pytest.raises(GysinError) as err:
        data.validate(inst, Window())
    assert str(err.value) == message


def test_operator_that_does_not_square_to_zero_is_named():
    inst = _zw_instance([(("w",), ("v",), 3)])
    with pytest.raises(GysinError) as err:
        canonical_gysin(inst, Window())
    assert str(err.value) == "operator does not square to zero at z: 3*v"


def test_more_than_ten_failures_report_the_first_ten(sphere):
    # E = identity and M = Delta break E.Delta and E.M at every AU^k
    sp, field = sphere.space, sphere.field
    erase = GradedMap((sp,), (sp,), 0, field, name="E",
                      rule=lambda key: basis_element((sp,), field, key))
    mark = GradedMap((sp,), (sp,), 1, field, name="M",
                     rule=lambda key: sphere.delta.on_key(key))
    window = Window(12)
    with pytest.raises(GysinError) as err:
        GysinData(sp, erase, mark).validate(sphere, window)
    failing = [n for n in window.names_for(sp, 1) if n.startswith("AU")]
    assert len(failing) == 12
    assert str(err.value).split("; ") == (
        ["E.Delta != 0 at %s" % n for n in failing[:10]]
        + ["E.M != 0 at %s" % n for n in failing[:10]])


def test_string_bracket_is_named_by_its_expression(sphere, sphere_gysin):
    bracket = g.string_bracket(sphere, sphere_gysin)
    assert repr(bracket).startswith("<map E . mu . (M (x) M): ")


def test_each_bracket_key_runs_its_compiled_loop_once(sphere, sphere_gysin,
                                                      monkeypatch):
    # the Gysin relations apply the string bracket and cobracket as
    # generators, whose stages read each key's cached output, so in one
    # context each composite loop runs once per key
    from collections import Counter
    from gradedbv import expr
    loops = {expr.parse("E . mu . (M (x) M)"),
             expr.parse("(E (x) E) . lambda . M")}
    runs, compiled = Counter(), expr._compiled

    def counted(node, source, target, degree, field, run):
        def count(coeffs):
            runs.update((node, key) for key in coeffs)
            return run(coeffs)
        return compiled(node, source, target, degree, field,
                        count if node in loops else run)

    monkeypatch.setattr(expr, "_compiled", counted)
    reports = g.check_lie_bialgebra(sphere, sphere_gysin, Window(5, 3))
    assert all(r.status == "pass" for r in reports)
    assert {node for node, _ in runs} == loops
    assert max(runs.values()) == 1
