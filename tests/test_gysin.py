"""Erase/mark layer: canonical construction, brackets, Lie bialgebra."""

import pytest

import gradedbv as g
from gradedbv.checks import Window
from gradedbv.core import FiniteSpace, GradedMap, basis_element, zero_element
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


@pytest.mark.parametrize("name", ["[AU^1]", "[AU^01]"])
def test_sphere_classes_reject_non_canonical_names(sphere_gysin, name):
    from gradedbv.core import UnknownBasisName
    b = sphere_gysin.space_b
    assert b.contains("[AU]") and b.degree("[AU]") == -1
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


def test_zero_data_on_nonempty_space_passes():
    inst = g.builtin_model("exterior")  # operator is zero
    b_space = FiniteSpace("b", {"p": 0, "q": 1})
    erase = GradedMap((inst.space,), (b_space,), 0, inst.field, name="E",
                      table={})
    mark = GradedMap((b_space,), (inst.space,), 1, inst.field, name="M",
                     table={})
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
    mu = GradedMap(s2, s1, 0, field, name="mu", table={
        ("1", n): basis_element(s1, field, (n,)) for n in space.basis_names()
    } | {
        (n, "1"): basis_element(s1, field, (n,))
        for n in space.basis_names() if n != "1"
    })
    lam = GradedMap(s1, s2, -1, field, name="lambda", table={})
    delta = GradedMap(s1, s1, 1, field, name="Delta", table={
        ("z1",): basis_element(s1, field, ("w",)),
        ("z2",): basis_element(s1, field, ("w",), 2),
    })
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
    mu = GradedMap(s2, s1, 0, field, name="mu", table={})
    lam = GradedMap(s1, s2, -1, field, name="lambda", table={})
    delta = GradedMap(s1, s1, 1, field, name="Delta", table={
        ("z",): basis_element(s1, field, ("w",)),
        ("w",): basis_element(s1, field, ("v",)),
    })
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
