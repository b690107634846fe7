"""Built-in models: structure constants, degree bookkeeping, mutations."""

import pytest

import gradedbv as g
from gradedbv.checks import Window, residual_on_key
from gradedbv.core import basis_element
from gradedbv.models import (normalize_sphere_name, sphere_key, sphere_name)
from gradedbv.structures import builtin_relation

from helpers import pairing


@pytest.fixture(scope="module")
def sphere():
    return g.sphere_model(3)


def _elem(inst, text, arity=None):
    from helpers import literal_slots
    arity = literal_slots(text) if arity is None else arity
    return g.parse_element(text, (inst.space,) * arity, inst.field)


def test_sphere_parameter_validation():
    with pytest.raises(g.EngineError):
        g.sphere_model(4)
    with pytest.raises(g.EngineError):
        g.sphere_model(1)


def test_sphere_names_roundtrip():
    for name in ("1", "U", "U^2", "A", "AU", "AU^7"):
        assert sphere_name(*sphere_key(name)) == name
    assert normalize_sphere_name("AU^1") == "AU"
    assert normalize_sphere_name("U^0") == "1"
    assert normalize_sphere_name("W") is None


@pytest.mark.parametrize("n", [3, 5, 7])
def test_each_window_name_is_the_only_name_of_its_degree(n):
    space = g.sphere_model(n).space
    for name in space.window_names(10):
        assert space.names_in_degree(space.degree(name)) == (name,)


@pytest.mark.parametrize("n,degree", [(3, -2), (5, 1), (3, -4), (5, -6),
                                      (7, -8), (7, -100)])
def test_degrees_without_a_sphere_name_have_no_names(n, degree):
    assert g.sphere_model(n).space.names_in_degree(degree) == ()


def test_sphere_space_reads_input_names_canonically(sphere):
    from gradedbv.core import EngineError
    assert g.parse_element("U^1", (sphere.space,), g.QQ) == _elem(sphere, "U")
    assert sphere.space.canonical_name("AU^01") == "AU"
    assert sphere.space.canonical_name("W") is None
    with pytest.raises(EngineError, match="exceeds the input bound 1000"):
        g.parse_element("U^1001", (sphere.space,), g.QQ)


def test_sphere_operator_value(sphere):
    assert sphere.delta.on_key(("AU^3",)) == _elem(sphere, "3*U^2", arity=1)
    assert sphere.delta.on_key(("U^3",)).is_zero()
    assert sphere.delta.on_key(("A",)).is_zero()


def test_sphere_coproduct_value(sphere):
    assert (sphere.lam.on_key(("U^2",))
            == _elem(sphere, "A(x)U + AU(x)1 - 1(x)AU - U(x)A"))
    assert sphere.lam.on_key(("AU^2",)) == _elem(sphere, "A(x)AU + AU(x)A")
    assert sphere.lam(sphere.eta).is_zero()


def test_sphere_product_nilpotence(sphere):
    assert sphere.mu.on_key(("AU", "AU^2")).is_zero()
    assert sphere.mu.on_key(("AU", "U^2")) == _elem(sphere, "AU^3", arity=1)
    assert sphere.mu.on_key(("U^2", "AU")) == _elem(sphere, "AU^3", arity=1)


def test_sphere_degree_bookkeeping_closed_form():
    for n in (3, 5):
        inst = g.sphere_model(n)
        sp = inst.space
        for k in range(11):
            uk = sphere_name(False, k)
            auk = sphere_name(True, k)
            assert sp.degree(uk) == k * (n - 1)
            assert sp.degree(auk) == k * (n - 1) - n
            lam_out = inst.lam.on_key((uk,))
            if not lam_out.is_zero():
                assert lam_out.degree() == k * (n - 1) + 1 - 2 * n
            delta_out = inst.delta.on_key((auk,))
            if not delta_out.is_zero():
                assert delta_out.degree() == sp.degree(auk) + 1


def test_triple_composite_on_swapped_slots(sphere):
    # the companion case U^s (x) AU^r: the product is commutative with no
    # sign (U-powers are even), so the same closed form applies
    ctx = sphere.context()
    expr = g.parse("lambda . Delta . mu")
    for r in range(1, 4):
        for s in range(1, 4):
            swapped = g.basis_element(
                (sphere.space,) * 2, sphere.field,
                (sphere_name(False, s), sphere_name(True, r)))
            straight = g.basis_element(
                (sphere.space,) * 2, sphere.field,
                (sphere_name(True, r), sphere_name(False, s)))
            assert g.evaluate(expr, ctx, swapped) == \
                g.evaluate(expr, ctx, straight)


def test_sphere_full_suites_small_window():
    for n in (3, 5):
        inst = g.sphere_model(n)
        reports = g.check_structure(
            inst, g.BVUI_FULL + g.CONSEQUENCES + ("NineTerm",), Window(2, 2))
        assert all(r.status == "pass" for r in reports), [
            (r.relation, r.status) for r in reports if r.status != "pass"]


# -- two-dimensional Frobenius model ----------------------------------------

def test_frobenius_model_counit_identity():
    inst = g.sphere_frobenius_model(3)
    ctx = inst.context()
    out = g.evaluate(g.parse("(epsilon (x) id) . lambda"), ctx,
                     basis_element((inst.space,), inst.field, ("1",)))
    assert out == basis_element((inst.space,), inst.field, ("1",))


def test_frobenius_model_frobenius_relation_by_hand():
    inst = g.sphere_frobenius_model(3)
    ctx = inst.context()
    x2 = basis_element((inst.space,) * 2, inst.field, ("x", "x"))
    assert g.evaluate(g.parse("lambda . mu"), ctx, x2).is_zero()
    assert g.evaluate(g.parse("(mu (x) id) . (id (x) lambda)"), ctx,
                      x2).is_zero()


def test_frobenius_model_operator_symmetry_trivial():
    inst = g.sphere_frobenius_model(3)
    ctx = inst.context()
    for text in ("(Delta (x) id) . lambda . eta",
                 "(id (x) Delta) . lambda . eta"):
        assert g.evaluate(g.parse(text), ctx,
                          g.scalar_element(inst.field)).is_zero()


def test_frobenius_models_pass_full_suite():
    for n in (3, 5):
        inst = g.sphere_frobenius_model(n)
        reports = g.check_structure(inst, g.FROBENIUS_FULL, Window())
        assert all(r.status == "pass" for r in reports)


def test_pairing_and_copairing_cache():
    inst = g.sphere_frobenius_model(3)
    c = inst.copairing()
    assert c == (basis_element((inst.space,) * 2, inst.field, ("x", "1"))
                 - basis_element((inst.space,) * 2, inst.field, ("1", "x")))
    p = pairing(inst)
    # p = (-1)^{|lambda|} eps . mu with |lambda| odd
    assert p.on_key(("1", "x")).coeffs[()] == inst.field.coerce(-1)
    assert p.on_key(("x", "1")).coeffs[()] == inst.field.coerce(-1)
    assert p.on_key(("1", "1")).is_zero()
    # pairing symmetry: p . tau = p
    tau = g.permute((1, 0), (inst.space,) * 2, inst.field)
    for key in (("1", "x"), ("x", "1"), ("x", "x"), ("1", "1")):
        x = basis_element((inst.space,) * 2, inst.field, key)
        assert p(tau(x)) == p(x)


# -- finite examples ---------------------------------------------------------

def test_three_dim_unital_infinitesimal_by_hand():
    inst = g.builtin_model("three-dim")
    ctx = inst.context()
    one_b = basis_element((inst.space,) * 2, inst.field, ("1", "b"))
    lhs = g.evaluate(g.parse("lambda . mu"), ctx, one_b)
    rhs = g.evaluate(g.parse("(mu (x) id) . (id (x) lambda)"), ctx, one_b)
    aa = basis_element((inst.space,) * 2, inst.field, ("a", "a"))
    assert lhs == rhs == aa


def test_three_dim_cocommutativity_sign():
    inst = g.builtin_model("three-dim")
    tau = g.permute((1, 0), (inst.space,) * 2, inst.field)
    assert tau(inst.lam.on_key(("b",))) == inst.lam.on_key(("b",)).scale(-1)


def test_exterior_eleven_term_vanishes_termwise():
    inst = g.builtin_model("exterior")
    ctx = inst.context()
    spec = builtin_relation("ElevenTerm")
    for a in inst.space.basis_names():
        for b in inst.space.basis_names():
            x = basis_element((inst.space,) * 2, inst.field, (a, b))
            for coeff, expr in spec.groups[0]:
                assert g.evaluate(expr, ctx, x).is_zero()


def test_all_finite_examples_pass_before_exposure():
    for field in (g.QQ, g.field_by_name("Fp:101")):
        for inst in g.finite_bvui_examples(field):
            reports = g.check_structure(inst, g.BVUI_FULL, Window())
            assert [r.status for r in reports] == ["pass"] * len(g.BVUI_FULL), \
                (field, inst.name)


# -- mutations ---------------------------------------------------------------

def test_identity_mutation_is_noop(sphere):
    same = g.mutate(sphere, "identity")
    reports = g.check_structure(same, g.BVUI_FULL, Window(2, 2))
    assert all(r.status == "pass" for r in reports)


def test_delta_coefficient_mutation_breaks_nine_term(sphere):
    mutated = g.mutate(sphere, "delta-au-doubled")
    spec = builtin_relation("NineTerm")
    hit = residual_on_key(spec, mutated.context(),
                          (mutated.space, mutated.space), ("AU", "U"))
    assert hit is not None and not hit[1].is_zero()
    reports = g.check_structure(mutated, ("NineTerm",), Window(3))
    assert reports[0].status == "fail"


@pytest.mark.parametrize("mutation,wrapped", [("lambda-u-flip", "lam"),
                                              ("delta-au-doubled", "delta")])
def test_a_mutated_map_checks_and_caches_each_key_once(mutation, wrapped):
    # the mutated map transforms the unmutated map's rule, so only the
    # mutated map's cache fills
    base = g.sphere_model(3)
    mutated = g.mutate(base, mutation)
    reports = g.check_structure(
        mutated, g.BVUI_FULL + g.CONSEQUENCES + ("NineTerm",), Window(3))
    assert any(r.status == "fail" for r in reports)
    assert getattr(mutated, wrapped)._cache
    assert not getattr(base, wrapped)._cache


def test_unknown_mutation_rejected(sphere):
    with pytest.raises(g.EngineError):
        g.mutate(sphere, "flip-everything")
    with pytest.raises(g.EngineError):
        g.mutate(g.builtin_model("trivial"), "lambda-u-flip")


def test_builtin_model_registry():
    assert g.builtin_model("sphere:5").name == "sphere:5"
    assert g.builtin_model("sphere-frob:3").has_counit
    with pytest.raises(g.EngineError):
        g.builtin_model("torus:2")
