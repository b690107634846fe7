"""Elements, graded maps, composition and tensor examples."""

from fractions import Fraction

import pytest

import gradedbv as g
from gradedbv.core import (ArityMismatch, DegreeError, Element, FiniteSpace,
                           GradedMap, PrimeField, basis_element,
                           format_element, scalar_element, table_map,
                           zero_element)
from gradedbv.double import dual_space
from gradedbv.expr import compile_expr, evaluate, parse

from helpers import expr_map, homogeneous_parts


@pytest.fixture(scope="module")
def sphere():
    return g.sphere_model(3)


@pytest.mark.parametrize("field", [g.QQ, PrimeField(101)], ids=["Q", "Fp:101"])
def test_negation_is_scaling_by_minus_one(field):
    space = FiniteSpace("V", {"a": 0, "b": 1})
    e = Element((space, space), field, {("a", "b"): field.coerce(2),
                                        ("b", "b"): field.coerce(Fraction(1, 3))})
    assert -e == e.scale(-1)
    assert (-e).coeffs == {("a", "b"): field.coerce(-2),
                           ("b", "b"): field.coerce(Fraction(-1, 3))}
    assert -(-e) == e and (e + -e).is_zero()


def test_equal_elements_hash_equal():
    space = FiniteSpace("V", {"a": 0, "b": 1})
    ints = Element((space,), g.QQ, {("a",): 2, ("b",): -1})
    # Fractions with denominator one, inserted in the other order
    fractions = Element((space,), g.QQ, {("b",): Fraction(-2, 2),
                                         ("a",): Fraction(4, 2)})
    assert ints == fractions and hash(ints) == hash(fractions)
    assert {ints: "x"}[fractions] == "x"
    # two duals of one space are two space objects with one name
    first, second = dual_space(space), dual_space(space)
    assert first is not second
    x = Element((first,), g.QQ, {("a^",): 1, ("b^",): Fraction(1, 2)})
    y = Element((second,), g.QQ, {("b^",): Fraction(1, 2), ("a^",): 1})
    assert x == y and hash(x) == hash(y)
    assert len({x, y, ints, fractions}) == 2


def test_finite_names_in_degree_read_the_table_sorted():
    space = g.builtin_model("three-dim").space
    assert space.names_in_degree(-1) == ("a", "b")
    assert space.names_in_degree(0) == ("1",)
    assert space.names_in_degree(1) == ()
    assert FiniteSpace("f", {"z": 2, "b": 2, "m": 2, "c": 1}).names_in_degree(
        2) == ("b", "m", "z")


def test_a_space_not_of_finite_type_has_no_names_in_degree():
    with pytest.raises(g.EngineError, match="not of finite type"):
        g.GradedSpace().names_in_degree(0)


def test_zero_coefficients_are_pruned(sphere):
    sp, field = sphere.space, sphere.field
    x = basis_element((sp,), field, ("U",), 2)
    y = basis_element((sp,), field, ("U",), -2)
    assert (x + y).is_zero()
    assert not (x + y).coeffs


def test_element_degrees_and_parts(sphere):
    sp, field = sphere.space, sphere.field
    x = basis_element((sp,), field, ("U",)) + basis_element((sp,), field, ("A",))
    assert x.degrees() == [-3, 2]
    with pytest.raises(DegreeError):
        x.degree()
    parts = homogeneous_parts(x)
    assert set(parts) == {-3, 2}
    assert parts[2] == basis_element((sp,), field, ("U",))


def test_tensor_of_delta_with_identity(sphere):
    # leftmost factor incurs no sign; Delta(AU) is the unit class
    sp, field = sphere.space, sphere.field
    d1 = compile_expr(parse("Delta (x) id"), sphere.context(), (sp, sp))
    assert d1.on_key(("AU", "U")) == basis_element((sp, sp), field, ("1", "U"))
    assert d1.on_key(("AU^2", "U")) == basis_element((sp, sp), field,
                                                    ("U", "U"), 2)


def test_tensor_sign_from_odd_left_factor(sphere):
    # (1 (x) Delta)(A (x) AU) = (-1)^{|Delta||A|} A (x) Delta(AU)
    sp, field = sphere.space, sphere.field
    d2 = compile_expr(parse("id (x) Delta"), sphere.context(), (sp, sp))
    assert d2.on_key(("A", "AU")) == basis_element((sp, sp), field, ("A", "1"), -1)
    assert d2.on_key(("A", "AU^2")) == basis_element((sp, sp), field,
                                                     ("A", "U"), -2)


def test_identity_tensor_identity_is_identity(sphere):
    sp, field = sphere.space, sphere.field
    pair = compile_expr(parse("id (x) id"), sphere.context(), (sp, sp))
    x = basis_element((sp, sp), field, ("AU^2", "U^3"), 5)
    assert pair(x) == x


def test_delta_squared_vanishes_on_window(sphere):
    sp, field = sphere.space, sphere.field
    dd = compile_expr(parse("Delta . Delta"), sphere.context(), (sp,))
    for name in sp.window_names(6):
        assert dd.on_key((name,)).is_zero()


def test_unit_composition_recovers_powers(sphere):
    # mu . (eta (x) 1) applied to U^k gives U^k back
    sp, field = sphere.space, sphere.field
    left_unit = compile_expr(parse("mu . (eta (x) id)"), sphere.context(), (sp,))
    for k in range(6):
        name = "1" if k == 0 else ("U" if k == 1 else "U^%d" % k)
        assert left_unit.on_key((name,)) == basis_element((sp,), field, (name,))


def test_identity_neutral_for_composition_as_tables():
    space = FiniteSpace("V", {"p": 0, "q": -1})
    field = g.QQ
    f = table_map((space,), (space,), 0, field, [
        (("p",), ("p",), 3), (("q",), ("q",), -2)], "f")
    for text in ("id . f", "f . id"):
        assert expr_map(text, {"f": f}, field, (space,)).as_table() == \
            f.as_table()


def test_composition_degree_addition(sphere):
    sp = sphere.space
    c = compile_expr(parse("Delta . Delta"), sphere.context(), (sp,))
    assert c.degree == 2
    c2 = compile_expr(parse("lambda . Delta"), sphere.context(), (sp,))
    assert c2.degree == -5 + 1


def test_degree_additivity_is_enforced():
    space = FiniteSpace("V", {"p": 0, "q": -3})
    field = g.QQ
    bad = table_map((space,), (space,), 1, field, [(("p",), ("q",), 1)],
                    "bad")
    with pytest.raises(DegreeError):
        bad.on_key(("p",))


@pytest.mark.parametrize("text,key", [
    ("bad", ("p",)),                      # the map's own run
    ("bad (x) id", ("p", "q")),           # a block at the start
    ("id (x) bad", ("q", "p")),           # a block after the start
    ("bad (x) bad", ("p", "q")),          # several blocks
])
def test_a_failing_output_raises_on_every_application(text, key):
    space = FiniteSpace("V", {"p": 0, "q": -3})
    field = g.QQ
    bad = table_map((space,), (space,), 0, field,
                    [(("p",), ("q",), 1), (("q",), ("q",), 1)], "bad")
    ctx = g.OpContext({"bad": bad}, field)
    gmap = compile_expr(parse(text), ctx, (space,) * len(key))
    for _ in range(3):
        with pytest.raises(DegreeError):
            gmap.run({key: 1})
        with pytest.raises(DegreeError):
            gmap.run({key: 1, ("q",) * len(key): 2})
        # the failing key is never cached; the good one is, once checked
        assert ("p",) not in bad._cache
    assert bad.run({("q",): 3}) == {("q",): 3}
    assert list(bad._cache) == [("q",)]


def test_arity_mismatch_raises(sphere):
    sp, field = sphere.space, sphere.field
    x = basis_element((sp,), field, ("U",))
    with pytest.raises(g.EngineError):
        sphere.mu(x)


def test_arity_is_checked_for_keys_of_composite_maps(sphere):
    m = compile_expr(parse("(lambda (x) id) . lambda"), sphere.context(),
                     (sphere.space,))
    with pytest.raises(ArityMismatch):
        m.on_key(("U", "U"))
    pair = compile_expr(parse("Delta (x) id"), sphere.context(),
                        (sphere.space, sphere.space))
    with pytest.raises(ArityMismatch):
        pair.on_key(("AU",))
    with pytest.raises(ArityMismatch):
        pair(basis_element((sphere.space,), sphere.field, ("AU",)))


@pytest.mark.parametrize("wrong", ["arity", "space"])
def test_rule_output_outside_target_is_rejected_every_time(sphere, wrong):
    sp, field = sphere.space, sphere.field
    if wrong == "arity":
        out = basis_element((sp, sp), field, ("U", "1"))
    else:
        out = basis_element((FiniteSpace("W", {"U": 2}),), field, ("U",))
    bad = GradedMap((sp,), (sp,), 0, field, name="bad", rule=lambda key: out)
    x = basis_element((sp,), field, ("U",))
    for _ in range(2):          # the bad output is never cached
        with pytest.raises(ArityMismatch):
            bad(x)
    assert not bad._cache


def test_cancelling_terms_leave_an_empty_support(sphere):
    sp = sphere.space
    x = basis_element((sp,), g.QQ, ("U",), 3)
    assert (x - x).coeffs == {}
    f101 = PrimeField(101)
    y = basis_element((sp,), f101, ("U",))
    total = y
    for _ in range(100):
        total = total + y
    assert total.coeffs == {}
    assert evaluate(parse("mu - mu . tau"),
                    sphere.context(),
                    basis_element((sp, sp), sphere.field, ("U", "U^2"))).coeffs == {}


def test_equally_named_spaces_in_distinct_tuples_add_and_apply(sphere):
    sp, field = sphere.space, sphere.field
    x = basis_element(tuple([sp, sp]), field, ("U", "AU"))
    assert x.spaces is not sphere.mu.source
    assert sphere.mu(x) == basis_element((sp,), field, ("AU^2",))
    # distinct space objects that share a name compare by name
    v1 = FiniteSpace("V", {"p": 0, "q": -1})
    v2 = FiniteSpace("V", {"p": 0, "q": -1})
    f = table_map((v1,), (v1,), -1, field, [(("p",), ("q",), 2)], "f")
    p2 = basis_element((v2,), field, ("p",))
    assert f(p2) == basis_element((v2,), field, ("q",), 2)
    assert (p2 + basis_element((v1,), field, ("q",))).items() == [
        (("p",), 1), (("q",), 1)]


def test_scale_by_one_is_an_equal_copy(sphere):
    sp, field = sphere.space, sphere.field
    x = (basis_element((sp,), field, ("U",), 2)
         + basis_element((sp,), field, ("A",), -1))
    y = x.scale(1)
    assert y == x
    assert y.coeffs is not x.coeffs


# ---------------------------------------------------------------------------
# table maps
# ---------------------------------------------------------------------------

def _ab_space():
    return FiniteSpace("ab", {"a": 0, "b": 0, "c": 1})


@pytest.mark.parametrize("field", [g.QQ, PrimeField(101)])
def test_table_map_sums_repeated_entries(field):
    sp = _ab_space()
    f = table_map((sp,), (sp,), 0, field, [
        (("a",), ("a",), 2), (("a",), ("b",), 1), (("a",), ("a",), 3),
        (["a"], ["b"], "1/2")], name="f")
    assert f.name == "f" and f.degree == 0
    assert f.on_key(("a",)).coeffs == {("a",): field.coerce(5),
                                       ("b",): field.coerce("3/2")}


def test_table_map_drops_cancelled_outputs_and_rows():
    sp = _ab_space()
    field = g.QQ
    f = table_map((sp,), (sp,), 0, field, [
        (("a",), ("a",), 1), (("a",), ("b",), 2), (("a",), ("a",), -1),
        (("b",), ("b",), 3), (("b",), ("b",), -3)])
    assert f.on_key(("a",)).coeffs == {("b",): 2}
    assert f.on_key(("b",)).is_zero()
    assert set(f.as_table()) == {("a",)}
    # the cancelled row is dropped: it reads the zero a missing row reads
    assert f.rule(("b",)) is f.rule(("c",))


def test_table_map_ignores_zero_coefficients():
    sp = _ab_space()
    field = PrimeField(101)
    f = table_map((sp,), (sp,), 0, field, [
        (("a",), ("a",), 0), (("b",), ("a",), 101), (("b",), ("b",), 1)])
    assert f.as_table().keys() == {("b",)}
    assert f.on_key(("b",)).coeffs == {("b",): 1}
    assert f.on_key(("a",)).is_zero()


@pytest.mark.parametrize("okey", [("a", "b"), ()])
def test_table_map_checks_the_arity_of_output_keys(okey):
    sp = _ab_space()
    with pytest.raises(ArityMismatch):
        table_map((sp,), (sp,), 0, g.QQ, [(("a",), okey, 1)])


def test_table_map_degrees_are_checked_on_application():
    sp = _ab_space()
    f = table_map((sp,), (sp,), 0, g.QQ, [(("a",), ("c",), 1)])
    with pytest.raises(DegreeError):
        f.on_key(("a",))


def test_format_element_is_canonical(sphere):
    sp, field = sphere.space, sphere.field
    e = (basis_element((sp, sp), field, ("A", "1"), 2)
         + basis_element((sp, sp), field, ("1", "A"), -2))
    assert format_element(e) == "-2*1(x)A + 2*A(x)1"
    assert format_element(zero_element((sp, sp), field)) == "0"
    assert str(scalar_element(field)) == "1"


def test_prime_field_arithmetic():
    f101 = PrimeField(101)
    assert f101.coerce(-1) == 100
    from fractions import Fraction
    assert f101.mul(f101.coerce(Fraction(1, 2)), f101.coerce(2)) == 1
    with pytest.raises(g.EngineError):
        PrimeField(6)
    f2 = PrimeField(2)
    assert f2.coerce(-1) == f2.coerce(1) == 1


def test_field_by_name_roundtrip():
    assert g.field_by_name("Q") is g.QQ
    assert g.field_by_name("Fp:7").p == 7
    with pytest.raises(g.EngineError):
        g.field_by_name("R")


def test_integral_rationals_are_ints():
    from fractions import Fraction
    QQ = g.QQ
    half = Fraction(1, 2)
    assert type(QQ.add(half, half)) is int and QQ.add(half, half) == 1
    assert type(QQ.coerce("4/2")) is int and QQ.coerce("4/2") == 2
    assert type(QQ.coerce(Fraction(6, 3))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    assert type(QQ.inv(half)) is int and QQ.inv(half) == 2
    assert QQ.one == 1 and type(QQ.one) is int
    # non-integral values stay exact Fractions and print as before
    assert QQ.add(half, 1) == Fraction(3, 2)
    assert QQ.fmt(QQ.coerce("-6/4")) == "-3/2"
    assert QQ.fmt(QQ.coerce("4/2")) == str(Fraction(2)) == "2"


def test_eval_with_fractional_coefficients_prints_as_before(capsys):
    from gradedbv.cli import main
    assert main(["eval", "sphere:3", "--expr", "1/2*lambda",
                 "--input", "2*AU^3 + 1/3*U^2"]) == 0
    assert capsys.readouterr().out == (
        "-1/6*1(x)AU + A(x)AU^2 + 1/6*A(x)U + 1/6*AU(x)1 + AU(x)AU"
        " + AU^2(x)A - 1/6*U(x)A\n")
    assert main(["eval", "sphere:3", "--expr", "1/2*Delta (x) Delta",
                 "--input", "AU^2 (x) AU - 2/3*AU^3 (x) AU^2"]) == 0
    assert capsys.readouterr().out == "-U(x)1 + 2*U^2(x)U\n"


@pytest.mark.parametrize("bad", ["U^1", "AU^0", "U^01", "B"])
def test_sphere_degree_rejects_misspelled_names(bad):
    from gradedbv.core import UnknownBasisName
    sp = g.sphere_model(3).space
    for _ in range(2):
        with pytest.raises(UnknownBasisName):
            sp.degree(bad)
        assert not sp.contains(bad)
    assert sp.degree("U") == 2 and sp.degree("AU") == -1
    for _ in range(2):
        with pytest.raises(UnknownBasisName):
            sp.degree(bad)
        assert not sp.contains(bad)
