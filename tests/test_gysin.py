"""Erase/mark layer: canonical construction, brackets, Lie bialgebra."""

import pytest

import gradedbv as g
from gradedbv.checks import Window
from gradedbv.core import (Element, FiniteSpace, GradedMap, UnknownBasisName,
                           basis_element, format_element, table_map,
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
    assert b.degree("[AU^2]") == b.base.degree("AU^2") == 1
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


def _finite_delta_instance(
        degrees=(("z1", -2), ("z2", -2), ("w", -1)),
        rows=((("z1",), ("w",), 1), (("z2",), ("w",), 2))):
    """Basis 1 and ``degrees``, with the Delta ``rows``: by default
    Delta z1 = w, Delta z2 = 2w, else zero."""
    field = g.QQ
    space = FiniteSpace("fin", dict((("1", 0),) + degrees))
    s1, s2 = (space,), (space, space)
    mu = table_map(s2, s1, 0, field, [
        (("1", n), (n,), 1) for n in space.basis_names()] + [
        ((n, "1"), (n,), 1) for n in space.basis_names() if n != "1"], "mu")
    lam = table_map(s1, s2, -1, field, [], "lambda")
    delta = table_map(s1, s1, 1, field, rows, "Delta")
    return BVUIInstance("fin", space, field, mu,
                        basis_element(s1, field, ("1",)), lam, delta, -1)


def test_a_partly_reduced_column_becomes_a_pivot():
    # Delta z2 = w1 + w2 leads at w1, taken by z1: its rest w2 makes z2 a
    # pivot, and then Delta z3 = w2 = Delta z2 - Delta z1
    inst = _finite_delta_instance(
        (("z1", -2), ("z2", -2), ("z3", -2), ("w1", -1), ("w2", -1)),
        ((("z1",), ("w1",), 1), (("z2",), ("w1",), 1), (("z2",), ("w2",), 1),
         (("z3",), ("w2",), 1)))
    data = canonical_gysin(inst, Window())
    assert data.space_b.basis_names() == ("[z1]", "[z2]")
    assert format_element(data.erase.on_key(("z3",))) == "-[z1] + [z2]"


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


@pytest.mark.parametrize("field_name,classes", [
    ("Fp:2", ("[AU]", "[AU^3]", "[AU^5]")),
    ("Fp:3", ("[AU]", "[AU^2]", "[AU^4]", "[AU^5]")),
])
def test_classes_over_a_prime_field_are_the_pivots(field_name, classes):
    # Delta(AU^k) = k U^{k-1} vanishes when p divides k: AU^k is then in
    # the kernel, so it is no class, and M is nonzero on every class
    inst = g.sphere_model(3, g.field_by_name(field_name))
    data = canonical_gysin(inst, Window(6))
    b = data.space_b
    assert b.window_names(6) == classes
    for name in classes:
        assert not data.mark.on_key((name,)).is_zero()
    assert data.erase.on_key(("AU^%s" % field_name[-1],)).is_zero()


class _Line(g.GradedSpace):
    """x0, x1, ... all in degree 0: rule-generated, not of finite type."""

    name = "line"

    def degree(self, basis_name):
        if basis_name[:1] != "x" or not basis_name[1:].isdigit():
            raise UnknownBasisName(basis_name)
        return 0

    def window_names(self, k):
        return tuple("x%d" % i for i in range(k + 1))


def test_canonical_refuses_a_space_not_of_finite_type():
    field, space = g.QQ, _Line()
    s1, s2 = (space,), (space, space)

    def zero(spaces):
        return lambda key: zero_element(spaces, field)

    inst = BVUIInstance("line", space, field,
                        GradedMap(s2, s1, 0, field, zero(s1), "mu"),
                        basis_element(s1, field, ("x0",)),
                        GradedMap(s1, s2, -1, field, zero(s2), "lambda"),
                        GradedMap(s1, s1, 1, field, zero(s1), "Delta"), -1)
    with pytest.raises(GysinError) as err:
        canonical_gysin(inst, Window(2))
    assert str(err.value) == ("no canonical construction: line is not of "
                              "finite type")


class _SpherePairs(g.GradedSpace):
    """Names x_y for sphere names x and y, of degree |x| + |y|: a space of
    finite type with several names in most degrees.  Records the degree
    of each ``names_in_degree`` call."""

    def __init__(self, sphere):
        self.sphere = sphere
        self.name = sphere.name + "^2"
        self.calls = []

    def degree(self, basis_name):
        x, _, y = basis_name.partition("_")
        if "_" in y:
            raise UnknownBasisName(basis_name)
        return self.sphere.degree(x) + self.sphere.degree(y)

    def window_names(self, k):
        names = self.sphere.window_names(k)
        return tuple(sorted(x + "_" + y for x in names for y in names))

    def names_in_degree(self, d):
        self.calls.append(d)
        sphere, n = self.sphere, self.sphere.n
        return tuple(sorted(x + "_" + y for e in range(-n, d + n + 1)
                            for x in sphere.names_in_degree(e)
                            for y in sphere.names_in_degree(d - e)))


def _sphere_pairs_instance(field):
    """The tensor square of sphere:3 with lambda = 0: Delta and mu act
    factor by factor with Koszul signs, and eta = 1_1."""
    sphere = g.sphere_model(3, field)
    space = _SpherePairs(sphere.space)
    s1, s2 = (space,), (space, space)
    deg = sphere.space.degree

    def join(left, right, sign=1):
        sign = field.coerce(sign)
        return Element(s1, field, {
            (a[0] + "_" + b[0],): field.mul(sign, field.mul(u, v))
            for a, u in left.coeffs.items() for b, v in right.coeffs.items()})

    def factor(x):
        return basis_element((sphere.space,), field, (x,))

    def delta_rule(key):
        x, y = key[0].split("_")
        return (join(sphere.delta.on_key((x,)), factor(y))
                + join(factor(x), sphere.delta.on_key((y,)),
                       -1 if deg(x) % 2 else 1))

    def mu_rule(key):
        (x1, y1), (x2, y2) = (name.split("_") for name in key)
        return join(sphere.mu.on_key((x1, x2)), sphere.mu.on_key((y1, y2)),
                    -1 if deg(y1) * deg(x2) % 2 else 1)

    return BVUIInstance(
        "sphere:3^2", space, field,
        GradedMap(s2, s1, 0, field, mu_rule, "mu"),
        basis_element(s1, field, ("1_1",)),
        GradedMap(s1, s2, -11, field, lambda key: zero_element(s2, field),
                  "lambda"),
        GradedMap(s1, s1, 1, field, delta_rule, "Delta"), -11)


def _rank(columns):
    """Rank over Q of coefficient dicts, by elimination on the largest key."""
    from fractions import Fraction
    basis = []
    for column in columns:
        vec = {k: Fraction(v) for k, v in column.items()}
        for key, row in basis:
            c = vec.get(key, 0)
            for k, v in row.items():
                vec[k] = vec.get(k, 0) - c * v
            vec = {k: v for k, v in vec.items() if v}
        if vec:
            key = max(vec)
            basis.append((key, {k: v / vec[key] for k, v in vec.items()}))
    return len(basis)


def _rank_mod(columns, p):
    """_rank over Fp: the same elimination with every value reduced mod
    the prime ``p``."""
    basis = []
    for column in columns:
        vec = {k: v % p for k, v in column.items() if v % p}
        for key, row in basis:
            c = vec.get(key, 0)
            for k, v in row.items():
                vec[k] = (vec.get(k, 0) - c * v) % p
            vec = {k: v for k, v in vec.items() if v}
        if vec:
            key = max(vec)
            inverse = pow(vec[key], -1, p)
            basis.append((key, {k: v * inverse % p for k, v in vec.items()}))
    return len(basis)


def _check_degree_wise_reduction(field, pivots_3, eliminated):
    """Reduce the sphere-pairs space over ``field`` degree by degree and
    check the pivots, the eliminated columns and E on what the string
    bracket reaches."""
    inst = _sphere_pairs_instance(field)
    space, field = inst.space, inst.field
    rank = (_rank if field is g.QQ
            else lambda columns: _rank_mod(columns, field.p))
    window = Window(1)
    data = canonical_gysin(inst, window)
    b = data.space_b
    assert data.validate(inst, window)
    # nonzero columns reduced to zero against pivots that share a lead
    reduced = 0
    for d in range(-6, 9):
        names = space.names_in_degree(d)
        columns = [inst.delta.on_key((x,)).coeffs for x in names]
        pivots = [x for x in names if b.contains("[%s]" % x)]
        assert len(pivots) == rank(columns), d
        reduced += sum(1 for x, column in zip(names, columns)
                       if column and x not in pivots)
    assert reduced == eliminated
    # Delta(U_AU^2) = Delta(AU^2_U) = 2 U_U: the later column is eliminated
    assert [x for x in space.names_in_degree(3) if b.contains("[%s]" % x)
            ] == pivots_3
    assert data.erase.on_key(("U_AU^2",)) == basis_element((b,), field,
                                                          ("[AU^2_U]",))
    # E on the products that the string bracket reaches from the classes
    # of window 2, most of them outside the checked window
    classes = b.window_names(2)
    reached = set()
    for c1 in classes:
        for c2 in classes:
            m1, m2 = data.mark.on_key((c1,)), data.mark.on_key((c2,))
            for x1 in m1.coeffs:
                for x2 in m2.coeffs:
                    reached.update(
                        k[0] for k in inst.mu.on_key(x1 + x2).coeffs)
    assert reached - set(space.window_names(1))
    for y in sorted(reached):
        e = data.erase.on_key((y,))
        assert data.mark(e) == inst.delta.on_key((y,)), y
        assert all(data.erase(data.mark.on_key(c)).is_zero()
                   for c in e.coeffs)
    bracket = g.string_bracket(inst, data)
    assert any(not bracket.on_key((c1, c2)).is_zero()
               for c1 in classes for c2 in classes)


def test_degree_wise_reduction_eliminates_on_a_product_space():
    _check_degree_wise_reduction(g.QQ, ["1_AU^3", "AU^2_U", "AU^3_1"], 15)


@pytest.mark.parametrize("field_name,pivots_3,eliminated", [
    ("Fp:101", ["1_AU^3", "AU^2_U", "AU^3_1"], 15),
    # Delta(AU^3) = 3 U^2 vanishes mod 3, so 1_AU^3 and AU^3_1 are no
    # pivots, and AU_U^2, U^2_AU are
    ("Fp:3", ["AU^2_U", "AU_U^2", "U^2_AU"], 10),
])
def test_degree_wise_reduction_eliminates_over_a_prime_field(
        field_name, pivots_3, eliminated):
    _check_degree_wise_reduction(g.field_by_name(field_name), pivots_3,
                                 eliminated)


def test_each_degree_is_reduced_once_and_only_when_read():
    inst = _sphere_pairs_instance(g.QQ)
    space = inst.space
    data = canonical_gysin(inst, Window(1))
    # the first call is the finite-type check, the rest one per degree read
    probe, *reduced = space.calls
    assert probe == 0 and len(reduced) == len(set(reduced))
    window_degrees = {space.degree(x) for x in space.window_names(1)}
    assert set(reduced) <= window_degrees | {d + 1 for d in window_degrees}
    far = "AU^9_AU^9"
    assert space.degree(far) not in set(reduced)
    before = len(space.calls)
    data.erase.on_key((far,))
    assert data.space_b.contains("[%s]" % far)
    assert space.calls[before:] == [space.degree(far)]
