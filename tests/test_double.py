"""Dualization, ev/coev, shifts, and the double construction.

The construction in gradedbv.double builds the dual-route components
from the brute-force adjunction solve; the oracles here recompute them
along the independent evaluation/coevaluation route, reconstruct the
whole coproduct from the product and a hand-computed copairing, and
check the trivial double against values expanded by hand.
"""

import random

import pytest

import gradedbv as g
from gradedbv.checks import Window
from gradedbv.core import (GradedMap, basis_element, permute, scalar_element,
                           table_map)
from gradedbv.double import (DoubleError, build_double, build_double_data,
                             build_ev_coev, build_shifts, double_dual_identification,
                             dual_map, dual_name, dual_space, shift_space)
from gradedbv.expr import compile_expr, parse
from gradedbv.structures import BVUIInstance, forget_frobenius_to_bvui

from helpers import ZIGZAGS, expr_map, random_table_map


def all_keys(spaces):
    from gradedbv.core import source_basis_keys
    return source_basis_keys(spaces)


# ---------------------------------------------------------------------------
# dual maps
# ---------------------------------------------------------------------------

def test_dual_of_zero_operator_is_zero():
    inst = g.sphere_frobenius_model(3)
    dd = dual_map(inst.delta)
    for key in all_keys(dd.source):
        assert dd.on_key(key).is_zero()


def test_dual_of_identity_is_identity():
    inst = g.builtin_model("exterior")
    one = expr_map("id", {}, inst.field, (inst.space,))
    done = dual_map(one)
    dv = dual_space(inst.space)
    for n in dv.basis_names():
        assert done.on_key((n,)) == basis_element((dv,), inst.field, (n,))


def test_product_dual_against_adjunction_oracle():
    # <dual(mu)(e^), a (x) b> = coeff of e in mu(a (x) b); the pairing of
    # a square contracts inside out, so a (x) b pairs with b^ (x) a^
    inst = g.sphere_frobenius_model(3)
    md = dual_map(inst.mu)
    names = inst.space.basis_names()
    for e in names:
        out = md.on_key((dual_name(e),))
        for a in names:
            for b in names:
                got = out.coeffs.get((dual_name(b), dual_name(a)),
                                     inst.field.coerce(0))
                want = inst.mu.on_key((a, b)).coeffs.get(
                    (e,), inst.field.coerce(0))
                assert got == want, (e, a, b)


def test_dual_contravariance_sign():
    inst = g.builtin_model("three-dim")
    sp, field = inst.space, inst.field
    rng = random.Random(2024)
    for trial in range(100):
        df, dg = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        f = random_table_map(rng, sp, field, df, 0)
        gm = random_table_map(rng, sp, field, dg, 0)
        maps = {"f": f, "g": gm}
        lhs = expr_map("dual(f . g)", maps, field)
        rhs = expr_map("dual(g) . dual(f)", maps, field)
        sign = -1 if (df % 2 and dg % 2) else 1
        for key in all_keys(lhs.source):
            assert lhs.on_key(key) == rhs.on_key(key).scale(sign)


def test_double_dual_is_involutive_on_structure_maps():
    for inst in g.finite_bvui_examples() + [g.sphere_frobenius_model(3)]:
        field = inst.field
        maps = [inst.mu, inst.lam, inst.delta, inst.eta_map()]
        if inst.has_counit:
            maps.append(inst.epsilon)
        for f in maps:
            dd = dual_map(dual_map(f))
            iota_src = _iota_tensor(f.source, field)
            iota_tgt = _iota_tensor(f.target, field)
            for key in all_keys(f.source):
                x = basis_element(f.source, field, key) if key else \
                    scalar_element(field)
                lifted = iota_src(x) if iota_src else x
                left = dd(lifted)
                right = f(x)
                if iota_tgt:
                    right = iota_tgt(right)
                assert left == right, (f.name, key)


def _iota_tensor(spaces, field):
    """The tensor product of the identifications of each slot with its
    double dual; None for no slots."""
    if not spaces:
        return None
    maps = {"iota%d" % i: double_dual_identification(space, field)
            for i, space in enumerate(spaces)}
    return expr_map(" (x) ".join(maps), maps, field)


def test_dualizing_infinite_space_rejected():
    sphere = g.sphere_model(3)
    with pytest.raises(DoubleError):
        dual_space(sphere.space)


# ---------------------------------------------------------------------------
# ev / coev
# ---------------------------------------------------------------------------

def test_ev_on_trivial_model():
    inst = g.builtin_model("trivial")
    ev, coev = build_ev_coev(inst.space, inst.field)
    assert ev.on_key(("1^", "1")) == scalar_element(inst.field)


def test_coev_on_exterior_model():
    inst = g.builtin_model("exterior")
    ev, coev = build_ev_coev(inst.space, inst.field)
    dv = dual_space(inst.space)
    expected = (basis_element((inst.space, dv), inst.field, ("1", "1^"))
                + basis_element((inst.space, dv), inst.field, ("x", "x^")))
    assert coev.on_key(()) == expected


@pytest.mark.parametrize("model", ["trivial", "exterior", "three-dim",
                                   "exterior-bv"])
def test_all_four_zigzag_identities(model):
    inst = g.builtin_model(model)
    sp, field = inst.space, inst.field
    dv = dual_space(sp)
    ev, coev = build_ev_coev(sp, field)
    for part, text in ZIGZAGS:
        space = dv if part == "dual" else sp
        zigzag = expr_map(text, {"ev": ev, "coev": coev}, field, (space,))
        for n in space.basis_names():
            x = basis_element((space,), field, (n,))
            assert zigzag(x) == x, text


# ---------------------------------------------------------------------------
# the double
# ---------------------------------------------------------------------------

def hand_copairing(instance, D_spaces):
    """sum_e (-1)^{|e|} (e' (x) e - e (x) e'), written out by hand."""
    field = instance.field
    coeffs = {}
    for e in instance.space.basis_names():
        sign = field.coerce(-1 if instance.space.degree(e) % 2 else 1)
        coeffs[(e + "'", e)] = sign
        coeffs[(e, e + "'")] = field.neg(sign)
    return g.Element(D_spaces, field, coeffs)


def test_trivial_double_hand_values():
    dd = build_double_data(g.builtin_model("trivial"))
    d = dd.instance
    D = d.space
    assert sorted(D.basis_names()) == ["1", "1'"]
    assert D.degree("1'") == -1
    one = basis_element((D,), d.field, ("1",))
    theta = basis_element((D,), d.field, ("1'",))
    assert d.lam(one) == (theta.tensor(one) - one.tensor(theta))
    assert d.epsilon(theta) == scalar_element(d.field)
    assert d.epsilon(one).is_zero()
    for key in all_keys((D,)):
        assert d.delta.on_key(key).is_zero()


@pytest.mark.parametrize("model", ["trivial", "exterior", "three-dim",
                                   "exterior-bv"])
def test_doubles_pass_the_full_frobenius_suite(model):
    doubled = build_double(g.builtin_model(model))
    reports = g.check_structure(doubled, g.FROBENIUS_FULL, Window())
    assert all(r.status == "pass" for r in reports), [
        (r.relation, [(k, str(res)) for k, _, res in r.witnesses[:1]])
        for r in reports if r.status != "pass"]


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
def test_double_operator_sign_is_checked(monkeypatch, field_name):
    # Delta(x) = 1 on exterior-bv, so the double's shifted-dual operator
    # part -(s . dual(Delta) . omega) is nonzero, and with its sign
    # dropped the double fails each relation that pairs Delta with the
    # coproduct or the counit
    from gradedbv import double
    monkeypatch.setitem(double.DELTA_COMPONENTS, ("v", "v"),
                        "s . dual(Delta) . omega")
    doubled = build_double(g.builtin_model("exterior-bv",
                                           g.field_by_name(field_name)))
    reports = g.check_structure(doubled, g.FROBENIUS_FULL + g.CONSEQUENCES,
                                Window())
    assert [r.relation for r in reports if r.status == "fail"] == [
        "ElevenTerm", "BVFrobenius", "BVFrobeniusCounit", "BVCopairingSym"]


def test_double_rejects_nonvanishing_copairing():
    frob = g.sphere_frobenius_model(3)
    as_bvui = forget_frobenius_to_bvui(frob)
    with pytest.raises(DoubleError) as err:
        build_double(as_bvui)
    assert "x(x)1" in str(err.value)


def test_double_rejects_rule_generated_instances():
    with pytest.raises(DoubleError):
        build_double(g.sphere_model(3))


def test_double_vanishing_components():
    dd = build_double_data(g.builtin_model("three-dim"))
    d = dd.instance
    A = dd.base.space
    for key, out in d.mu.as_table().items():
        parts_in = tuple(A.contains(n) for n in key)
        for okey in out.coeffs:
            if parts_in == (True, True):
                assert A.contains(okey[0])       # no base (x) base -> dual
            if parts_in == (False, False):
                assert not A.contains(okey[0])   # no dual (x) dual -> base
    for key, out in d.lam.as_table().items():
        for okey in out.coeffs:
            if A.contains(key[0]):
                assert A.contains(okey[0]) or A.contains(okey[1])
            else:
                assert not (A.contains(okey[0]) and A.contains(okey[1]))


def test_double_subalgebra_restrictions():
    base = g.builtin_model("three-dim")
    dd = build_double_data(base)
    d = dd.instance
    A, Av, Sh, D = dd.spaces
    # base part: the product restricts to the original product, unit kept
    for key in all_keys((A, A)):
        got = d.mu.on_key(key)
        want = base.mu.on_key(key)
        assert got.coeffs == want.coeffs
    assert d.eta.coeffs == base.eta.coeffs
    # dual part: the product restricts to the shifted dual coproduct
    s, w = build_shifts(A, Sh, base.lam_degree, base.field)
    shifted = expr_map("s . dual(lambda) . (omega (x) omega)",
                       {"s": s, "omega": w, "lambda": base.lam}, base.field,
                       (Sh, Sh))
    for key in all_keys((Sh, Sh)):
        assert d.mu.on_key(key).coeffs == shifted.on_key(key).coeffs


def test_double_operator_is_diagonal():
    # Delta(b) = 1 on three-dim is a BV structure: Delta^2 = 0 as
    # Delta(1) = 0, and the seven-term relation holds, since a product of
    # two of a, b is zero, Delta(a), Delta(b) are multiples of 1, and with
    # a unit input it reduces to graded commutativity (the checker passes
    # it on BVUI_FULL and CONSEQUENCES).  Its double's shifted-dual
    # operator part -(s . dual(Delta) . omega) is nonzero; the expected
    # values come from fresh shifts and the adjoint table, with the sign
    # written out
    three = g.builtin_model("three-dim")
    A, field, d = three.space, three.field, three.lam_degree
    delta = table_map((A,), (A,), 1, field, [(("b",), ("1",), 1)], "Delta")
    base = BVUIInstance("three-dim-Delta", A, field, three.mu, three.eta,
                        three.lam, delta, d)
    double = build_double(base)
    D = double.space
    s, omega = build_shifts(A, shift_space(A, d), d, field)
    dual_delta = dual_map(delta)
    for key in all_keys((D,)):
        out = double.delta.on_key(key)
        if A.contains(key[0]):
            assert out.coeffs == delta.on_key(key).coeffs
        else:
            expected = s(dual_delta(omega.on_key(key))).scale(-1)
            assert out.coeffs == expected.coeffs
        for okey in out.coeffs:
            assert A.contains(okey[0]) == A.contains(key[0])
    # by hand: Delta(b) = 1 dualizes to 1^ |-> b^, so Delta(1') = -b'
    assert double.delta.on_key(("1'",)) == basis_element((D,), field,
                                                          ("b'",), -1)
    assert all(double.delta.on_key((n,)).is_zero() for n in ("a'", "b'"))


def test_double_copairing_matches_hand_formula_and_symmetry():
    for model in ("trivial", "exterior", "three-dim"):
        base = g.builtin_model(model)
        d = build_double(base)
        D = d.space
        cop = d.copairing()
        assert cop == hand_copairing(base, (D, D))
        tau = permute((1, 0), (D, D), d.field)
        sign = -1 if d.lam_degree % 2 else 1
        assert tau(cop) == cop.scale(sign)


def test_coproduct_reconstructed_from_product_and_copairing():
    # lambda = (mu (x) 1)(1 (x) c) and lambda = (1 (x) mu)(c (x) 1) with the
    # hand-written copairing: an oracle for all six coproduct components
    for model in ("trivial", "exterior", "three-dim"):
        base = g.builtin_model(model)
        d = build_double(base)
        D = d.space
        field = d.field
        c = hand_copairing(base, (D, D))
        c_map = GradedMap((), (D, D), d.lam_degree, field, name="c",
                          rule=lambda key: c)
        maps = {"mu": d.mu, "c": c_map}
        rec1 = expr_map("(mu (x) id) . (id (x) c)", maps, field, (D,))
        rec2 = expr_map("(id (x) mu) . (c (x) id)", maps, field, (D,))
        for key in all_keys((D,)):
            assert d.lam.on_key(key) == rec1.on_key(key), (model, key)
            assert d.lam.on_key(key) == rec2.on_key(key), (model, key)


def test_dual_route_components_match_zigzag_route():
    """Step-1/2 isolation: the four components built from adjunction
    duals must agree with the pure ev/coev zig-zag formulas."""
    for model in ("exterior", "three-dim"):
        base = g.builtin_model(model)
        dd = build_double_data(base)
        A, Av, Sh, D = dd.spaces
        field = base.field
        ev, coev = build_ev_coev(A, field)
        s, w = build_shifts(A, Sh, base.lam_degree, field)
        maps = {"mu": base.mu, "lambda": base.lam, "ev": ev, "coev": coev,
                "s": s, "omega": w}
        for comps, parts, text in (
                # product, shifted-dual (x) base -> shifted-dual
                (dd.mu_components, ("v", "a", "v"),
                 "s . (ev (x) id) . (id (x) mu (x) id) . (id (x) id (x) coev)"
                 " . (omega (x) id)"),
                # product, base (x) shifted-dual -> shifted-dual
                (dd.mu_components, ("a", "v", "v"),
                 "s . (id (x) (ev . tau)) . (id (x) mu (x) id)"
                 " . ((tau . coev) (x) id (x) id) . (id (x) omega)"),
                # product, shifted-dual (x) shifted-dual -> shifted-dual
                (dd.mu_components, ("v", "v", "v"),
                 "s . (id (x) (ev . tau) (x) (ev . tau))"
                 " . (id (x) id (x) tau (x) id) . (id (x) tau (x) id (x) id)"
                 " . (id (x) lambda (x) id (x) id)"
                 " . ((tau . coev) (x) id (x) id) . (omega (x) omega)"),
                # coproduct, shifted-dual -> shifted-dual (x) shifted-dual
                (dd.lam_components, ("v", "v", "v"),
                 "(s (x) s) . (ev (x) id (x) id) . (id (x) mu (x) id (x) id)"
                 " . (id (x) tau (x) id (x) id) . (id (x) id (x) tau (x) id)"
                 " . (id (x) coev (x) coev) . omega")):
            comp = comps[parts]
            zz = expr_map(text, maps, field, comp.source)
            for key in all_keys(comp.source):
                assert comp.on_key(key) == zz.on_key(key), (model, parts, key)


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
@pytest.mark.parametrize("model", ["trivial", "exterior", "three-dim",
                                   "exterior-bv"])
def test_component_table_degrees_and_parts(model, field_name):
    """Each component text, typed on its input parts, has its structure
    map's degree and maps into the parts its key names."""
    from gradedbv.double import (DELTA_COMPONENTS, LAMBDA_COMPONENTS,
                                 MU_COMPONENTS)
    base = g.builtin_model(model, g.field_by_name(field_name))
    dd = build_double_data(base)
    A, _, Sh, _ = dd.spaces
    part_space = {"a": A, "v": Sh}
    typed = 0
    for table, arity, degree in ((MU_COMPONENTS, 2, 0),
                                 (LAMBDA_COMPONENTS, 1, base.lam_degree),
                                 (DELTA_COMPONENTS, 1, 1)):
        for parts, text in table.items():
            inputs, outputs = parts[:arity], parts[arity:]
            comp = compile_expr(parse(text), dd.context,
                                [part_space[p] for p in inputs])
            assert comp.degree == degree, text
            assert [t.name for t in comp.target] == \
                [part_space[p].name for p in outputs], text
            for key in all_keys(comp.source):
                for okey in comp.on_key(key).coeffs:
                    assert all(part_space[p].contains(n)
                               for p, n in zip(outputs, okey)), (text, key)
            typed += 1
    assert typed == 14


def test_forgetting_the_double_counit_passes_bvui():
    for model in ("trivial", "exterior", "three-dim"):
        d = build_double(g.builtin_model(model))
        plain = forget_frobenius_to_bvui(d)
        reports = g.check_structure(plain, g.BVUI_FULL, Window())
        assert all(r.status == "pass" for r in reports)
        assert plain.mu is d.mu and plain.lam is d.lam
        assert plain.delta is d.delta and plain.eta is d.eta


def test_double_over_a_prime_field():
    from gradedbv.core import PrimeField
    base = g.builtin_model("three-dim", PrimeField(101))
    doubled = build_double(base)
    reports = g.check_structure(doubled, g.FROBENIUS_FULL, Window())
    assert all(r.status == "pass" for r in reports)


def test_shift_bookkeeping_degrees():
    base = g.builtin_model("three-dim")
    Sh = shift_space(base.space, base.lam_degree)
    for n in base.space.basis_names():
        assert Sh.degree(n + "'") == -base.space.degree(n) + base.lam_degree
    s, w = build_shifts(base.space, Sh, base.lam_degree, base.field)
    assert s.degree == base.lam_degree and w.degree == -base.lam_degree
    dv = dual_space(base.space)
    for n in dv.basis_names():
        x = basis_element((dv,), base.field, (n,))
        assert w(s(x)) == x
    for n in Sh.basis_names():
        y = basis_element((Sh,), base.field, (n,))
        assert s(w(y)) == y
