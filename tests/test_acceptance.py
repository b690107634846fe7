"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints one line, e.g.

    ACCEPTANCE 1 PASS (0.12s): sphere reproduction ...

Run with  python3 -m pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager

import pytest

import gradedbv as g
from gradedbv.checks import Window, relation_residual, sign_mutations
from gradedbv.core import PrimeField, basis_element, koszul_sign, permute
from gradedbv.double import (DoubleError, build_double, build_double_data,
                             build_ev_coev, build_shifts, dual_space)
from gradedbv.expr import evaluate, parse
from gradedbv.gysin import canonical_gysin, check_lie_bialgebra
from gradedbv.models import sphere_name
from gradedbv.structures import builtin_relation, forget_frobenius_to_bvui


@contextmanager
def budget(number, seconds, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print("ACCEPTANCE %d FAIL (%.2fs): %s" % (number, elapsed, description))
        raise
    elapsed = time.perf_counter() - start
    print("ACCEPTANCE %d PASS (%.2fs): %s" % (number, elapsed, description))
    assert elapsed < seconds, (
        "criterion %d exceeded its %ds budget: %.2fs" % (number, seconds, elapsed))


def _all_pass(reports):
    bad = [(r.relation, r.status,
            [(k, str(res)) for k, _, res in r.witnesses[:1]])
           for r in reports if r.status != "pass"]
    assert not bad, bad


FULL_SUITE = g.BVUI_FULL + g.CONSEQUENCES + ("NineTerm",)


def test_criterion_1_sphere_reproduction():
    with budget(1, 1.0, "triple composite on mixed inputs matches the "
                        "closed form, 1 <= r,s <= 4, term for term"):
        inst = g.sphere_model(3)
        ctx = inst.context()
        expr = parse("lambda . Delta . mu")
        sp, field = inst.space, inst.field
        for r in range(1, 5):
            for s in range(1, 5):
                x = basis_element((sp, sp), field,
                                  (sphere_name(True, r), sphere_name(False, s)))
                got = evaluate(expr, ctx, x)
                coeffs = {}
                for i in range(r + s - 1):
                    j = r + s - 2 - i
                    coeffs[(sphere_name(True, i), sphere_name(False, j))] = \
                        field.coerce(r + s)
                    coeffs[(sphere_name(False, i), sphere_name(True, j))] = \
                        field.coerce(-(r + s))
                expected = g.Element((sp, sp), field, coeffs)
                assert got == expected, (r, s)


def test_criterion_2_sphere_full_suite():
    with budget(2, 60.0, "full suite with consequences and the nine-term "
                         "relation on sphere:3 and sphere:5, window 4 (3 for "
                         "three-input relations)"):
        for n in (3, 5):
            reports = g.check_structure(g.sphere_model(n), FULL_SUITE,
                                        Window(4, 3))
            _all_pass(reports)
            assert len(reports) == len(FULL_SUITE)


def test_criterion_3_sign_rigidity():
    with budget(3, 60.0, "every single-sign mutation of the nine-term "
                         "relation fails on sphere:3, window 3"):
        inst = g.sphere_model(3)
        ctx = inst.context()
        mutations = sign_mutations(builtin_relation("NineTerm"))
        assert len(mutations) == 9
        for mutated in mutations:
            report = relation_residual(mutated, ctx, inst.space, Window(3, 3),
                                       instance_name=inst.name)
            assert report.status == "fail", mutated.rid
            assert len(report.witnesses) >= 1, mutated.rid


def test_criterion_4_frobenius_suite():
    with budget(4, 1.0, "two-dimensional Frobenius models pass the full "
                        "Frobenius suite on all tuples"):
        for n in (3, 5):
            reports = g.check_structure(g.sphere_frobenius_model(n),
                                        g.FROBENIUS_FULL, Window())
            _all_pass(reports)


def test_criterion_5_frobenius_implies_bvui():
    with budget(5, 1.0, "forgetting the counit of each Frobenius model "
                        "passes the full BVUI suite"):
        for n in (3, 5):
            plain = forget_frobenius_to_bvui(g.sphere_frobenius_model(n))
            reports = g.check_structure(plain, g.BVUI_FULL, Window())
            _all_pass(reports)
            checked = {r.relation for r in reports}
            assert {"SevenTermLambda", "ElevenTerm"} <= checked


def test_criterion_6_drinfeld_double():
    with budget(6, 5.0, "doubles of the finite examples pass the Frobenius "
                        "suite with entry-wise subalgebra restrictions; the "
                        "non-vanishing copairing is rejected"):
        from gradedbv.core import source_basis_keys
        from helpers import expr_map
        for model in ("trivial", "exterior", "three-dim"):
            base = g.builtin_model(model)
            dd = build_double_data(base)
            doubled = dd.instance
            _all_pass(g.check_structure(doubled, g.FROBENIUS_FULL, Window()))
            A, Av, Sh, D = dd.spaces
            for key in source_basis_keys((A, A)):
                assert doubled.mu.on_key(key).coeffs == \
                    base.mu.on_key(key).coeffs
            s, w = build_shifts(A, Sh, base.lam_degree, base.field)
            shifted = expr_map("s . dual(lambda) . (omega (x) omega)",
                               {"s": s, "omega": w, "lambda": base.lam},
                               base.field, (Sh, Sh))
            for key in source_basis_keys((Sh, Sh)):
                assert doubled.mu.on_key(key).coeffs == \
                    shifted.on_key(key).coeffs
            assert doubled.eta.coeffs == base.eta.coeffs
        with pytest.raises(DoubleError):
            build_double(forget_frobenius_to_bvui(g.sphere_frobenius_model(3)))


def test_criterion_7_equivariant_layer():
    with budget(7, 30.0, "canonical erase/mark data on sphere:3 validates on "
                         "window 5; Lie bialgebra checks and the transported "
                         "nine-term identity pass"):
        inst = g.sphere_model(3)
        data = canonical_gysin(inst, Window(5))
        assert data.validate(inst, Window(5))
        reports = check_lie_bialgebra(inst, data, Window(4, 3))
        _all_pass(reports)
        by_id = {r.relation: r for r in reports}
        assert by_id["GysinNineTerm"].status == "pass"
        assert by_id["GysinJacobiAgreement"].status == "pass"


def test_criterion_8_kernel_properties():
    with budget(8, 10.0, "hundred-case randomized kernel suites: sign "
                         "decomposition independence, interchange, twist and "
                         "cycle orders, dual contravariance, all four "
                         "zig-zags; all exact"):
        rng = random.Random(0xC0FFEE)
        # koszul sign is decomposition independent
        from helpers import (ZIGZAGS, adjacent_decomposition_sign,
                             expr_map, random_table_map)
        for _ in range(100):
            k = rng.randint(1, 6)
            perm = list(range(k))
            rng.shuffle(perm)
            degrees = [rng.randint(-5, 5) for _ in range(k)]
            left = adjacent_decomposition_sign(perm, degrees, True)
            right = adjacent_decomposition_sign(perm, degrees, False)
            assert left == right == koszul_sign(tuple(perm), tuple(degrees))

        sphere = g.sphere_model(3)
        sp, field = sphere.space, sphere.field
        probe = sp.window_names(3)
        # interchange law on random windowed maps
        for _ in range(100):
            f = random_table_map(rng, sp, field, rng.choice([-1, 0, 1]), 4)
            gm = random_table_map(rng, sp, field, rng.choice([-1, 0, 1]), 4)
            f2 = random_table_map(rng, sp, field, rng.choice([-1, 0, 1]), 4)
            g2 = random_table_map(rng, sp, field, rng.choice([-1, 0, 1]), 4)
            maps = {"f": f, "g": gm, "f2": f2, "g2": g2}
            lhs = expr_map("(f (x) g) . (f2 (x) g2)", maps, field, (sp, sp))
            rhs = expr_map("(f . f2) (x) (g . g2)", maps, field, (sp, sp))
            sign = -1 if (gm.degree % 2 and f2.degree % 2) else 1
            key = (rng.choice(probe), rng.choice(probe))
            assert lhs.on_key(key) == rhs.on_key(key).scale(sign)

        # twist squares to the identity, the cycle cubes to it
        tau = permute((1, 0), (sp, sp), field)
        sigma = permute((1, 2, 0), (sp,) * 3, field)
        for _ in range(100):
            a, b, c = (rng.choice(probe) for _ in range(3))
            x = basis_element((sp, sp), field, (a, b))
            assert tau(tau(x)) == x
            y = basis_element((sp,) * 3, field, (a, b, c))
            assert sigma(sigma(sigma(y))) == y

        # dual contravariance sign on a finite model
        three = g.builtin_model("three-dim")
        tsp, tfield = three.space, three.field
        tnames = sorted(tsp.basis_names())
        for _ in range(100):
            f = random_table_map(rng, tsp, tfield, rng.choice([-1, 0, 1]), 0)
            gm = random_table_map(rng, tsp, tfield, rng.choice([-1, 0, 1]), 0)
            sign = -1 if (f.degree % 2 and gm.degree % 2) else 1
            maps = {"f": f, "g": gm}
            lhs = expr_map("dual(f . g)", maps, tfield)
            rhs = expr_map("dual(g) . dual(f)", maps, tfield)
            for n in dual_space(tsp).basis_names():
                assert lhs.on_key((n,)) == rhs.on_key((n,)).scale(sign)

        # all four zig-zag identities on every finite built-in model
        for inst in g.finite_bvui_examples() + [g.sphere_frobenius_model(3)]:
            isp, ifield = inst.space, inst.field
            dv = dual_space(isp)
            ev, coev = build_ev_coev(isp, ifield)
            for part, text in ZIGZAGS:
                space = dv if part == "dual" else isp
                zigzag = expr_map(text, {"ev": ev, "coev": coev}, ifield,
                                  (space,))
                for n in space.basis_names():
                    x = basis_element((space,), ifield, (n,))
                    assert zigzag(x) == x, text


def test_criterion_9_cross_field_consistency():
    with budget(9, 120.0, "verdicts over the rationals reproduce over F101; "
                          "over F2 the sign mutations are expected not to "
                          "fail, and exactly that is asserted"):
        f101 = PrimeField(101)
        f2 = PrimeField(2)

        def verdicts(field):
            out = []
            for n in (3, 5):
                inst = g.sphere_model(n, field)
                for r in g.check_structure(inst, FULL_SUITE, Window(3, 2)):
                    out.append((inst.name, r.relation, r.status))
            frob = g.sphere_frobenius_model(3, field)
            for r in g.check_structure(frob, g.FROBENIUS_FULL, Window()):
                out.append((frob.name, r.relation, r.status))
            broken = g.mutate(g.sphere_model(3, field), "lambda-u-flip")
            for r in g.check_structure(broken, g.BVUI_FULL, Window(2, 2)):
                out.append((broken.name, r.relation, r.status))
            return out

        over_q = verdicts(g.QQ)
        over_f101 = verdicts(f101)
        assert over_q == over_f101
        assert any(status == "fail" for _, _, status in over_q)

        def mutation_verdicts(field):
            inst = g.sphere_model(3, field)
            ctx = inst.context()
            out = []
            for mutated in sign_mutations(builtin_relation("NineTerm")):
                report = relation_residual(mutated, ctx, inst.space,
                                           Window(3, 3))
                out.append(report.status)
            return out

        assert mutation_verdicts(g.QQ) == ["fail"] * 9
        assert mutation_verdicts(f101) == ["fail"] * 9
        # a sign flip is invisible in characteristic two
        assert mutation_verdicts(f2) == ["pass"] * 9
