"""Sign kernel: koszul_sign, permutation maps, tensor interchange."""

import itertools
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import gradedbv as g
from gradedbv.core import GradedMap, basis_element, apply_permutation_key

from helpers import adjacent_decomposition_sign


def test_identity_permutation_is_plus_one():
    assert g.koszul_sign((0, 1, 2, 3), (-3, 2, 5, -1)) == 1


def test_odd_odd_swap_is_minus_one():
    assert g.koszul_sign((1, 0), (-3, -3)) == -1


def test_cycle_sign_matches_two_transposition_oracle():
    # sigma as target positions, degrees of A, A, U in the 3-sphere model
    perm, degrees = (1, 2, 0), (-3, -3, 2)
    expected = adjacent_decomposition_sign(perm, degrees, from_left=True)
    assert g.koszul_sign(perm, degrees) == expected == 1


def test_length_mismatch_rejected():
    import pytest
    with pytest.raises(g.EngineError):
        g.koszul_sign((0, 1), (1,))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sign_is_decomposition_independent(data):
    k = data.draw(st.integers(min_value=1, max_value=6))
    perm = data.draw(st.permutations(range(k)))
    degrees = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    left = adjacent_decomposition_sign(perm, degrees, from_left=True)
    right = adjacent_decomposition_sign(perm, degrees, from_left=False)
    assert left == right == g.koszul_sign(tuple(perm), tuple(degrees))


def _sphere_ctx(n=3):
    inst = g.sphere_model(n)
    return inst, inst.space, inst.field


def test_tau_examples_on_sphere():
    inst, sp, field = _sphere_ctx()
    tau = g.permute((1, 0), (sp, sp), field)
    assert tau.on_key(("A", "U")) == basis_element((sp, sp), field, ("U", "A"))
    assert tau.on_key(("A", "A")) == basis_element((sp, sp), field, ("A", "A"), -1)


def test_sigma_example_stepwise():
    # (tau (x) 1)(1 (x) tau) applied by hand to A (x) A (x) U
    inst, sp, field = _sphere_ctx()
    tau = g.permute((1, 0), (sp, sp), field)
    one = g.identity(sp, field)
    sigma_two_step = g.compose(g.tensor_maps(tau, one), g.tensor_maps(one, tau))
    sigma = g.permute((1, 2, 0), (sp, sp, sp), field)
    key = ("A", "A", "U")
    assert sigma.on_key(key) == sigma_two_step.on_key(key)
    assert sigma.on_key(key) == basis_element((sp,) * 3, field, ("U", "A", "A"))


def test_tau_squared_and_sigma_cubed_are_identity():
    inst, sp, field = _sphere_ctx()
    names = sp.window_names(6)
    tau = g.permute((1, 0), (sp, sp), field)
    sigma = g.permute((1, 2, 0), (sp,) * 3, field)
    for a in names:
        for b in names:
            x = basis_element((sp, sp), field, (a, b))
            assert tau(tau(x)) == x
    for a in names[:6]:
        for b in names[:6]:
            for c in names[:6]:
                x = basis_element((sp,) * 3, field, (a, b, c))
                assert sigma(sigma(sigma(x))) == x


def _random_windowed_map(rng, sp, field, degree, window=6):
    """Random finite-table map on the windowed sphere basis."""
    names = sp.window_names(window)
    by_degree = {}
    for n in names:
        by_degree.setdefault(sp.degree(n), []).append(n)
    table = {}
    for n in names:
        targets = by_degree.get(sp.degree(n) + degree, [])
        coeffs = {}
        for t in targets:
            c = rng.randint(-3, 3)
            if c:
                coeffs[(t,)] = field.coerce(c)
        if coeffs:
            table[(n,)] = g.Element((sp,), field, coeffs)
    return GradedMap((sp,), (sp,), degree, field, name="r%d" % degree,
                     table=table)


def test_interchange_law_on_random_maps():
    inst, sp, field = _sphere_ctx()
    rng = random.Random(20240811)
    names = sp.window_names(4)
    for trial in range(25):
        f = _random_windowed_map(rng, sp, field, rng.choice([0, 1, -1]))
        gmap = _random_windowed_map(rng, sp, field, rng.choice([-3, -1, 0, 1]))
        f2 = _random_windowed_map(rng, sp, field, rng.choice([-1, 0, 1, 2]))
        g2 = _random_windowed_map(rng, sp, field, rng.choice([-2, 0, 1]))
        # (f (x) g).(f2 (x) g2) = (-1)^{|g||f2|} (f.f2) (x) (g.g2)
        lhs = g.compose(g.tensor_maps(f, gmap), g.tensor_maps(f2, g2))
        rhs = g.tensor_maps(g.compose(f, f2), g.compose(gmap, g2))
        sign = -1 if (gmap.degree % 2 and f2.degree % 2) else 1
        for a in names:
            for b in names:
                assert lhs.on_key((a, b)) == rhs.on_key((a, b)).scale(sign)


def test_permutation_key_reordering():
    assert apply_permutation_key((1, 2, 0), ("a", "b", "c")) == ("c", "a", "b")


def test_expression_tensor_agrees_with_tensor_maps():
    # every factor odd, so the Koszul sign is live on every block
    from gradedbv.checks import Window
    sphere = g.sphere_model(3)
    ctx = sphere.context()
    sp = sphere.space
    names = Window(3).names_for(sp, 3)
    for text, maps in (("lambda (x) Delta", (sphere.lam, sphere.delta)),
                       ("Delta (x) lambda (x) Delta",
                        (sphere.delta, sphere.lam, sphere.delta))):
        expr = g.parse(text)
        tensored = g.tensor_maps(*maps)
        arity = len(maps)
        for key in itertools.product(names, repeat=arity):
            x = basis_element((sp,) * arity, sphere.field, key)
            assert g.evaluate(expr, ctx, x) == tensored.on_key(key), (text, key)


def _block_sign(blocks, factor_degrees, space):
    """(-1)^{sum_j |f_j| (|x_1| + ... + |x_{j-1}|)}, computed directly."""
    exponent = 0
    seen = 0
    for block, degree in zip(blocks, factor_degrees):
        exponent += degree * seen
        seen += sum(space.degree(name) for name in block)
    return -1 if exponent % 2 else 1


def test_tensor_kernel_with_identity_blocks_between_and_after():
    from gradedbv.checks import Window
    from gradedbv.expr import compile_expr
    sphere = g.sphere_model(3)
    ctx, sp, field = sphere.context(), sphere.space, sphere.field
    one = g.identity(sp, field)
    maps = {"Delta": sphere.delta, "lambda": sphere.lam, "id": one}
    negative = 0
    for text in ("Delta (x) id (x) Delta", "lambda (x) id (x) Delta",
                 "Delta (x) id (x) Delta (x) id",
                 "lambda (x) id (x) lambda (x) id"):
        factors = [maps[name] for name in text.split(" (x) ")]
        assert sum(f.degree % 2 for f in factors) >= 2
        arity = len(factors)
        names = Window(3 if arity == 3 else 2).names_for(sp, arity)
        plan = compile_expr(g.parse(text), ctx, (sp,) * arity)
        tensored = g.tensor_maps(*factors)
        for key in itertools.product(names, repeat=arity):
            blocks = [(name,) for name in key]
            sign = _block_sign(blocks, [f.degree for f in factors], sp)
            expected = g.scalar_element(field)
            for f, block in zip(factors, blocks):
                expected = expected.tensor(f.on_key(block))
            expected = expected.scale(sign)
            x = basis_element((sp,) * arity, field, key)
            assert plan.apply(x) == expected, (text, key)
            assert tensored.on_key(key) == expected, (text, key)
            negative += sign == -1 and not expected.is_zero()
    assert negative > 0     # the sign is live on these windows
    # only identity blocks: the key passes through unchanged
    x = basis_element((sp, sp), field, ("AU", "A"), 3)
    assert compile_expr(g.parse("id (x) id"), ctx, (sp, sp)).apply(x) == x


def test_vanishing_tensor_factor_adds_nothing():
    from gradedbv.core import tensor_apply, tensor_factors
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    calls = []

    def lam_on_key(block):
        calls.append(block)
        return sphere.lam.on_key(block)

    kernel = tensor_factors([(1, 1, sphere.delta.on_key),
                             (1, sphere.lam.degree, lam_on_key)], (sp, sp))
    # Delta(U) = 0: the first item adds nothing, lambda never sees it
    both = tensor_apply(kernel, [(("U", "AU^2"), 5), (("AU", "AU^2"), 1)],
                        field)
    assert calls == [("AU^2",)]
    assert both == tensor_apply(kernel, [(("AU", "AU^2"), 1)], field)
    assert both
    assert tensor_apply(kernel, [(("AU^2", "1"), 1)], field) == {}  # lambda(1) = 0
    ctx = sphere.context()
    for text, key in (("Delta (x) lambda", ("U", "AU^2")),
                      ("lambda (x) Delta", ("AU^2", "U")),
                      ("Delta (x) lambda", ("AU^2", "1")),
                      ("id (x) Delta", ("AU", "U")),
                      ("Delta (x) id (x) Delta", ("AU", "U^2", "U"))):
        x = basis_element((sp,) * len(key), field, key)
        assert g.evaluate(g.parse(text), ctx, x).is_zero(), text


def test_tensor_kernel_rejects_keys_of_the_wrong_length():
    import pytest
    from gradedbv.core import ArityMismatch, tensor_apply, tensor_factors
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    single = tensor_factors([(1, 0, None), (1, 1, sphere.delta.on_key)],
                            (sp, sp))
    double = tensor_factors([(1, 1, sphere.delta.on_key), (1, 0, None),
                             (1, 1, sphere.delta.on_key)], (sp, sp, sp))
    for kernel, arity in ((single, 2), (double, 3)):
        for key in (("AU",) * (arity - 1), ("AU",) * (arity + 1)):
            with pytest.raises(ArityMismatch):
                tensor_apply(kernel, [(key, 1)], field)
    with pytest.raises(ArityMismatch):
        g.tensor_maps(sphere.delta, sphere.delta).on_key(("AU",))
    with pytest.raises(ArityMismatch):
        tensor_factors([(1, 1, sphere.delta.on_key)], (sp, sp))


# (layout, factors): each layout with an odd and an even non-identity factor
_KERNEL_LAYOUTS = [
    ("whole key", ("lambda",)), ("whole key", ("mu",)),
    ("prefix", ("lambda", "id")), ("prefix", ("mu", "id", "id")),
    ("suffix", ("id", "Delta")), ("suffix", ("id", "id", "lambda")),
    ("suffix", ("id", "mu")),
    ("middle", ("id", "lambda", "id")), ("middle", ("id", "mu", "id")),
    ("gap", ("lambda", "id", "Delta")), ("gap", ("mu", "id", "lambda")),
    ("three blocks", ("lambda", "lambda", "Delta")),
    ("three blocks", ("mu", "tau", "lambda")),
]


def _layout(kernel):
    """The name of a kernel's block layout, as in ``_KERNEL_LAYOUTS``."""
    spans = [(start, end) for start, end, _ in kernel.blocks]
    if len(spans) != 1:
        return {2: "gap", 3: "three blocks"}[len(spans)]
    (start, end), = spans
    return {(True, True): "whole key", (True, False): "prefix",
            (False, True): "suffix",
            (False, False): "middle"}[start == 0, end == kernel.arity]


def _koszul_reference(factors, key, space, field):
    """(sign, f_1 (x) ... (x) f_k on one basis key) by the Koszul formula,
    written out; ``factors`` are (arity, degree, on_key) with on_key None
    for an identity, and nothing of the tensor kernel is called."""
    blocks, pos = [], 0
    for arity, _, _ in factors:
        blocks.append(key[pos:pos + arity])
        pos += arity
    sign = _block_sign(blocks, [degree for _, degree, _ in factors], space)
    out = {(): field.coerce(sign)}
    for (_, _, on_key), block in zip(factors, blocks):
        part = {block: field.one} if on_key is None else on_key(block).coeffs
        out = {k1 + k2: field.mul(v1, v2)
               for k1, v1 in out.items() for k2, v2 in part.items()}
    return sign, out


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
@pytest.mark.parametrize("model", ["sphere:3", "three-dim"])
def test_every_kernel_layout_matches_the_koszul_formula(model, field_name):
    from gradedbv.checks import Window
    from gradedbv.core import tensor_apply, tensor_factors, tensor_run
    field = g.field_by_name(field_name)
    inst = g.builtin_model(model, field)
    sp = inst.space
    factor = {name: (len(m.source), m.degree, m.on_key) for name, m in (
        ("mu", inst.mu), ("lambda", inst.lam), ("Delta", inst.delta),
        ("tau", g.permute((1, 0), (sp, sp), field)))}
    factor["id"] = (1, 0, None)
    negative = 0
    for layout, names in _KERNEL_LAYOUTS:
        factors = [factor[name] for name in names]
        arity = sum(f[0] for f in factors)
        kernel = tensor_factors(factors, (sp,) * arity)
        assert _layout(kernel) == layout
        run = tensor_run(kernel, field)
        element, expected = {}, {}
        for index, key in enumerate(itertools.product(
                Window(3, 2).names_for(sp, arity), repeat=arity)):
            sign, want = _koszul_reference(factors, key, sp, field)
            assert run({key: field.one}) == want, (names, key)
            assert tensor_apply(kernel, [(key, field.one)], field) == want
            negative += sign == -1 and bool(want)
            coeff = field.coerce(index % 5 - 2)
            if not field.is_zero(coeff):
                element[key] = coeff
                for okey, value in want.items():
                    expected[okey] = field.add(expected.get(okey, 0),
                                               field.mul(coeff, value))
        expected = {k: v for k, v in expected.items() if not field.is_zero(v)}
        assert run(element) == expected, names
    assert negative > 0


def test_failed_parity_lookups_are_not_cached():
    from gradedbv.core import (UnknownBasisName, tensor_apply, tensor_factors,
                               tensor_run)
    from gradedbv.expr import compile_expr
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    kernel = tensor_factors([(1, 0, None), (1, 1, sphere.delta.on_key)],
                            (sp, sp))
    (_, _, parity), = kernel.sign_slots
    run = tensor_run(kernel, field)
    plan = compile_expr(g.parse("id (x) Delta"), sphere.context(), (sp, sp))
    for _ in range(2):
        with pytest.raises(UnknownBasisName):
            run({("B", "AU"): 1})
        with pytest.raises(UnknownBasisName):
            tensor_apply(kernel, [(("B", "AU"), 1)], field)
        with pytest.raises(UnknownBasisName):
            plan.run({("B", "AU"): 1})
        assert "B" not in parity
    # Delta(AU) = 1, with the sign (-1)^{|Delta| |AU|} = -1
    assert run({("AU", "AU"): 1}) == {("AU", "1"): -1}
    assert parity == {"AU": 1}
