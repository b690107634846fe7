"""Sign kernel: koszul_sign, permutation maps, tensor interchange."""

import itertools
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import gradedbv as g
from gradedbv.core import basis_element

from helpers import (adjacent_decomposition_sign, apply_permutation_key,
                     expr_map, random_table_map)


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
    sigma_two_step = g.compile_expr(g.parse("(tau (x) id) . (id (x) tau)"),
                              inst.context(), (sp, sp, sp))
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


def test_interchange_law_on_random_maps():
    inst, sp, field = _sphere_ctx()
    rng = random.Random(20240811)
    names = sp.window_names(4)
    for trial in range(25):
        f = random_table_map(rng, sp, field, rng.choice([0, 1, -1]), 6)
        gmap = random_table_map(rng, sp, field, rng.choice([-3, -1, 0, 1]), 6)
        f2 = random_table_map(rng, sp, field, rng.choice([-1, 0, 1, 2]), 6)
        g2 = random_table_map(rng, sp, field, rng.choice([-2, 0, 1]), 6)
        # (f (x) g).(f2 (x) g2) = (-1)^{|g||f2|} (f.f2) (x) (g.g2)
        maps = {"f": f, "g": gmap, "f2": f2, "g2": g2}
        lhs = expr_map("(f (x) g) . (f2 (x) g2)", maps, field, (sp, sp))
        rhs = expr_map("(f . f2) (x) (g . g2)", maps, field, (sp, sp))
        sign = -1 if (gmap.degree % 2 and f2.degree % 2) else 1
        for a in names:
            for b in names:
                assert lhs.on_key((a, b)) == rhs.on_key((a, b)).scale(sign)


def test_permutation_key_reordering():
    assert apply_permutation_key((1, 2, 0), ("a", "b", "c")) == ("c", "a", "b")


def test_expression_tensor_agrees_with_the_koszul_formula():
    # every factor odd, so the Koszul sign is live on every block
    from gradedbv.checks import Window
    sphere = g.sphere_model(3)
    ctx = sphere.context()
    sp, field = sphere.space, sphere.field
    names = Window(3).names_for(sp, 3)
    for text, maps in (("lambda (x) Delta", (sphere.lam, sphere.delta)),
                       ("Delta (x) lambda (x) Delta",
                        (sphere.delta, sphere.lam, sphere.delta))):
        expr = g.parse(text)
        factors = [(1, f.degree, f) for f in maps]
        arity = len(maps)
        for key in itertools.product(names, repeat=arity):
            x = basis_element((sp,) * arity, field, key)
            _, want = _koszul_reference(factors, key, sp, field)
            assert g.evaluate(expr, ctx, x).coeffs == want, (text, key)


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
    maps = {"Delta": sphere.delta, "lambda": sphere.lam}
    negative = 0
    for text in ("Delta (x) id (x) Delta", "lambda (x) id (x) Delta",
                 "Delta (x) id (x) Delta (x) id",
                 "lambda (x) id (x) lambda (x) id"):
        factors = [maps.get(name) for name in text.split(" (x) ")]
        assert sum(f.degree % 2 for f in factors if f) >= 2
        arity = len(factors)
        names = Window(3 if arity == 3 else 2).names_for(sp, arity)
        plan = compile_expr(g.parse(text), ctx, (sp,) * arity)
        for key in itertools.product(names, repeat=arity):
            blocks = [(name,) for name in key]
            sign = _block_sign(blocks, [f.degree if f else 0
                                        for f in factors], sp)
            expected = g.scalar_element(field)
            for f, block in zip(factors, blocks):
                expected = expected.tensor(
                    f.on_key(block) if f else basis_element((sp,), field, block))
            expected = expected.scale(sign)
            x = basis_element((sp,) * arity, field, key)
            assert plan(x) == expected, (text, key)
            assert plan.on_key(key) == expected, (text, key)
            negative += sign == -1 and not expected.is_zero()
    assert negative > 0     # the sign is live on these windows
    # only identity blocks: the key passes through unchanged
    x = basis_element((sp, sp), field, ("AU", "A"), 3)
    assert compile_expr(g.parse("id (x) id"), ctx, (sp, sp))(x) == x


def test_vanishing_tensor_factor_adds_nothing():
    from gradedbv.core import tensor_factors, tensor_run
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    lam, calls = sphere.lam, []

    def lam_rule(block):
        calls.append(block)
        return lam.rule(block)

    counted = g.GradedMap(lam.source, lam.target, lam.degree, field, lam_rule)
    kernel = tensor_factors([(1, 1, sphere.delta),
                             (1, lam.degree, counted)], (sp, sp))
    # Delta(U) = 0: the first item adds nothing, lambda never sees it
    run = tensor_run(kernel, field)
    both = run({("U", "AU^2"): 5, ("AU", "AU^2"): 1})
    assert calls == [("AU^2",)]
    assert both == run({("AU", "AU^2"): 1})
    assert both
    assert run({("AU^2", "1"): 1}) == {}  # lambda(1) = 0
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
    from gradedbv.core import ArityMismatch, tensor_factors, tensor_run
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    single = tensor_factors([(1, 0, None), (1, 1, sphere.delta)], (sp, sp))
    double = tensor_factors([(1, 1, sphere.delta), (1, 0, None),
                             (1, 1, sphere.delta)], (sp, sp, sp))
    for kernel, arity in ((single, 2), (double, 3)):
        for key in (("AU",) * (arity - 1), ("AU",) * (arity + 1)):
            with pytest.raises(ArityMismatch):
                tensor_run(kernel, field)({key: 1})
    with pytest.raises(ArityMismatch):
        g.compile_expr(g.parse("Delta (x) Delta"), sphere.context(),
                       (sp, sp)).on_key(("AU",))
    with pytest.raises(ArityMismatch):
        tensor_factors([(1, 1, sphere.delta)], (sp, sp))


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
    written out; ``factors`` are (arity, degree, gmap) with gmap None
    for an identity, and nothing of the tensor kernel is called."""
    blocks, pos = [], 0
    for arity, _, _ in factors:
        blocks.append(key[pos:pos + arity])
        pos += arity
    sign = _block_sign(blocks, [degree for _, degree, _ in factors], space)
    out = {(): field.coerce(sign)}
    for (_, _, gmap), block in zip(factors, blocks):
        part = {block: field.one} if gmap is None else gmap.on_key(block).coeffs
        out = {k1 + k2: field.mul(v1, v2)
               for k1, v1 in out.items() for k2, v2 in part.items()}
    return sign, out


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
@pytest.mark.parametrize("model", ["sphere:3", "three-dim"])
def test_every_kernel_layout_matches_the_koszul_formula(model, field_name):
    from gradedbv.checks import Window
    from gradedbv.core import tensor_factors, tensor_run
    field = g.field_by_name(field_name)
    inst = g.builtin_model(model, field)
    sp = inst.space
    factor = {name: (len(m.source), m.degree, m) for name, m in (
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
            # a second loop compiled from the same layout agrees
            assert tensor_run(kernel, field)({key: field.one}) == want
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
    from gradedbv.core import UnknownBasisName, tensor_factors, tensor_run
    from gradedbv.expr import compile_expr
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    kernel = tensor_factors([(1, 0, None), (1, 1, sphere.delta)], (sp, sp))
    (_, _, parity), = kernel.sign_slots
    run = tensor_run(kernel, field)
    plan = compile_expr(g.parse("id (x) Delta"), sphere.context(), (sp, sp))
    for _ in range(2):
        with pytest.raises(UnknownBasisName):
            run({("B", "AU"): 1})
        with pytest.raises(UnknownBasisName):
            tensor_run(kernel, field)({("B", "AU"): 1})
        with pytest.raises(UnknownBasisName):
            plan.run({("B", "AU"): 1})
        assert "B" not in parity
    # Delta(AU) = 1, with the sign (-1)^{|Delta| |AU|} = -1
    assert run({("AU", "AU"): 1}) == {("AU", "1"): -1}
    assert parity == {"AU": 1}


def _slot_space(model, field):
    """The slot space of a built-in model, or of the double of one for
    ``D(<model>)``."""
    from gradedbv.double import build_double
    if model.startswith("D("):
        return build_double(g.builtin_model(model[2:-1], field)).space
    return g.builtin_model(model, field).space


def _parity_dicts(gmap):
    """The per-slot parity dicts a permutation map's ``signed`` function,
    which its rule wraps, has filled."""
    signed = gmap.signed
    cells = dict(zip(signed.__code__.co_freevars,
                     (cell.cell_contents for cell in signed.__closure__)))
    return [parity for _, _, parity in cells["slots"]]


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
@pytest.mark.parametrize("model", ["sphere:3", "three-dim", "D(three-dim)"])
def test_every_permutation_matches_the_sign_oracle(model, field_name):
    from gradedbv.checks import Window
    from gradedbv.core import _pairs_odd, _parities, _slot_rule
    field = g.field_by_name(field_name)
    space = _slot_space(model, field)
    negative = 0
    for arity in (1, 2, 3):
        spaces = (space,) * arity
        names = Window(3, 2).names_for(space, arity)
        for perm in itertools.permutations(range(arity)):
            gmap = g.permute(perm, spaces, field)
            for key in itertools.product(names, repeat=arity):
                sign = g.koszul_sign(perm, [space.degree(n) for n in key])
                want = basis_element(spaces, field,
                                     apply_permutation_key(perm, key), sign)
                assert gmap.on_key(key) == want, (perm, key)
                negative += sign == -1
    assert negative > 0
    # core's slot rule on 0 to 4 slots, on every parity pattern of the
    # model's names, against both oracles
    even, odd = (min(n for n in Window(3, 2).names_for(space, 1)
                     if space.degree(n) % 2 == bit) for bit in (0, 1))
    for arity in range(5):
        slots = [(i, space.degree, {}) for i in range(arity)]
        for perm in itertools.permutations(range(arity)):
            move, pairs = _slot_rule(perm)
            for key in itertools.product((even, odd), repeat=arity):
                degrees = [space.degree(n) for n in key]
                sign = (1, -1)[_pairs_odd(pairs, _parities(slots, key))]
                oracle = adjacent_decomposition_sign(perm, degrees, True)
                assert sign == g.koszul_sign(perm, degrees) == oracle
                image = tuple(key[i] for i in move)
                assert image == apply_permutation_key(perm, key)


def test_permutation_keys_of_unknown_names_or_the_wrong_arity_raise():
    from gradedbv.core import ArityMismatch, UnknownBasisName
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    for arity in (1, 2, 3):
        for perm in itertools.permutations(range(arity)):
            gmap = g.permute(perm, (sp,) * arity, field)
            for slot in range(arity):
                key = ("A",) * slot + ("B",) + ("AU",) * (arity - slot - 1)
                for _ in range(2):
                    with pytest.raises(UnknownBasisName):
                        gmap.on_key(key)
                assert key not in gmap._cache
                assert all("B" not in parity for parity in _parity_dicts(gmap))
            for key in (("A",) * (arity - 1), ("A",) * (arity + 1)):
                with pytest.raises(ArityMismatch):
                    gmap.on_key(key)
                assert key not in gmap._cache
            gmap.on_key(("A",) * arity)
            assert any(_parity_dicts(gmap)) or perm == tuple(range(arity))


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
@pytest.mark.parametrize("model", ["sphere:3", "three-dim", "D(three-dim)"])
def test_walker_permutation_reads_match_the_map_and_the_oracle(model, field_name):
    from gradedbv.checks import Window, _Action, _group_sum, _moved
    from gradedbv.core import ArityMismatch, UnknownBasisName
    field = g.field_by_name(field_name)
    space = _slot_space(model, field)
    for arity in (1, 2, 3):
        spaces = (space,) * arity
        keys = list(itertools.product(Window(3, 2).names_for(space, arity),
                                      repeat=arity))
        # a multi-term value, every coefficient non-zero in both fields
        value = {key: field.coerce(i % 7 - 3 or 5) for i, key in enumerate(keys)}
        for perm in itertools.permutations(range(arity)):
            gmap = g.permute(perm, spaces, field)
            for key in keys:
                image, sign = gmap.signed(key)
                assert {image: sign} == gmap.on_key(key).coeffs
                assert sign == field.coerce(g.koszul_sign(
                    perm, [space.degree(n) for n in key]))
            # the walker applies an output permutation O key by key
            term = ((field.one, field.neg(field.one)), lambda key: value,
                    None, 0, _moved(gmap))
            group = (gmap.target, None, (term,), None)
            state = _Action([tuple(range(arity))], arity).state(
                keys[0], [(i, space.degree, {}) for i in range(arity)])
            assert _group_sum(group, 0, state, field) == gmap.run(value)
            # a fresh map: nothing cached, no parity stored
            gmap = g.permute(perm, spaces, field)
            for slot in range(arity):
                bad = keys[-1][:slot] + ("B",) + keys[-1][slot + 1:]
                for _ in range(2):
                    with pytest.raises(UnknownBasisName):
                        gmap.signed(bad)
            for bad in (keys[0][1:], keys[0] + keys[0][:1]):
                with pytest.raises(ArityMismatch):
                    gmap.signed(bad)
            assert not gmap._cache
            assert all("B" not in parity for parity in _parity_dicts(gmap))
            assert len(_parity_dicts(gmap)) == arity


def test_a_permutation_cache_miss_builds_no_element(monkeypatch):
    from gradedbv import core
    sphere = g.sphere_model(3)
    sp, field = sphere.space, sphere.field
    sigma = g.permute((1, 2, 0), (sp,) * 3, field)
    want = basis_element((sp,) * 3, field, ("AU", "A", "U"), -1)

    def forbidden(*args, **kwargs):
        raise AssertionError("called on a permutation cache miss")

    for name in ("koszul_sign", "basis_element"):
        monkeypatch.setattr(core, name, forbidden)
    monkeypatch.setattr(core.Element, "__init__", forbidden)
    out = sigma.on_key(("A", "U", "AU"))
    monkeypatch.undo()
    assert out == want and out.spaces is sigma.target
    assert sigma._cache == {("A", "U", "AU"): out}


def test_the_engine_never_calls_the_sign_oracle(monkeypatch, tmp_path):
    import sys
    from gradedbv import expr
    from gradedbv.cli import main
    # the Gysin run's transported terms move permutations past stages
    commands = [["gysin", "sphere:3", "--window", "4"],
                ["check", "sphere:3", "--suite", "all", "--window", "3"],
                ["double", "three-dim"]]

    def forbidden(*args, **kwargs):
        raise AssertionError("the engine called koszul_sign")

    def run(tag):
        out = []
        for index, argv in enumerate(commands):
            path = tmp_path / ("%s-%d.json" % (tag, index))
            out.append((main(argv + ["--out", str(path)]), path.read_bytes()))
        return out

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gradedbv" and hasattr(module, "koszul_sign"):
            monkeypatch.setattr(module, "koszul_sign", forbidden)
    monkeypatch.setattr(expr, "_NORMAL", {})    # every normal form afresh
    patched = run("patched")
    monkeypatch.undo()
    assert patched == run("plain")
