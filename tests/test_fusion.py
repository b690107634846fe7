"""Normal forms in the compiler, shared heads and shared partial sums in
the walk."""

import itertools
import random

import pytest

import gradedbv as g
from gradedbv import checks
from gradedbv.checks import (MAX_WITNESSES, RelationSpec, Window,
                             check_relations, relation_residual)
from gradedbv.core import (EngineError, FiniteSpace, Rationals, basis_element,
                           table_map)
from gradedbv.double import build_double, build_double_data
from gradedbv.expr import (PERMS, Compose, Gen, OpContext, Scal, Sum,
                           compile_expr, normal_form, parse, target_arity)
from gradedbv.gysin import _gysin_context, _transported, canonical_gysin
from gradedbv.structures import _CATALOG_SOURCE, builtin_relation

from helpers import captured_models, counted_rule_runs, raising_context


def _stagewise(node, ctx, elem):
    """``node`` applied to ``elem`` one composition stage at a time, each
    stage compiled alone and applied with ``GradedMap.__call__``; a scalar
    multiple or a sum is taken apart the same way."""
    if isinstance(node, Compose):
        for child in reversed(node.children):
            elem = _stagewise(child, ctx, elem)
        return elem
    if isinstance(node, Scal):
        return _stagewise(node.child, ctx, elem).scale(
            ctx.field.coerce(node.coeff))
    if isinstance(node, Sum):
        parts = [_stagewise(term, ctx, elem) for term in node.terms]
        return sum(parts[1:], parts[0])
    return compile_expr(node, ctx, elem.spaces)(elem)


def _instances(field):
    out = []
    for name in ("sphere:3", "sphere-frob:3", "three-dim"):
        out.append(g.builtin_model(name, field))
    for name in ("three-dim", "exterior"):
        out.append(build_double(g.builtin_model(name, field)))
    return out


def _catalog_terms(inst):
    """(term, arity) of every catalog term the instance can type."""
    for rid in _CATALOG_SOURCE:
        spec = builtin_relation(rid)
        if "epsilon" in spec.requires and not inst.has_counit:
            continue
        for group in spec.groups:
            for _, term in group:
                yield term, spec.arity


def _transported_terms():
    for rid, pre, post, arity in (("NineTerm", "M (x) M", "E (x) E", 2),
                                  ("SevenTermMu", "M (x) M (x) M", "E", 3)):
        for group in _transported(rid, parse(pre), parse(post)):
            for _, term in group:
                yield term, arity


def _compiled_as(term, ctx, spaces):
    """The node ``term`` compiles as: a composite map is named by it."""
    return parse(compile_expr(term, ctx, spaces).name)


def _assert_fused_maps_are_exact(ctx, space, terms):
    """Each term's map equals its stages applied one at a time on every
    key of Window(3, 2); returns how many terms were rewritten."""
    window, field, rewritten = Window(3, 2), ctx.field, 0
    for term, arity in terms:
        spaces = (space,) * arity
        gmap = compile_expr(term, ctx, spaces)
        if isinstance(term, Compose):
            rewritten += _compiled_as(term, ctx, spaces) is not term
        for key in itertools.product(window.names_for(space, arity),
                                     repeat=arity):
            elem = basis_element(spaces, field, key)
            assert gmap.on_key(key) == _stagewise(term, ctx, elem), (term, key)
    return rewritten


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_fused_catalog_terms_equal_their_stages_applied_in_turn(field):
    field = g.field_by_name(field)
    for inst in _instances(field):
        rewritten = _assert_fused_maps_are_exact(
            inst.context(), inst.space, _catalog_terms(inst))
        # SevenTermLambda's three terms through Delta (x) id (x) id,
        # ElevenTerm's six through id (x) Delta (x) id, NineTerm's four,
        # and EpsilonElevenTerm's two when there is a counit
        assert rewritten == 13 + 2 * inst.has_counit, inst.name


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_fused_transported_terms_equal_their_stages_applied_in_turn(field):
    field = g.field_by_name(field)
    for inst in _instances(field):
        data = canonical_gysin(inst)
        rewritten = _assert_fused_maps_are_exact(
            _gysin_context(inst, data), data.space_b, _transported_terms())
        assert rewritten == 16, inst.name


def _stages_of(node):
    return node.children if isinstance(node, Compose) else (node,)


def test_no_transported_term_keeps_an_inner_permutation():
    inst = g.sphere_model(3)
    data = canonical_gysin(inst)
    ctx = _gysin_context(inst, data)
    moved = []
    for term, _ in _transported_terms():
        sign, head, perm = normal_form(term, ctx)
        assert not any(isinstance(stage, Gen) and stage.name in PERMS
                       for stage in _stages_of(head)), term
        # its normal form is normal
        assert normal_form(head, ctx) == (1, head, None)
        if perm is not None:
            moved.append((sign, perm.name))
    # NineTerm's two tau terms pass the odd M (x) M, SevenTermMu's sigma
    # and sigma2 terms the three odd M, a cyclic (even) reordering
    assert sorted(moved) == [(-1, "tau"), (-1, "tau"), (1, "sigma"),
                             (1, "sigma"), (1, "sigma2"), (1, "sigma2")]


def _typed_gysin_terms(rid, pre, post, arity):
    inst = g.sphere_model(3)
    data = canonical_gysin(inst)
    ctx = _gysin_context(inst, data)
    spec = RelationSpec(rid, arity, rid, _transported(rid, parse(pre), parse(post)))
    (terms,) = checks._typed_terms(spec, ctx, (data.space_b,) * arity)
    return spec.groups[0], terms


def test_transported_twisted_terms_read_the_heads_of_their_twins():
    group, terms = _typed_gysin_terms("NineTerm", "M (x) M", "E (x) E", 2)
    # terms 7 and 9 (1-based) are terms 6 and 8 after tau: the same head
    # map, tau's slot map, and the moved sign on the coefficient
    for bare, twisted in ((5, 6), (7, 8)):
        assert terms[twisted][1] is terms[bare][1]
        assert terms[bare][2] is None and terms[twisted][3] == PERMS["tau"]
        assert terms[twisted][0] == -group[twisted][0]
    group, terms = _typed_gysin_terms("SevenTermMu", "M (x) M (x) M", "E", 3)
    for bare, twisted, name in ((1, 2, "sigma"), (1, 3, "sigma2"),
                                (4, 5, "sigma"), (4, 6, "sigma2")):
        assert terms[twisted][1] is terms[bare][1]
        assert terms[twisted][3] == PERMS[name]
        assert terms[twisted][0] == group[twisted][0]
    assert len({id(term[1]) for term in terms}) == 3


def _assert_same_map(first, second, keys):
    keys = list(keys)
    assert keys
    for key in keys:
        assert first.on_key(key) == second.on_key(key), key


def test_the_interchange_sign_goes_on_one_factor():
    inst = g.sphere_model(3)
    ctx, sp = inst.context(), inst.space
    node = parse("(id (x) id (x) Delta) . (lambda (x) id)")
    # |Delta| |lambda| is odd
    assert normal_form(node, ctx) == (1, parse("(-lambda) (x) Delta"), None)
    names = Window(4).names_for(sp, 2)
    _assert_same_map(compile_expr(node, ctx, (sp, sp)),
                     compile_expr(parse("-(lambda (x) Delta)"), ctx, (sp, sp)),
                     itertools.product(names, repeat=2))
    # two odd signs cancel: lambda, then Delta, each pass an odd M
    data = canonical_gysin(inst)
    gctx = _gysin_context(inst, data)
    term = _transported("NineTerm", parse("M (x) M"), parse("E (x) E"))[0][5]
    assert "-" not in str(normal_form(term[1], gctx)[1])


def test_the_double_component_through_omega_is_fused_with_its_sign():
    data = build_double_data(g.builtin_model("three-dim"))
    ctx = data.context
    _, _, shifted, _ = data.spaces
    base = data.base.space
    node = parse("(id (x) lambda) . (omega (x) id)")
    # |lambda| |omega| is odd
    assert normal_form(node, ctx) == (1, parse("(-omega) (x) lambda"), None)
    spaces = (shifted, base)
    keys = itertools.product(sorted(shifted.basis_names()),
                             sorted(base.basis_names()))
    _assert_same_map(compile_expr(node, ctx, spaces),
                     compile_expr(parse("-(omega (x) lambda)"), ctx, spaces),
                     keys)


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_fused_double_components_equal_their_stages_applied_in_turn(field):
    from gradedbv.double import (DELTA_COMPONENTS, LAMBDA_COMPONENTS,
                                 MU_COMPONENTS)
    signed = 0
    for name in ("three-dim", "exterior"):
        data = build_double_data(g.builtin_model(name, g.field_by_name(field)))
        ctx = data.context
        part_space = {"a": data.base.space, "v": data.spaces[2]}
        for texts, arity in ((MU_COMPONENTS, 2), (LAMBDA_COMPONENTS, 1),
                             (DELTA_COMPONENTS, 1)):
            for parts, text in texts.items():
                spaces = tuple(part_space[p] for p in parts[:arity])
                gmap = compile_expr(parse(text), ctx, spaces)
                for key in itertools.product(
                        *(sorted(s.basis_names()) for s in spaces)):
                    elem = basis_element(spaces, ctx.field, key)
                    assert gmap.on_key(key) == \
                        _stagewise(parse(text), ctx, elem), (text, key)
        signed += normal_form(parse("(id (x) lambda) . (omega (x) id)"), ctx) \
            == (1, parse("(-omega) (x) lambda"), None)
    assert signed == 2


def _random_maps(rng, space, field):
    """Random table maps on ``space`` (basis e even, o odd), of source
    and target arities from zero to two and of either parity."""
    names = sorted(space.basis_names())
    maps = {}
    for source, target, degree in ((1, 1, 1), (1, 1, 0), (2, 1, 1), (1, 2, 0),
                                   (0, 1, 0), (1, 0, 1), (0, 2, 1), (2, 0, 0),
                                   (2, 2, 1)):
        entries = []
        for key in itertools.product(names, repeat=source):
            want = sum(map(space.degree, key)) + degree
            for okey in itertools.product(names, repeat=target):
                if sum(map(space.degree, okey)) == want:
                    entries.append((key, okey, rng.randint(-2, 2)))
        name = "g%d%d%d" % (source, target, degree)
        maps[name] = table_map((space,) * source, (space,) * target, degree,
                               field, entries, name)
    return maps


# the whole permutation stage of each arity it exists for, but id
_WHOLE_PERMS = {2: ["tau"], 3: ["sigma", "sigma2"]}


def _random_stage(rng, maps, arity):
    """A tensor of random blocks (``id`` or a map) consuming ``arity``
    slots, blocks that consume none put in at random; one time in four,
    a whole ``tau``, ``sigma`` or ``sigma2`` when ``arity`` is theirs."""
    if arity in _WHOLE_PERMS and rng.random() < 0.25:
        return rng.choice(_WHOLE_PERMS[arity])
    blocks, left = [], arity
    while left or not blocks or rng.random() < 0.2:
        name = rng.choice(["id", "id"] + sorted(maps))
        consumed = 1 if name == "id" else maps[name].source_arity
        if consumed <= left:
            blocks.append(name)
            left -= consumed
    return " (x) ".join(blocks)


def _is_perm(stage):
    return isinstance(stage, Gen) and stage.name in PERMS


def test_random_compositions_equal_their_stages_applied_in_turn():
    rng = random.Random(20)
    space = FiniteSpace("V", {"e": 0, "o": 1})
    names = sorted(space.basis_names())
    fused = signed = moved = refused = negative = 0
    for field in (g.QQ, g.field_by_name("Fp:101")):
        maps = _random_maps(rng, space, field)
        for _ in range(500):
            ctx = OpContext(maps, field)
            arity = rng.randint(1, 3)
            stages, slots = [], arity
            for _ in range(rng.randint(2, 3)):
                stage = _random_stage(rng, maps, slots)
                stages.append("(%s)" % stage)
                slots = target_arity(parse(stage), ctx)
                if slots > 4:
                    break
            node = parse(" . ".join(reversed(stages)))
            if not isinstance(node, Compose) or slots > 4:
                continue
            spaces = (space,) * arity
            gmap = compile_expr(node, ctx, spaces)
            rewritten = _compiled_as(node, ctx, spaces)
            fused += rewritten is not node
            signed += "-" in str(rewritten)
            # a permutation inside the composition moves to the input or
            # stays a stage of the head
            sign, head, perm = normal_form(node, ctx)
            if any(map(_is_perm, node.children[:-1])):
                if any(map(_is_perm, _stages_of(head))):
                    refused += 1
                else:
                    moved += 1
                    negative += sign == -1
            # the walk reads the head and the sign from the normal form: a
            # relation of the term once runs the head, one of the term
            # twice shares it
            relations = [checks.compile_relation(
                RelationSpec("R", arity, "", (((1, node),) * n,)), ctx, spaces)
                for n in (1, 2)]
            for key in itertools.product(names, repeat=arity):
                elem = basis_element(spaces, field, key)
                assert gmap.on_key(key) == _stagewise(node, ctx, elem), (node, key)
                for n, relation in enumerate(relations, 1):
                    hit = checks.residual_on_key(relation, ctx, spaces, key)
                    assert (hit and hit[1].coeffs) == \
                        (gmap.on_key(key).scale(n).coeffs or None), (node, key)
    assert fused > 200 and signed > 40
    assert moved > 50 and refused > 50 and negative > 2, (moved, refused, negative)


def test_the_rewrite_follows_the_degrees_of_each_context():
    # one node, two contexts whose degrees differ: the rewrite is keyed on
    # the typed shapes too, so each context gets its own sign
    space = FiniteSpace("V", {"e": 0, "o": 1})
    field = g.QQ

    def maps(odd):
        return {name: table_map((space,), (space,), degree, field, [])
                for name, degree in (("f", 0), ("g", odd), ("f2", odd),
                                     ("g2", 0))}
    node = parse("(f (x) g) . (f2 (x) g2)")
    for odd, fused in ((1, "(-(f . f2)) (x) (g . g2)"),
                       (0, "(f . f2) (x) (g . g2)"),
                       (-1, "(-(f . f2)) (x) (g . g2)")):
        assert normal_form(node, OpContext(maps(odd), field)) == \
            (1, parse(fused), None)


def _sphere_deep_plans(monkeypatch, tmp_path):
    """(instance, rule runs) of the sphere-deep benchmark command."""
    from gradedbv.cli import main
    runs, built = counted_rule_runs(monkeypatch), captured_models(monkeypatch)
    assert main(["check", "sphere:3", "--suite", "all", "--window", "10",
                 "--window3", "2", "--field", "Fp:101",
                 "--out", str(tmp_path / "report.json")]) == 0
    (inst,) = built
    return inst, runs


def _plan(ctx, text):
    """The one plan of the node ``text`` in the context."""
    (gmap,) = [m for (node, _), m in ctx.plans.items() if node is parse(text)]
    return gmap


def _mu_outputs(ctx):
    return {okey for out in ctx.maps["mu"]._cache.values() for okey in out.coeffs}


def test_a_fused_factor_is_computed_once_per_slot_key(monkeypatch, tmp_path):
    inst, runs = _sphere_deep_plans(monkeypatch, tmp_path)
    ctx = inst.context()
    factor = _plan(ctx, "(Delta (x) id) . lambda")
    keys = [key for m, key in runs if m is factor]
    # the keys of its own slot, as ElevenTerm's fused factor, and of mu's
    # outputs, as the tail of (Delta (x) id) . lambda . mu
    names = {(name,) for name in Window(10).names_for(inst.space, 1)}
    assert 0 < len(factor._cache) <= len(Window(20).names_for(inst.space, 1))
    assert set(factor._cache) <= names | _mu_outputs(ctx)
    assert sorted(keys) == sorted(factor._cache)
    assert all(runs[factor, key] == 1 for key in keys)


def test_a_narrow_cut_tail_is_one_cached_plan(monkeypatch, tmp_path):
    inst, runs = _sphere_deep_plans(monkeypatch, tmp_path)
    ctx = inst.context()
    names = {(name,) for name in Window(10).names_for(inst.space, 1)}
    outputs = _mu_outputs(ctx)
    # (Delta (x) id) . lambda is one plan: ElevenTerm's fused factor,
    # read on the window's names, and the tail of (Delta (x) id) .
    # lambda . mu, read on mu's outputs beyond them
    factor, tail = (_plan(ctx, "(Delta (x) id) . lambda"),
                    _plan(ctx, "lambda . Delta"))
    assert set(factor._cache) - names
    # lambda . Delta . mu reads lambda . Delta once per key of mu's
    # outputs, not once per tuple
    assert set(tail._cache) - names
    assert set(tail._cache) <= outputs and len(tail._cache) < len(names) ** 2
    for gmap in (factor, tail):
        keys = [key for m, key in runs if m is gmap]
        assert sorted(keys) == sorted(gmap._cache)
        assert all(runs[gmap, key] == 1 for key in keys)
    # so is (id (x) Delta) . lambda, for (id (x) Delta) . lambda . mu
    other = _plan(ctx, "(id (x) Delta) . lambda")
    assert set(other._cache) - names
    assert set(other._cache) <= names | outputs


@pytest.mark.parametrize("mutation", [None, "lambda-u-flip", "delta-au-doubled"])
def test_eleven_and_nine_terms_walked_together_match_each_alone(mutation):
    inst = g.sphere_model(3)
    if mutation is not None:
        inst = g.mutate(inst, mutation)
    specs = [builtin_relation("ElevenTerm"), builtin_relation("NineTerm")]
    ctx, window = inst.context(), Window(3)
    together = check_relations(specs, ctx, inst.space, window)
    alone = [relation_residual(spec, inst.context(), inst.space, window)
             for spec in specs]
    assert together == alone
    if mutation is not None:
        assert [len(r.witnesses) for r in together] == [MAX_WITNESSES] * 2
    # ElevenTerm reads NineTerm's sum, stored in the orbit state, and adds two
    (eleven, nine), _ = checks._link(
        [checks._typed_terms(spec, ctx, (inst.space,) * 2) for spec in specs], 2)
    (nine_group,), (eleven_group,) = nine, eleven
    assert eleven_group[1] is nine_group and len(eleven_group[2]) == 2
    assert nine_group[1] is None and nine_group[3] is not None


class _CountingRationals(Rationals):
    """Q, counting the calls of ``accumulate``."""

    def __init__(self):
        self.calls = 0

    def accumulate(self, acc, terms, scalar):
        self.calls += 1
        return super().accumulate(acc, terms, scalar)


def _generator_context(field, bad=None):
    """Eleven maps f1 ... f11 from V (x) V to V, none vanishing on any
    key, with f3 raising on ``bad``; (space, context, the relation of
    all eleven, the relation of the first nine, the errors raised)."""
    space = FiniteSpace("V", {"a": 0, "b": 0})
    raised = []

    def generator(i):
        def rule(key):
            if i == 3 and key == bad:
                raised.append(EngineError("f3 fails on %s" % (key,)))
                raise raised[-1]
            return basis_element((space,), field, key[:1], i)
        return g.GradedMap((space, space), (space,), 0, field, rule, "f%d" % i)

    maps = {"f%d" % i: generator(i) for i in range(1, 12)}
    terms = [(1, "f%d" % i) for i in range(1, 12)]
    eleven = checks.make_relation("Eleven", 2, "eleven", [terms])
    nine = checks.make_relation("Nine", 2, "nine", [terms[:9]])
    return space, OpContext(maps, field), eleven, nine, raised


def test_the_shared_terms_are_summed_once_per_tuple():
    field = _CountingRationals()
    space, ctx, eleven, nine, _ = _generator_context(field)
    for spec in (eleven, nine):     # each head's outputs cached first
        relation_residual(spec, ctx, space, Window())
    field.calls = 0
    together = check_relations([eleven, nine], ctx, space, Window())
    # four tuples: nine adds then two for Eleven, none for Nine, which
    # reads the stored sum (one copy, no add)
    assert field.calls == 4 * 11
    assert [r.status for r in together] == ["fail", "fail"]
    assert together == [relation_residual(spec, ctx, space, Window())
                        for spec in (eleven, nine)]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_raising_shared_term_raises_for_the_first_relation(order):
    space, ctx, eleven, nine, raised = _generator_context(g.QQ, ("a", "b"))
    specs = [(eleven, nine)[i] for i in order]
    with pytest.raises(EngineError, match="f3 fails on") as info:
        check_relations(specs, ctx, space, Window())
    # the raising partial sum is not stored: each relation computes it
    # again and raises, and the error of the first in spec order is raised
    assert len(raised) == 2
    assert info.value is raised[0]


def _key_run_instance(model, field):
    if model.startswith("D("):
        return build_double(g.builtin_model(model[2:-1], field))
    return g.builtin_model(model, field)


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
@pytest.mark.parametrize("model", ["sphere:3", "three-dim", "exterior-bv",
                                   "D(three-dim)"])
def test_every_walked_head_reads_one_key_as_its_run(model, field_name):
    inst = _key_run_instance(model, g.field_by_name(field_name))
    ctx, one, window = inst.context(), inst.field.one, Window(2)
    heads = {}
    for rid in _CATALOG_SOURCE:
        spec = builtin_relation(rid)
        if "epsilon" in spec.requires and not inst.has_counit:
            continue
        spaces = (inst.space,) * spec.arity
        for terms in checks._typed_terms(spec, ctx, spaces):
            for _, head, perm, _, _ in terms:
                heads[head] = perm.target if perm else spaces
    assert {len(spaces) for spaces in heads.values()} == {0, 1, 2, 3}
    # every kind of head: a cached map, a composition and a tensor
    # product, with one non-identity block or several
    assert {type(head.key_run).__name__ for head in heads} == {
        "method", "function"}
    for head, spaces in heads.items():
        names = window.names_for(inst.space, len(spaces))
        for key in itertools.product(names, repeat=len(spaces)):
            assert head.key_run(key) == head.run({key: one}), (head, key)


def test_a_raising_rule_raises_through_every_key_run():
    space, ctx, spec, calls = raising_context(bad_f=("a1", "a0"))
    heads = [head for terms in checks._typed_terms(spec, ctx, (space, space))
             for _, head, _, _, _ in terms]
    f = ctx.maps["f"]
    assert f in heads
    # a composition whose first stage is a tensor product with f's block
    streaming = compile_expr(parse("f . (f (x) id)"), ctx, (space,) * 3)
    for gmap, key in ((f, ("a1", "a0")), (streaming, ("a1", "a0", "a2"))):
        for attempt in range(1, 4):
            before = len(calls)
            with pytest.raises(EngineError, match="f fails on"):
                gmap.key_run(key)
            assert calls[before:] == [("a1", "a0")]
            assert ("a1", "a0") not in f._cache and not streaming._cache
