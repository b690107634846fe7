"""Parser, printer, degree inference and the evaluator."""

import random
from fractions import Fraction

import pytest

import gradedbv as g
from gradedbv.expr import (PERMS, Compose, Dual, Gen, ParseError, Scal, Sum,
                           Tensor, parse, print_expr, source_arity,
                           target_arity)
from gradedbv.structures import _CATALOG_SOURCE, builtin_relation

from helpers import captured_models, counted_rule_runs, term_count


@pytest.fixture(scope="module")
def sphere():
    return g.sphere_model(3)


def test_parse_tensor_inside_composition():
    node = parse("(id (x) mu) . (lambda (x) id)")
    assert isinstance(node, Compose) and len(node.children) == 2
    assert all(isinstance(c, Tensor) for c in node.children)


def test_parse_threefold_composition():
    node = parse("lambda . Delta . mu")
    assert isinstance(node, Compose)
    assert [c.name for c in node.children] == ["lambda", "Delta", "mu"]


def test_parse_sum_of_composites():
    node = parse("mu . (Delta (x) id) + mu . (id (x) Delta)")
    assert isinstance(node, Sum) and len(node.terms) == 2
    assert all(isinstance(t, Compose) for t in node.terms)


def test_parse_scalar_prefix_and_minus():
    node = parse("2*mu . tau - mu")
    assert isinstance(node, Sum)
    first = node.terms[0]
    assert isinstance(first, Scal) and first.coeff == 2
    second = node.terms[1]
    assert isinstance(second, Scal) and second.coeff == -1


def test_unicode_spellings_accepted():
    a = parse("lambda ∘ Delta ∘ mu")
    b = parse("lambda . Delta . mu")
    assert a == b
    c = parse("id ⊗ mu")
    assert c == parse("id (x) mu")


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("mu . (Delta (x) ")
    assert "position" in str(err.value)


def test_unknown_generator_rejected_on_use(sphere):
    with pytest.raises(g.EngineError):
        g.infer_degree(parse("frobnicate"), sphere.context())


def test_roundtrip_full_catalog():
    for rid in _CATALOG_SOURCE:
        spec = builtin_relation(rid)
        for group in spec.groups:
            for _, expr in group:
                assert parse(print_expr(expr)) == expr


def test_infer_degree_examples(sphere):
    ctx = sphere.context()
    assert g.infer_degree(parse("mu"), ctx) == 0
    assert g.infer_degree(parse("Delta . Delta"), ctx) == 2
    assert g.infer_degree(parse("lambda"), ctx) == -5


def test_sum_degree_mismatch_rejected(sphere):
    with pytest.raises(g.EngineError):
        g.infer_degree(parse("mu + Delta . mu"), sphere.context())


def _elem(sphere, text):
    from helpers import literal_slots
    arity = literal_slots(text)
    return g.parse_element(text, (sphere.space,) * arity, sphere.field)


def test_evaluate_triple_composition(sphere):
    # (r+s) sum of AU^i (x) U^j - U^i (x) AU^j at r = s = 1
    out = g.evaluate(parse("lambda . Delta . mu"), sphere.context(),
                     _elem(sphere, "AU^1 (x) U^1"))
    assert out == _elem(sphere, "2*A(x)1 - 2*1(x)A")


def test_evaluate_delta(sphere):
    out = g.evaluate(parse("Delta"), sphere.context(), _elem(sphere, "AU^2"))
    assert out == _elem(sphere, "2*U")


def test_evaluate_eta_on_unit_scalar(sphere):
    out = g.evaluate(parse("eta"), sphere.context(),
                     g.scalar_element(sphere.field))
    assert out == _elem(sphere, "1")


def test_element_literal_normalization(sphere):
    assert _elem(sphere, "AU^0") == _elem(sphere, "A")
    assert _elem(sphere, "U^1 (x) AU^1") == _elem(sphere, "U (x) AU")
    with pytest.raises(ParseError):
        _elem(sphere, "W^2")


def test_a_composite_is_named_by_its_expression(sphere):
    from gradedbv.core import ArityMismatch
    from gradedbv.expr import compile_expr
    text = "(lambda (x) id) . lambda"
    gmap = compile_expr(parse(text), sphere.context(), (sphere.space,))
    assert gmap.name == text and str(parse(text)) == print_expr(parse(text))
    with pytest.raises(ArityMismatch) as err:
        gmap.on_key(("U", "U"))
    assert str(err.value).startswith("map %s expects arity 1" % text)


def _random_catalog_exprs(arity):
    out = []
    for rid, (a, _, requires, _groups) in _CATALOG_SOURCE.items():
        if a == arity and not requires:
            for group in builtin_relation(rid).groups:
                out.extend(expr for _, expr in group)
    return out


def test_evaluation_is_linear(sphere):
    rng = random.Random(7)
    ctx = sphere.context()
    names = sphere.space.window_names(4)
    exprs = _random_catalog_exprs(2)
    for trial in range(30):
        expr = rng.choice(exprs)
        a, b = rng.choice(names), rng.choice(names)
        c, d = rng.choice(names), rng.choice(names)
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        x = g.basis_element((sphere.space,) * 2, sphere.field, (a, b))
        y = g.basis_element((sphere.space,) * 2, sphere.field, (c, d))
        combined = g.evaluate(expr, ctx, x + y.scale(coeff))
        split = g.evaluate(expr, ctx, x) + g.evaluate(expr, ctx, y).scale(coeff)
        assert combined == split


def test_evaluation_respects_composition(sphere):
    ctx = sphere.context()
    names = sphere.space.window_names(4)
    pieces = [parse(t) for t in
              ("Delta", "mu . lambda", "mu . (id (x) eta)",
               "mu . (eta (x) id)")]
    rng = random.Random(11)
    for trial in range(30):
        depth = rng.randint(2, 4)
        chain = [rng.choice(pieces) for _ in range(depth)]
        whole = Compose(tuple(c for c in chain))
        x = g.basis_element((sphere.space,), sphere.field, (rng.choice(names),))
        stepped = x
        for piece in reversed(chain):
            stepped = g.evaluate(piece, ctx, stepped)
        assert g.evaluate(whole, ctx, x) == stepped


def test_inferred_degree_matches_observed_shift(sphere):
    ctx = sphere.context()
    names = sphere.space.window_names(4)
    for text in ("lambda . Delta . mu", "mu . (Delta (x) id)",
                 "(lambda (x) id) . lambda", "Delta . mu"):
        expr = parse(text)
        degree = g.infer_degree(expr, ctx)
        arity = source_arity(expr, ctx)
        for name in names:
            key = (name,) * arity
            x = g.basis_element((sphere.space,) * arity, sphere.field, key)
            out = g.evaluate(expr, ctx, x)
            if not out.is_zero():
                assert out.degree() == x.degree() + degree


def test_source_and_target_arities(sphere):
    ctx = sphere.context()
    expr = parse("(mu (x) mu) . (id (x) (lambda . eta) (x) id)")
    assert source_arity(expr, ctx) == 2
    assert target_arity(expr, ctx) == 2
    assert source_arity(parse("lambda . eta"), ctx) == 0


def test_dual_generator_evaluates_by_adjunction():
    inst = g.builtin_model("exterior")
    from gradedbv.double import dual_space
    dv = dual_space(inst.space)
    out = g.evaluate(parse("dual(mu)"), inst.context(),
                     g.basis_element((dv,), inst.field, ("x^",)))
    # functional picking x in a product: x = 1*x = x*1, slots reversed
    expected = (g.basis_element((dv, dv), inst.field, ("x^", "1^"))
                + g.basis_element((dv, dv), inst.field, ("1^", "x^")))
    assert out == expected


def test_dual_generator_rejected_on_rule_generated_space(sphere):
    from gradedbv.double import DoubleError
    with pytest.raises(DoubleError):
        g.evaluate(parse("dual(Delta)"), sphere.context(),
                   g.basis_element((sphere.space,), sphere.field, ("U",)))


def test_print_parse_fixed_point_examples():
    for text in ("mu . (Delta (x) id) + mu . (id (x) Delta)",
                 "-2*mu + 1/2*(mu . tau)",
                 "dual(mu) . dual(Delta)"):
        once = print_expr(parse(text))
        assert print_expr(parse(once)) == once


def _expr_strategy():
    from hypothesis import strategies as st
    gen = st.sampled_from(["mu", "eta", "lambda", "Delta", "id", "tau",
                           "sigma", "sigma2"]).map(lambda n: parse(n))

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: Tensor(tuple(cs))),
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: Compose(tuple(cs))),
            st.tuples(st.integers(-5, 5).filter(lambda n: n not in (0, 1)),
                      children).map(lambda t: Scal(Fraction(t[0]), t[1])),
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: Sum(tuple(cs))),
        )
    return st.recursive(gen, extend, max_leaves=12)


def test_roundtrip_random_expressions():
    # the trees need not typecheck; after one normalizing parse, printing
    # and reparsing must be a structural fixed point
    from hypothesis import given, settings

    @settings(max_examples=200, deadline=None)
    @given(_expr_strategy())
    def run(expr):
        normalized = parse(print_expr(expr))
        assert parse(print_expr(normalized)) == normalized

    run()


def test_equal_parses_hash_and_compare_equal():
    texts = ("mu . (id (x) mu) - 2*lambda . tau",
             "dual(mu) . (Delta (x) id) + mu",
             "(lambda . eta) (x) ((id (x) mu) . sigma)")
    for text in texts:
        first, second = parse(text), parse(text)
        # interned: two parses of one text are one object
        assert first is second
        assert first == second and hash(first) == hash(second)
        # equality is identity, and so is the hash
        assert hash(first) == object.__hash__(first)
    assert parse(texts[0]) != parse(texts[1])
    plans = {(parse(text), None): text for text in texts}
    assert all(plans[parse(text), None] == text for text in texts)


def test_composite_tensor_factors_run_once_per_key(monkeypatch, tmp_path):
    from gradedbv.cli import main
    runs = counted_rule_runs(monkeypatch)
    assert main(["check", "sphere:3", "--suite", "all", "--window", "6",
                 "--out", str(tmp_path / "report.json")]) == 0
    # lambda . eta, a composite tensor factor, maps () to the square
    assert any(key == () and len(gmap.target) == 2 for gmap, key in runs)
    assert max(runs.values()) == 1


def test_shared_tensor_factors_are_one_map_each(monkeypatch, tmp_path):
    # each factor is a factor of several tensors in the suite, and each
    # runs once per key in all of them
    from gradedbv.cli import main
    runs, built = counted_rule_runs(monkeypatch), captured_models(monkeypatch)
    assert main(["check", "sphere-frob:3", "--suite", "all",
                 "--out", str(tmp_path / "report.json")]) == 0
    plans = built[0].context().plans
    tensors = [node for node, _ in plans if isinstance(node, Tensor)]
    for text in ("lambda . eta", "epsilon . mu"):
        node = parse(text)
        assert sum(node in t.children for t in tensors) >= 2, text
        (gmap,) = [m for (n, _), m in plans.items() if n == node]
        keys = [key for m, key in runs if m is gmap]
        assert keys and all(runs[gmap, key] == 1 for key in keys), text


# stages or summands whose arities disagree; the typing pass rejects each
ILL_TYPED = ("mu . mu", "lambda . lambda", "tau . mu", "(mu (x) id) . lambda",
             "Delta . mu + (Delta (x) id)")


@pytest.mark.parametrize("text", ILL_TYPED)
def test_ill_typed_expressions_have_no_shape(sphere, text):
    from gradedbv.core import ArityMismatch
    for read in (source_arity, target_arity, g.infer_degree):
        with pytest.raises(ArityMismatch):
            read(parse(text), sphere.context())


@pytest.mark.parametrize("text", ILL_TYPED)
def test_ill_typed_expressions_are_usage_errors(capsys, text):
    from gradedbv.cli import main
    assert main(["eval", "sphere:3", "--expr", text, "--input", "U"]) == 64
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _subnodes(node):
    yield node
    if isinstance(node, (Scal, Dual)):
        yield from _subnodes(node.child)
    for child in getattr(node, "children", ()) + getattr(node, "terms", ()):
        yield from _subnodes(child)


def test_each_node_is_typed_once_per_context(monkeypatch):
    from collections import Counter
    from gradedbv import expr
    from gradedbv.checks import compile_relation
    runs, rule = Counter(), expr._type

    def counted(node, ctx):
        runs[node] += 1
        return rule(node, ctx)

    monkeypatch.setattr(expr, "_type", counted)
    inst = g.sphere_frobenius_model(3)
    ctx = inst.context()
    specs = [builtin_relation(rid) for rid in _CATALOG_SOURCE]
    exprs = [e for spec in specs for group in spec.groups for _, e in group]
    for e in exprs:
        source_arity(e, ctx)
        g.infer_degree(e, ctx)
    # compiling reads the types, it does not type again
    for spec in specs:
        compile_relation(spec, ctx, (inst.space,) * spec.arity)
    assert {n for e in exprs for n in _subnodes(e)} <= set(runs)
    assert set(runs.values()) == {1}


@pytest.mark.parametrize("text,slots", [
    ("mu", 1), ("id", 2), ("tau", 1), ("Delta . mu", 1), ("Delta (x) id", 3),
    ("2*mu", 1), ("mu + mu . tau", 3), ("dual(mu)", 2)])
def test_a_wrong_slot_count_is_an_arity_mismatch(sphere, text, slots):
    # the count is checked against the typed source arity, before any space
    from gradedbv.core import ArityMismatch
    with pytest.raises(ArityMismatch, match="consumes %d slots, given %d"
                       % (source_arity(parse(text), sphere.context()), slots)):
        g.compile_expr(parse(text), sphere.context(), (sphere.space,) * slots)


_NODE_TEXTS = ("mu . (id (x) mu) - 2*lambda . tau",
               "dual(mu) . (Delta (x) id) + mu",
               "-(1/2*(lambda . eta) (x) ((id (x) mu) . sigma))")


@pytest.mark.parametrize("text", _NODE_TEXTS)
def test_a_node_is_immutable(text):
    node = parse(text)
    name = node._fields[0]
    with pytest.raises(AttributeError):
        setattr(node, name, getattr(node, name))
    with pytest.raises(AttributeError):
        delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert parse(text) is node


@pytest.mark.parametrize("text", _NODE_TEXTS)
def test_copies_and_pickles_are_the_interned_node(text):
    import copy
    import pickle
    node = parse(text)
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(node, protocol)) is node


@pytest.mark.parametrize("first,second", [(2, Fraction(2)), (Fraction(2), 2)])
def test_a_scalar_stores_a_fraction_whichever_built_it_first(first, second):
    from gradedbv.expr import Gen
    # a generator no other test builds, so this Scal is new here
    child = Gen("scal_probe_%s" % type(first).__name__)
    node = Scal(first, child)
    assert Scal(second, child) is node
    assert type(node.coeff) is Fraction and node.coeff == 2
    assert print_expr(node) == "2*%s" % child.name
    assert parse(print_expr(node)) is node
    assert print_expr(Scal(Fraction(-1, 2), child)) == "-1/2*%s" % child.name


@pytest.mark.parametrize("rid,pre,post", [
    ("NineTerm", "M (x) M", "E (x) E"),
    ("SevenTermMu", "M (x) M (x) M", "E")])
def test_transported_terms_are_the_parse_of_their_text(rid, pre, post):
    from gradedbv.gysin import _transported
    groups = _transported(rid, parse(pre), parse(post))
    terms = [term for group in groups for _, term in group]
    assert len(terms) == term_count(builtin_relation(rid))
    for term in terms:
        assert isinstance(term, Compose)
        assert parse(print_expr(term)) is term


def test_compiling_the_catalog_compares_no_nodes(monkeypatch):
    # every lookup in OpContext.plans and OpContext.shapes is an identity
    # hit: no node's __eq__ runs while the whole catalog compiles
    from gradedbv import expr
    calls = []
    for cls in (expr.Gen, Compose, Tensor, Scal, Sum, Dual):
        def counted(self, other, original=cls.__eq__):
            calls.append(type(self).__name__)
            return original(self, other)
        monkeypatch.setattr(cls, "__eq__", counted)
    inst = g.sphere_frobenius_model(3)
    ctx = inst.context()
    terms = 0
    for rid in _CATALOG_SOURCE:
        spec = builtin_relation(rid)
        for group in spec.groups:
            for _, term in group:
                g.compile_expr(term, ctx, (inst.space,) * spec.arity)
                terms += 1
    assert terms > 100 and len(ctx.plans) > 100
    assert calls == []


def _catalog_contexts():
    """A sphere:3 context and the three-dim double's, each with every
    catalog term it can type compiled in it, and the context the
    double's components are compiled in."""
    from gradedbv.double import build_double_data
    data = build_double_data(g.builtin_model("three-dim"))
    contexts = [data.context]
    for inst in (g.sphere_model(3), data.instance):
        ctx = inst.context()
        for rid in _CATALOG_SOURCE:
            spec = builtin_relation(rid)
            if "epsilon" in spec.requires and not inst.has_counit:
                continue
            for group in spec.groups:
                for _, term in group:
                    g.compile_expr(term, ctx, (inst.space,) * spec.arity)
        contexts.append(ctx)
    return contexts


def test_only_compositions_and_tensors_stream():
    # a composition or tensor product replaces run with its compiled
    # loop; a generator, permutation, dual, scalar multiple or sum keeps
    # GradedMap.run, which reads the per-key cache
    kinds = set()
    for ctx in _catalog_contexts():
        for (node, _), gmap in ctx.plans.items():
            streams = isinstance(node, (Compose, Tensor))
            assert ("run" in vars(gmap)) == streams, print_expr(node)
            perm = isinstance(node, Gen) and node.name in PERMS
            kinds.add("perm" if perm else type(node).__name__)
    assert kinds == {"Gen", "perm", "Dual", "Scal", "Sum", "Compose", "Tensor"}


def test_id_is_the_one_slot_permutation(sphere):
    from gradedbv.core import permute
    ctx, spaces = sphere.context(), (sphere.space,)
    gmap = g.compile_expr(parse("id"), ctx, spaces)
    oracle = permute((0,), spaces, sphere.field)
    keys = [(name,) for name in sphere.space.window_names(4)]
    for key in keys:
        assert gmap.run({key: 1}) == oracle.on_key(key).coeffs == {key: 1}
    assert sorted(gmap._cache) == sorted(keys)


def test_a_scalar_multiple_caches_its_outputs(sphere):
    gmap = g.compile_expr(parse("2*mu"), sphere.context(),
                          (sphere.space,) * 2)
    key = ("A", "U")
    assert not gmap._cache
    assert gmap.run({key: 1}) == {("AU",): 2}
    assert gmap._cache[key].coeffs == {("AU",): 2}
