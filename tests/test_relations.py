"""Relation catalog, suite checkers, derived bracket and cobracket."""

import json
from collections import Counter

import pytest

import gradedbv as g
from gradedbv import checks
from gradedbv.checks import Window, relation_residual, residual_on_key
from gradedbv.core import (ArityMismatch, FiniteSpace, GradedMap, basis_element,
                           source_basis_keys, table_map)
from gradedbv.expr import (Compose, Gen, Sum, Tensor, compile_expr,
                           normal_form, parse, print_expr)
from gradedbv.reportio import report_document
from gradedbv.structures import (BETA, GAMMA, BVUIInstance, builtin_relation,
                                 check_consequences, is_applicable)

from helpers import term_count


@pytest.fixture(scope="module")
def sphere():
    return g.sphere_model(3)


def _elem(inst, text, arity=None):
    from helpers import literal_slots
    arity = literal_slots(text) if arity is None else arity
    return g.parse_element(text, (inst.space,) * arity, inst.field)


# -- catalog shape ----------------------------------------------------------

@pytest.mark.parametrize("rid,count", [
    ("UnitalInfinitesimal", 4),
    ("SevenTermMu", 7),
    ("SevenTermLambda", 7),
    ("ElevenTerm", 11),
    ("NineTerm", 9),
    ("MixedLemma", 9),
    ("Jacobi", 3),
    ("CoJacobi", 3),
    ("Poisson", 3),
    ("CoPoisson", 3),
])
def test_catalog_term_counts(rid, count):
    assert term_count(builtin_relation(rid)) == count


def test_nine_term_is_eleven_minus_the_copairing_terms():
    eleven = builtin_relation("ElevenTerm").groups[0]
    nine = builtin_relation("NineTerm").groups[0]
    assert eleven[:9] == nine
    from gradedbv.expr import print_expr
    for _, expr in eleven[9:]:
        assert "lambda . eta" in print_expr(expr)


def test_unknown_relation_id():
    with pytest.raises(g.EngineError):
        builtin_relation("FourteenTerm")


# -- suite checks -----------------------------------------------------------

def test_sphere_passes_bvui_full(sphere):
    reports = g.check_structure(sphere, g.BVUI_FULL, Window(3, 3))
    assert all(r.status == "pass" for r in reports)
    assert [r.relation for r in reports] == list(g.BVUI_FULL)


def test_trivial_instance_passes_everything():
    triv = g.builtin_model("trivial")
    reports = g.check_structure(triv, g.BVUI_FULL + g.CONSEQUENCES, Window())
    assert all(r.status == "pass" for r in reports)


def test_flipped_lambda_sign_fails_cocommutativity(sphere):
    mutated = g.mutate(sphere, "lambda-u-flip")
    reports = g.check_structure(mutated, ("Cocomm",), Window(3))
    assert reports[0].status == "fail"
    key, group, residual = reports[0].witnesses[0]
    # tau lambda(U) = +lambda(U) after the flip, so the residual is
    # 2(A (x) 1 + 1 (x) A) at the first failing input U^1
    assert key == ("U",)
    assert residual == _elem(mutated, "2*A(x)1 + 2*1(x)A")


def test_consequences_pass_on_sphere(sphere):
    reports = check_consequences(sphere, Window(3, 2))
    assert all(r.status == "pass" for r in reports)
    assert [r.relation for r in reports] == list(g.CONSEQUENCES)


# -- derived bracket / cobracket -------------------------------------------

def test_bracket_kills_the_unit(sphere):
    beta = g.derived_bracket(sphere)
    assert beta.degree == 1
    for name in sphere.space.window_names(4):
        assert beta.on_key(("1", name)).is_zero()


def test_bracket_closed_form_on_mixed_inputs(sphere):
    # oracle: beta(AU^r (x) U^s) = (r+s) U^{r+s-1} - r U^{r+s-1} = s U^{r+s-1}
    beta = g.derived_bracket(sphere)
    for r in range(5):
        for s in range(5):
            au = "A" if r == 0 else ("AU" if r == 1 else "AU^%d" % r)
            u = "1" if s == 0 else ("U" if s == 1 else "U^%d" % s)
            got = beta.on_key((au, u))
            if s == 0:
                assert got.is_zero()
            else:
                k = r + s - 1
                expected = basis_element(
                    (sphere.space,), sphere.field,
                    ("1" if k == 0 else ("U" if k == 1 else "U^%d" % k),), s)
                assert got == expected
    assert beta.on_key(("AU^2", "U")) == _elem(sphere, "U^2", arity=1)


def test_bracket_vanishes_on_powers(sphere):
    beta = g.derived_bracket(sphere)
    for r in range(4):
        for s in range(4):
            u1 = "1" if r == 0 else ("U" if r == 1 else "U^%d" % r)
            u2 = "1" if s == 0 else ("U" if s == 1 else "U^%d" % s)
            assert beta.on_key((u1, u2)).is_zero()


def test_cobracket_values(sphere):
    gamma = g.derived_cobracket(sphere)
    assert gamma.degree == sphere.lam_degree + 1
    assert gamma(sphere.eta).is_zero()
    assert gamma.on_key(("U^3",)) == _elem(sphere, "U(x)1 - 1(x)U")


def test_cobracket_matches_parsed_expression(sphere):
    gamma = g.derived_cobracket(sphere)
    text = ("(Delta (x) id) . lambda + (id (x) Delta) . lambda"
            " + lambda . Delta")
    expr = parse(text)
    ctx = sphere.context()
    for name in sphere.space.window_names(4):
        x = basis_element((sphere.space,), sphere.field, (name,))
        assert gamma(x) == g.evaluate(expr, ctx, x)


def test_bracket_symmetry_and_cobracket_antisymmetry(sphere):
    beta = g.derived_bracket(sphere)
    gamma = g.derived_cobracket(sphere)
    sp, field = sphere.space, sphere.field
    tau = g.permute((1, 0), (sp, sp), field)
    names = sp.window_names(3)
    for a in names:
        for b in names:
            x = basis_element((sp, sp), field, (a, b))
            assert beta(tau(x)) == beta(x)
    for a in names:
        x = basis_element((sp,), field, (a,))
        assert tau(gamma(x)) == gamma(x).scale(-1)


# -- nine-term reduction ----------------------------------------------------

def test_eleven_and_nine_term_residuals_agree_tuple_by_tuple(sphere):
    eleven = builtin_relation("ElevenTerm")
    nine = builtin_relation("NineTerm")
    ctx = sphere.context()
    spaces = (sphere.space, sphere.space)
    for a in sphere.space.window_names(3):
        for b in sphere.space.window_names(3):
            r11 = residual_on_key(eleven, ctx, spaces, (a, b))
            r9 = residual_on_key(nine, ctx, spaces, (a, b))
            assert r11 == r9  # both None on the sphere


def test_residual_agreement_survives_a_broken_operator(sphere):
    # the copairing still vanishes after the mutation, so the dropped
    # terms are identically zero and the two residuals stay equal even
    # though both are now nonzero somewhere
    broken = g.mutate(sphere, "delta-au-doubled")
    eleven = builtin_relation("ElevenTerm")
    nine = builtin_relation("NineTerm")
    ctx = broken.context()
    spaces = (broken.space, broken.space)
    nonzero = 0
    for a in broken.space.window_names(3):
        for b in broken.space.window_names(3):
            r11 = residual_on_key(eleven, ctx, spaces, (a, b))
            r9 = residual_on_key(nine, ctx, spaces, (a, b))
            assert r11 == r9
            nonzero += r9 is not None
    assert nonzero > 0


def test_optional_counit_contraction_of_the_eleven_term():
    spec = builtin_relation("EpsilonElevenTerm")
    assert term_count(spec) == 4
    frob = g.sphere_frobenius_model(3)
    reports = g.check_structure(frob, ("EpsilonElevenTerm",), Window())
    assert reports[0].status == "pass"
    sphere = g.sphere_model(3)
    reports = g.check_structure(sphere, ("EpsilonElevenTerm",), Window(2))
    assert reports[0].status == "skipped"


def test_consequences_pass_on_finite_models():
    for inst in g.finite_bvui_examples() + [g.sphere_frobenius_model(3)]:
        reports = check_consequences(inst, Window())
        assert all(r.status == "pass" for r in reports), inst.name


def test_nine_term_skipped_when_reduction_hypothesis_fails():
    # an ad-hoc instance with (1 (x) Delta) lambda eta != 0
    field = g.QQ
    space = FiniteSpace("probe", {"1": 0, "z": -1})
    spaces1, spaces2 = (space,), (space, space)
    mu = table_map(spaces2, spaces1, 0, field, [
        (("1", "1"), ("1",), 1), (("1", "z"), ("z",), 1),
        (("z", "1"), ("z",), 1)], "mu")
    lam = table_map(spaces1, spaces2, -1, field, [
        (("1",), ("z", "1"), 1), (("1",), ("1", "z"), -1)], "lambda")
    delta = table_map(spaces1, spaces1, 1, field, [(("z",), ("1",), 1)],
                      "Delta")
    inst = BVUIInstance("probe", space, field, mu,
                        basis_element(spaces1, field, ("1",)), lam, delta, -1)
    ok, reason = is_applicable(builtin_relation("NineTerm"), inst)
    assert not ok and "reduction hypothesis" in reason
    reports = g.check_structure(inst, ("NineTerm",), Window())
    assert reports[0].status == "skipped"


def test_epsilon_relations_skipped_without_counit(sphere):
    reports = g.check_structure(sphere, ("Counit", "EpsilonDelta"), Window(2))
    assert all(r.status == "skipped" for r in reports)
    assert all("counit" in r.skip_reason for r in reports)


def test_operator_squares_to_zero_on_wide_window(sphere):
    report = relation_residual(builtin_relation("DeltaSquared"),
                               sphere.context(), sphere.space, Window(6))
    assert report.status == "pass"
    assert report.tuples_checked == 14


def test_empty_window_is_skipped_not_pass(sphere):
    spec = builtin_relation("Cocomm")
    report = relation_residual(spec, sphere.context(), sphere.space,
                               Window(-1))
    assert report.status == "skipped"
    assert "empty" in report.skip_reason


# -- determinism ------------------------------------------------------------

def test_true_identities_survive_characteristic_two():
    from gradedbv.core import PrimeField
    inst = g.sphere_model(3, PrimeField(2))
    reports = g.check_structure(inst, g.BVUI_FULL, Window(2, 2))
    assert all(r.status == "pass" for r in reports)


def test_reports_are_identical_across_runs():
    suite = g.BVUI_FULL + ("NineTerm",)
    window = Window(3, 2)
    docs = []
    for _ in range(2):
        mutated = g.mutate(g.sphere_model(3), "delta-au-doubled")
        reports = g.check_structure(mutated, suite, window)
        docs.append(json.dumps(report_document("check", mutated.name,
                                               mutated.field, window, reports),
                               sort_keys=True))
    assert docs[0] == docs[1]
    assert any(r["status"] == "fail" for r in json.loads(docs[0])["reports"])


def test_group_terms_with_different_targets_are_rejected(sphere):
    spec = checks.make_relation("MixedTargets", 1, "lambda against id", [[
        (1, "lambda"),
        (-1, "id"),
    ]])
    with pytest.raises(g.core.ArityMismatch):
        checks.compile_relation(spec, sphere.context(), (sphere.space,))
    with pytest.raises(g.core.ArityMismatch):
        relation_residual(spec, sphere.context(), sphere.space, Window(2))


@pytest.mark.parametrize("k", [2, 4])
def test_relation_terms_are_compiled_once(sphere, monkeypatch, k):
    calls = []

    def counting(node, ctx, in_spaces):
        calls.append(node)
        return compile_expr(node, ctx, in_spaces)

    def compiled(term, ctx):
        # a composition's input permutation P, its head X without an
        # output permutation O, then O
        if not isinstance(term, Compose):
            return [term]
        _, head, perm = normal_form(term, ctx)
        head, out = checks._split_output(head)
        return [node for node in (perm, head, out) if node is not None]

    monkeypatch.setattr(checks, "compile_expr", counting)
    for rid in ("Jacobi", "ElevenTerm", "Unit", "SevenTermLambda", "Cocomm"):
        spec = builtin_relation(rid)
        calls.clear()
        ctx = sphere.context()
        report = relation_residual(spec, ctx, sphere.space, Window(k))
        assert report.tuples_checked == (2 * k + 2) ** spec.arity
        assert calls == [e for group in spec.groups for _, term in group
                         for e in compiled(term, ctx)]


# -- compiled plans shared per context ------------------------------------

@pytest.mark.parametrize("text,arity,rids", [
    (BETA, 2, ("Jacobi", "Poisson", "MixedLemma")),
    (GAMMA, 1, ("CoJacobi", "CoPoisson", "MixedLemma")),
])
def test_bracket_is_one_memoized_map_per_context(text, arity, rids):
    inst = g.sphere_model(3)
    ctx, sp = inst.context(), inst.space
    node = parse(text)
    shared = compile_expr(node, ctx, (sp,) * arity)
    assert isinstance(shared, GradedMap)
    assert shared.name == print_expr(node)

    rule, computed, alone = shared.rule, Counter(), set()

    def counting_rule(key):
        computed[key] += 1
        return rule(key)

    shared.rule = counting_rule
    for rid in rids:
        spec = builtin_relation(rid)
        checks.compile_relation(spec, ctx, (sp,) * spec.arity)
        assert compile_expr(node, ctx, (sp,) * arity) is shared
        report = relation_residual(spec, ctx, sp, Window(2))
        assert report.status == "pass", rid
        # checked in a context of its own, the relation reads the bracket
        own = g.sphere_model(3)
        relation_residual(spec, own.context(), own.space, Window(2))
        keys = set(compile_expr(node, own.context(),
                                (own.space,) * arity)._cache)
        assert keys, rid
        alone |= keys
    assert computed and set(computed.values()) == {1}
    # every key computed is cached once and only once, and the shared
    # map holds the keys of all three relations
    assert set(shared._cache) == set(computed) == alone


def test_plans_are_keyed_on_space_identity():
    field = g.QQ
    a = FiniteSpace("V", {"x": 1, "y": 0})
    b = FiniteSpace("V", {"x": 1, "y": 0})
    ctx = g.OpContext({}, field)
    for text in ("tau", "id (x) id - tau"):
        node = parse(text)
        on_a = compile_expr(node, ctx, (a, a))
        assert compile_expr(node, ctx, [a, a]) is on_a
        on_b = compile_expr(node, ctx, (b, b))
        assert on_b is not on_a
        assert on_b.source == (b, b) and on_a.source == (a, a)
        x = basis_element((a, a), field, ("x", "x"))
        assert on_a(x).coeffs == {("x", "x"): -1 if text == "tau" else 2}
        assert on_a._cache and not on_b._cache


def test_failing_summand_raises_on_every_application():
    field = g.QQ
    space = FiniteSpace("V", {"x": 0, "y": 0})
    calls = []

    def rule(key):
        calls.append(key)
        if key == ("y",):
            raise g.core.EngineError("no value on y")
        return basis_element((space,), field, key)

    f = GradedMap((space,), (space,), 0, field, name="f", rule=rule)
    ctx = g.OpContext({"f": f}, field)
    plan = compile_expr(parse("f - 2*id"), ctx, (space,))
    assert isinstance(plan, GradedMap)
    x = basis_element((space,), field, ("x",))
    y = basis_element((space,), field, ("y",))
    assert plan(x).coeffs == {("x",): -1}
    for _ in range(3):
        with pytest.raises(g.core.EngineError, match="no value on y"):
            plan(y)
        with pytest.raises(g.core.EngineError, match="no value on y"):
            plan(x + y)
    assert calls.count(("y",)) == 6 and calls.count(("x",)) == 1
    assert set(plan._cache) == {("x",)}


def test_only_generators_sums_and_tensor_factors_memoize_after_a_full_check(
        monkeypatch):
    # every compiled expression is a GradedMap, but a composite's run does
    # not use its cache: only its on_key, which a tensor reads, fills it
    from gradedbv import cli
    builtin_model, built = cli.builtin_model, []

    def capture(name, field):
        built.append(builtin_model(name, field))
        return built[-1]

    monkeypatch.setattr(cli, "builtin_model", capture)
    assert cli.main(["check", "sphere:3", "--suite", "all",
                     "--window", "2"]) == 0
    plans = built[0].context().plans
    assert all(isinstance(gmap, GradedMap) for gmap in plans.values())
    factors = {child for node, _ in plans if isinstance(node, Tensor)
               for child in node.children}
    memoized = [node for (node, _), gmap in plans.items() if gmap._cache]
    assert any(isinstance(node, Sum) for node in memoized)
    assert any(not isinstance(node, (Gen, Sum)) for node in memoized)
    assert all(isinstance(node, (Gen, Sum)) or node in factors
               for node in memoized), \
        sorted({print_expr(n) for n in memoized
                if not isinstance(n, (Gen, Sum)) and n not in factors})


def test_tuples_checked_counts_the_whole_window_after_early_stop(sphere):
    spec = checks.make_relation("AlwaysFails", 3, "twice the identity",
                                [[(2, "id (x) id (x) id")]])
    report = relation_residual(spec, sphere.context(), sphere.space, Window(2))
    assert report.status == "fail"
    assert len(report.witnesses) == checks.MAX_WITNESSES
    assert report.tuples_checked == 6 ** 3


@pytest.mark.parametrize("argv", [
    ["--window", "1001"],
    ["--window3", "99999999999"],
])
def test_huge_window_is_a_usage_error(monkeypatch, capsys, argv):
    from gradedbv import cli, structures

    def no_relation(*args, **kwargs):
        raise AssertionError("a relation ran")

    monkeypatch.setattr(structures, "check_relations", no_relation)
    monkeypatch.setattr(checks, "check_relations", no_relation)
    with pytest.raises(SystemExit) as err:
        cli.main(["check", "sphere:3", "--suite", "bvui"] + argv)
    assert err.value.code == 64
    assert "from 0 to %d" % g.models.MAX_INPUT_U_POWER in capsys.readouterr().err
    # the patched walker is the one a valid check runs
    with pytest.raises(AssertionError, match="a relation ran"):
        cli.main(["check", "sphere:3", "--suite", "bvui", "--window", "2"])


# -- plans exchange coefficient dicts ----------------------------------------

@pytest.mark.parametrize("build", [
    lambda: g.sphere_model(3),
    lambda: g.build_double(g.builtin_model("three-dim")),
], ids=["sphere:3", "D(three-dim)"])
def test_a_checked_instance_is_freed_without_the_cyclic_collector(build):
    # no reference cycle runs through an instance's context: once the
    # instance is dropped, its context, maps and caches go with it
    import gc
    import weakref
    from gradedbv.structures import relation_ids
    gc.disable()
    try:
        inst = build()
        reports = g.check_structure(inst, relation_ids(), Window(2))
        context = weakref.ref(inst.context())
        del inst
        assert context() is None
    finally:
        gc.enable()
    assert "pass" in {report.status for report in reports}


@pytest.mark.parametrize("text,arity,derived", [
    (BETA, 2, g.derived_bracket),
    (GAMMA, 1, g.derived_cobracket),
])
def test_derived_maps_are_the_contexts_sum_map(text, arity, derived):
    inst = g.sphere_model(3)
    sp = inst.space
    gmap = derived(inst)
    assert gmap is compile_expr(parse(text), inst.context(), (sp,) * arity)
    keys = [("U", "AU^2", "AU", "U")[i:i + arity] for i in range(3)]
    for key in keys:
        gmap.on_key(key)
    assert set(gmap._cache) == set(keys)


def _fresh_output(gmap, key, tables):
    if id(gmap) in tables:
        return tables[id(gmap)][1].get(key, {})
    return gmap.rule(key).coeffs


def test_shared_output_dicts_stay_intact(monkeypatch):
    # run may hand out a cached output's own dict: no caller may mutate it
    from gradedbv import cli
    builtin_model, build_double = cli.builtin_model, cli.build_double
    built = []

    def capture(inst):
        # a map on finite slots is read as built, key by key, from its
        # rule; the map is kept with its reading, so its id stays its own
        tables = {id(m): (m, {k: dict(m.rule(k).coeffs)
                              for k in source_basis_keys(m.source)})
                  for m in inst.generator_maps().values()
                  if all(s.is_finite() for s in m.source)}
        built.append((inst, tables, dict(inst.eta.coeffs)))
        return inst

    monkeypatch.setattr(cli, "builtin_model",
                        lambda *args: capture(builtin_model(*args)))
    monkeypatch.setattr(cli, "build_double",
                        lambda inst: capture(build_double(inst)))
    for field in ("Q", "Fp:101"):
        assert cli.main(["check", "sphere:3", "--suite", "all",
                         "--window", "2", "--field", field]) == 0
    assert cli.main(["double", "three-dim"]) == 0
    assert [inst.name for inst, _, _ in built] == [
        "sphere:3", "sphere:3", "three-dim", "D(three-dim)"]
    checked = Counter()
    for inst, tables, eta in built:
        ctx = inst.context()
        maps = {id(m): m for m in ctx.maps.values()}
        maps.update((id(m), m) for m in ctx.plans.values())
        for gmap in maps.values():
            for key, out in gmap._cache.items():
                assert out.coeffs == _fresh_output(gmap, key, tables), \
                    (inst.name, gmap.name, key)
                checked[inst.name, id(gmap) in tables] += 1
        assert inst.eta.coeffs == eta
    sums = [m for m in built[0][0].context().plans.values()
            if m.name in (print_expr(parse(BETA)), print_expr(parse(GAMMA)))]
    assert len(sums) == 2 and all(m._cache for m in sums)
    assert checked["sphere:3", False] and checked["D(three-dim)", True]


@pytest.mark.parametrize("text,arity", [
    ("mu", 2), ("id", 1), ("tau", 2), ("2*mu", 2), ("-id", 1),
    ("Delta (x) id", 2), ("mu . (Delta (x) id)", 2),
    ("(lambda (x) id) . lambda", 1), (BETA, 2), (GAMMA, 1),
])
def test_plan_run_leaves_its_input_intact(sphere, text, arity):
    plan = compile_expr(parse(text), sphere.context(), (sphere.space,) * arity)
    names = ("U", "AU", "AU^2")
    for coeffs in ({names[:arity]: 1}, {names[:arity]: 3, names[1:1 + arity]: -1}):
        before = dict(coeffs)
        out = plan.run(coeffs)
        assert coeffs == before
        x = g.Element(plan.source, sphere.field, coeffs)
        assert out == plan(x).coeffs
        assert plan.run(coeffs) == out and coeffs == before


def test_residual_on_key_checks_the_key_arity(sphere):
    ctx, sp = sphere.context(), sphere.space
    bare = checks.make_relation("BareId", 1, "id - id", [[(1, "id"), (-1, "id")]])
    for spec in (builtin_relation("Unit"), bare):
        assert residual_on_key(spec, ctx, (sp,), ("U",)) is None
        for key in (("U", "U"), ()):
            with pytest.raises(ArityMismatch):
                residual_on_key(spec, ctx, (sp,), key)


@pytest.mark.parametrize("text", [
    "mu", "mu . (Delta (x) id)", "Delta (x) id", "2*mu", "-(id (x) id)"])
def test_plans_check_the_spaces_of_their_input(sphere, text):
    # every compiled expression is a GradedMap, whose __call__ is the one
    # boundary.  Same-arity elements of other spaces reach no kernel or
    # on_key check, so the boundary is what rejects them.
    plan = compile_expr(parse(text), sphere.context(), (sphere.space,) * 2)
    other = g.sphere_model(5)
    for spaces in ((other.space,) * 2, (sphere.space,)):
        x = g.Element(spaces, sphere.field, {("U", "AU")[:len(spaces)]: 1})
        with pytest.raises(ArityMismatch):
            plan(x)
