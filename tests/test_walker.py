"""One walk per arity: check_structure against one check per relation."""

import itertools

import pytest

import gradedbv as g
from gradedbv import checks
from gradedbv.checks import (Window, check_relations, relation_residual,
                             sign_mutations)
from gradedbv.core import EngineError, FiniteSpace, GradedMap, basis_element
from gradedbv.double import build_double
from gradedbv.models import MUTATIONS
from gradedbv.structures import builtin_relation, is_applicable, relation_ids


def _cases(field):
    """(instance, windows) for every built-in model, the doubles of the
    finite ones whose copairing vanishes, and the sphere mutations."""
    sphere_windows = [Window(2), Window(3)]
    out = [(g.sphere_model(3, field), sphere_windows),
           (g.sphere_model(5, field), sphere_windows),
           (g.builtin_model("sphere-frob:3", field), sphere_windows)]
    for name in ("trivial", "exterior", "three-dim"):
        inst = g.builtin_model(name, field)
        out += [(inst, [Window()]), (build_double(inst), [Window()])]
    for mutation in sorted(MUTATIONS):
        out.append((g.mutate(g.sphere_model(3, field), mutation), sphere_windows))
    return out


def _summary(report):
    return (report.relation, report.description, report.instance,
            report.window, report.tuples_checked, report.status,
            report.skip_reason,
            [(key, gi, list(res.coeffs.items()))
             for key, gi, res in report.witnesses])


def _one_by_one(inst, suite, window):
    reports = []
    for rid in suite:
        spec = builtin_relation(rid)
        ok, reason = is_applicable(spec, inst)
        reports.append(relation_residual(
            spec, inst.context(), inst.space, window, instance_name=inst.name,
            applicable=ok, skip_reason=reason))
    return reports


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_check_structure_equals_one_check_per_relation(field):
    suite = relation_ids()
    statuses = set()
    for inst, windows in _cases(g.field_by_name(field)):
        for window in windows:
            walked = g.check_structure(inst, suite, window)
            alone = _one_by_one(inst, suite, window)
            assert list(map(_summary, walked)) == list(map(_summary, alone)), \
                (inst.name, window)
            statuses.update(r.status for r in walked)
    assert statuses == {"pass", "fail", "skipped"}


def test_sign_mutations_walked_together_equal_each_alone():
    # many failing relations in each arity group, sharing their heads
    inst = g.sphere_model(3)
    ctx, window = inst.context(), Window(2)
    specs = [variant for rid in relation_ids()
             for spec in [builtin_relation(rid)] if is_applicable(spec, inst)[0]
             for variant in [spec] + sign_mutations(spec)]
    walked = check_relations(specs, ctx, inst.space, window)
    alone = [relation_residual(spec, ctx, inst.space, window) for spec in specs]
    assert list(map(_summary, walked)) == list(map(_summary, alone))
    assert sum(r.status == "fail" for r in walked) > 50


def _raising_context(bad_f=("a1", "a0"), bad_g=("a3", "a0"), bad_h=("a2",)):
    """Relations of one context raising at different tuples: by default
    F on (a1, a0), G on (a3, a0), H (one slot) on a2.  Twisted fails on
    every tuple, and raises where g does."""
    space = FiniteSpace("V", {"a%d" % i: 0 for i in range(5)})
    field = g.QQ

    def rule(name, bad, arity):
        def on_key(key):
            if key == bad:
                raise EngineError("%s fails on %s" % (name, key))
            return basis_element((space,), field, key[:1])
        return GradedMap((space,) * arity, (space,), 0, field, name=name,
                         rule=on_key)

    maps = {"f": rule("f", bad_f, 2), "g": rule("g", bad_g, 2),
            "h": rule("h", bad_h, 1)}
    specs = {
        "F": checks.make_relation("F", 2, "f . tau - f . tau",
                                  [[(1, "f . tau"), (-1, "f . tau")]]),
        "G": checks.make_relation("G", 2, "g - g", [[(1, "g"), (-1, "g")]]),
        "H": checks.make_relation("H", 1, "h - h", [[(1, "h"), (-1, "h")]]),
        "Mixed": checks.make_relation("Mixed", 2, "f against id (x) id",
                                      [[(1, "f"), (-1, "id (x) id")]]),
        "Holds": checks.make_relation("Holds", 2, "tau - tau",
                                      [[(1, "tau"), (-1, "tau")]]),
        "Twisted": checks.make_relation("Twisted", 2, "f . tau + f + g",
                                        [[(1, "f . tau"), (1, "f"), (1, "g")]]),
    }
    return space, g.OpContext(maps, field), specs


def _sequential_error(specs, ctx, space):
    with pytest.raises(Exception) as err:
        for spec in specs:
            relation_residual(spec, ctx, space, Window())
    return err.value


@pytest.mark.parametrize("order,message", [
    (("G", "F"), "g fails on"),       # G's tuple comes after F's
    (("F", "G"), "f fails on"),
    (("Holds", "G", "H"), "g fails on"),   # H's group is another arity
    (("H", "G"), "h fails on"),
    (("G", "Mixed"), "g fails on"),   # Mixed fails to type
    (("Mixed", "F"), "different targets"),
])
def test_the_first_relation_in_suite_order_that_raises_is_raised(order, message):
    space, ctx, specs = _raising_context()
    suite = [specs[rid] for rid in order]
    with pytest.raises(EngineError, match=message) as err:
        check_relations(suite, ctx, space, Window())
    expected = _sequential_error(suite, ctx, space)
    assert (type(err.value), str(err.value)) == (type(expected), str(expected))


def test_an_applicability_error_is_deferred_in_suite_order():
    space, ctx, specs = _raising_context()

    def applicability(spec):
        if spec.rid == "Holds":
            raise EngineError("no verdict on Holds")
        return True, ""

    for order, message in ((("G", "Holds"), "g fails on"),
                           (("Holds", "G"), "no verdict on Holds")):
        with pytest.raises(EngineError, match=message):
            check_relations([specs[rid] for rid in order], ctx, space,
                            Window(), applicability=applicability)


@pytest.mark.parametrize("bad,raises", [
    (("a3", "a1"), False),   # in an orbit the walk reaches, above the cut
    (("a1", "a3"), True),    # below the tenth failure
])
def test_an_error_above_a_relations_cut_is_not_raised(bad, raises):
    # Holds keeps the walk going after Twisted has ten failures
    space, ctx, specs = _raising_context(bad_f=None, bad_g=bad)
    suite = [specs["Twisted"], specs["Holds"]]
    if raises:
        with pytest.raises(EngineError, match="g fails on"):
            check_relations(suite, ctx, space, Window())
        return
    twisted, holds = check_relations(suite, ctx, space, Window())
    names = sorted(space.basis_names())
    assert [key for key, _, _ in twisted.witnesses] == \
        list(itertools.product(names, repeat=2))[:checks.MAX_WITNESSES]
    assert holds.status == "pass"


def _cached_keys(ctx):
    maps = list(ctx.maps.values()) + [plan.apply for plan in ctx.plans.values()
                                      if isinstance(plan.apply, GradedMap)]
    return {(m.name, len(m.source)): set(m._cache) for m in maps}


@pytest.mark.parametrize("model,window", [
    ("sphere:3", Window(3, 2)),
    ("three-dim", Window()),
])
def test_walking_adds_no_plan_and_no_cached_output(model, window):
    walked, alone = g.builtin_model(model), g.builtin_model(model)
    suite = relation_ids()
    reports = g.check_structure(walked, suite, window)
    assert list(map(_summary, reports)) == \
        list(map(_summary, _one_by_one(alone, suite, window)))
    assert {"pass", "fail"} <= {r.status for r in reports}
    assert ({(node, len(s)) for node, s in walked.context().plans}
            == {(node, len(s)) for node, s in alone.context().plans})
    assert _cached_keys(walked.context()) == _cached_keys(alone.context())
