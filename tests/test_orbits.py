"""Orbit-wise relation checking against the tuple-by-tuple reference."""

import itertools

import pytest

import gradedbv as g
from gradedbv import checks
from gradedbv.checks import (MAX_WITNESSES, Window, compile_relation,
                             relation_residual, residual_on_key, sign_mutations)
from gradedbv.core import EngineError, FiniteSpace, GradedMap, accumulate, basis_element
from gradedbv.double import build_double
from gradedbv.expr import compile_expr
from gradedbv.structures import builtin_relation, is_applicable, relation_ids


def _instances(field):
    out = [g.sphere_model(3, field), g.sphere_model(5, field)]
    for name in ("trivial", "exterior", "three-dim", "sphere-frob:3"):
        inst = g.builtin_model(name, field)
        out.append(inst)
        if name != "sphere-frob:3":   # its copairing does not vanish
            out.append(build_double(inst))
    return out


def _term_by_term(spec, ctx, spaces, key):
    """A group's residual as the sum of its terms' whole plans on ``key``:
    no heads, no permutation signs, no memo."""
    field = ctx.field
    for gi, group in enumerate(spec.groups):
        acc = {}
        for coeff, expr in group:
            plan = compile_expr(expr, ctx, spaces)
            accumulate(acc, plan.run({key: field.one}).items(),
                       field.coerce(coeff), field)
        if acc:
            return gi, acc
    return None


def _reference(spec, ctx, space, window):
    """(tuples checked, witnesses) of residual_on_key on every tuple in
    canonical order, each residual also checked term by term."""
    names = window.names_for(space, spec.arity)
    spaces = (space,) * spec.arity
    relation = compile_relation(spec, ctx, spaces)
    witnesses = []
    for key in itertools.product(names, repeat=spec.arity):
        hit = residual_on_key(relation, ctx, spaces, key)
        expected = _term_by_term(spec, ctx, spaces, key)
        assert (hit and (hit[0], hit[1].coeffs)) == expected, (spec.rid, key)
        if hit is not None:
            witnesses.append((key, hit[0], list(hit[1].coeffs.items())))
            if len(witnesses) == MAX_WITNESSES:
                break
    return len(names) ** spec.arity, witnesses


def _assert_matches_reference(spec, inst, window):
    ctx = inst.context()
    report = relation_residual(spec, ctx, inst.space, window)
    tuples, witnesses = _reference(spec, ctx, inst.space, window)
    assert report.status == ("fail" if witnesses else "pass"), spec.rid
    assert report.tuples_checked == tuples
    assert [(key, gi, list(res.coeffs.items()))
            for key, gi, res in report.witnesses] == witnesses, spec.rid
    return report


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_orbits_match_the_tuple_by_tuple_reference(field):
    field = g.field_by_name(field)
    failing = 0
    for inst in _instances(field):
        windows = [Window(2), Window(3)] if not inst.is_finite() else [Window()]
        for rid in relation_ids():
            spec = builtin_relation(rid)
            if not is_applicable(spec, inst)[0]:
                continue
            for window in windows:
                for variant in [spec] + sign_mutations(spec):
                    report = _assert_matches_reference(variant, inst, window)
                    failing += report.status == "fail"
    assert failing > 100


def _orbit_of(relation, key):
    """Every member of ``key``'s orbit, least first, whichever member
    ``key`` is."""
    for least in sorted(set(itertools.permutations(key))):
        members = relation.orbit(least)
        if key in members:
            return members
    raise AssertionError(key)


def test_witnesses_spread_across_orbits_are_the_first_in_canonical_order():
    inst = g.sphere_model(3)
    ctx, spaces = inst.context(), (inst.space,) * 3
    # PermMu with its second sign flipped fails on most tuples
    spec = sign_mutations(builtin_relation("PermMu"))[1]
    window = Window(2)
    report = _assert_matches_reference(spec, inst, window)
    relation = compile_relation(spec, ctx, spaces)
    keys = [key for key, _, _ in report.witnesses]
    failing = [key for key in itertools.product(window.names_for(inst.space, 3),
                                                repeat=3)
               if residual_on_key(relation, ctx, spaces, key)]
    assert keys == failing[:MAX_WITNESSES]
    assert len({tuple(_orbit_of(relation, key)) for key in failing}) > MAX_WITNESSES
    # some witness is a later member of an orbit, found before the least
    # members of orbits that come after it
    assert any(not relation.orbit(key) for key in keys)


def test_a_relation_without_shared_heads_has_one_tuple_orbits():
    inst = g.sphere_model(3)
    for rid in ("Assoc", "Poisson", "SevenTermLambda", "CoJacobi"):
        arity = builtin_relation(rid).arity
        relation = compile_relation(builtin_relation(rid), inst.context(),
                                    (inst.space,) * arity)
        key = ("AU",) * arity
        assert tuple(relation.orbit(key)) == (key,)
        assert all(head is None for _, terms in relation.groups
                   for _, _, head, _ in terms)


def test_orbit_memos_are_bounded_and_scoped(monkeypatch):
    from gradedbv import cli
    link_original, residual_original = checks._link, checks.residual_on_key
    groups = {}     # id of a compiled relation -> its group's entry
    entries = []    # [arity, relations, shared heads, largest memo] per group

    def linking(typed, arity):
        relations = link_original(typed, arity)
        heads = set().union(*map(_head_indices, relations))
        entry = [arity, len(relations), len(heads), 0]
        entries.append(entry)
        groups.update((id(relation), entry) for relation in relations)
        return relations

    def watched(relation, ctx, spaces, key, memo=None):
        hit = residual_original(relation, ctx, spaces, key, memo)
        orbit = _orbit_of(relation, key)
        entry = groups[id(relation)]
        # only this orbit's tuples, at most one value per shared head of
        # the group each
        assert {image for _, image in memo} <= set(orbit), key
        assert len(memo) <= entry[2] * len(orbit)
        entry[3] = max(entry[3], len(memo))
        return hit

    monkeypatch.setattr(checks, "_link", linking)
    monkeypatch.setattr(checks, "residual_on_key", watched)
    assert cli.main(["check", "sphere:3", "--suite", "all",
                     "--window", "6"]) == 0
    # one group per arity: (arity, relations, shared heads, largest memo);
    # the binary group's heads are read by two relations or more each, on
    # orbits of two tuples, the ternary group's on orbits of three
    assert sorted(map(tuple, entries)) == [
        (0, 2, 0, 0), (1, 8, 2, 2), (2, 5, 9, 18), (3, 5, 4, 12)]

    inst = g.sphere_model(3)

    def largest(rid):
        entries.clear()
        relation_residual(builtin_relation(rid), inst.context(), inst.space,
                          Window(6))
        (entry,) = entries
        return entry[3]

    # checked alone: two heads on orbits of three tuples; three heads
    # under tau; one head
    assert largest("SevenTermMu") == 6
    assert largest("ElevenTerm") == 6 and largest("NineTerm") == 4
    assert largest("Jacobi") == largest("PermMu") == 3
    assert largest("Assoc") == largest("Poisson") == 0


def _head_indices(relation):
    return {head for _, terms in relation.groups
            for _, _, head, _ in terms if head is not None}


def test_relations_of_one_arity_share_their_heads():
    inst = g.sphere_model(3)
    ctx, spaces = inst.context(), (inst.space,) * 2
    eleven, nine, comm = checks.compile_relations(
        [builtin_relation(rid) for rid in ("ElevenTerm", "NineTerm", "Comm")],
        ctx, spaces)
    # NineTerm is the first nine terms of ElevenTerm: each of its terms
    # reads a head ElevenTerm computes into the orbit memo
    assert _head_indices(nine) <= _head_indices(eleven)
    assert all(head is not None for _, terms in nine.groups
               for _, _, head, _ in terms)
    assert _head_indices(comm).isdisjoint(_head_indices(eleven))
    assert eleven.orbit is nine.orbit is comm.orbit
    # alone, NineTerm's untwisted terms are their own unshared heads
    alone = compile_relation(builtin_relation("NineTerm"), ctx, spaces)
    assert len(_head_indices(alone)) < len(_head_indices(nine))


def _raising_context(bad_f=None, bad_g=None):
    space = FiniteSpace("V", {"a%d" % i: 0 for i in range(5)})
    field = g.QQ
    calls = []

    def f_rule(key):
        calls.append(key)
        if key == bad_f:
            raise EngineError("f fails on %s" % (key,))
        return basis_element((space,), field, key[:1])

    def g_rule(key):
        if key == bad_g:
            raise EngineError("g fails on %s" % (key,))
        return g.zero_element((space,), field)

    maps = {"f": GradedMap((space, space), (space,), 0, field, name="f", rule=f_rule),
            "g": GradedMap((space, space), (space,), 0, field, name="g", rule=g_rule)}
    spec = checks.make_relation("Twisted", 2, "f . tau + f + g", [[
        (1, "f . tau"), (1, "f"), (1, "g")]])
    return space, g.OpContext(maps, field), spec, calls


def test_a_raising_head_is_not_memoized_and_raises_on_every_use():
    space, ctx, spec, calls = _raising_context(bad_f=("a1", "a0"))
    relation = compile_relation(spec, ctx, (space, space))
    assert len(_head_indices(relation)) == 1
    memo = {}
    for attempt in range(1, 4):
        with pytest.raises(EngineError, match="f fails on"):
            residual_on_key(relation, ctx, (space, space), ("a0", "a1"), memo)
        assert all(image != ("a1", "a0") for _, image in memo)
        assert calls.count(("a1", "a0")) == attempt
    for _ in range(2):
        with pytest.raises(EngineError, match="f fails on"):
            relation_residual(spec, ctx, space, Window())


@pytest.mark.parametrize("bad,raises", [
    (("a4", "a0"), False),   # after the tenth failure: never reached
    (("a1", "a0"), True),    # the sixth tuple: raised before ten failures
])
def test_an_error_is_raised_only_where_the_canonical_walk_meets_it(bad, raises):
    space, ctx, spec, _ = _raising_context(bad_g=bad)
    names = sorted(space.basis_names())
    if raises:
        with pytest.raises(EngineError, match="g fails on"):
            relation_residual(spec, ctx, space, Window())
        return
    report = relation_residual(spec, ctx, space, Window())
    assert report.status == "fail"
    assert [key for key, _, _ in report.witnesses] == \
        list(itertools.product(names, repeat=2))[:MAX_WITNESSES]


def _cached_keys(ctx):
    maps = list(ctx.maps.values()) + [plan.apply for plan in ctx.plans.values()
                                      if isinstance(plan.apply, GradedMap)]
    return {(m.name, len(m.source)): set(m._cache) for m in maps}


def test_orbits_add_no_plan_and_no_cached_output():
    # the same plans and the same cached keys as every term of every
    # relation that holds on the window, evaluated on every tuple
    window = Window(2)
    probe, by_orbit, by_term = (g.sphere_model(3) for _ in range(3))
    holding = [builtin_relation(rid) for rid in relation_ids()
               if g.check_structure(probe, [rid], window)[0].status == "pass"]
    assert {"SevenTermMu", "Jacobi", "PermMu", "ElevenTerm", "Comm"} <= \
        {spec.rid for spec in holding}
    for spec in holding:
        assert relation_residual(spec, by_orbit.context(), by_orbit.space,
                                 window).status == "pass"
        spaces = (by_term.space,) * spec.arity
        names = window.names_for(by_term.space, spec.arity)
        for key in itertools.product(names, repeat=spec.arity):
            assert _term_by_term(spec, by_term.context(), spaces, key) is None
    assert ({(node, len(s)) for node, s in by_orbit.context().plans}
            == {(node, len(s)) for node, s in by_term.context().plans})
    assert _cached_keys(by_orbit.context()) == _cached_keys(by_term.context())
