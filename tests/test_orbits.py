"""Orbit-wise relation checking against the tuple-by-tuple reference."""

import itertools

import pytest

import gradedbv as g
from gradedbv import checks
from gradedbv.checks import (MAX_WITNESSES, Window, compile_relation,
                             relation_residual, residual_on_key, sign_mutations)
from gradedbv.core import EngineError
from gradedbv.double import build_double
from gradedbv.expr import (PERMS, Compose, Gen, Tensor, compile_expr,
                           normal_form, parse)
from gradedbv.structures import builtin_relation, is_applicable, relation_ids

from helpers import raising_context


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
            field.accumulate(acc, plan.run({key: field.one}).items(),
                             field.coerce(coeff))
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


def _linked(specs, ctx, spaces):
    """(relations, orbit) of ``specs`` compiled for one walk."""
    return checks._link([checks._typed_terms(spec, ctx, spaces)
                         for spec in specs], len(spaces))


def _orbit_of(orbit, key):
    """Every member of ``key``'s orbit under the walk's ``orbit``, least
    first, whichever member ``key`` is."""
    for least in sorted(set(itertools.permutations(key))):
        members = orbit(least)
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
    (relation,), orbit = _linked([spec], ctx, spaces)
    keys = [key for key, _, _ in report.witnesses]
    failing = [key for key in itertools.product(window.names_for(inst.space, 3),
                                                repeat=3)
               if residual_on_key(relation, ctx, spaces, key)]
    assert keys == failing[:MAX_WITNESSES]
    assert len({tuple(_orbit_of(orbit, key)) for key in failing}) > MAX_WITNESSES
    # some witness is a later member of an orbit, found before the least
    # members of orbits that come after it
    assert any(not orbit(key) for key in keys)


def test_a_relation_without_shared_heads_has_one_tuple_orbits():
    inst = g.sphere_model(3)
    # each term's shared head, numbered in order of first use: X,
    # sigma . X and sigma2 . X share X through their output
    # permutations, which generate no orbit
    for rid, heads in (("Assoc", [None] * 2), ("Poisson", [None] * 3),
                       ("SevenTermLambda", [None] + [0] * 3 + [1] * 3),
                       ("CoJacobi", [0] * 3)):
        arity = builtin_relation(rid).arity
        (relation,), orbit = _linked([builtin_relation(rid)], inst.context(),
                                     (inst.space,) * arity)
        key = ("AU",) * arity
        assert tuple(orbit(key)) == (key,)
        numbers = {}
        assert [head and numbers.setdefault(head, len(numbers))
                for group in relation
                for _, _, head, _, _ in _terms(group)] == heads, rid


def test_an_output_permutation_reads_its_head_once_per_tuple():
    inst = g.sphere_model(3)
    ctx, sp = inst.context(), inst.space
    window = Window(6)
    names = window.names_for(sp, 1)
    # the second stage of each shared head Y of SevenTermLambda, read
    # by Y, sigma . Y and sigma2 . Y; counted before Y is compiled
    seen = {}

    def counted(run, calls):
        def wrapper(coeffs):
            calls.append(coeffs)
            return run(coeffs)
        return wrapper

    for text in ("((Delta (x) id) . lambda) (x) id",
                 "(lambda . Delta) (x) id"):
        stage = compile_expr(parse(text), ctx, (sp, sp))
        seen[text] = []
        stage.run = counted(stage.run, seen[text])
    report = relation_residual(builtin_relation("SevenTermLambda"), ctx, sp,
                               window)
    assert report.status == "pass"
    # once per tuple whose lambda(x) does not vanish
    lam = ctx.maps["lambda"]
    expected = [lam.run({(name,): 1}) for name in names]
    assert [calls for calls in seen.values()] == [
        [value for value in expected if value]] * 2
    # sigma . Y and sigma2 . Y compile to no composite of their own
    assert not [node for node, _ in ctx.plans if isinstance(node, Compose)
                and node.children[0] in (Gen("sigma"), Gen("sigma2"))]


def test_orbit_memos_are_bounded_and_scoped(monkeypatch):
    from gradedbv import cli
    link_original, residual_original = checks._link, checks.residual_on_key
    groups = {}     # id of a compiled relation -> (its group's entry, orbit)
    entries = []    # [arity, relations, memo keys, largest memo] per group

    def linking(typed, arity):
        relations, orbit_of = link_original(typed, arity)
        keys = set().union(*map(_memo_keys, relations))
        entry = [arity, len(relations), len(keys), 0]
        entries.append(entry)
        groups.update((id(relation), (entry, orbit_of))
                      for relation in relations)
        return relations, orbit_of

    def watched(relation, ctx, spaces, key, memo=None):
        hit = residual_original(relation, ctx, spaces, key, memo)
        entry, orbit_of = groups[id(relation)]
        orbit = _orbit_of(orbit_of, key)
        # only this orbit's tuples, at most one value per shared head,
        # input permutation and store of the group each
        assert {image for _, image in memo} <= set(orbit), key
        assert len(memo) <= entry[2] * len(orbit)
        entry[3] = max(entry[3], len(memo))
        return hit

    monkeypatch.setattr(checks, "_link", linking)
    monkeypatch.setattr(checks, "residual_on_key", watched)
    assert cli.main(["check", "sphere:3", "--suite", "all",
                     "--window", "6"]) == 0
    # one group per arity: (arity, relations, memo keys, largest
    # memo); the unary group's heads are read by two relations or two
    # terms each (X and its output permutations sigma . X, sigma2 . X or
    # tau . X), on one-tuple orbits; the binary group's heads are read by
    # two relations or more each, on orbits of two tuples, NineTerm's
    # sum is ElevenTerm's stored prefix, one more key, and tau's signed
    # reads one more; the ternary group's heads and the signed reads of
    # sigma and sigma2 are read on orbits of three
    assert sorted(map(tuple, entries)) == [
        (0, 2, 0, 0), (1, 8, 6, 6), (2, 5, 11, 22), (3, 5, 6, 18)]

    inst = g.sphere_model(3)

    def largest(rid):
        entries.clear()
        relation_residual(builtin_relation(rid), inst.context(), inst.space,
                          Window(6))
        (entry,) = entries
        return entry[3]

    # checked alone: two heads and the signed reads of sigma and sigma2
    # on orbits of three tuples; three heads and tau's reads under tau;
    # one head and one or two permutations
    assert largest("SevenTermMu") == 12
    assert largest("ElevenTerm") == 8 and largest("NineTerm") == 6
    assert largest("Jacobi") == 9 and largest("PermMu") == 6
    assert largest("Assoc") == largest("Poisson") == 0


def _terms(group):
    """A compiled group's terms, its base's first."""
    _, base, terms, _ = group
    return (_terms(base) if base else ()) + terms


def _shared_heads(relation):
    return {head for group in relation
            for _, _, head, _, _ in _terms(group) if head is not None}


def _input_permutations(relation):
    return {perm for group in relation
            for _, _, _, perm, _ in _terms(group) if perm is not None}


def _memo_keys(relation):
    """The memo keys a relation reads, besides the basis tuple: its
    shared heads, its input permutations' signed reads and the store
    indices of its groups and their bases."""
    stores, todo = set(), list(relation)
    while todo:
        _, base, _, store = todo.pop()
        stores.add(store)
        todo += [base] if base else []
    return (_shared_heads(relation) | _input_permutations(relation)
            | (stores - {None}))


def test_relations_of_one_arity_share_their_heads():
    inst = g.sphere_model(3)
    ctx, spaces = inst.context(), (inst.space,) * 2
    (eleven, nine, comm), orbit = _linked(
        [builtin_relation(rid) for rid in ("ElevenTerm", "NineTerm", "Comm")],
        ctx, spaces)
    # NineTerm is the first nine terms of ElevenTerm: each of its terms
    # reads a head ElevenTerm computes into the orbit memo
    assert _shared_heads(nine) <= _shared_heads(eleven)
    assert all(head is not None for group in nine
               for _, _, head, _, _ in _terms(group))
    assert _shared_heads(comm).isdisjoint(_shared_heads(eleven))
    # the walk's one orbit swaps the two slots, which the twisted terms'
    # tau moves
    assert orbit(("AU", "U")) == [("AU", "U"), ("U", "AU")]
    assert orbit(("U", "AU")) == ()
    # alone, NineTerm's untwisted terms are their own unshared heads
    alone = compile_relation(builtin_relation("NineTerm"), ctx, spaces)
    assert len(_shared_heads(alone)) < len(_shared_heads(nine))


def test_a_raising_head_is_not_memoized_and_raises_on_every_use():
    space, ctx, spec, calls = raising_context(bad_f=("a1", "a0"))
    relation = compile_relation(spec, ctx, (space, space))
    assert len(_shared_heads(relation)) == 1
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
    space, ctx, spec, _ = raising_context(bad_g=bad)
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
    # composites are all named "expression": a compiled map is told
    # apart by its node
    maps = list(ctx.maps.items())
    maps += [(node, m) for (node, _), m in ctx.plans.items()]
    return {(name, len(m.source)): set(m._cache) for name, m in maps}


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
    # the walk compiles each term's head X, without its output
    # permutation O, and its permutations P and O, never a whole term
    # that is not its own head, nor the node it compiles as, nor O . X
    ctx = by_term.context()
    unread = set()
    for spec in holding:
        spaces = (by_term.space,) * spec.arity
        for group in spec.groups:
            for _, term in group:
                if isinstance(term, Compose):
                    form = normal_form(term, ctx)[1]
                    head = checks._split_output(form)[0]
                    whole = parse(compile_expr(term, ctx, spaces).name)
                    unread |= {(n, spec.arity) for n in (term, whole, form)
                               if n is not head}
    assert unread
    assert ({(node, len(s)) for node, s in by_orbit.context().plans}
            == {(node, len(s)) for node, s in ctx.plans} - unread)
    by_term_keys = {name: keys for name, keys in _cached_keys(ctx).items()
                    if name not in unread}
    # the walk reads the permutations P and O, and a permutation head,
    # as signed keys: a permutation map caches only the keys a tensor
    # product reads as its block (tau in Poisson's id (x) tau), and every
    # other map the same keys as term by term
    by_orbit_keys = _cached_keys(by_orbit.context())
    perms = {name for name in by_orbit_keys
             if isinstance(name[0], Gen) and name[0].name in PERMS}
    blocks = {child.name for node, _ in by_orbit.context().plans
              if isinstance(node, Tensor) for child in node.children
              if isinstance(child, Gen) and child.name in PERMS}
    assert {name[0].name for name in perms} == {"id", "tau", "sigma", "sigma2"}
    assert blocks == {"id", "tau"}
    for name in perms:
        assert by_orbit_keys[name] <= by_term_keys[name]
        assert not by_orbit_keys[name] or name[0].name == "tau", name
    assert ({name: keys for name, keys in by_orbit_keys.items()
             if name not in perms}
            == {name: keys for name, keys in by_term_keys.items()
                if name not in perms})
