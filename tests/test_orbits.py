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
    """(relations, action) of ``specs`` compiled for one walk."""
    return checks._link([checks._typed_terms(spec, ctx, spaces)
                         for spec in specs], len(spaces))


def _orbit(action, key):
    """``key``'s orbit under the walk's ``action``, its members sorted,
    when ``key`` is its least member (the walk evaluates the orbit
    there), else ()."""
    members = action.state(key, [(i, lambda name: 0, {})
                                 for i in range(len(key))])[0]
    return members if members[0] == key else ()


def _orbit_of(action, key):
    """Every member of ``key``'s orbit under the walk's ``action``, least
    first, whichever member ``key`` is."""
    for least in sorted(set(itertools.permutations(key))):
        members = _orbit(action, least)
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
    (relation,), action = _linked([spec], ctx, spaces)
    keys = [key for key, _, _ in report.witnesses]
    failing = [key for key in itertools.product(window.names_for(inst.space, 3),
                                                repeat=3)
               if residual_on_key((relation, action), ctx, spaces, key)]
    assert keys == failing[:MAX_WITNESSES]
    assert len({tuple(_orbit_of(action, key)) for key in failing}) > MAX_WITNESSES
    # some witness is a later member of an orbit, found before the least
    # members of orbits that come after it
    assert any(not _orbit(action, key) for key in keys)


def test_a_relation_without_shared_heads_has_one_tuple_orbits():
    inst = g.sphere_model(3)
    # each term's shared head, numbered in order of first use: X,
    # sigma . X and sigma2 . X share X through their output
    # permutations, which generate no orbit
    for rid, heads in (("Assoc", [None] * 2), ("Poisson", [None] * 3),
                       ("SevenTermLambda", [None] + [0] * 3 + [1] * 3),
                       ("CoJacobi", [0] * 3)):
        arity = builtin_relation(rid).arity
        (relation,), action = _linked([builtin_relation(rid)], inst.context(),
                                      (inst.space,) * arity)
        key = ("AU",) * arity
        assert tuple(_orbit(action, key)) == (key,)
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


def test_a_walk_calls_no_input_permutations_signed(monkeypatch):
    from gradedbv import cli
    link_original, walk_original = checks._link, checks._walk
    guarded, walked = {}, set()     # input permutation -> its signed

    def unread(key):
        raise AssertionError("an input permutation's signed read %r" % (key,))

    def linking(typed, arity):
        # every input permutation that is not also a term's output
        # permutation: its signed must not run in this walk
        terms = [term for groups in typed for group in groups for term in group]
        outs = {term[4] for term in terms}
        for _, _, perm, _, _ in terms:
            if perm is not None and perm not in outs:
                guarded.setdefault(perm, perm.signed)
                perm.signed = unread
        return link_original(typed, arity)

    def walking(*args):
        try:
            return walk_original(*args)
        finally:    # maps are shared: a later walk may read one as O
            for perm, signed in guarded.items():
                perm.signed = signed
            walked.update(guarded)
            guarded.clear()

    monkeypatch.setattr(checks, "_link", linking)
    monkeypatch.setattr(checks, "_walk", walking)
    assert cli.main(["check", "sphere:3", "--suite", "all",
                     "--window", "4"]) == 0
    # tau on two slots, sigma and sigma2 on three, on the sphere and on
    # the Gysin layer's class space
    assert {perm.name for perm in walked} == {
        "perm(1, 0)", "perm(1, 2, 0)", "perm(2, 0, 1)"}


def test_orbit_memos_are_bounded_and_scoped(monkeypatch):
    from gradedbv import cli
    link_original, state_original = checks._link, checks._Action.state
    groups = {}     # id of a walk's action -> (its group's entry, value keys)
    entries = []    # [arity, relations, value keys, largest state] per group
    states = []     # (action, orbit state) of each orbit walked

    def linking(typed, arity):
        relations, action = link_original(typed, arity)
        keys = set().union(*map(_value_keys, relations))
        entry = [arity, len(relations), len(keys), 0]
        entries.append(entry)
        groups[id(action)] = entry, keys
        return relations, action

    def watched(action, base, slots):
        state = state_original(action, base, slots)
        states.append((action, state))
        return state

    def bounded():
        # only this orbit's tuples, at most one value per shared head and
        # store of the group each per member, and no permutation image
        for action, (members, rows, values) in states:
            entry, keys = groups[id(action)]
            assert members == sorted({move(members[0])
                                      for move in action.moves})
            assert len(rows) == len(values) == len(members)
            assert set().union(*values) <= keys
            count = sum(map(len, values))
            assert count <= entry[2] * len(members)
            entry[3] = max(entry[3], count)
        states.clear()

    monkeypatch.setattr(checks, "_link", linking)
    monkeypatch.setattr(checks._Action, "state", watched)
    assert cli.main(["check", "sphere:3", "--suite", "all",
                     "--window", "6"]) == 0
    bounded()
    # one group per arity: (arity, relations, value keys, largest
    # state); the unary group's heads are read by two relations or two
    # terms each (X and its output permutations sigma . X, sigma2 . X or
    # tau . X), on one-tuple orbits; the binary group's heads are read by
    # two relations or more each, on orbits of two tuples, and NineTerm's
    # sum is ElevenTerm's stored prefix, one more key; the ternary
    # group's heads are read on orbits of three; the input permutations'
    # images and signs are read from the tables, never stored
    assert sorted(map(tuple, entries)) == [
        (0, 2, 0, 0), (1, 8, 6, 6), (2, 5, 10, 20), (3, 5, 4, 12)]

    inst = g.sphere_model(3)

    def largest(rid):
        entries.clear()
        relation_residual(builtin_relation(rid), inst.context(), inst.space,
                          Window(6))
        bounded()
        (entry,) = entries
        return entry[3]

    # checked alone: two heads on orbits of three tuples; three heads
    # under tau; one head on orbits of three or two tuples
    assert largest("SevenTermMu") == 6
    assert largest("ElevenTerm") == 6 and largest("NineTerm") == 4
    assert largest("Jacobi") == 3 and largest("PermMu") == 3
    assert largest("Assoc") == largest("Poisson") == 0


def _terms(group):
    """A compiled group's terms, its base's first."""
    _, base, terms, _ = group
    return (_terms(base) if base else ()) + terms


def _shared_heads(relation):
    return {head for group in relation
            for _, _, head, _, _ in _terms(group) if head is not None}


def _value_keys(relation):
    """The keys of a relation's values in an orbit member's state: its
    shared heads and the store indices of its groups and their bases."""
    stores, todo = set(), list(relation)
    while todo:
        _, base, _, store = todo.pop()
        stores.add(store)
        todo += [base] if base else []
    return _shared_heads(relation) | (stores - {None})


def test_relations_of_one_arity_share_their_heads():
    inst = g.sphere_model(3)
    ctx, spaces = inst.context(), (inst.space,) * 2
    (eleven, nine, comm), action = _linked(
        [builtin_relation(rid) for rid in ("ElevenTerm", "NineTerm", "Comm")],
        ctx, spaces)
    # NineTerm is the first nine terms of ElevenTerm: each of its terms
    # reads a head ElevenTerm computes into the orbit state
    assert _shared_heads(nine) <= _shared_heads(eleven)
    assert all(head is not None for group in nine
               for _, _, head, _, _ in _terms(group))
    assert _shared_heads(comm).isdisjoint(_shared_heads(eleven))
    # the walk's one orbit swaps the two slots, which the twisted terms'
    # tau moves
    assert _orbit(action, ("AU", "U")) == [("AU", "U"), ("U", "AU")]
    assert _orbit(action, ("U", "AU")) == ()
    # alone, NineTerm's untwisted terms are their own unshared heads
    alone, _ = compile_relation(builtin_relation("NineTerm"), ctx, spaces)
    assert len(_shared_heads(alone)) < len(_shared_heads(nine))


def test_a_raising_head_is_not_memoized_and_raises_on_every_use():
    space, ctx, spec, calls = raising_context(bad_f=("a1", "a0"))
    compiled = compile_relation(spec, ctx, (space, space))
    assert len(_shared_heads(compiled[0])) == 1
    memo = {}
    for attempt in range(1, 4):
        with pytest.raises(EngineError, match="f fails on"):
            residual_on_key(compiled, ctx, (space, space), ("a0", "a1"), memo)
        # the memo keeps the key's orbit state, with no value at f . tau's
        # image ("a1", "a0")
        (members, _, values), = memo.values()
        assert members == [("a0", "a1"), ("a1", "a0")]
        assert not values[members.index(("a1", "a0"))]
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


def _walks(inst):
    """{arity: (typed relations, relations, action)} of every catalog
    relation that applies to ``inst``, linked one walk per arity as
    check_relations links them."""
    ctx, typed = inst.context(), {}
    for rid in relation_ids():
        spec = builtin_relation(rid)
        if is_applicable(spec, inst)[0]:
            typed.setdefault(spec.arity, []).append(checks._typed_terms(
                spec, ctx, (inst.space,) * spec.arity))
    return {arity: (groups,) + tuple(checks._link(groups, arity))
            for arity, groups in typed.items()}


@pytest.mark.parametrize("field_name", ["Q", "Fp:101"])
@pytest.mark.parametrize("model", ["sphere:3", "three-dim", "D(three-dim)"])
def test_action_tables_match_signed_and_the_koszul_oracle(model, field_name):
    field = g.field_by_name(field_name)
    inst = (build_double(g.builtin_model(model[2:-1], field))
            if model.startswith("D(") else g.builtin_model(model, field))
    space, one = inst.space, field.one
    walks = _walks(inst)
    assert set(walks) == {0, 1, 2, 3}
    stabilized = set()
    for arity, (typed, relations, action) in walks.items():
        # each input permutation by its index: its map and its slot map
        perms = {}
        for groups, relation in zip(typed, relations):
            for terms, group in zip(groups, relation):
                for term, linked in zip(terms, _terms(group)):
                    assert linked[0] == (term[0], field.neg(term[0]))
                    if term[3] is None:
                        assert linked[3] == 0
                    else:
                        assert perms.setdefault(linked[3], term[2:4])[1] == term[3]
        # P 0 is the identity, read by every term without P
        generators = len(action.compose[0])
        assert set(perms) | {0} == set(range(generators))
        assert (generators > 1) == (arity > 1)
        names = Window(2).names_for(space, arity)
        for key in itertools.product(names, repeat=arity):
            members, rows, values = action.state(
                key, [(i, space.degree, {}) for i in range(arity)])
            if members[0] != key:
                continue    # not its orbit's least member
            assert values == [{}] * len(members)
            assert set(members) <= set(itertools.permutations(key))
            if len(members) < len(action.moves):
                stabilized.add(key)
            for member, (images, bits) in zip(members, rows):
                assert members[images[0]] == member and bits[0] == 0
                degrees = [space.degree(n) for n in member]
                for p, (gmap, slots) in perms.items():
                    image, sign = gmap.signed(member)
                    assert members[images[p]] == image, (member, slots)
                    assert (one, field.neg(one))[bits[p]] == sign
                    assert sign == field.coerce(g.koszul_sign(slots, degrees))
    if model == "sphere:3":
        # orbits with a stabilizer: equal names, fixed by every element
        assert {("U", "U", "U"), ("AU", "AU"), ("U", "U")} <= stabilized
        # a repeated name under the cyclic group: no stabilizer, all
        # three rotations are members
        assert ("AU", "U", "U") not in stabilized
        assert _orbit(walks[3][2], ("AU", "U", "U")) == [
            ("AU", "U", "U"), ("U", "AU", "U"), ("U", "U", "AU")]
    assert stabilized


def test_the_one_tuple_path_reads_its_key_as_the_base_tuple():
    inst = g.sphere_model(3)
    ctx, spaces = inst.context(), (inst.space,) * 3
    relation, action = compile_relation(builtin_relation("SevenTermMu"),
                                        ctx, spaces)
    memo = {}
    # a member that is not its orbit's least: the state is the same orbit
    key = ("U", "AU", "U")
    assert not _orbit(action, key)
    assert residual_on_key((relation, action), ctx, spaces, key, memo) is None
    (members, rows, values), = memo.values()
    assert members == _orbit_of(action, key) and len(rows) == 3
    # its heads' values are stored at its own member and at the images
    # its terms read
    assert values[members.index(key)] and all(values)
