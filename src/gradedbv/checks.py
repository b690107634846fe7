"""Relation specifications, check windows and reports.

A relation is a signed list of expression terms whose sum must evaluate
to zero on every input tuple of a finite window.  Identities stated as
two simultaneous equalities (unit, counit, the Frobenius displays) carry
more than one signed group under a single id; every group must vanish.

Reports are deterministic: tuples are enumerated in canonical
(lexicographic by basis name) order and witnesses record the first
failures in that order, so two runs produce byte-identical output.

Relations are evaluated one orbit at a time, all relations of one arity
in one walk of their window (check_relations), under one permutation
action for the walk (_Action).  Each term is read from its normal form
``sign * X . P`` (``expr.normal_form``): its head X, its input
permutation P, if any, and the sign of moving P there, which goes on the
term's coefficient.  P sends a basis tuple to one signed tuple, so every
term is one path: its head on P's image, read one key at a time
(``GradedMap.key_run``), added once.  The slot maps of the walk's input
permutations generate a group G of slot moves, built once per walk with
two tables: which element moves as "g, then P", and the parity of P's
Koszul sign on a tuple, by the parities of its names.  Both come from
``core``'s one slot-permutation rule (``_slot_rule``: each P's move and
inverted pairs), as ``core.permute``'s signs do, and the parities from
``core``'s one parity reader (``_parities``).  An orbit of G reads its
base tuple's parities once, and each member finds P's image and sign
there by index, in rows built once per walk for each orbit shape (which
read the members' parities), so no permutation map, and no ``signed``
function of an input permutation, runs during a walk.  The
catalog spells the cyclic and twist factors out as terms ``X``, ``X .
sigma``, ``X . sigma2`` (or ``X . tau``), the transported Gysin terms
carry them inside, as ``post . (X . tau) . (M (x) M)``, and some
relations are stated with terms of others (NineTerm is the first nine
terms of ElevenTerm); on a window closed under permuting slots, each
orbit computes such a shared head X once per member, kept in the
orbit's state under the map X itself, and every term of every relation
of the walk reads it.  A head whose last stage is a whole ``tau``,
``sigma`` or ``sigma2`` O, as in the terms ``X``, ``sigma . X`` and
``sigma2 . X`` of SevenTermLambda and CoJacobi, is compiled without O,
and the term applies O's ``signed`` function to the head's value key by
key, with no cache: the three terms read one X per member.
A group whose terms begin with another group's whole term tuple reads
that prefix's partial sum from the same orbit state, under the
prefix's store index, so ElevenTerm adds its last two terms to
NineTerm's sum, and the nine shared terms are summed once per tuple.
Each report is the same as
from evaluating its relation's every term on every tuple in canonical
order, and an error is the one a check of each relation in turn raises.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from operator import itemgetter

from .core import (ArityMismatch, _arity_error, _pairs_odd, _parities,
                   _slot_rule, _spaces_key, _trusted_element)
from .expr import ID, PERMS, Compose, Gen, compile_expr, normal_form, parse

MAX_WITNESSES = 10
_first = itemgetter(0)


class RelationSpec(namedtuple("RelationSpec", "rid arity description groups requires",
                              defaults=((),))):
    """A relation: ``groups`` is a tuple of signed groups, each a tuple of
    (Fraction, expr AST) terms; ``requires`` names the applicability
    predicates, see is_applicable."""

    __slots__ = ()


def make_relation(rid, arity, description, groups, requires=()):
    parsed = tuple(
        tuple((Fraction(coeff), parse(text)) for coeff, text in group)
        for group in groups)
    return RelationSpec(rid, arity, description, parsed, tuple(requires))


def flip_sign(spec, group_index, term_index):
    """Mutate one term's sign; used by the sign-rigidity suite."""
    groups = []
    for gi, group in enumerate(spec.groups):
        terms = []
        for ti, (coeff, expr) in enumerate(group):
            if gi == group_index and ti == term_index:
                coeff = -coeff
            terms.append((coeff, expr))
        groups.append(tuple(terms))
    return RelationSpec(spec.rid + "[flip %d.%d]" % (group_index, term_index),
                        spec.arity, spec.description, tuple(groups), spec.requires)


def sign_mutations(spec):
    """All single-sign mutations of a relation spec."""
    out = []
    for gi, group in enumerate(spec.groups):
        for ti in range(len(group)):
            out.append(flip_sign(spec, gi, ti))
    return out


class Window(namedtuple("Window", "k k3", defaults=(4, None))):
    """Bounds the enumerated input tuples; values are never truncated.

    ``k`` is the maximal basis index per slot for rule-generated spaces
    (finite spaces always enumerate everything); ``k3`` optionally
    overrides it for relations with three or more input slots.
    """

    __slots__ = ()

    def index_for(self, arity):
        if arity >= 3 and self.k3 is not None:
            return self.k3
        return self.k

    def names_for(self, space, arity):
        return tuple(sorted(space.window_names(self.index_for(arity))))

    def describe(self, space, arity):
        if space.is_finite():
            return "all tuples"
        return "indices <= %d" % self.index_for(arity)


class CheckReport(namedtuple("CheckReport", "relation description instance window "
                             "tuples_checked status witnesses skip_reason",
                             defaults=((), ""))):
    """One relation's verdict: ``status`` is pass, fail or skipped, and
    each witness is (input key, group index, residual element)."""

    __slots__ = ()


def _typed_terms(spec, ctx, spaces):
    """Each signed group of ``spec`` as a list of terms (coefficient,
    head map, P's map, P's slot map, O's map), typed on ``spaces``, with
    every coefficient in the context's field.

    A composition ``c * term`` with the normal form ``sign * X . P``
    (``expr.normal_form``) has the head X, read through P, an ``id``,
    ``tau``, ``sigma`` or ``sigma2``, with the coefficient ``c * sign``;
    any other term is its own head, and P's two are None.  O is the
    head's last stage when that stage is a whole ``tau``, ``sigma`` or
    ``sigma2``: the head is compiled without it, and O's map (or None)
    is applied to the head's value.  Only the head, P and O are
    compiled.  The terms of a group must share a target, since their
    values are summed."""
    field = ctx.field
    typed = []
    for group in spec.groups:
        terms = []
        for coeff, expr in group:
            sign, head, perm = (normal_form(expr, ctx) if isinstance(expr, Compose)
                                else (1, expr, None))
            head, out = _split_output(head)
            slots = perm and PERMS[perm.name]
            perm = perm and compile_expr(perm, ctx, spaces)
            head = compile_expr(head, ctx, perm.target if perm else spaces)
            out = out and compile_expr(out, ctx, head.target)
            terms.append((field.coerce(coeff * sign), head, perm, slots, out))
        targets = sorted({_spaces_key((term[4] or term[1]).target)
                          for term in terms})
        if len(targets) > 1:
            raise ArityMismatch("terms of %s have different targets %s"
                                % (spec.rid, targets))
        typed.append(terms)
    return typed


def _split_output(head):
    """(X, O) with ``head = O . X`` when the head's last-applied stage O
    is a whole ``tau``, ``sigma`` or ``sigma2``, else (head, None)."""
    if isinstance(head, Compose):
        last, rest = head.children[0], head.children[1:]
        if isinstance(last, Gen) and last.name in PERMS and last is not ID:
            return (rest[0] if len(rest) == 1 else Compose(rest)), last
    return head, None


def _link(typed, arity):
    """The relations of ``typed`` (each a list of _typed_terms groups),
    all typed on ``arity`` slots, compiled for one walk: (relations,
    action), each relation a tuple of compiled groups (see _group_sums)
    and ``action`` the walk's _Action.

    A term ``c * O . X . P`` compiles to ((c, -c), X's key_run, X or
    None, P's index, O's action on a value (_moved) or None); the pair
    is read at the parity of P's sign.  Heads are the context's hash-consed
    GradedMaps (``compile_expr``), so two terms share a head when they
    use the same map object, in one relation or in two.  A shared head
    is its own key into an orbit member's values, and an unshared one
    (None) runs on each image.  P's index numbers the distinct slot maps
    of the terms' input permutations, the generators of the action, the
    identity first: a term without P reads P 0.
    """
    uses = Counter(term[1] for groups in typed for terms in groups
                   for term in terms)
    identity = tuple(range(arity))
    perms = list(dict.fromkeys([identity] + [
        slots or identity for groups in typed for terms in groups
        for _, _, _, slots, _ in terms]))
    linked = [[((terms[0][4] or terms[0][1]).target,
                tuple(((coeff, head.field.neg(coeff)), head.key_run,
                       head if uses[head] > 1 else None,
                       perms.index(slots or identity), out and _moved(out))
                      for coeff, head, _, slots, out in terms))
               for terms in groups] for groups in typed]
    sums = _group_sums([group for groups in linked for group in groups])
    return ([tuple(sums[terms] for _, terms in groups) for groups in linked],
            _Action(perms, arity))


def _moved(out):
    """O's action on a head value, with no cache: the value's items, each
    key moved through O's ``signed`` and its coefficient negated where
    the sign is odd."""
    one, neg, signed = out.field.one, out.field.neg, out.signed
    return lambda value: [(k, v if s == one else neg(v)) for (k, s), v
                          in zip(map(signed, value), value.values())]


def _group_sums(groups):
    """{term tuple: compiled group} for the (target, term tuple) pairs of
    ``groups``, a compiled group being (target, base, terms, store).

    A tuple that begins with another group's whole term tuple (NineTerm's
    nine terms begin ElevenTerm's eleven) has that prefix's compiled
    group as its ``base``, the longest such, and only the terms after it
    as ``terms``; any other has no base.  A tuple that is some group's
    base, or the terms of two groups, gets an integer index ``store``,
    under which its partial sum is kept per orbit member; any other
    stores nothing.  Equal tuples are one compiled group."""
    count = Counter(terms for _, terms in groups)
    target = {terms: target for target, terms in groups}
    base = {}
    for terms in count:
        prefix = next((terms[:k] for k in range(len(terms) - 1, 0, -1)
                       if terms[:k] in count), None)
        if prefix:
            base[terms] = prefix
    stored = set(base.values()) | {t for t, n in count.items() if n > 1}
    store = {terms: i for i, terms in enumerate(t for t in count if t in stored)}
    compiled = {}
    for terms in sorted(count, key=len):    # each base before its users
        prefix = base.get(terms, ())
        compiled[terms] = (target[terms], compiled.get(prefix),
                           terms[len(prefix):], store.get(terms))
    return compiled


def compile_relation(spec, ctx, spaces):
    """The relation ``spec`` typed on ``spaces`` and compiled alone (see
    _link): (relation, action)."""
    (relation,), action = _link([_typed_terms(spec, ctx, spaces)], len(spaces))
    return relation, action


class _Action:
    """The permutation group G of ``arity`` slots that the slot maps
    ``generators`` of a walk's input permutations (``expr.PERMS``)
    generate, acting on basis tuples, with its tables.

    G's elements are slot moves g, g sending a tuple k to (k[g[0]], ...),
    the identity first.  Each generator P's move and inverted slot pairs
    are ``core._slot_rule``'s.  ``compose[g][P]`` is the element that
    moves as g, then P.  ``signs[pattern][P]`` is the parity of P's sign
    on a tuple whose names have the parities of ``pattern`` (bit i for
    slot i, ``core._parities``): the parity of P's inverted pairs whose
    two names are odd (``core._pairs_odd``).  ``shapes`` keeps the rows
    of each orbit shape (see state), built on first use.
    """

    __slots__ = ("moves", "compose", "signs", "shapes")

    def __init__(self, generators, arity):
        rules = [_slot_rule(p) for p in generators]
        elements, rows = [tuple(range(arity))], []
        for g in elements:      # grows until G is closed
            rows.append([tuple([g[i] for i in move]) for move, _ in rules])
            elements += [h for h in dict.fromkeys(rows[-1]) if h not in elements]
        self.moves = [itemgetter(*g) if arity > 1 else tuple for g in elements]
        self.compose = [[elements.index(h) for h in row] for row in rows]
        self.signs = [[_pairs_odd(pairs, pattern) for _, pairs in rules]
                      for pattern in range(1 << arity)]
        self.shapes = {}

    def state(self, base, slots):
        """The state of ``base``'s orbit under G: (members, rows, values),
        the members sorted.  The parities of a tuple's names are read by
        ``core._parities`` through the ``(i, degree, parity dict)`` of
        each slot in ``slots``, each stored the first time it is read (a
        lookup that raises is not stored).  ``rows[m]`` gives, for each
        input permutation, the member index of its image of member m and
        the parity of its sign there, read from ``signs`` at m's
        parities.  The rows depend only on the orbit's shape, which
        element sends ``base`` to which member, and on ``base``'s
        parities, and are built once for each.  ``values[m]`` holds m's
        shared head values and stored sums, keyed by head map and store
        index.
        """
        pattern = _parities(slots, base)
        images = [move(base) for move in self.moves]
        members = sorted(set(images))
        member_of = tuple(map(members.index, images))
        rows = self.shapes.get((member_of, pattern))
        if rows is None:
            rows = self.shapes[member_of, pattern] = [None] * len(members)
            for g, m in enumerate(member_of):
                rows[m] = ([member_of[h] for h in self.compose[g]],
                           self.signs[_parities(slots, members[m])])
        return members, rows, [{} for _ in members]


def residual_on_key(spec, ctx, spaces, key, memo=None):
    """Evaluate each signed group on one basis tuple.

    ``spec`` is a RelationSpec or the (relation, action) pair of
    compile_relation.  Returns _first_residual: (group index, residual)
    for the first non-vanishing group, or None when the relation holds
    on this input.

    ``key`` is the base tuple of an orbit state of the relation's action
    (_Action.state), its names' parities read from ``spaces``, and is
    evaluated as that state's member (see _group_sum).  ``memo`` keeps
    the state under ``key``, so calls on one key with one memo share its
    values; a value that raises is not stored, so every use raises
    again.  Without a memo, a fresh state serves this tuple only.
    """
    if isinstance(spec, RelationSpec):
        spec = compile_relation(spec, ctx, spaces)
    relation, action = spec
    if len(key) != len(spaces):
        raise _arity_error(key, len(spaces))
    if memo is None:
        memo = {}
    key = tuple(key)
    state = memo.get(key)
    if state is None:
        state = memo[key] = action.state(
            key, [(i, space.degree, {}) for i, space in enumerate(spaces)])
    return _first_residual(relation, state[0].index(key), state, ctx.field)


def _first_residual(relation, m, state, field):
    """(group index, residual) for the first of a compiled relation's
    groups whose sum (_group_sum) on member ``m`` of the orbit ``state``
    does not vanish, or None."""
    for gi, group in enumerate(relation):
        acc = _group_sum(group, m, state, field)
        if acc:
            return gi, _trusted_element(group[0], field, acc)
    return None


def _group_sum(group, m, state, field):
    """The sum of a compiled group's signed terms on member ``m`` of the
    orbit ``state`` (see _Action.state): its base's stored sum, computed
    on a miss, plus its own terms; stored in m's values when it has a
    store index.  A term's image is P's image of m, read from m's row,
    and its coefficient the pair's entry at the parity of P's sign, also
    read from the row: no permutation map runs.  A shared head is read
    from the image's values, computed on a miss; an unshared one runs on
    the image's tuple (``key_run``).  O's action (_moved) moves the
    value's keys one at a time, negating a value whose sign is odd.  A
    vanishing term value adds nothing.  A stored sum is never changed, so
    a residual may hold it, and a value that raises is not stored."""
    _, base, terms, store = group
    members, rows, values = state
    if store is not None:
        acc = values[m].get(store)
        if acc is not None:
            return acc
    acc = {} if base is None else dict(_group_sum(base, m, state, field))
    add_into = field.accumulate
    images, bits = rows[m]
    for pair, key_run, head, perm, out in terms:
        image = images[perm]
        if head is None:
            value = key_run(members[image])
        else:
            held = values[image]
            value = held.get(head)
            if value is None:
                value = held[head] = key_run(members[image])
        if value:
            add_into(acc, value.items() if out is None else out(value),
                     pair[bits[perm]])
    if store is not None:
        values[m][store] = acc
    return acc


class _Walk:
    """One relation's progress through a window: its witnesses so far,
    the least tuple that raised with its error, and the cut above which
    no tuple can change its report."""

    __slots__ = ("relation", "witnesses", "error", "cut")

    def __init__(self, relation):
        self.relation = relation
        self.witnesses = []
        self.error = None
        self.cut = None

    def failed(self, member, hit):
        witnesses = self.witnesses
        witnesses.append((member, hit[0], hit[1]))
        if len(witnesses) >= MAX_WITNESSES:
            witnesses.sort(key=_first)
            del witnesses[MAX_WITNESSES:]
            last = witnesses[-1][0]
            self.cut = last if self.cut is None else min(self.cut, last)


def _walk(relations, action, ctx, spaces, names):
    """Walk the window's tuples once, one orbit at a time, for relations
    compiled together and their ``action`` (see _link); one _Walk per
    relation.

    A tuple is evaluated with its orbit, when it is the orbit's least
    member, the base tuple of the orbit's state (_Action.state): its
    names' parities are read once, through one dict for the walk, and
    the orbit's members share the state's values, dropped after the
    orbit.  The orbit's other members are held in a set until the walk
    reaches and skips them.  A member above a relation's cut is skipped
    for that relation, and the walk ends once every relation is past its
    cut: every tuple below the current one has been evaluated.
    """
    walks = live = [_Walk(relation) for relation in relations]
    field, parity, done = ctx.field, {}, set()
    slots = [(i, space.degree, parity) for i, space in enumerate(spaces)]
    for key in itertools.product(names, repeat=len(spaces)):
        if key in done:
            done.remove(key)
            continue    # evaluated with its orbit's least member
        live = [w for w in live if w.cut is None or key <= w.cut]
        if not live:
            break
        state = action.state(key, slots)
        members = state[0]
        done.update(members[1:])
        for m, member in enumerate(members):
            for w in live:
                if w.cut is not None and member > w.cut:
                    continue
                try:
                    hit = _first_residual(w.relation, m, state, field)
                except Exception as exc:
                    w.error, w.cut = (member, exc), member
                    continue
                if hit is not None:
                    w.failed(member, hit)
    return walks


def check_relations(specs, ctx, space, window, instance_name="?",
                    applicability=lambda spec: (True, "")):
    """One report per relation of ``specs``, in order, over a window of
    basis tuples of ``space``.

    ``applicability(spec)`` gives (applicable, skip reason).  The
    applicable relations are grouped by arity, one window per arity, and
    each group is compiled together and walked once (see _walk), so a
    head that two relations share is computed once per tuple.  Each
    report is the one a walk of every tuple in canonical order gives for
    its relation alone: the witnesses are the first MAX_WITNESSES
    failures in that order, and a tuple whose evaluation raises, with
    fewer failures before it, raises the same error.  When relations
    raise, in applicability, typing or evaluation, the error of the first
    in ``specs`` order is raised after every group is walked: the one a
    check of each relation in turn would raise.
    """
    reports = [None] * len(specs)
    raised = {}         # index in specs -> the error its check raises
    by_arity = {}       # arity -> [(index in specs, typed terms)]
    for index, spec in enumerate(specs):
        described = window.describe(space, spec.arity)
        try:
            ok, reason = applicability(spec)
            if not ok:
                reports[index] = CheckReport(spec.rid, spec.description,
                                             instance_name, described, 0,
                                             "skipped", (), reason)
                continue
            if spec.arity and not window.names_for(space, spec.arity):
                reports[index] = _empty_window(spec, space, instance_name,
                                               described)
                continue
            typed = _typed_terms(spec, ctx, (space,) * spec.arity)
        except Exception as exc:
            raised[index] = exc
            continue
        by_arity.setdefault(spec.arity, []).append((index, typed))

    for arity, members in by_arity.items():
        spaces = (space,) * arity
        names = window.names_for(space, arity)
        relations, action = _link([typed for _, typed in members], arity)
        walks = _walk(relations, action, ctx, spaces, names)
        for (index, _), w in zip(members, walks):
            if w.error is not None and w.error[0] == w.cut:
                raised[index] = w.error[1]   # fewer than MAX_WITNESSES before it
                continue
            spec = specs[index]
            w.witnesses.sort(key=_first)
            reports[index] = CheckReport(
                spec.rid, spec.description, instance_name,
                window.describe(space, arity), len(names) ** arity,
                "fail" if w.witnesses else "pass", tuple(w.witnesses))
    if raised:
        raise raised[min(raised)]
    return reports


def _empty_window(spec, space, instance_name, described):
    if space.is_finite() and not space.basis_names():
        # the zero space: nothing exists to check, the relation holds
        return CheckReport(spec.rid, spec.description, instance_name,
                           "zero space", 0, "pass", ())
    return CheckReport(spec.rid, spec.description, instance_name,
                       described, 0, "skipped", (),
                       "window enumeration is empty")


def relation_residual(spec, ctx, space, window, instance_name="?",
                      applicable=True, skip_reason=""):
    """Check one relation over a window of basis tuples of ``space``:
    check_relations of ``spec`` alone."""
    return check_relations((spec,), ctx, space, window, instance_name,
                           lambda spec: (applicable, skip_reason))[0]
