"""Relation specifications, check windows and reports.

A relation is a signed list of expression terms whose sum must evaluate
to zero on every input tuple of a finite window.  Identities stated as
two simultaneous equalities (unit, counit, the Frobenius displays) carry
more than one signed group under a single id; every group must vanish.

Reports are deterministic: tuples are enumerated in canonical
(lexicographic by basis name) order and witnesses record the first
failures in that order, so two runs produce byte-identical output.

Relations are evaluated one orbit at a time, all relations of one arity
in one walk of their window (check_relations), under one orbit function
for the walk.  Each term is read from its normal form ``sign * X . P``
(``expr.normal_form``): its head X, its input permutation P, if any, and
the sign of moving P there, which goes on the term's coefficient.  P
sends a basis tuple to one signed tuple, whose sign goes on the
coefficient too, so every term is one path: its head on P's image, read
one key at a time (``GradedMap.key_run``), added once.  P is read
through its ``signed`` function (``core.permute``), not its map's cache,
and its image of a tuple is memoized in the orbit memo, so no
permutation map runs its rule for a term's P or O.  The catalog spells
the cyclic and twist factors out as terms ``X``, ``X . sigma``, ``X .
sigma2`` (or ``X . tau``), the transported Gysin terms carry them
inside, as ``post . (X . tau) . (M (x) M)``, and some relations are
stated with terms of others (NineTerm is the first nine terms of
ElevenTerm); on a window closed under permuting slots, each orbit of
basis tuples computes such a shared head X once per tuple, memoized
under the map X itself, and every term of every relation of the walk
reads it.  A head whose last stage is a whole ``tau``, ``sigma`` or
``sigma2`` O, as in the terms ``X``, ``sigma . X`` and ``sigma2 . X`` of
SevenTermLambda and CoJacobi, is compiled without O, and the term
applies O's ``signed`` function to the head's value key by key, with no
cache: the three terms read one X per tuple from the memo.
A group whose terms begin with another group's whole term tuple reads
that prefix's partial sum from the same orbit memo, under the prefix's
store index, so ElevenTerm adds its last two terms to NineTerm's sum,
and the nine shared terms are summed once per tuple.
Each report is the same as
from evaluating its relation's every term on every tuple in canonical
order, and an error is the one a check of each relation in turn raises.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from operator import itemgetter

from .core import ArityMismatch, _spaces_key, _trusted_element
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
    orbit), each relation its tuple of compiled groups (see
    _group_sums).

    A term ``c * O . X . P`` compiles to (c, X's key_run, X or None, P's
    signed function or None, O's signed function or None).  Heads are the
    context's hash-consed GradedMaps (``compile_expr``), so two terms share
    a head when they use the same map object, in one relation or in two.  A
    shared head is its own key into the orbit memo of residual_on_key, and
    an unshared one (None) runs on each tuple.  ``orbit(key)`` is the orbit
    of a basis tuple under the slot maps of the shared heads' input
    permutations, least member first, or () when ``key`` is not that least
    member.
    """
    uses = Counter(term[1] for groups in typed for terms in groups
                   for term in terms)
    generators = {slots for groups in typed for terms in groups
                  for _, head, _, slots, _ in terms if uses[head] > 1}
    linked = [[((terms[0][4] or terms[0][1]).target,
                tuple((coeff, head.key_run, head if uses[head] > 1 else None,
                       perm and perm.signed, out and out.signed)
                      for coeff, head, perm, _, out in terms))
               for terms in groups] for groups in typed]
    sums = _group_sums([group for groups in linked for group in groups])
    return ([tuple(sums[terms] for _, terms in groups) for groups in linked],
            _orbits(generators - {None}, arity))


def _group_sums(groups):
    """{term tuple: compiled group} for the (target, term tuple) pairs of
    ``groups``, a compiled group being (target, base, terms, store).

    A tuple that begins with another group's whole term tuple (NineTerm's
    nine terms begin ElevenTerm's eleven) has that prefix's compiled
    group as its ``base``, the longest such, and only the terms after it
    as ``terms``; any other has no base.  A tuple that is some group's
    base, or the terms of two groups, gets an integer memo index
    ``store``, under which its partial sum is kept per basis tuple; any
    other stores nothing.  Equal tuples are one compiled group."""
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
    _link): its tuple of compiled groups."""
    return _link([_typed_terms(spec, ctx, spaces)], len(spaces))[0][0]


def _orbits(generators, arity):
    """The ``orbit`` function of the permutation group of ``arity`` slots
    that ``generators`` generate (slot maps as in ``expr.PERMS``)."""
    perms = {tuple(range(arity))}
    todo = list(perms)
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple([p[i] for i in g])
            if q not in perms:
                perms.add(q)
                todo.append(q)
    if len(perms) == 1:
        return lambda key: (key,)
    moves = [itemgetter(*p) for p in perms]

    def orbit(key):
        images = [move(key) for move in moves]
        if min(images) < key:
            return ()
        return sorted(set(images))

    return orbit


def residual_on_key(spec, ctx, spaces, key, memo=None):
    """Evaluate each signed group on one basis tuple.

    ``spec`` is a RelationSpec or a relation compiled by _link.  Returns
    (group index, residual) for the first non-vanishing group, or None
    when the relation holds on this input.

    A term ``c * O . X . P`` adds ``sign * c * O(X(k'))`` for P's one signed
    image (k', sign) of ``key`` (k' is ``key`` and the sign one when there
    is no P, and O is the identity when there is no O).  P's image is read
    from ``memo``, keyed on (P's signed function, key), and computed into it
    on a miss.  A shared head X is read from ``memo``, keyed on (X, k'), and
    computed into it on a miss; an unshared one runs on k'.  A group's base,
    the partial sum of the terms it shares with another group, is read from
    the memo in the same way, keyed on (its store index, basis tuple),
    whichever relation reaches the tuple first computing it.  A value that
    raises is not stored, so every use raises again.  Without a memo, a
    fresh one serves this tuple only.
    """
    relation = spec
    if isinstance(spec, RelationSpec):
        relation = compile_relation(spec, ctx, spaces)
    if len(key) != len(spaces):
        raise ArityMismatch("key %r does not match arity %d" % (key, len(spaces)))
    if memo is None:
        memo = {}
    field = ctx.field
    key = tuple(key)
    for gi, group in enumerate(relation):
        acc = _group_sum(group, key, memo, field)
        if acc:
            return gi, _trusted_element(group[0], field, acc)
    return None


def _group_sum(group, key, memo, field):
    """The sum of a compiled group's signed terms on ``key``: its base's
    stored sum, computed on a miss, plus its own terms; stored when the
    group has a store index.  P's image of ``key``, one signed key, is
    read from the memo, and P's ``signed`` called only on a miss; the
    sign goes on the term's coefficient.  The head runs on one key
    (``key_run``).  O moves the value's keys one at a time through its
    ``signed``, negating a value whose sign is odd.  A vanishing term
    value adds nothing.  A stored sum is never changed, so a residual
    may hold it."""
    _, base, terms, store = group
    if store is not None:
        acc = memo.get((store, key))
        if acc is not None:
            return acc
    acc = {} if base is None else dict(_group_sum(base, key, memo, field))
    one, neg, add_into = field.one, field.neg, field.accumulate
    for coeff, key_run, head, perm, out in terms:
        image, sign = key, one
        if perm is not None:
            signed = memo.get((perm, key))
            if signed is None:
                signed = memo[perm, key] = perm(key)
            image, sign = signed
        if head is None:
            value = key_run(image)
        else:
            value = memo.get((head, image))
            if value is None:
                value = memo[head, image] = key_run(image)
        if value:
            items = value.items() if out is None else [
                (k, v if s == one else neg(v))
                for (k, s), v in zip(map(out, value), value.values())]
            add_into(acc, items,
                     coeff if sign == one else field.mul(coeff, sign))
    if store is not None:
        memo[store, key] = acc
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


def _walk(relations, orbit_of, ctx, spaces, names):
    """Walk the window's tuples once, one orbit at a time, for relations
    compiled together and their ``orbit`` (see _link); one _Walk per
    relation.

    A tuple is evaluated with its orbit, when it is the orbit's least
    member, and the orbit's tuples share one memo of the shared heads'
    values and the input permutations' signed images, dropped after the
    orbit.  A member above a relation's cut is skipped for that relation,
    and the walk ends once every relation is past its cut: every tuple below
    the current one has been evaluated.
    """
    walks = live = [_Walk(relation) for relation in relations]
    for key in itertools.product(names, repeat=len(spaces)):
        orbit = orbit_of(key)
        if not orbit:
            continue    # evaluated with its orbit's least member
        live = [w for w in live if w.cut is None or key <= w.cut]
        if not live:
            break
        memo = {}
        for member in orbit:
            for w in live:
                if w.cut is not None and member > w.cut:
                    continue
                try:
                    hit = residual_on_key(w.relation, ctx, spaces, member, memo)
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
        relations, orbit = _link([typed for _, typed in members], arity)
        walks = _walk(relations, orbit, ctx, spaces, names)
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
