"""Relation specifications, check windows and reports.

A relation is a signed list of expression terms whose sum must evaluate
to zero on every input tuple of a finite window.  Identities stated as
two simultaneous equalities (unit, counit, the Frobenius displays) carry
more than one signed group under a single id; every group must vanish.

Reports are deterministic: tuples are enumerated in canonical
(lexicographic by basis name) order and witnesses record the first
failures in that order, so two runs produce byte-identical output.

Relations are evaluated one orbit at a time, all relations of one
arity in one walk of their window (check_relations).  The catalog spells
the cyclic and twist factors out as terms ``X``, ``X . sigma``, ``X .
sigma2`` (or ``X . tau``), and states some relations with terms of
others (NineTerm is the first nine terms of ElevenTerm); on a window
closed under permuting slots, each orbit of basis tuples computes such a
shared head X once per tuple, and every term of every relation of the
walk reads it, signed by its permutation.  Each report is the same as
from evaluating its relation's every term on every tuple in canonical
order, and an error is the one a check of each relation in turn raises.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, NamedTuple

from .core import ArityMismatch, _spaces_key, _trusted_element
from .expr import compile_expr, parse, permuted_head

MAX_WITNESSES = 10
_first = itemgetter(0)


@dataclass(frozen=True)
class RelationSpec:
    rid: str
    arity: int
    description: str
    groups: tuple            # tuple of groups; group = tuple of (Fraction, expr AST)
    requires: tuple = ()     # applicability predicate names, see is_applicable

    def term_count(self):
        return sum(len(g) for g in self.groups)


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


@dataclass(frozen=True)
class Window:
    """Bounds the enumerated input tuples; values are never truncated.

    ``k`` is the maximal basis index per slot for rule-generated spaces
    (finite spaces always enumerate everything); ``k3`` optionally
    overrides it for relations with three or more input slots.
    """

    k: int = 4
    k3: int | None = None

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


@dataclass(frozen=True)
class CheckReport:
    relation: str
    description: str
    instance: str
    window: str
    tuples_checked: int
    status: str              # pass | fail | skipped
    witnesses: tuple = ()    # (input key, group index, residual element)
    skip_reason: str = ""

    def first_witness(self):
        return self.witnesses[0] if self.witnesses else None


class CompiledRelation(NamedTuple):
    """A relation typed on its input slots, see compile_relations.

    ``groups`` holds (target, terms) per signed group, a term being
    (coefficient, run, head, perm).  ``orbit(key)`` is the orbit of a
    basis tuple under the slot permutations of the shared heads, least
    member first, or () when ``key`` is not that least member.
    """

    groups: tuple
    orbit: Callable


def _typed_terms(spec, ctx, spaces):
    """Each signed group of ``spec`` as a list of terms (coefficient,
    plan, head, perm, slots), typed on ``spaces``; see compile_relations.
    The terms of a group must share a target, since their values are
    summed."""
    field = ctx.field
    typed = []
    for group in spec.groups:
        terms = []
        for coeff, expr in group:
            plan = compile_expr(expr, ctx, spaces)
            head, perm, slots = permuted_head(expr, ctx, spaces) or (plan, None, None)
            terms.append((field.coerce(coeff), plan, head, perm, slots))
        targets = sorted({_spaces_key(term[1].target) for term in terms})
        if len(targets) > 1:
            raise ArityMismatch("terms of %s have different targets %s"
                                % (spec.rid, targets))
        typed.append(terms)
    return typed


def _link(typed, arity):
    """One CompiledRelation per relation of ``typed`` (each a list of
    _typed_terms groups), with one head index space and one orbit."""
    uses = Counter(id(term[2]) for groups in typed
                   for terms in groups for term in terms)
    shared, generators, linked = {}, set(), []
    for groups in typed:
        compiled_groups = []
        for terms in groups:
            compiled = []
            for coeff, plan, head, perm, slots in terms:
                if uses[id(head)] < 2:
                    compiled.append((coeff, plan.run, None, None))
                    continue
                if slots is not None:
                    generators.add(slots)
                index = shared.setdefault(id(head), len(shared))
                compiled.append((coeff, head.run, index,
                                 None if perm is None else perm.on_key))
            compiled_groups.append((terms[0][1].target, tuple(compiled)))
        linked.append(tuple(compiled_groups))
    orbit = _orbits(generators, arity)
    return [CompiledRelation(groups, orbit) for groups in linked]


def compile_relations(specs, ctx, spaces):
    """The relations ``specs``, all of arity ``len(spaces)``, with every
    term typed on ``spaces`` and every coefficient in the context's
    field.

    A term ``X . P`` whose rightmost factor P is ``tau``, ``sigma`` or
    ``sigma2`` has the head X; any other term is its own head.  Heads are
    the context's hash-consed Plans, so two terms share a head when they
    use the same Plan object, in one relation or in two.  A head used by
    one term runs that term's plan: (coefficient, run, None, None).  A
    shared head gets an index, one index space for all of ``specs``,
    into the orbit memo of residual_on_key: (coefficient, X.run, index,
    P's on_key, or None for X itself).  Every relation gets the same
    ``orbit``, generated by the slot maps of all the shared heads.
    """
    return _link([_typed_terms(spec, ctx, spaces) for spec in specs], len(spaces))


def compile_relation(spec, ctx, spaces):
    """compile_relations of one relation."""
    return compile_relations((spec,), ctx, spaces)[0]


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

    ``spec`` is a RelationSpec or one of compile_relations.  Returns
    (group index, residual) for the first non-vanishing group, or None
    when the relation holds on this input.

    A shared head X is read from ``memo``, keyed on (head index, basis
    tuple), and computed into it on a miss; a term ``c * X . P`` adds
    ``sign * c * X(k')`` for the (k', sign) of P on ``key``.  A value
    that raises is not stored, so every use raises again.  Without a
    memo, a fresh one serves this tuple only.
    """
    relation = spec
    if isinstance(spec, RelationSpec):
        relation = compile_relation(spec, ctx, spaces)
    if len(key) != len(spaces):
        raise ArityMismatch("key %r does not match arity %d" % (key, len(spaces)))
    if memo is None:
        memo = {}
    field = ctx.field
    one = field.one
    add_into = field.accumulate
    key = tuple(key)
    x = {key: one}
    for gi, (target, terms) in enumerate(relation.groups):
        acc = {}
        for coeff, run, head, perm in terms:
            if head is None:
                add_into(acc, run(x).items(), coeff)
                continue
            for image, sign in (perm(key).coeffs if perm else x).items():
                value = memo.get((head, image))
                if value is None:
                    value = memo[head, image] = run({image: one})
                add_into(acc, value.items(),
                         coeff if sign == one else field.mul(coeff, sign))
        if acc:
            return gi, _trusted_element(target, field, acc)
    return None


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


def _walk(relations, ctx, spaces, names):
    """Walk the window's tuples once, one orbit at a time, for relations
    compiled together; one _Walk per relation.

    A tuple is evaluated with its orbit, when it is the orbit's least
    member, and the orbit's tuples share one memo of the shared heads'
    values, dropped after the orbit.  A member above a relation's cut is
    skipped for that relation, and the walk ends once every relation is
    past its cut: every tuple below the current one has been evaluated.
    """
    orbit_of = relations[0].orbit
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
        relations = _link([typed for _, typed in members], arity)
        walks = _walk(relations, ctx, spaces, names)
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
