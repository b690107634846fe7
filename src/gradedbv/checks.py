"""Relation specifications, check windows and reports.

A relation is a signed list of expression terms whose sum must evaluate
to zero on every input tuple of a finite window.  Identities stated as
two simultaneous equalities (unit, counit, the Frobenius displays) carry
more than one signed group under a single id; every group must vanish.

Reports are deterministic: tuples are enumerated in canonical
(lexicographic by basis name) order and witnesses record the first
failures in that order, so two runs produce byte-identical output.

Relations are evaluated one orbit at a time.  The catalog spells the
cyclic and twist factors out as terms ``X``, ``X . sigma``, ``X .
sigma2`` (or ``X . tau``); on a window closed under permuting slots,
each orbit of basis tuples computes such a shared head X once per tuple
and every term reads it, signed by its permutation.  The report is the
same as from evaluating every term on every tuple in canonical order.
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
    """A relation typed on its input slots, see compile_relation.

    ``groups`` holds (target, terms) per signed group, a term being
    (coefficient, run, head, perm).  ``orbit(key)`` is the orbit of a
    basis tuple under the slot permutations of the shared heads, least
    member first, or () when ``key`` is not that least member.
    """

    groups: tuple
    orbit: Callable


def compile_relation(spec, ctx, spaces):
    """The signed groups of a relation with every term typed on ``spaces``
    and every coefficient in the context's field.  The terms of a group
    must share a target, since their values are summed.

    A term ``X . P`` whose rightmost factor P is ``tau``, ``sigma`` or
    ``sigma2`` has the head X; any other term is its own head.  Heads are
    the context's hash-consed Plans, so two terms share a head when they
    use the same Plan object.  A head used by one term runs that term's
    plan: (coefficient, run, None, None).  A shared head gets an index
    into the orbit memo of residual_on_key: (coefficient, X.run, index,
    P's on_key, or None for X itself).
    """
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

    uses = Counter(id(term[2]) for terms in typed for term in terms)
    shared, generators, groups = {}, set(), []
    for terms in typed:
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
        groups.append((terms[0][1].target, tuple(compiled)))
    return CompiledRelation(tuple(groups), _orbits(generators, len(spaces)))


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

    ``spec`` is a RelationSpec or its compile_relation.  Returns
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


def relation_residual(spec, ctx, space, window, instance_name="?",
                      applicable=True, skip_reason=""):
    """Check one relation over a window of basis tuples of ``space``.

    The window is walked one orbit of ``compile_relation``'s ``orbit`` at
    a time: a tuple is evaluated with its orbit, when it is the orbit's
    least member, and the orbit's tuples share one memo of their shared
    heads' values, dropped after the orbit.  A relation without shared
    permuted heads has one-tuple orbits.  The report is the one a walk
    of every tuple in canonical order gives: the witnesses are the first
    MAX_WITNESSES failures in that order, and a tuple whose evaluation
    raises, with fewer failures before it, raises the same error.
    """
    described = window.describe(space, spec.arity)
    if not applicable:
        return CheckReport(spec.rid, spec.description, instance_name,
                           described, 0, "skipped", (), skip_reason)
    names = window.names_for(space, spec.arity)
    spaces = (space,) * spec.arity
    if spec.arity and not names:
        if space.is_finite() and not space.basis_names():
            # the zero space: nothing exists to check, the relation holds
            return CheckReport(spec.rid, spec.description, instance_name,
                               "zero space", 0, "pass", ())
        return CheckReport(spec.rid, spec.description, instance_name,
                           described, 0, "skipped", (),
                           "window enumeration is empty")

    relation = compile_relation(spec, ctx, spaces)
    witnesses = []
    error = None        # (tuple, exception) of the least tuple that raised
    cut = None          # no tuple above this one can change the report
    for key in itertools.product(names, repeat=spec.arity):
        orbit = relation.orbit(key)
        if not orbit:
            continue    # evaluated with its orbit's least member
        if cut is not None and key > cut:
            break       # every tuple below key has been evaluated
        memo = {}
        for member in orbit:
            if cut is not None and member > cut:
                break
            try:
                hit = residual_on_key(relation, ctx, spaces, member, memo)
            except Exception as exc:
                error = (member, exc)
                cut = member
                break
            if hit is not None:
                witnesses.append((member, hit[0], hit[1]))
                if len(witnesses) >= MAX_WITNESSES:
                    witnesses.sort(key=_first)
                    del witnesses[MAX_WITNESSES:]
                    last = witnesses[-1][0]
                    cut = last if cut is None else min(cut, last)

    if error is not None and error[0] == cut:
        raise error[1]    # fewer than MAX_WITNESSES failures come before it
    witnesses.sort(key=_first)
    status = "pass" if not witnesses else "fail"
    return CheckReport(spec.rid, spec.description, instance_name, described,
                       len(names) ** spec.arity, status, tuple(witnesses))
