"""Relation specifications, check windows and reports.

A relation is a signed list of expression terms whose sum must evaluate
to zero on every input tuple of a finite window.  Identities stated as
two simultaneous equalities (unit, counit, the Frobenius displays) carry
more than one signed group under a single id; every group must vanish.

Reports are deterministic: tuples are enumerated in canonical
(lexicographic by basis name) order and witnesses record the first
failures in that order, so two runs produce byte-identical output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import ArityMismatch, accumulate, _spaces_key, _trusted_element
from .expr import compile_expr, parse

MAX_WITNESSES = 10


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


def compile_relation(spec, ctx, spaces):
    """The signed groups of a relation with every term typed on ``spaces``
    and every coefficient in the context's field.  The terms of a group
    must share a target, since their values are summed."""
    groups = []
    for group in spec.groups:
        terms = tuple((ctx.field.coerce(coeff), compile_expr(expr, ctx, spaces))
                      for coeff, expr in group)
        targets = sorted({_spaces_key(plan.target) for _, plan in terms})
        if len(targets) > 1:
            raise ArityMismatch("terms of %s have different targets %s"
                                % (spec.rid, targets))
        groups.append(terms)
    return tuple(groups)


def residual_on_key(spec, ctx, spaces, key):
    """Evaluate each signed group on one basis tuple.

    ``spec`` is a RelationSpec or its compile_relation groups.  Returns
    (group index, residual) for the first non-vanishing group, or None
    when the relation holds on this input.
    """
    groups = spec
    if isinstance(spec, RelationSpec):
        groups = compile_relation(spec, ctx, spaces)
    if len(key) != len(spaces):
        raise ArityMismatch("key %r does not match arity %d" % (key, len(spaces)))
    field = ctx.field
    x = {tuple(key): field.one}
    for gi, group in enumerate(groups):
        acc = {}
        for coeff, plan in group:
            accumulate(acc, plan.run(x).items(), coeff, field)
        if acc:
            return gi, _trusted_element(group[0][1].target, field, acc)
    return None


def relation_residual(spec, ctx, space, window, instance_name="?",
                      applicable=True, skip_reason=""):
    """Check one relation over a window of basis tuples of ``space``."""
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

    groups = compile_relation(spec, ctx, spaces)
    witnesses = []
    for key in itertools.product(names, repeat=spec.arity):
        hit = residual_on_key(groups, ctx, spaces, key)
        if hit is not None:
            witnesses.append((key, hit[0], hit[1]))
            if len(witnesses) >= MAX_WITNESSES:
                break

    status = "pass" if not witnesses else "fail"
    return CheckReport(spec.rid, spec.description, instance_name, described,
                       len(names) ** spec.arity, status, tuple(witnesses))

