"""Formal erase/mark layer and Lie bialgebra checking.

Gysin data for an instance is a graded space B with an erase map
E : A -> B of degree 0 and a mark map M : B -> A of degree 1 satisfying
M.E = Delta and E.M = 0 (hence Delta.M = 0 and E.Delta = 0).  The
string bracket and cobracket it induces are

    bracket   = E . mu . (M (x) M)
    cobracket = (E (x) E) . lambda . M

and the checks below verify the graded Jacobi and coJacobi identities,
the compatibility between bracket and cobracket, and the transported
forms of the nine-term and seven-term identities (pre/post-composed
with mark and erase maps), which must agree with the inherited forms.
"""

from __future__ import annotations

from .core import (EngineError, FiniteSpace, GradedMap, GradedSpace,
                   UnknownBasisName, basis_element, table_map, zero_element)
from .checks import (CheckReport, RelationSpec, Window, check_relations,
                     make_relation)
from .expr import Compose, OpContext, compile_expr, parse
from .models import SphereSpace, sphere_key, sphere_name
from .structures import builtin_relation, check_structure


class GysinError(EngineError):
    pass


def _identity(name, terms, rhs="0"):
    """The identity ``name = rhs`` on one input, as a relation whose
    signed terms are ``terms``, with the text that names its failure."""
    return (make_relation(name, 1, "%s = %s" % (name, rhs), [terms]),
            "%s != %s" % (name, rhs))


# the identities of Gysin data, checked on A and on B
_ON_A = (_identity("M.E", [(1, "M . E"), (-1, "Delta")], "Delta"),
         _identity("E.Delta", [(1, "E . Delta")]))
_ON_B = (_identity("E.M", [(1, "E . M")]),
         _identity("Delta.M", [(1, "Delta . M")]))


class GysinData:
    """(B, E, M) with M.E = Delta and E.M = 0, checked at construction."""

    def __init__(self, space_b, erase, mark):
        if erase.degree != 0:
            raise GysinError("erase map has degree %d, expected 0" % erase.degree)
        if mark.degree != 1:
            raise GysinError("mark map has degree %d, expected 1" % mark.degree)
        self.space_b = space_b
        self.erase = erase
        self.mark = mark

    def validate(self, instance, window=Window()):
        """Assert the four composite identities on the window, walked as
        relations by ``check_relations``; the two derived ones (Delta.M =
        0, E.Delta = 0) are checked, not assumed.  A GysinError names
        each identity's first failures in canonical order."""
        ctx = _erase_mark_context(instance, self)
        problems = []
        for space, identities in ((instance.space, _ON_A),
                                  (self.space_b, _ON_B)):
            reports = check_relations([spec for spec, _ in identities], ctx,
                                      space, window)
            for (_, failure), report in zip(identities, reports):
                problems += ["%s at %s" % (failure, key[0])
                             for key, _, _ in report.witnesses]
        if problems:
            raise GysinError("; ".join(problems))
        return True


class SphereClassSpace(GradedSpace):
    """Classes [AU^k], k >= 1: the quotient of the sphere model by the
    kernel of its operator, read off the sphere space: ``[X]`` is a class
    when X starts with ``AU`` and is a basis name of ``sphere`` (spelled
    canonically, so ``[AU]``, not ``[AU^1]``), and has X's degree.
    """

    def __init__(self, sphere):
        self.sphere = sphere
        self.name = sphere.name + "/kerDelta"

    def degree(self, basis_name):
        if basis_name.startswith("[AU") and basis_name.endswith("]"):
            try:
                return self.sphere.degree(basis_name[1:-1])
            except UnknownBasisName:
                pass
        raise UnknownBasisName("%r is not a class of %s"
                               % (basis_name, self.name))

    def window_names(self, k):
        return tuple(sorted("[%s]" % sphere_name(True, i)
                            for i in range(1, k + 1)))


def canonical_gysin(instance, window=Window()):
    """Minimal Gysin data: B = A / ker Delta, E the projection, M the
    map induced by Delta on classes."""
    field = instance.field
    space = instance.space
    squared, = check_structure(instance, ("DeltaSquared",), window)
    if squared.witnesses:
        key, _, residual = squared.witnesses[0]
        raise GysinError("operator does not square to zero at %s: %s"
                         % (key[0], residual))

    if isinstance(space, SphereSpace):
        b_space = SphereClassSpace(space)

        def erase_rule(key):
            a, k = sphere_key(key[0])
            if a and k >= 1:
                return basis_element((b_space,), field,
                                     ("[%s]" % sphere_name(True, k),))
            return zero_element((b_space,), field)

        def mark_rule(key):
            b_space.degree(key[0])      # UnknownBasisName unless a class
            k = sphere_key(key[0][1:-1])[1]
            return basis_element((space,), field, (sphere_name(False, k - 1),), k)

        erase = GradedMap((space,), (b_space,), 0, field, name="E",
                          rule=erase_rule)
        mark = GradedMap((b_space,), (space,), 1, field, name="M",
                         rule=mark_rule)
        data = GysinData(b_space, erase, mark)
        data.validate(instance, window)
        return data

    if not space.is_finite():
        raise GysinError("no canonical construction for rule-generated %s"
                         % space.name)
    return _finite_gysin(instance, window)


def _finite_gysin(instance, window):
    """Exact column reduction of the operator: pivot columns span a
    complement of the kernel and become the classes of B."""
    field = instance.field
    space = instance.space
    names = sorted(space.basis_names())
    pivots = {}          # lead basis name -> (normalized vector, combo)
    pivot_cols = []
    erase_coords = {}    # basis name -> {pivot column: coefficient}

    def reduce(vec):
        vec = dict(vec)
        combo = {}
        while vec:
            lead = min(vec)
            if lead not in pivots:
                return vec, combo, lead
            pvec, pcombo = pivots[lead]
            c = vec[lead]
            field.accumulate(vec, pvec.items(), field.neg(c))
            field.accumulate(combo, pcombo.items(), c)
        return {}, combo, None

    delta = instance.delta.on_key
    for name in names:
        vec = {k[0]: v for k, v in delta((name,)).coeffs.items()}
        rest, combo, lead = reduce(vec)
        if lead is None:
            erase_coords[name] = combo
        else:
            inv = field.inv(rest[lead])
            norm = {k: field.mul(inv, v) for k, v in rest.items()}
            ncombo = {col: field.neg(field.mul(inv, v))
                      for col, v in combo.items()}
            ncombo[name] = inv
            pivots[lead] = (norm, ncombo)
            pivot_cols.append(name)
            erase_coords[name] = {name: field.coerce(1)}

    b_space = FiniteSpace(space.name + "/kerDelta",
                          {"[%s]" % c: space.degree(c) for c in pivot_cols})
    erase = table_map((space,), (b_space,), 0, field,
                      [((name,), ("[%s]" % col,), v)
                       for name, combo in erase_coords.items()
                       for col, v in combo.items()], "E")
    mark = table_map((b_space,), (space,), 1, field,
                     [(("[%s]" % col,), okey, v) for col in pivot_cols
                      for okey, v in delta((col,)).coeffs.items()], "M")
    data = GysinData(b_space, erase, mark)
    data.validate(instance, window)
    return data


def string_bracket(instance, data):
    """E . mu . (M (x) M) on classes; degree 2."""
    return _gysin_context(instance, data).maps["bracket"]


def string_cobracket(instance, data):
    """(E (x) E) . lambda . M on classes; degree |lambda| + 1."""
    return _gysin_context(instance, data).maps["cobracket"]


def _erase_mark_context(instance, data):
    """The instance's generators with E and M."""
    return OpContext(dict(instance.generator_maps(), E=data.erase,
                          M=data.mark), instance.field)


def _gysin_context(instance, data):
    """The instance's generators with E and M, and the string bracket and
    cobracket compiled once in this context.  Each is installed as a
    generator whose rule is the composite's ``rule``, its compiled loop
    on one key, so each key is checked and cached once, by the generator,
    and the stages that apply it read that cache."""
    ctx = _erase_mark_context(instance, data)
    b = data.space_b
    for name, text, spaces in (("bracket", "E . mu . (M (x) M)", (b, b)),
                               ("cobracket", "(E (x) E) . lambda . M", (b,))):
        node = parse(text)
        composite = compile_expr(node, ctx, spaces)
        ctx.maps[name] = GradedMap(spaces, composite.target, composite.degree,
                                   ctx.field, name=node, rule=composite.rule)
    return ctx


def _transported(rid, pre, post):
    """The signed groups of a catalog relation, term-wise pre/post-composed."""
    groups = []
    for group in builtin_relation(rid).groups:
        groups.append(tuple((coeff, Compose((post, expr, pre)))
                            for coeff, expr in group))
    return tuple(groups)


def check_lie_bialgebra(instance, data, window=Window()):
    """Jacobi, coJacobi and the bracket/cobracket compatibility on
    classes, plus the transported nine-term and seven-term identities
    and an agreement report between the two Jacobi routes."""
    b = data.space_b
    ctx = _gysin_context(instance, data)
    name = instance.name

    jacobi = make_relation("GysinJacobi", 3,
                           "graded Jacobi identity for the string bracket", [[
        (1, "bracket . (id (x) bracket)"),
        (1, "bracket . (id (x) bracket) . sigma"),
        (1, "bracket . (id (x) bracket) . sigma2"),
    ]])
    cojacobi = make_relation("GysinCoJacobi", 1,
                             "graded coJacobi identity for the string cobracket", [[
        (1, "(cobracket (x) id) . cobracket"),
        (1, "sigma . (cobracket (x) id) . cobracket"),
        (1, "sigma2 . (cobracket (x) id) . cobracket"),
    ]])
    drinfeld = make_relation("GysinDrinfeld", 2,
                             "compatibility of string bracket and cobracket", [[
        (1, "cobracket . bracket"),
        (-1, "(bracket (x) id) . (id (x) cobracket)"),
        (1, "(bracket (x) id) . (id (x) cobracket) . tau"),
        (-1, "(id (x) bracket) . (cobracket (x) id)"),
        (1, "(id (x) bracket) . (cobracket (x) id) . tau"),
    ]])

    nine = RelationSpec("GysinNineTerm", 2,
                        "nine-term identity transported to classes",
                        _transported("NineTerm", parse("M (x) M"),
                                     parse("E (x) E")))
    seven = RelationSpec("GysinSevenTerm", 3,
                         "seven-term identity transported to classes",
                         _transported("SevenTermMu", parse("M (x) M (x) M"),
                                      parse("E")))
    reports = check_relations((jacobi, cojacobi, drinfeld, nine, seven), ctx,
                              b, window, instance_name=name)

    routes = (reports[0].status, reports[4].status)
    if "skipped" in routes:
        status = "skipped"
        reason = "inherited Jacobi is %s, transported seven-term is %s" % routes
    elif routes[0] == routes[1]:
        status, reason = "pass", ""
    else:
        status = "fail"
        reason = "inherited Jacobi is %s but transported seven-term is %s" % routes
    reports.append(CheckReport(
        "GysinJacobiAgreement", "inherited and transported Jacobi routes agree",
        name, reports[0].window, 0, status, (), reason))
    return reports
