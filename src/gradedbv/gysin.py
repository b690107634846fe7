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

The canonical data (``canonical_gysin``) exists on every space of
finite type, built one way: a class ``[x]`` of B is a pivot name x of
the degree-wise column reduction of Delta, and B's window is the
classes of A's window names.
"""

from __future__ import annotations

from .core import (Element, EngineError, GradedMap, GradedSpace,
                   UnknownBasisName)
from .checks import (CheckReport, RelationSpec, Window, check_relations,
                     make_relation)
from .expr import Compose, OpContext, compile_expr, parse
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


class ClassSpace(GradedSpace):
    """B = A / ker Delta for a space A of finite type.

    The classes ``[x]`` are the pivot names x of the column reduction of
    Delta, run one degree at a time on ``names_in_degree`` and memoized;
    ``[x]`` has x's degree.  As Delta has degree 1, columns of different
    degrees never share a lead, so this is the reduction over the whole
    basis.  B is finite when A is, and its window is the classes of A's
    window names.
    """

    def __init__(self, delta):
        self.base, = delta.source
        self.name = self.base.name + "/kerDelta"
        self._delta = delta
        self._degrees = {}      # class -> degree, stored once checked
        self._coords = {}       # degree -> {name: {pivot: coefficient}}

    def erase_coords(self, name):
        """{pivot x: c} with Delta(name) = sum of c * Delta(x); a pivot
        is its own only coordinate.  The first name of a degree reduces
        the columns of every name of that degree."""
        degree = self.base.degree(name)
        coords = self._coords.get(degree)
        if coords is None:
            field, delta = self._delta.field, self._delta.on_key
            pivots = {}     # lead -> (column, its combination of names)
            coords = {}
            for x in self.base.names_in_degree(degree):
                vec = {k[0]: v for k, v in delta((x,)).coeffs.items()}
                combo = {}
                lead = min(vec, default=None)
                while lead in pivots:
                    pvec, pcombo = pivots[lead]
                    c = field.mul(vec[lead], field.inv(pvec[lead]))
                    field.accumulate(vec, pvec.items(), field.neg(c))
                    field.accumulate(combo, pcombo.items(), c)
                    lead = min(vec, default=None)
                if lead is None:
                    coords[x] = combo
                else:
                    pcombo = {y: field.neg(v) for y, v in combo.items()}
                    pcombo[x] = field.one
                    pivots[lead] = (vec, pcombo)
                    coords[x] = {x: field.one}
            self._coords[degree] = coords
        return coords[name]

    def _classes(self, names):
        return tuple(sorted("[%s]" % x for x in names
                            if x in self.erase_coords(x)))

    def degree(self, basis_name):
        try:
            return self._degrees[basis_name]
        except KeyError:
            pass
        x = basis_name[1:-1]
        if (basis_name == "[%s]" % x and self.base.contains(x)
                and x in self.erase_coords(x)):
            degree = self._degrees[basis_name] = self.base.degree(x)
            return degree
        raise UnknownBasisName("%r is not a class of %s"
                               % (basis_name, self.name))

    def is_finite(self):
        return self.base.is_finite()

    def basis_names(self):
        return self._classes(self.base.basis_names())

    def window_names(self, k):
        return self._classes(self.base.window_names(k))


def canonical_gysin(instance, window=Window()):
    """Minimal Gysin data on a space A of finite type: B = A / ker Delta
    (a ClassSpace), E the projection, sending each name to its class
    combination, and M = Delta on the pivot of each class."""
    field = instance.field
    space = instance.space
    delta = instance.delta
    try:
        space.names_in_degree(0)
    except EngineError:
        raise GysinError("no canonical construction: %s is not of finite "
                         "type" % space.name) from None
    squared, = check_structure(instance, ("DeltaSquared",), window)
    if squared.witnesses:
        key, _, residual = squared.witnesses[0]
        raise GysinError("operator does not square to zero at %s: %s"
                         % (key[0], residual))
    b_space = ClassSpace(delta)

    def erase_rule(key):
        return Element((b_space,), field, {
            ("[%s]" % x,): v for x, v in b_space.erase_coords(key[0]).items()})

    def mark_rule(key):
        b_space.degree(key[0])      # UnknownBasisName unless a class
        return delta.rule((key[0][1:-1],))

    data = GysinData(b_space,
                     GradedMap((space,), (b_space,), 0, field, name="E",
                               rule=erase_rule),
                     GradedMap((b_space,), (space,), 1, field, name="M",
                               rule=mark_rule))
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
