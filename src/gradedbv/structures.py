"""Structure instances and the full relation catalog.

A BVUIInstance packages a graded space with a commutative product, unit,
odd cocommutative coproduct and a degree-1 square-zero operator; a
FrobeniusInstance adds the odd counit.  The catalog below transcribes
every defining identity as signed expression terms, with the cyclic
(1 + sigma + sigma^2) and twist (1 + tau) factors expanded into separate
terms, so a relation holds iff the signed sum of evaluations vanishes.
"""

from __future__ import annotations

from .core import (DegreeError, Element, EngineError, GradedMap, compose,
                   scalar_element)
from .checks import Window, check_relations, make_relation
from .expr import OpContext, as_map, parse


class ValidationError(EngineError):
    """Raised with the complete list of violated invariants."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class BVUIInstance:
    """Graded space with product, unit, odd coproduct and BV operator."""

    def __init__(self, name, space, field, mu, eta, lam, delta, lam_degree):
        problems = []
        if lam_degree % 2 == 0:
            problems.append("coproduct degree %d must be odd" % lam_degree)
        if mu.degree != 0:
            problems.append("product has degree %d, expected 0" % mu.degree)
        if (mu.source_arity, mu.target_arity) != (2, 1):
            problems.append("product must be a 2->1 map")
        if lam.degree != lam_degree:
            problems.append("coproduct degree %d does not match declared %d"
                            % (lam.degree, lam_degree))
        if (lam.source_arity, lam.target_arity) != (1, 2):
            problems.append("coproduct must be a 1->2 map")
        if delta.degree != 1:
            problems.append("BV operator has degree %d, expected 1" % delta.degree)
        if not isinstance(eta, Element) or eta.arity != 1:
            problems.append("unit must be an element of the space")
        else:
            try:
                if eta.degree() != 0:
                    problems.append("unit has degree %s, expected 0" % eta.degree())
            except DegreeError:
                problems.append("unit is not homogeneous")
        if problems:
            raise ValidationError(problems)
        self.name = name
        self.space = space
        self.field = field
        self.mu = mu
        self.eta = eta
        self.lam = lam
        self.delta = delta
        self.lam_degree = lam_degree
        self._ctx = None

    has_counit = False
    # the raw "gysin" section of the instance file this was loaded from
    gysin_section = None

    def eta_map(self):
        return GradedMap((), (self.space,), 0, self.field, name="eta",
                         rule=lambda key: self.eta)

    def generator_maps(self):
        return {
            "mu": self.mu,
            "lambda": self.lam,
            "Delta": self.delta,
            "eta": self.eta_map(),
        }

    def context(self):
        if self._ctx is None:
            self._ctx = OpContext(self.generator_maps(), self.field)
        return self._ctx

    def copairing(self):
        """lambda applied to the unit, an element of the square."""
        return self.lam(self.eta)

    def is_finite(self):
        return self.space.is_finite()

    def __repr__(self):
        return "<%s %s over %s>" % (type(self).__name__, self.name, self.field.name)


class FrobeniusInstance(BVUIInstance):
    """BVUIInstance with an odd counit; caches copairing and pairing."""

    has_counit = True

    def __init__(self, name, space, field, mu, eta, lam, delta, lam_degree,
                 epsilon):
        super().__init__(name, space, field, mu, eta, lam, delta, lam_degree)
        problems = []
        if epsilon.degree != -lam_degree:
            problems.append("counit has degree %d, expected %d"
                            % (epsilon.degree, -lam_degree))
        if (epsilon.source_arity, epsilon.target_arity) != (1, 0):
            problems.append("counit must be a 1->0 map")
        if problems:
            raise ValidationError(problems)
        self.epsilon = epsilon
        self._pairing = None
        self._copairing = None

    def generator_maps(self):
        maps = super().generator_maps()
        maps["epsilon"] = self.epsilon
        return maps

    def copairing(self):
        if self._copairing is None:
            self._copairing = self.lam(self.eta)
        return self._copairing

    def pairing(self):
        """(-1)^{|lambda|} epsilon . mu, a map from the square to scalars."""
        if self._pairing is None:
            sign = -1 if self.lam_degree % 2 else 1
            self._pairing = compose(self.epsilon, self.mu).scale(sign)
            self._pairing.name = "pairing"
        return self._pairing

    def forget_counit(self):
        return BVUIInstance(self.name, self.space, self.field, self.mu,
                            self.eta, self.lam, self.delta, self.lam_degree)


def forget_frobenius_to_bvui(instance):
    """Drop the counit; the underlying data is unchanged."""
    return instance.forget_counit()


# ---------------------------------------------------------------------------
# relation catalog
# ---------------------------------------------------------------------------

# bracket [Delta, mu] and cobracket [Delta, lambda], expanded to primitives
BETA = "(Delta . mu - mu . (Delta (x) id) - mu . (id (x) Delta))"
GAMMA = "((Delta (x) id) . lambda + (id (x) Delta) . lambda + lambda . Delta)"

# the eleven-term relation; its first nine terms are the nine-term reduction
_ELEVEN_TERMS = [
    (1, "lambda . Delta . mu"),
    (-1, "lambda . mu . (Delta (x) id)"),
    (-1, "lambda . mu . (id (x) Delta)"),
    (1, "(Delta (x) id) . lambda . mu"),
    (1, "(id (x) Delta) . lambda . mu"),
    (-1, "(mu (x) id) . (id (x) Delta (x) id) . (id (x) lambda)"),
    (-1, "(mu (x) id) . (id (x) Delta (x) id) . (id (x) lambda) . tau"),
    (-1, "(id (x) mu) . (id (x) Delta (x) id) . (lambda (x) id)"),
    (-1, "(id (x) mu) . (id (x) Delta (x) id) . (lambda (x) id) . tau"),
    (1, "(mu (x) mu) . (id (x) id (x) Delta (x) id) . (id (x) (lambda . eta) (x) id)"),
    (1, "(mu (x) mu) . (id (x) id (x) Delta (x) id) . (id (x) (lambda . eta) (x) id) . tau"),
]

# the copairing symmetry, stated once for BVCopairingSym and BVFrobenius
_COPAIRING_SYM = [[
    (1, "(Delta (x) id) . lambda . eta"),
    (-1, "(id (x) Delta) . lambda . eta"),
]]

_CATALOG_SOURCE = {
    "Assoc": (3, "associativity of the product", (), [[
        (1, "mu . (mu (x) id)"),
        (-1, "mu . (id (x) mu)"),
    ]]),
    "Comm": (2, "commutativity of the product", (), [[
        (1, "mu . tau"),
        (-1, "mu"),
    ]]),
    "Unit": (1, "two-sided unit for the product", (), [
        [(1, "mu . (eta (x) id)"), (-1, "id")],
        [(1, "mu . (id (x) eta)"), (-1, "id")],
    ]),
    "Coassoc": (1, "odd coassociativity of the coproduct", (), [[
        (1, "(lambda (x) id) . lambda"),
        (1, "(id (x) lambda) . lambda"),
    ]]),
    "Cocomm": (1, "odd cocommutativity of the coproduct", (), [[
        (1, "tau . lambda"),
        (1, "lambda"),
    ]]),
    "Counit": (1, "two-sided odd counit for the coproduct", ("epsilon",), [
        [(1, "(epsilon (x) id) . lambda"), (-1, "id")],
        [(1, "(id (x) epsilon) . lambda"), (1, "id")],
    ]),
    "DeltaSquared": (1, "the BV operator squares to zero", (), [[
        (1, "Delta . Delta"),
    ]]),
    "UnitalInfinitesimal": (2, "four-term compatibility of product and coproduct",
                            (), [[
        (1, "lambda . mu"),
        (-1, "(id (x) mu) . (lambda (x) id)"),
        (-1, "(mu (x) id) . (id (x) lambda)"),
        (1, "(mu (x) mu) . (id (x) (lambda . eta) (x) id)"),
    ]]),
    "SevenTermMu": (3, "seven-term compatibility of the BV operator with the product",
                    (), [[
        (1, "Delta . mu . (mu (x) id)"),
        (-1, "mu . ((Delta . mu) (x) id)"),
        (-1, "mu . ((Delta . mu) (x) id) . sigma"),
        (-1, "mu . ((Delta . mu) (x) id) . sigma2"),
        (1, "mu . (mu (x) id) . (Delta (x) id (x) id)"),
        (1, "mu . (mu (x) id) . (Delta (x) id (x) id) . sigma"),
        (1, "mu . (mu (x) id) . (Delta (x) id (x) id) . sigma2"),
    ]]),
    "SevenTermLambda": (1, "seven-term compatibility of the BV operator with the coproduct",
                        (), [[
        (1, "(lambda (x) id) . lambda . Delta"),
        (1, "(Delta (x) id (x) id) . (lambda (x) id) . lambda"),
        (1, "sigma . (Delta (x) id (x) id) . (lambda (x) id) . lambda"),
        (1, "sigma2 . (Delta (x) id (x) id) . (lambda (x) id) . lambda"),
        (1, "((lambda . Delta) (x) id) . lambda"),
        (1, "sigma . ((lambda . Delta) (x) id) . lambda"),
        (1, "sigma2 . ((lambda . Delta) (x) id) . lambda"),
    ]]),
    "ElevenTerm": (2, "eleven-term compatibility of operator, product, coproduct and unit",
                   (), [_ELEVEN_TERMS]),
    "NineTerm": (2, "nine-term reduction of the eleven-term relation",
                 ("nine_term_reduction",), [_ELEVEN_TERMS[:9]]),
    "DeltaEta": (0, "the BV operator kills the unit", (), [[
        (1, "Delta . eta"),
    ]]),
    "BVCopairingSym": (0, "operator symmetry of the copairing", (), _COPAIRING_SYM),
    "Frobenius": (2, "Frobenius compatibility of product and coproduct",
                  (), [
        [(1, "lambda . mu"), (-1, "(mu (x) id) . (id (x) lambda)")],
        [(1, "lambda . mu"), (-1, "(id (x) mu) . (lambda (x) id)")],
    ]),
    "FrobeniusEta": (1, "coproduct recovered from the copairing", (), [
        [(1, "lambda"), (-1, "(mu (x) id) . (id (x) (lambda . eta))")],
        [(1, "lambda"), (-1, "(id (x) mu) . ((lambda . eta) (x) id)")],
    ]),
    "FrobeniusEpsilon": (2, "product recovered from the counit pairing",
                         ("epsilon",), [
        [(1, "mu"), (-1, "((epsilon . mu) (x) id) . (id (x) lambda)")],
        [(1, "mu"), (1, "(id (x) (epsilon . mu)) . (lambda (x) id)")],
    ]),
    "BVFrobenius": (0, "operator symmetry of the copairing (Frobenius axiom)", (),
                    _COPAIRING_SYM),
    "BVFrobeniusCounit": (2, "counit form of the operator symmetry", ("epsilon",), [[
        (1, "epsilon . mu . (Delta (x) id)"),
        (-1, "epsilon . mu . (id (x) Delta)"),
    ]]),
    "EpsilonDelta": (1, "the counit kills the operator", ("epsilon",), [[
        (1, "epsilon . Delta"),
    ]]),
    "Jacobi": (3, "graded Jacobi identity for the derived bracket", (), [[
        (1, "%s . (id (x) %s)" % (BETA, BETA)),
        (1, "%s . (id (x) %s) . sigma" % (BETA, BETA)),
        (1, "%s . (id (x) %s) . sigma2" % (BETA, BETA)),
    ]]),
    "CoJacobi": (1, "graded coJacobi identity for the derived cobracket", (), [[
        (1, "(%s (x) id) . %s" % (GAMMA, GAMMA)),
        (1, "sigma . (%s (x) id) . %s" % (GAMMA, GAMMA)),
        (1, "sigma2 . (%s (x) id) . %s" % (GAMMA, GAMMA)),
    ]]),
    "Poisson": (3, "Poisson compatibility of bracket and product", (), [[
        (1, "%s . (mu (x) id)" % BETA),
        (-1, "mu . (id (x) %s)" % BETA),
        (-1, "mu . (%s (x) id) . (id (x) tau)" % BETA),
    ]]),
    "CoPoisson": (1, "coPoisson compatibility of cobracket and coproduct", (), [[
        (1, "(lambda (x) id) . %s" % GAMMA),
        (-1, "(id (x) %s) . lambda" % GAMMA),
        (-1, "(id (x) tau) . (%s (x) id) . lambda" % GAMMA),
    ]]),
    "MixedLemma": (2, "nine-term mixed identity for bracket and cobracket", (), [[
        (1, "%s . mu" % GAMMA),
        (-1, "lambda . %s" % BETA),
        (-1, "(%s (x) id) . (id (x) lambda)" % BETA),
        (-1, "(mu (x) id) . (id (x) %s)" % GAMMA),
        (-1, "(id (x) mu) . (%s (x) id)" % GAMMA),
        (-1, "(id (x) %s) . (lambda (x) id)" % BETA),
        (1, "(mu (x) %s) . (id (x) (lambda . eta) (x) id)" % BETA),
        (1, "(%s (x) mu) . (id (x) (lambda . eta) (x) id)" % BETA),
        (1, "(mu (x) mu) . (id (x) (%s . eta) (x) id)" % GAMMA),
    ]]),
    "PermMu": (3, "cyclic invariance of the triple product", (), [[
        (1, "mu . (mu (x) id) . sigma"),
        (-1, "mu . (mu (x) id)"),
    ]]),
    "PermLambda": (1, "cyclic invariance of the triple coproduct", (), [[
        (1, "sigma . (lambda (x) id) . lambda"),
        (-1, "(lambda (x) id) . lambda"),
    ]]),
    "EpsilonElevenTerm": (2, "counit contraction of the eleven-term relation",
                          ("epsilon",), [[
        (1, "epsilon . mu . (Delta (x) id)"),
        (1, "epsilon . mu . (id (x) Delta)"),
        (-1, "((epsilon . mu) (x) (epsilon . mu)) . (id (x) id (x) Delta (x) id)"
             " . (id (x) (lambda . eta) (x) id)"),
        (-1, "((epsilon . mu) (x) (epsilon . mu)) . (id (x) id (x) Delta (x) id)"
             " . (id (x) (lambda . eta) (x) id) . tau"),
    ]]),
}

_CATALOG = {}


def builtin_relation(rid):
    """The RelationSpec for a stable relation id."""
    if rid not in _CATALOG:
        if rid not in _CATALOG_SOURCE:
            raise EngineError("unknown relation id %r" % rid)
        arity, description, requires, groups = _CATALOG_SOURCE[rid]
        _CATALOG[rid] = make_relation(rid, arity, description, groups, requires)
    return _CATALOG[rid]


def relation_ids():
    return tuple(_CATALOG_SOURCE)


BVUI_FULL = ("Assoc", "Comm", "Unit", "Coassoc", "Cocomm", "DeltaSquared",
             "UnitalInfinitesimal", "SevenTermMu", "SevenTermLambda",
             "ElevenTerm")
FROBENIUS_FULL = BVUI_FULL + ("Counit", "Frobenius", "FrobeniusEta",
                              "FrobeniusEpsilon", "BVFrobenius",
                              "BVFrobeniusCounit", "EpsilonDelta")
CONSEQUENCES = ("Jacobi", "CoJacobi", "Poisson", "CoPoisson", "MixedLemma",
                "DeltaEta", "BVCopairingSym", "PermMu", "PermLambda")


def is_applicable(spec, instance):
    """Evaluate a relation's applicability predicates on an instance."""
    for req in spec.requires:
        if req == "epsilon":
            if not instance.has_counit:
                return False, "instance has no counit"
        elif req == "nine_term_reduction":
            probe = parse("(id (x) Delta) . lambda . eta")
            value = evaluate_closed(probe, instance)
            if not value.is_zero():
                return False, ("reduction hypothesis fails: "
                               "(id (x) Delta) . lambda . eta = %s" % value)
        else:
            raise EngineError("unknown applicability predicate %r" % req)
    return True, ""


def evaluate_closed(expr, instance):
    """Evaluate an arity-0 expression (applied to the unit scalar)."""
    from .expr import evaluate
    return evaluate(expr, instance.context(), scalar_element(instance.field))


def check_structure(instance, suite, window=Window()):
    """One report per relation id, in suite order; the relations of one
    arity are walked together (see checks.check_relations)."""
    return check_relations(
        [builtin_relation(rid) for rid in suite], instance.context(),
        instance.space, window, instance_name=instance.name,
        applicability=lambda spec: is_applicable(spec, instance))


def check_consequences(instance, window=Window()):
    """The derived identities, with bracket and cobracket expanded."""
    return check_structure(instance, CONSEQUENCES, window)


def derived_bracket(instance):
    """[Delta, mu] with the operator extended as Delta(x)1 + 1(x)Delta:
    the context's memoized map of the BETA Sum, shared with every
    relation that uses it."""
    return as_map(parse(BETA), instance.context(),
                  (instance.space, instance.space))


def derived_cobracket(instance):
    """[Delta, lambda]; degree |lambda| + 1.  The context's memoized map
    of the GAMMA Sum."""
    return as_map(parse(GAMMA), instance.context(), (instance.space,))
