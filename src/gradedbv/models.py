"""Built-in instances.

The flagship model is the rule-based loop homology of an odd sphere:
the free graded-commutative algebra on a class A of degree -n and a
class U of degree n-1, with the explicit coproduct

    lambda(AU^k) = sum_{i+j=k-1} AU^i (x) AU^j
    lambda(U^k)  = sum_{i+j=k-1} (AU^i (x) U^j - U^i (x) AU^j)

and operator Delta(U^k) = 0, Delta(AU^k) = k U^{k-1}.  All operations
preserve finite support, so nothing is ever truncated; only the inputs
enumerated by a check window are bounded.
"""

from __future__ import annotations

import re

from .core import (Element, EngineError, FiniteSpace, GradedMap, GradedSpace,
                   QQ, UnknownBasisName, basis_element, table_map,
                   zero_element)
from .structures import BVUIInstance, FrobeniusInstance


# ---------------------------------------------------------------------------
# odd-sphere loop model
# ---------------------------------------------------------------------------

_SPHERE_NAME = re.compile(r"^(A?)U\^(\d+)$|^(A?)(U?)$")


def sphere_key(name):
    """Decode a sphere basis name into (a_flag, u_power), else None."""
    if name == "1":
        return (False, 0)
    m = _SPHERE_NAME.match(name)
    if not m:
        return None
    if m.group(2) is not None:
        return (m.group(1) == "A", int(m.group(2).lstrip("0") or "0"))
    a, u = m.group(3), m.group(4)
    if not a and not u:
        return None
    return (a == "A", 1 if u == "U" else 0)


def sphere_name(a_flag, k):
    if k < 0:
        raise EngineError("negative U-power")
    head = "A" if a_flag else ""
    if k == 0:
        return head or "1"
    if k == 1:
        return head + "U"
    return "%sU^%d" % (head, k)


class SphereSpace(GradedSpace):
    """Rule-generated basis {U^k, AU^k : k >= 0} for odd n >= 3.

    Degrees are looked up in a dict from canonical name to degree; a
    name enters it once it has passed the spelling check of
    ``sphere_key``/``sphere_name``, so ``U^1``, ``AU^0`` or ``U^01`` are
    rejected on every call.  Input is read more freely: its
    ``canonical_name`` is ``normalize_sphere_name``'s.
    """

    def __init__(self, n):
        self.n = n
        self.name = "sphere:%d" % n
        self._degrees = {}

    def degree(self, basis_name):
        try:
            return self._degrees[basis_name]
        except KeyError:
            pass
        key = sphere_key(basis_name)
        if key is None or sphere_name(*key) != basis_name:
            raise UnknownBasisName("%r is not a basis element of %s"
                                   % (basis_name, self.name))
        a, k = key
        degree = k * (self.n - 1) - (self.n if a else 0)
        self._degrees[basis_name] = degree
        return degree

    def canonical_name(self, raw):
        return normalize_sphere_name(raw)

    def window_names(self, k):
        names = [sphere_name(a, i) for a in (False, True) for i in range(k + 1)]
        return tuple(sorted(names))

    def names_in_degree(self, d):
        """U^k when k(n-1) = d, AU^k when k(n-1) - n = d: at most one
        name, as n - 1 does not divide n."""
        return tuple(sphere_name(a, (d + shift) // (self.n - 1))
                     for a, shift in ((False, 0), (True, self.n))
                     if d + shift >= 0 and (d + shift) % (self.n - 1) == 0)


def sphere_model(n, field=QQ):
    """The odd-sphere loop homology instance; |lambda| = 1 - 2n."""
    if n < 3 or n % 2 == 0:
        raise EngineError("sphere model needs odd n >= 3, got %d" % n)
    space = SphereSpace(n)
    spaces1 = (space,)
    spaces2 = (space, space)

    def mu_rule(key):
        (a1, k1), (a2, k2) = sphere_key(key[0]), sphere_key(key[1])
        if a1 and a2:
            return zero_element(spaces1, field)
        return basis_element(spaces1, field, (sphere_name(a1 or a2, k1 + k2),))

    def lam_rule(key):
        # the keys for distinct i are distinct, so nothing is summed
        a, k = sphere_key(key[0])
        one = field.coerce(1)
        minus = field.coerce(-1)
        coeffs = {}
        for i in range(k):
            j = k - 1 - i
            if a:
                coeffs[(sphere_name(True, i), sphere_name(True, j))] = one
            else:
                coeffs[(sphere_name(True, i), sphere_name(False, j))] = one
                coeffs[(sphere_name(False, i), sphere_name(True, j))] = minus
        return Element(spaces2, field, coeffs)

    def delta_rule(key):
        a, k = sphere_key(key[0])
        if not a or k == 0:
            return zero_element(spaces1, field)
        return basis_element(spaces1, field, (sphere_name(False, k - 1),), k)

    mu = GradedMap(spaces2, spaces1, 0, field, name="mu", rule=mu_rule)
    lam = GradedMap(spaces1, spaces2, 1 - 2 * n, field, name="lambda",
                    rule=lam_rule)
    delta = GradedMap(spaces1, spaces1, 1, field, name="Delta", rule=delta_rule)
    eta = basis_element(spaces1, field, ("1",))
    return BVUIInstance("sphere:%d" % n, space, field, mu, eta, lam, delta,
                        1 - 2 * n)


# The largest U-power ``normalize_sphere_name`` accepts: lambda(U^k) has 2k
# terms, and a composite such as (lambda (x) id) . lambda has about k^2.
MAX_INPUT_U_POWER = 1000


def normalize_sphere_name(raw):
    """Canonical spelling of a sphere basis name read from input (``U^1``
    is ``U``), or None when ``raw`` is no sphere name.  A U-power above
    MAX_INPUT_U_POWER is an EngineError."""
    m = _SPHERE_NAME.match(raw)
    digits = m.group(2).lstrip("0") if m and m.group(2) else ""
    # lengths first: int() refuses strings of more than a few thousand digits
    if (len(digits) > len(str(MAX_INPUT_U_POWER))
            or int(digits or "0") > MAX_INPUT_U_POWER):
        raise EngineError("U-power in %r exceeds the input bound %d"
                          % (raw, MAX_INPUT_U_POWER))
    key = sphere_key(raw)
    return None if key is None else sphere_name(*key)


# ---------------------------------------------------------------------------
# finite models
# ---------------------------------------------------------------------------

def _finite_model(name, degrees, lam_degree, mu, lam, field, delta=None,
                  epsilon=None):
    """A finite instance on the basis ``degrees`` ({name: degree}) with
    unit 1.  ``mu``, ``lam``, ``delta`` and ``epsilon`` list (input key,
    output key, coefficient) entries for ``core.table_map``; ``mu`` lists
    only the products of two names other than 1, whose rows 1 * b = b *
    1 = b are written here.  No ``delta`` is Delta = 0, and an
    ``epsilon`` of degree -|lambda| makes a FrobeniusInstance."""
    space = FiniteSpace(name, degrees)

    def table(source, target, degree, map_name, entries):
        return table_map((space,) * source, (space,) * target, degree, field,
                         entries, map_name)

    unit = [(("1", b), (b,), 1) for b in degrees]
    unit += [((b, "1"), (b,), 1) for b in degrees if b != "1"]
    mu = table(2, 1, 0, "mu", unit + list(mu))
    eta = basis_element((space,), field, ("1",))
    lam = table(1, 2, lam_degree, "lambda", lam)
    delta = table(1, 1, 1, "Delta", delta or ())
    if epsilon is None:
        return BVUIInstance(name, space, field, mu, eta, lam, delta, lam_degree)
    return FrobeniusInstance(name, space, field, mu, eta, lam, delta,
                             lam_degree,
                             table(1, 0, -lam_degree, "epsilon", epsilon))


def sphere_frobenius_model(n, field=QQ):
    """Two-dimensional odd Frobenius model {1, x} with |x| = -n.

    Product unital with x^2 = 0; lambda(1) = x(x)1 - 1(x)x,
    lambda(x) = x(x)x; epsilon(1) = 0, epsilon(x) = 1; Delta = 0.
    """
    if n < 3 or n % 2 == 0:
        raise EngineError("Frobenius sphere model needs odd n >= 3, got %d" % n)
    return _finite_model(
        "sphere-frob:%d" % n, {"1": 0, "x": -n}, -n, (),
        [(("1",), ("x", "1"), 1), (("1",), ("1", "x"), -1),
         (("x",), ("x", "x"), 1)], field, epsilon=[(("x",), (), 1)])


def trivial_model(field=QQ):
    """The one-dimensional instance: everything but the unit vanishes."""
    return _finite_model("trivial", {"1": 0}, -1, (), (), field)


def exterior_model(field=QQ):
    """Free graded-commutative algebra on one odd generator, zero coproduct."""
    return _finite_model("exterior", {"1": 0, "x": -1}, -1, (), (), field)


def exterior_bv_model(field=QQ):
    """The exterior algebra on one odd generator x with Delta = d/dx.

    Basis 1 (degree 0) and x (degree -1); product unital with x^2 = 0;
    lambda = 0 with |lambda| = -1; Delta(1) = 0, Delta(x) = 1.  As
    lambda(1) = 0 it has a double, whose Delta is nonzero too: there a
    single sign flip fails in each relation whose flips the models with
    Delta = 0 cannot see.
    """
    return _finite_model("exterior-bv", {"1": 0, "x": -1}, -1, (), (), field,
                         delta=[(("x",), ("1",), 1)])


def three_dim_model(field=QQ):
    """Nonzero coproduct with vanishing copairing: lambda(b) = a(x)a."""
    return _finite_model("three-dim", {"1": 0, "a": -1, "b": -1}, -1, (),
                         [(("b",), ("a", "a"), 1)], field)


_FINITE_MODELS = {"trivial": trivial_model, "exterior": exterior_model,
                  "three-dim": three_dim_model,
                  "exterior-bv": exterior_bv_model}


def finite_bvui_examples(field=QQ):
    """The finite built-ins; the test suite checks that each passes the
    full BVUI suite over Q and Fp:101."""
    return [build(field) for build in _FINITE_MODELS.values()]


# ---------------------------------------------------------------------------
# mutations for negative testing
# ---------------------------------------------------------------------------

MUTATIONS = {
    "identity": "no change; every suite still passes",
    "lambda-u-flip": "flip the sign of the U^i (x) AU^j terms in lambda(U^k)",
    "delta-au-doubled": "set Delta(AU^1) = 2 instead of 1 times U^0",
}


def mutate(instance, mutation):
    """A named structure-constant mutation, expected to break a relation.

    The mutated lambda or Delta is a new map whose rule transforms the
    instance's rule, not its cached outputs, so each key is checked and
    cached once, by the mutated map."""
    if mutation == "identity":
        return instance
    if mutation not in MUTATIONS:
        raise EngineError("unknown mutation %r (have: %s)"
                          % (mutation, ", ".join(sorted(MUTATIONS))))
    if not isinstance(instance.space, SphereSpace):
        raise EngineError("mutation %r targets the sphere model" % mutation)
    field = instance.field
    lam, delta = instance.lam, instance.delta
    if mutation == "lambda-u-flip":
        def lam_rule(key):
            out = instance.lam.rule(key)
            if sphere_key(key[0])[0]:       # lambda(AU^k) is unchanged
                return out
            return Element(out.spaces, field, {
                k: v if sphere_key(k[0])[0] else field.neg(v)
                for k, v in out.coeffs.items()})
        lam = GradedMap(lam.source, lam.target, lam.degree, field,
                        name="lambda[mutated]", rule=lam_rule)
    elif mutation == "delta-au-doubled":
        def delta_rule(key):
            out = instance.delta.rule(key)
            return out.scale(2) if key == ("AU",) else out
        delta = GradedMap(delta.source, delta.target, delta.degree, field,
                          name="Delta[mutated]", rule=delta_rule)
    return BVUIInstance(instance.name + "+" + mutation, instance.space, field,
                        instance.mu, instance.eta, lam, delta,
                        instance.lam_degree)


# ---------------------------------------------------------------------------
# model registry for the CLI
# ---------------------------------------------------------------------------

# A sphere dimension has at most this many digits: int() refuses strings
# of more than a few thousand.
MAX_DIMENSION_DIGITS = 100


def builtin_model(name, field=QQ):
    """Resolve a model name: sphere:<n>, sphere-frob:<n>, trivial,
    exterior, three-dim, exterior-bv; n is written in ASCII digits."""
    if name in _FINITE_MODELS:
        return _FINITE_MODELS[name](field)
    prefix, _, digits = name.partition(":")
    build = {"sphere": sphere_model,
             "sphere-frob": sphere_frobenius_model}.get(prefix)
    if (build and digits.isascii() and digits.isdigit()
            and len(digits) <= MAX_DIMENSION_DIGITS):
        return build(int(digits), field)
    raise EngineError("unknown model %.60r" % name)


BUILTIN_MODEL_NAMES = ("sphere:<n>", "sphere-frob:<n>") + tuple(_FINITE_MODELS)
