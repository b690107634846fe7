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
    rejected on every call.
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

    def contains(self, basis_name):
        key = sphere_key(basis_name)
        return key is not None and sphere_name(*key) == basis_name

    def window_names(self, k):
        names = [sphere_name(a, i) for a in (False, True) for i in range(k + 1)]
        return tuple(sorted(names))


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

def _table_map(space, field, src_arity, tgt_arity, degree, name, rows):
    """``core.table_map`` of a literal {input: {output: coeff}} table."""
    return table_map((space,) * src_arity, (space,) * tgt_arity, degree, field,
                     [(key, okey, c) for key, out in rows.items()
                      for okey, c in out.items()], name)


def sphere_frobenius_model(n, field=QQ):
    """Two-dimensional odd Frobenius model {1, x} with |x| = -n.

    Product unital with x^2 = 0; lambda(1) = x(x)1 - 1(x)x,
    lambda(x) = x(x)x; epsilon(1) = 0, epsilon(x) = 1; Delta = 0.
    """
    if n < 3 or n % 2 == 0:
        raise EngineError("Frobenius sphere model needs odd n >= 3, got %d" % n)
    space = FiniteSpace("sphere-frob:%d" % n, {"1": 0, "x": -n})
    mu = _table_map(space, field, 2, 1, 0, "mu", {
        ("1", "1"): {("1",): 1},
        ("1", "x"): {("x",): 1},
        ("x", "1"): {("x",): 1},
        ("x", "x"): {},
    })
    lam = _table_map(space, field, 1, 2, -n, "lambda", {
        ("1",): {("x", "1"): 1, ("1", "x"): -1},
        ("x",): {("x", "x"): 1},
    })
    delta = _table_map(space, field, 1, 1, 1, "Delta", {})
    epsilon = _table_map(space, field, 1, 0, n, "epsilon", {
        ("x",): {(): 1},
    })
    eta = basis_element((space,), field, ("1",))
    return FrobeniusInstance("sphere-frob:%d" % n, space, field, mu, eta, lam,
                             delta, -n, epsilon)


def trivial_model(field=QQ):
    """The one-dimensional instance: everything but the unit vanishes."""
    space = FiniteSpace("trivial", {"1": 0})
    mu = _table_map(space, field, 2, 1, 0, "mu", {("1", "1"): {("1",): 1}})
    lam = _table_map(space, field, 1, 2, -1, "lambda", {})
    delta = _table_map(space, field, 1, 1, 1, "Delta", {})
    eta = basis_element((space,), field, ("1",))
    return BVUIInstance("trivial", space, field, mu, eta, lam, delta, -1)


def exterior_model(field=QQ):
    """Free graded-commutative algebra on one odd generator, zero coproduct."""
    space = FiniteSpace("exterior", {"1": 0, "x": -1})
    mu = _table_map(space, field, 2, 1, 0, "mu", {
        ("1", "1"): {("1",): 1},
        ("1", "x"): {("x",): 1},
        ("x", "1"): {("x",): 1},
        ("x", "x"): {},
    })
    lam = _table_map(space, field, 1, 2, -1, "lambda", {})
    delta = _table_map(space, field, 1, 1, 1, "Delta", {})
    eta = basis_element((space,), field, ("1",))
    return BVUIInstance("exterior", space, field, mu, eta, lam, delta, -1)


def three_dim_model(field=QQ):
    """Nonzero coproduct with vanishing copairing: lambda(b) = a(x)a."""
    space = FiniteSpace("three-dim", {"1": 0, "a": -1, "b": -1})
    mu = _table_map(space, field, 2, 1, 0, "mu", {
        ("1", "1"): {("1",): 1},
        ("1", "a"): {("a",): 1},
        ("a", "1"): {("a",): 1},
        ("1", "b"): {("b",): 1},
        ("b", "1"): {("b",): 1},
    })
    lam = _table_map(space, field, 1, 2, -1, "lambda", {
        ("b",): {("a", "a"): 1},
    })
    delta = _table_map(space, field, 1, 1, 1, "Delta", {})
    eta = basis_element((space,), field, ("1",))
    return BVUIInstance("three-dim", space, field, mu, eta, lam, delta, -1)


def finite_bvui_examples(field=QQ):
    """The finite built-ins; the test suite checks that each passes the
    full BVUI suite over Q and Fp:101."""
    return [trivial_model(field), exterior_model(field), three_dim_model(field)]


# ---------------------------------------------------------------------------
# mutations for negative testing
# ---------------------------------------------------------------------------

MUTATIONS = {
    "identity": "no change; every suite still passes",
    "lambda-u-flip": "flip the sign of the U^i (x) AU^j terms in lambda(U^k)",
    "delta-au-doubled": "set Delta(AU^1) = 2 instead of 1 times U^0",
}


def mutate(instance, mutation):
    """A named structure-constant mutation, expected to break a relation."""
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
            out = instance.lam.on_key(key)
            if sphere_key(key[0])[0]:       # lambda(AU^k) is unchanged
                return out
            return Element(out.spaces, field, {
                k: v if sphere_key(k[0])[0] else field.neg(v)
                for k, v in out.coeffs.items()})
        lam = GradedMap(lam.source, lam.target, lam.degree, field,
                        name="lambda[mutated]", rule=lam_rule)
    elif mutation == "delta-au-doubled":
        def delta_rule(key):
            out = instance.delta.on_key(key)
            return out.scale(2) if key == ("AU",) else out
        delta = GradedMap(delta.source, delta.target, delta.degree, field,
                          name="Delta[mutated]", rule=delta_rule)
    return BVUIInstance(instance.name + "+" + mutation, instance.space, field,
                        instance.mu, instance.eta, lam, delta,
                        instance.lam_degree)


# ---------------------------------------------------------------------------
# model registry for the CLI
# ---------------------------------------------------------------------------

def builtin_model(name, field=QQ):
    """Resolve a model name: sphere:<n>, sphere-frob:<n>, trivial,
    exterior, three-dim."""
    if name == "trivial":
        return trivial_model(field)
    if name == "exterior":
        return exterior_model(field)
    if name == "three-dim":
        return three_dim_model(field)
    if name.startswith("sphere-frob:"):
        return sphere_frobenius_model(int(name.split(":", 1)[1]), field)
    if name.startswith("sphere:"):
        return sphere_model(int(name.split(":", 1)[1]), field)
    raise EngineError("unknown model %r" % name)


BUILTIN_MODEL_NAMES = ("sphere:<n>", "sphere-frob:<n>", "trivial", "exterior",
                       "three-dim")
