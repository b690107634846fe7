"""Degreewise dualization, evaluation/coevaluation, shifts, and the
double construction.

For a finite graded space the dual basis element of ``e`` is named
``e^`` with degree -|e|.  Dual maps are produced by a brute-force
adjunction solve from

    ev(f_dual (x) 1) = ev(1 (x) f),

where the pairing of tensor powers contracts factors inside out, so the
dual of a tensor power reverses slot order.  The double of an instance
with vanishing copairing lives on the direct sum of the space and its
shifted dual; shifted dual names carry a prime: ``e'`` has degree
-|e| + |lambda|.  Each structure map of the double is assembled from
six named components so that sign errors localize; the tests recompute
every component along an independent evaluation/coevaluation route.
"""

from __future__ import annotations

from .core import (Element, EngineError, FiniteSpace, GradedMap,
                   basis_element, identity, permute, source_basis_keys,
                   table_map)
from .structures import FrobeniusInstance


class DoubleError(EngineError):
    pass


# ---------------------------------------------------------------------------
# dual spaces and dual maps
# ---------------------------------------------------------------------------

def dual_space(space):
    """A^vee with basis e^ of degree -|e|; finite spaces only.

    Each call builds a fresh space; spaces are told apart by name, so
    two duals of one space are interchangeable.
    """
    if not space.is_finite():
        raise DoubleError("cannot dualize the infinite space %s" % space.name)
    return FiniteSpace(space.name + "^",
                       {n + "^": -space.degree(n) for n in space.basis_names()})


def dual_name(name):
    return name + "^"


def rev_dual_key(key):
    return tuple(dual_name(n) for n in reversed(key))


def dual_map(f, name=None):
    """The adjoint of a map between finite tensor powers.

    Satisfies ev(f_dual (x) 1) = ev(1 (x) f); the slot order of source
    and target reverses.  Contravariance carries the Koszul sign:
    dual(f . g) = (-1)^{|f||g|} dual(g) . dual(f).
    """
    field = f.field
    src = tuple(dual_space(t) for t in reversed(f.target))
    tgt = tuple(dual_space(s) for s in reversed(f.source))
    sign_flip = f.degree % 2

    def entries():
        for key in source_basis_keys(f.source):
            image_key = rev_dual_key(key)
            for okey, coeff in f.on_key(key).coeffs.items():
                # (-1)^{|f||phi|} with |phi| = -|f(key)|
                if sign_flip and (sum(f.target[i].degree(n)
                                      for i, n in enumerate(okey)) % 2):
                    coeff = field.neg(coeff)
                yield rev_dual_key(okey), image_key, coeff

    return table_map(src, tgt, f.degree, field, entries(),
                     name or "dual(%s)" % f.name)


def build_ev_coev(space, field):
    """The canonical pairing and copairing of a finite space.

    ev(e^ (x) e) = 1 and coev(1) = sum e (x) e^; the four zig-zag
    identities hold exactly.
    """
    if not space.is_finite():
        raise DoubleError("cannot build ev/coev on infinite %s" % space.name)
    dv = dual_space(space)
    names = space.basis_names()
    ev = table_map((dv, space), (), 0, field,
                   [((dual_name(n), n), (), 1) for n in names], "ev")
    coev = table_map((), (space, dv), 0, field,
                     [((), (n, dual_name(n)), 1) for n in names], "coev")
    return ev, coev


def double_dual_identification(space, field):
    """The canonical iso A -> A^vee^vee, e |-> (-1)^{|e|} e^^.

    With this sign, dual(dual(f)) composed around the identification
    recovers f exactly for maps of any degree.
    """
    ddual = dual_space(dual_space(space))

    def rule(key):
        deg = space.degree(key[0])
        return basis_element((ddual,), field, (dual_name(dual_name(key[0])),),
                             -1 if deg % 2 else 1)

    return GradedMap((space,), (ddual,), 0, field, name="iota", rule=rule)


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def shift_space(space, lam_degree, tag="'"):
    """The shifted dual part of the double: e' has degree -|e| + |lambda|."""
    return FiniteSpace(space.name + tag,
                       {n + tag: -space.degree(n) + lam_degree
                        for n in space.basis_names()})


def build_shifts(space, shifted, lam_degree, field):
    """Mutually inverse s (degree |lambda|) and omega (degree -|lambda|)."""
    dv = dual_space(space)
    pairs = [((dual_name(n),), (n + "'",)) for n in space.basis_names()]
    s = table_map((dv,), (shifted,), lam_degree, field,
                  [(v, sh, 1) for v, sh in pairs], "s")
    w = table_map((shifted,), (dv,), -lam_degree, field,
                  [(sh, v, 1) for v, sh in pairs], "omega")
    return s, w


# ---------------------------------------------------------------------------
# the double construction
# ---------------------------------------------------------------------------

class DoubleData:
    """The assembled double plus its named component maps.

    ``mu_components`` and ``lam_components`` are keyed by (input parts)
    respectively (output parts) so the tests can exercise each of the
    six product and six coproduct pieces in isolation.
    """

    def __init__(self, instance, base, parts):
        self.instance = instance
        self.base = base
        for key, value in parts.items():
            setattr(self, key, value)


def build_double(instance):
    """Frobenius structure on the sum of a finite instance with
    vanishing copairing and its shifted dual."""
    return build_double_data(instance).instance


def build_double_data(instance):
    A = instance.space
    field = instance.field
    if not A.is_finite():
        raise DoubleError("the double needs a finite-dimensional instance, "
                          "%s is rule-generated" % A.name)
    cop = instance.copairing()
    if not cop.is_zero():
        raise DoubleError("the double needs lambda . eta = 0, got %s" % cop)

    d = instance.lam_degree
    Av = dual_space(A)
    Sh = shift_space(A, d)
    names = {}
    for n in A.basis_names():
        names[n] = A.degree(n)
    for n in Sh.basis_names():
        names[n] = Sh.degree(n)
    D = FiniteSpace("D(%s)" % instance.name, names)

    iA = identity(A, field)
    iAv = identity(Av, field)
    mu, lam, delta = instance.mu, instance.lam, instance.delta
    ev, coev = build_ev_coev(A, field)
    s, w = build_shifts(A, Sh, d, field)
    tau_AAv = permute((1, 0), (A, Av), field)
    ev_t = ev * tau_AAv          # (A, Av) -> scalars
    coev_t = tau_AAv * coev      # scalars -> (Av, A)
    mu_d = dual_map(mu)
    lam_d = dual_map(lam)
    delta_d = dual_map(delta)

    # product components, by input parts (a = base, v = shifted dual)
    mu_comp = {
        ("a", "a", "a"): mu,
        ("v", "a", "v"): s * (iAv @ ev) * (mu_d @ iA) * (w @ iA),
        ("a", "v", "v"): s * (ev_t @ iAv) * (iA @ mu_d) * (iA @ w),
        ("v", "v", "v"): s * lam_d * (w @ w),
        ("v", "a", "a"): ((ev @ iA) * (iAv @ lam) * (w @ iA)).scale(-1),
        ("a", "v", "a"): (iA @ ev_t) * (lam @ iAv) * (iA @ w),
    }
    # coproduct components, by source part and output parts
    lam_comp = {
        ("a", "a", "a"): lam,
        ("v", "a", "v"): (iA @ s) * (ev @ iA @ iAv) * (iAv @ lam @ iAv)
                         * (iAv @ coev) * w,
        ("v", "v", "a"): (s @ iA) * (iAv @ iA @ ev_t) * (iAv @ lam @ iAv)
                         * (coev_t @ iAv) * w,
        ("v", "v", "v"): (s @ s) * mu_d * w,
        ("a", "a", "v"): ((iA @ s) * (mu @ iAv) * (iA @ coev)).scale(-1),
        ("a", "v", "a"): (s @ iA) * (iAv @ mu) * (coev_t @ iA),
    }

    def assemble(source, target, degree, name, components):
        """The map on D summing, on each basis key, the components whose
        leading parts are the parts of the key's slots."""
        def entries():
            for key in source_basis_keys(source):
                parts = tuple("a" if A.contains(n) else "v" for n in key)
                for comp_parts, comp in components.items():
                    if comp_parts[:len(key)] == parts:
                        for okey, coeff in comp.on_key(key).coeffs.items():
                            yield key, okey, coeff
        return table_map(source, target, degree, field, entries(), name)

    delta_sh = (s * delta_d * w).scale(-1)
    mu_D = assemble((D, D), (D,), 0, "mu", mu_comp)
    lam_D = assemble((D,), (D, D), d, "lambda", lam_comp)
    delta_D = assemble((D,), (D,), 1, "Delta",
                       {("a",): delta, ("v",): delta_sh})
    eta_D = Element((D,), field, instance.eta.coeffs)
    eps_D = table_map((D,), (), -d, field,
                      [((n + "'",), (), c)
                       for (n,), c in instance.eta.coeffs.items()], "epsilon")

    frob = FrobeniusInstance("D(%s)" % instance.name, D, field, mu_D, eta_D,
                             lam_D, delta_D, d, eps_D)
    return DoubleData(frob, instance, {
        "mu_components": mu_comp,
        "lam_components": lam_comp,
        "delta_shifted": delta_sh,
        "spaces": (A, Av, Sh, D),
        "shifts": (s, w),
        "ev_coev": (ev, coev),
        "duals": {"mu": mu_d, "lambda": lam_d, "Delta": delta_d},
    })
