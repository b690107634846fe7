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
named components so that sign errors localize.  Each component is an
expression (``MU_COMPONENTS``, ``LAMBDA_COMPONENTS``,
``DELTA_COMPONENTS``) compiled by ``expr`` in one context: the
instance's generators plus ``ev``, ``coev``, the shift ``s`` and its
inverse ``omega``, with ``dual(f)`` for duals.  The tests recompute
every component along an independent evaluation/coevaluation route.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (Element, EngineError, FiniteSpace, GradedMap,
                   basis_element, source_basis_keys, table_map)
from .expr import OpContext, compile_expr, parse
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


def dual_map(f):
    """The adjoint of a map between finite tensor powers.

    Satisfies ev(f_dual (x) 1) = ev(1 (x) f); the slot order of source
    and target reverses.  Contravariance carries the Koszul sign:
    dual(f . g) = (-1)^{|f||g|} dual(g) . dual(f).
    """
    field = f.field
    src = tuple(dual_space(t) for t in reversed(f.target))
    tgt = tuple(dual_space(s) for s in reversed(f.source))

    def entries():
        for key in source_basis_keys(f.source):
            image_key = rev_dual_key(key)
            # (-1)^{|f||phi|} with |phi| = -|f(key)|, and |f(key)| =
            # source_degree(key) + |f| is the degree on_key has checked
            flip = f.degree % 2 and (f.source_degree(key) + f.degree) % 2
            for okey, coeff in f.on_key(key).coeffs.items():
                yield (rev_dual_key(okey), image_key,
                       field.neg(coeff) if flip else coeff)

    return table_map(src, tgt, f.degree, field, entries(), "dual(%s)" % f.name)


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

def shift_space(space, lam_degree):
    """The shifted dual part of the double: e' has degree -|e| + |lambda|."""
    return FiniteSpace(space.name + "'",
                       {n + "'": -space.degree(n) + lam_degree
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

# Components of the double's structure maps, keyed by their input parts
# and then their output parts: "a" is the base and "v" the shifted dual.
# Each is a map from the spaces of its input parts to those of its
# output parts.
MU_COMPONENTS = {
    ("a", "a", "a"): "mu",
    ("v", "a", "v"): "s . (id (x) ev) . (dual(mu) (x) id) . (omega (x) id)",
    ("a", "v", "v"):
        "s . ((ev . tau) (x) id) . (id (x) dual(mu)) . (id (x) omega)",
    ("v", "v", "v"): "s . dual(lambda) . (omega (x) omega)",
    ("v", "a", "a"): "-((ev (x) id) . (id (x) lambda) . (omega (x) id))",
    ("a", "v", "a"): "(id (x) (ev . tau)) . (lambda (x) id) . (id (x) omega)",
}
LAMBDA_COMPONENTS = {
    ("a", "a", "a"): "lambda",
    ("v", "a", "v"): "(id (x) s) . (ev (x) id (x) id) . (id (x) lambda (x) id)"
                     " . (id (x) coev) . omega",
    ("v", "v", "a"): "(s (x) id) . (id (x) id (x) (ev . tau))"
                     " . (id (x) lambda (x) id) . ((tau . coev) (x) id) . omega",
    ("v", "v", "v"): "(s (x) s) . dual(mu) . omega",
    ("a", "a", "v"): "-((id (x) s) . (mu (x) id) . (id (x) coev))",
    ("a", "v", "a"): "(s (x) id) . (id (x) mu) . ((tau . coev) (x) id)",
}
DELTA_COMPONENTS = {
    ("a", "a"): "Delta",
    ("v", "v"): "-(s . dual(Delta) . omega)",
}


class DoubleData(namedtuple("DoubleData", "instance base spaces context "
                                         "mu_components lam_components")):
    """The assembled double plus its named component maps.

    ``context`` holds the base instance's generators and ``ev``,
    ``coev``, ``s`` and ``omega``; every component is compiled in it.
    ``mu_components`` and ``lam_components`` map the keys of
    ``MU_COMPONENTS`` and ``LAMBDA_COMPONENTS`` to the compiled maps, so
    the tests can exercise each of the six product and six coproduct
    pieces in isolation.  ``spaces`` is (A, A^vee, shifted dual, D).
    """

    __slots__ = ()


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
    Sh = shift_space(A, d)
    clash = sorted(set(A.basis_names()) & set(Sh.basis_names()))
    if clash:
        raise DoubleError("basis name %r is also the shifted dual of %r in "
                          "the double" % (clash[0], clash[0][:-1]))
    D = FiniteSpace("D(%s)" % instance.name,
                    {n: part.degree(n) for part in (A, Sh)
                     for n in part.basis_names()})
    ev, coev = build_ev_coev(A, field)
    s, w = build_shifts(A, Sh, d, field)
    ctx = OpContext(dict(instance.generator_maps(), ev=ev, coev=coev, s=s,
                         omega=w), field)
    part_space = {"a": A, "v": Sh}

    def components(texts, arity):
        """Each text compiled on the spaces of its ``arity`` input parts."""
        return {parts: compile_expr(parse(text), ctx,
                                    [part_space[p] for p in parts[:arity]])
                for parts, text in texts.items()}

    def assemble(arity, target, degree, name, comps):
        """The map on D summing, on each basis key, the components whose
        input parts are the parts of the key's slots."""
        def entries():
            for key in source_basis_keys((D,) * arity):
                parts = tuple("a" if A.contains(n) else "v" for n in key)
                for comp_parts, comp in comps.items():
                    if comp_parts[:arity] == parts:
                        for okey, coeff in comp.on_key(key).coeffs.items():
                            yield key, okey, coeff
        return table_map((D,) * arity, target, degree, field, entries(), name)

    mu_comp = components(MU_COMPONENTS, 2)
    lam_comp = components(LAMBDA_COMPONENTS, 1)
    mu_D = assemble(2, (D,), 0, "mu", mu_comp)
    lam_D = assemble(1, (D, D), d, "lambda", lam_comp)
    delta_D = assemble(1, (D,), 1, "Delta", components(DELTA_COMPONENTS, 1))
    eta_D = Element((D,), field, instance.eta.coeffs)
    eps_D = table_map((D,), (), -d, field,
                      [((n + "'",), (), c)
                       for (n,), c in instance.eta.coeffs.items()], "epsilon")

    frob = FrobeniusInstance("D(%s)" % instance.name, D, field, mu_D, eta_D,
                             lam_D, delta_D, d, eps_D)
    return DoubleData(frob, instance, (A, ev.source[0], Sh, D), ctx,
                      mu_comp, lam_comp)
