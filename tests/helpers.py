"""Shared test oracles, independent of the engine's sign machinery, a
builder of expression maps over named maps, a random table map, small
readers of elements, literals, relations and reports, and monkeypatch
probes counting rule runs and capturing the CLI's models."""

from collections import Counter

from gradedbv import cli
from gradedbv.checks import make_relation
from gradedbv.core import (QQ, Element, EngineError, FiniteSpace, GradedMap,
                           basis_element, table_map, zero_element)
from gradedbv.expr import OpContext, ParseError, _literal_terms, compile_expr, parse


def expr_map(text, maps, field, in_spaces=None):
    """The map of expression ``text`` in a fresh context of ``maps`` (a
    dict from generator name to GradedMap) over ``field``."""
    return compile_expr(parse(text), OpContext(maps, field), in_spaces)


def random_table_map(rng, space, field, degree, window):
    """A random map of ``degree`` from one slot of ``space`` to one, on
    the basis names of its window ``window`` (a finite space's whole
    basis): each output coefficient is drawn from -3..3, in the order of
    ``window_names``.  A key outside the window maps to zero."""
    names = space.window_names(window)
    by_degree = {}
    for n in names:
        by_degree.setdefault(space.degree(n), []).append(n)
    return table_map((space,), (space,), degree, field,
                     [((n,), (t,), rng.randint(-3, 3)) for n in names
                      for t in by_degree.get(space.degree(n) + degree, [])],
                     "r")


# The four zig-zag identities of ev and coev, by the space they are the
# identity on: "dual" for A^vee, "space" for A.
ZIGZAGS = (
    ("dual", "(ev (x) id) . (id (x) coev)"),
    ("space", "(id (x) ev) . (coev (x) id)"),
    ("space", "((ev . tau) (x) id) . (id (x) (tau . coev))"),
    ("dual", "(id (x) (ev . tau)) . ((tau . coev) (x) id)"),
)


def apply_permutation_key(perm, key):
    """The key permuted as ``core.permute`` moves it, computed from
    scratch: name i goes to slot ``perm[i]``."""
    out = [None] * len(key)
    for i, name in enumerate(key):
        out[perm[i]] = name
    return tuple(out)


def homogeneous_parts(element):
    """{degree: the element's part of that degree}, in degree order."""
    parts = {}
    for key, value in element.coeffs.items():
        parts.setdefault(element.key_degree(key), {})[key] = value
    return {d: Element(element.spaces, element.field, c)
            for d, c in sorted(parts.items())}


def literal_slots(text):
    """Tensor slot count of an element literal (1 for a bare scalar)."""
    counts = {len(key) for _, key in _literal_terms(parse(text))}
    if len(counts) != 1:
        raise ParseError("terms of %r have different slot counts" % text)
    return counts.pop()


def pairing(instance):
    """(-1)^{|lambda|} epsilon . mu of a Frobenius instance, a map from
    the square to scalars: -(epsilon . mu), as |lambda| is odd."""
    return compile_expr(parse("-(epsilon . mu)"), instance.context(), None)


def term_count(spec):
    """The number of signed terms of a relation, over all its groups."""
    return sum(len(group) for group in spec.groups)


def adjacent_decomposition_sign(perm, degrees, from_left):
    """Realize a permutation by adjacent swaps on an explicit list,
    multiplying the (-1)^{|a||b|} twist signs stepwise; an oracle for
    koszul_sign that never consults the inversion formula.
    """
    items = list(zip(perm, degrees))
    sign = 1
    changed = True
    while changed:
        changed = False
        rng = range(len(items) - 1) if from_left else range(len(items) - 2, -1, -1)
        for i in rng:
            if items[i][0] > items[i + 1][0]:
                if items[i][1] % 2 and items[i + 1][1] % 2:
                    sign = -sign
                items[i], items[i + 1] = items[i + 1], items[i]
                changed = True
    assert [p for p, _ in items] == sorted(perm)
    return sign


def counted_rule_runs(monkeypatch):
    """Count each rule run per (map, key) of the GradedMaps built from
    now on; maps are told apart by identity."""
    runs, init = Counter(), GradedMap.__init__

    def counted_init(gmap, *args, **kwargs):
        init(gmap, *args, **kwargs)
        rule = gmap.rule

        def count(key):
            runs[gmap, key] += 1
            return rule(key)
        gmap.rule = count

    monkeypatch.setattr(GradedMap, "__init__", counted_init)
    return runs


def captured_models(monkeypatch):
    """The list the CLI's built-in models are appended to, as built."""
    builtin_model, built = cli.builtin_model, []

    def capture(name, field):
        built.append(builtin_model(name, field))
        return built[-1]

    monkeypatch.setattr(cli, "builtin_model", capture)
    return built


def raising_context(bad_f=None, bad_g=None):
    """(space, context, relation, calls): two maps f and g from V (x) V
    to V, f raising on the key ``bad_f`` and g on ``bad_g``, the relation
    ``f . tau + f + g`` and the list of keys f's rule was called on."""
    space = FiniteSpace("V", {"a%d" % i: 0 for i in range(5)})
    field = QQ
    calls = []

    def f_rule(key):
        calls.append(key)
        if key == bad_f:
            raise EngineError("f fails on %s" % (key,))
        return basis_element((space,), field, key[:1])

    def g_rule(key):
        if key == bad_g:
            raise EngineError("g fails on %s" % (key,))
        return zero_element((space,), field)

    maps = {"f": GradedMap((space, space), (space,), 0, field, name="f", rule=f_rule),
            "g": GradedMap((space, space), (space,), 0, field, name="g", rule=g_rule)}
    spec = make_relation("Twisted", 2, "f . tau + f + g", [[
        (1, "f . tau"), (1, "f"), (1, "g")]])
    return space, OpContext(maps, field), spec, calls
