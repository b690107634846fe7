"""Shared test oracles, independent of the engine's sign machinery, a
builder of expression maps over named maps and a random table map."""

from gradedbv.core import table_map
from gradedbv.expr import OpContext, compile_expr, parse


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
