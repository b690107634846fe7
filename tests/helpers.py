"""Shared test oracles, independent of the engine's sign machinery, and
a builder of expression maps over named maps."""

from gradedbv.expr import OpContext, compile_expr, parse


def expr_map(text, maps, field, in_spaces=None):
    """The map of expression ``text`` in a fresh context of ``maps`` (a
    dict from generator name to GradedMap) over ``field``."""
    return compile_expr(parse(text), OpContext(maps, field), in_spaces)


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
