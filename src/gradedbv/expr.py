"""Expression language over the operation signature.

Concrete syntax: generators by name, ``.`` (or the unicode ring) for
composition, ``(x)`` (or the unicode tensor sign) for tensor, ``+``/``-``
for formal sums, an optional rational coefficient prefix like ``2*`` or
``1/2*``, parentheses for grouping, and ``dual(f)`` for dualization.
Composition binds tighter than tensor, which binds tighter than sums.
ASCII is canonical on output; print . parse is a fixed point.  AST
nodes are interned when they are built: two parses of one text, or a
tree built by hand and the parse of its printed text, are one object.

Expressions are evaluated sign-exactly against a context of named
GradedMaps.  ``id`` / ``tau`` / ``sigma`` / ``sigma2`` are polymorphic:
they resolve against whatever tensor slots flow into them, so the same
relation text works on the base space and on derived spaces.  Each
node is typed once per context: the typing pass (``_shape``) decides its
arities and degree and rejects any mismatch.  Each composition has one
normal form ``sign * X . P`` (``normal_form``): P is its input
permutation, or none, and X its other stages fused by the interchange
law; a permutation stage inside it moves to the input, with the Koszul
sign of the blocks it reorders, where it can.  ``compile_expr`` walks a
node on concrete input slots, for their spaces and loops, into a
GradedMap shared by every use in the same context, a composition
through its normal form; ``evaluate`` compiles, then applies the map.
The relation walker of ``checks`` reads the normal form for its heads.

The same tokenizer parses element literals (``AU^1 (x) U^1``,
``2*A(x)1 - 2*1(x)A``); see parse_element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MethodType

from .core import (ArityMismatch, DegreeError, EngineError, GradedMap,
                   basis_element, permute, scalar_element, tensor_factors,
                   tensor_key_run, tensor_run, zero_element, _pairs_odd,
                   _slot_rule, _spaces_key, _trusted_element)


class ParseError(EngineError):
    pass


class NoSourceSpaces(EngineError):
    """A polymorphic name compiled with no input spaces to resolve
    against."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# (class name, field values) -> the one node built from them; a node,
# once built, lives as long as the process
_NODES = {}


class _Node:
    """An AST node, interned (hash-consed) when it is built: a node is
    looked up in ``_NODES`` by its class name and field values, whose
    children are interned nodes already, so structurally equal trees are
    one object.  Equality is identity, and so is the hash, which needs
    no Python code: a lookup of a tree in ``OpContext.plans`` or
    ``OpContext.shapes`` hashes nothing but its root's identity and
    compares nothing but identities.  Nodes are immutable; copies and
    pickles are built again by the constructor, which returns the
    interned node.  ``str`` of a node is ``print_expr``."""

    __slots__ = ()
    _fields = ()

    def __new__(cls, *values):
        key = (cls.__name__, values)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            # a node interned meanwhile by another thread is the one kept
            node = _NODES.setdefault(key, node)
        return node

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an AST node" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an AST node" % name)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __str__(self):
        return print_expr(self)


class _Nary(_Node):
    """A node over a tuple of at least two children."""

    __slots__ = ()

    def __new__(cls, items):
        assert len(items) >= 2
        return _Node.__new__(cls, items)


class Gen(_Node):
    __slots__ = _fields = ("name",)


class Compose(_Nary):
    __slots__ = _fields = ("children",)     # applied right to left


class Tensor(_Nary):
    __slots__ = _fields = ("children",)


class Scal(_Node):
    __slots__ = _fields = ("coeff", "child")

    def __new__(cls, coeff, child):
        # a Fraction whatever built it, so Scal(2, x) is Scal(Fraction(2), x)
        return _Node.__new__(cls, Fraction(coeff), child)


class Sum(_Nary):
    __slots__ = _fields = ("terms",)


class Dual(_Node):
    __slots__ = _fields = ("child",)


# the polymorphic names: each is a slot permutation of its own arity
PERMS = {"id": (0,), "tau": (1, 0), "sigma": (1, 2, 0), "sigma2": (2, 0, 1)}
ID = Gen("id")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<tensor>\(\s*x\s*\)|⊗)
  | (?P<number>\d+(?:/\d+)?)(?![A-Za-z_^'\d])
  | (?P<name>[A-Za-z_0-9][A-Za-z_0-9^'\[\]]*)
  | (?P<compose>\.|∘)
  | (?P<plus>\+)
  | (?P<minus>-|−)
  | (?P<star>\*)
  | (?P<lpar>\()
  | (?P<rpar>\))
""", re.VERBOSE)


# a whole number token, as the tokenizer reads it
_NUMBER_RE = re.compile(r"\d+(?:/\d+)?")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("syntax error at position %d: %r" % (pos, text[pos:pos + 10]))
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Parentheses (and ``dual(...)``) nest at most this deep, and a
# coefficient, here or in an instance file, has at most this many
# characters; past either, parsing is a ParseError, not a RecursionError
# or a ValueError from Fraction.
MAX_NESTING = 100
MAX_COEFF_CHARS = 100


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %s at position %d, got %r" % (kind, tok[2], tok[1]))
        return tok

    def fail(self, msg):
        tok = self.peek()
        raise ParseError("%s at position %d (near %r)" % (msg, tok[2], tok[1]))

    # sum := signed term (('+'|'-') term)*
    def parse_sum(self):
        terms = [self.parse_term()]
        while self.peek()[0] in ("plus", "minus"):
            op = self.next()[0]
            term = self.parse_term()
            terms.append(_scale(term, -1) if op == "minus" else term)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    # term := ['-'] [number '*'?] tensor
    def parse_term(self):
        sign = Fraction(1)
        while self.peek()[0] == "minus":
            self.next()
            sign = -sign
        coeff = sign
        if self.peek()[0] == "number":
            # a number is a coefficient when something follows it;
            # otherwise it is a basis-name literal such as "1"
            save = self.i
            value = self.next()[1]
            follower = self.peek()[0]
            if follower == "star":
                self.next()
                coeff *= _coefficient(value)
            elif follower in ("name", "number", "lpar"):
                coeff *= _coefficient(value)
            else:
                self.i = save
        node = self.parse_tensor()
        return _scale(node, coeff)

    # tensor := comp (TENSOR comp)*
    def parse_tensor(self):
        parts = [self.parse_comp()]
        while self.peek()[0] == "tensor":
            self.next()
            parts.append(self.parse_comp())
        return parts[0] if len(parts) == 1 else Tensor(tuple(parts))

    # comp := atom (('.') atom)*
    def parse_comp(self):
        parts = [self.parse_atom()]
        while self.peek()[0] == "compose":
            self.next()
            parts.append(self.parse_atom())
        return parts[0] if len(parts) == 1 else Compose(tuple(parts))

    def parse_atom(self):
        kind, value, _ = self.peek()
        if kind == "lpar":
            return self.parse_group()
        if kind == "name":
            self.next()
            if value == "dual" and self.peek()[0] == "lpar":
                return Dual(self.parse_group())
            return Gen(value)
        if kind == "number":
            # bare numbers occur in element literals ("1" is a basis name)
            self.next()
            return Gen(value)
        self.fail("expected a generator, '(' or a coefficient")

    # group := '(' sum ')'
    def parse_group(self):
        if self.depth >= MAX_NESTING:
            self.fail("parentheses nest deeper than %d" % MAX_NESTING)
        self.depth += 1
        self.expect("lpar")
        node = self.parse_sum()
        self.expect("rpar")
        self.depth -= 1
        return node


def _coefficient(text):
    """A rational coefficient token such as ``2`` or ``1/2``, of at most
    MAX_COEFF_CHARS characters."""
    if len(text) > MAX_COEFF_CHARS:
        raise ParseError("coefficient of %d characters, the most is %d"
                         % (len(text), MAX_COEFF_CHARS))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError("zero denominator in coefficient %r" % text) from None


def parse(text):
    """Parse an operation expression into its AST."""
    parser = _Parser(text)
    node = parser.parse_sum()
    if parser.peek()[0] != "end":
        parser.fail("trailing input")
    return node


def _scale(node, coeff):
    coeff = Fraction(coeff)
    if coeff == 1:
        return node
    if isinstance(node, Scal):
        return _scale(node.child, coeff * node.coeff)
    return Scal(coeff, node)


# ---------------------------------------------------------------------------
# printing (ASCII canonical)
# ---------------------------------------------------------------------------

def _print(node, level):
    # level: 0 sum, 1 tensor, 2 compose, 3 atom
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Dual):
        return "dual(%s)" % _print(node.child, 0)
    if isinstance(node, Compose):
        text = " . ".join(_print(c, 3) for c in node.children)
        return "(%s)" % text if level > 2 else text
    if isinstance(node, Tensor):
        text = " (x) ".join(_print(c, 2) for c in node.children)
        return "(%s)" % text if level > 1 else text
    if isinstance(node, Scal):
        if node.coeff == -1:
            inner = "-%s" % _print(node.child, 1)
        else:
            inner = "%s*%s" % (node.coeff, _print(node.child, 1))
        return "(%s)" % inner if level > 0 else inner
    if isinstance(node, Sum):
        parts = [_print(node.terms[0], 1)]
        for term in node.terms[1:]:
            if isinstance(term, Scal) and term.coeff < 0:
                parts.append("- " + _print(_scale(term, -1), 1))
            else:
                parts.append("+ " + _print(term, 1))
        text = " ".join(parts)
        return "(%s)" % text if level > 0 else text
    raise EngineError("unknown node %r" % (node,))


def print_expr(node):
    return _print(node, 0)


# ---------------------------------------------------------------------------
# typing and evaluation against a context of maps
# ---------------------------------------------------------------------------

class OpContext:
    """Named GradedMaps an expression can reference, over one field.

    ``shapes`` memoizes the typing pass: each node's (source arity,
    target arity, degree), decided once per context by ``_shape``.
    ``plans`` hash-conses compiled expressions: ``compile_expr`` keys it
    on ``(node, in_spaces)``, so one node typed on the same slot spaces
    (compared by identity) is one GradedMap, with one cache, for every
    term, group, relation and caller compiling it in this context.
    Nodes are interned, so an equal subtree from any text is the same
    key, and both lookups compare identities only.
    Names are only added to ``maps`` before expressions using them are
    typed.
    """

    def __init__(self, maps, field):
        self.maps = dict(maps)
        self.field = field
        self.shapes = {}
        self.plans = {}

    def lookup(self, name):
        try:
            return self.maps[name]
        except KeyError:
            raise EngineError("unknown generator %r" % name) from None


def _shape(node, ctx):
    """(source arity, target arity, degree) of an expression, typed by
    ``_type`` once per context; a node that fails to type is not stored."""
    shape = ctx.shapes.get(node)
    if shape is None:
        shape = ctx.shapes[node] = _type(node, ctx)
    return shape


def _type(node, ctx):
    """The typing rule: a node's shape from its children's.  Adjacent
    composition stages and summands must agree in arity (ArityMismatch),
    summands also in degree (DegreeError)."""
    if isinstance(node, Gen):
        perm = PERMS.get(node.name)
        if perm is not None:
            return len(perm), len(perm), 0
        gmap = ctx.lookup(node.name)
        return gmap.source_arity, gmap.target_arity, gmap.degree
    if isinstance(node, Scal):
        return _shape(node.child, ctx)
    if isinstance(node, Dual):
        source, target, degree = _shape(node.child, ctx)
        return target, source, degree
    if isinstance(node, Sum):
        shapes = {_shape(t, ctx) for t in node.terms}
        for i, error, what in ((0, ArityMismatch, "source arities"),
                               (1, ArityMismatch, "target arities"),
                               (2, DegreeError, "degrees")):
            values = sorted({s[i] for s in shapes})
            if len(values) != 1:
                raise error("summands have different %s %s" % (what, values))
        return shapes.pop()
    if not isinstance(node, (Compose, Tensor)):
        raise EngineError("unknown node %r" % (node,))
    sources, targets, degrees = zip(*[_shape(c, ctx) for c in node.children])
    if isinstance(node, Tensor):
        return sum(sources), sum(targets), sum(degrees)
    # applied right to left: each stage consumes what the next one makes
    for i, (consumed, made) in enumerate(zip(sources, targets[1:])):
        if consumed != made:
            raise ArityMismatch("%s consumes %d slots, but %s makes %d"
                                % (node.children[i], consumed,
                                   node.children[i + 1], made))
    return sources[-1], targets[0], sum(degrees)


def source_arity(node, ctx):
    """Number of input tensor slots the expression consumes."""
    return _shape(node, ctx)[0]


def target_arity(node, ctx):
    return _shape(node, ctx)[1]


def infer_degree(node, ctx):
    """Degree of the expression; sums must have agreeing summands."""
    return _shape(node, ctx)[2]


def compile_expr(node, ctx, in_spaces):
    """The expression typed once on the given input slots, as a GradedMap.

    ``in_spaces`` may be None when the expression determines its own
    source (leftmost composition/tensor of concrete generators).  Maps
    are looked up in ``ctx.plans`` first; a failed compile is not stored.
    Arities and the degree come from the typing pass (``_shape``): the
    slot count of ``in_spaces`` is checked against the typed source
    arity here, once, and the compile walk below checks only what needs
    the concrete spaces.

    Every map is one of two kinds.  A composition or tensor product
    streams: its ``run`` is its compiled loop, which does not use the
    cache, while its ``on_key`` runs that loop on one key and caches the
    checked output.  Its ``key_run`` streams one key: a composition from
    its first stage's ``key_run``, a tensor product with one non-identity
    block from that block's cache (``core.tensor_key_run``), any other
    tensor product through its loop.  Every other node caches: a generator, ``dual(f)``
    or a permutation (``id`` included) is its own map, and a Sum or a
    scalar multiple (a Sum of one term) is a map whose rule adds its
    scaled summands; each ``run`` reads its per-key cache of checked
    outputs.  So a shared subexpression such as the derived bracket is
    summed once per basis key in a context, and a composite tensor
    factor such as ``lambda . eta`` on ``()`` runs once for every tensor
    that uses it.  A streaming map is read through its cache where it
    is a tensor factor, and where it is the tail of a composition after
    a narrow cut: at the earliest cut between stages with the fewest
    slots, when that is fewer than the source's and two or more stages
    follow, those stages are compiled as one composite (hash-consed like
    any other) and read through ``GradedMap.run``, so ``lambda . Delta .
    mu`` computes ``lambda . Delta`` once per key of mu's outputs, not
    once per input tuple, and ``(Delta (x) id) . lambda . mu`` reads the
    same plan as ElevenTerm's fused factor ``(Delta (x) id) . lambda``.
    A composite is named by its node, which is printed only when the
    name is read.

    A composition compiles through its normal form ``sign * X . P``
    (``normal_form``): its stages fused by the interchange law, with a
    permutation stage moved to the input where it can be, so ``(mu (x)
    id) . (id (x) Delta (x) id) . (id (x) lambda)`` compiles as ``(mu
    (x) id) . (id (x) ((Delta (x) id) . lambda))``, whose fused factor
    checks and caches its ``on_key`` once per key of its own slots, not
    once per input tuple, and ``tau . (M (x) M)`` as ``(M (x) M) .
    (-tau)`` for an odd M: the sign goes on P.  The node and its normal
    form are then one map.
    """
    if in_spaces is not None:
        in_spaces = tuple(in_spaces)
    key = (node, in_spaces)
    gmap = ctx.plans.get(key)
    if gmap is None:
        source, _, degree = _shape(node, ctx)
        if in_spaces is not None and len(in_spaces) != source:
            raise ArityMismatch("%s consumes %d slots, given %d"
                                % (node, source, len(in_spaces)))
        gmap = ctx.plans[key] = _compile(node, ctx, in_spaces, degree)
    return gmap


def _compile(node, ctx, in_spaces, degree):
    """The compile walk of a typed node of the given degree: slot spaces
    and loops."""
    field = ctx.field
    if isinstance(node, Gen) and node.name in PERMS:
        if in_spaces is None:
            raise NoSourceSpaces("cannot infer source spaces of polymorphic"
                                 " %r" % node.name)
        return permute(PERMS[node.name], in_spaces, field)
    if isinstance(node, (Gen, Dual)):
        gmap = ctx.lookup(node.name) if isinstance(node, Gen) else _dual_of(node, ctx)
        if in_spaces is not None and _spaces_key(gmap.source) != _spaces_key(in_spaces):
            raise ArityMismatch(
                "generator %s defined on %s fed with %s"
                % (gmap.name, _spaces_key(gmap.source), _spaces_key(in_spaces)))
        return gmap
    if isinstance(node, Compose):
        sign, head, perm = normal_form(node, ctx)
        head = head if perm is None else Compose(_chain(head) + (_scale(perm, sign),))
        # with no input spaces to permute, a composition keeps its stages
        if head is not node and (perm is None or in_spaces is not None):
            return compile_expr(head, ctx, in_spaces)
        maps = []
        for child in reversed(node.children):
            maps.append(compile_expr(child, ctx, in_spaces))
            in_spaces = maps[-1].target
        stages = [m.run for m in maps]
        # the earliest cut with the fewest slots, if narrower than the
        # source: two or more stages after it are one cached tail
        cut = min(range(len(maps) - 1), key=lambda i: len(maps[i].target))
        if len(maps[cut].target) < len(maps[0].source) and len(maps) - cut > 2:
            tail = compile_expr(Compose(node.children[:len(maps) - 1 - cut]),
                                ctx, maps[cut].target)
            stages[cut + 1:] = [MethodType(GradedMap.run, tail)]
        stages = tuple(stages)
        first, rest = maps[0].key_run, stages[1:]

        def run(coeffs):
            for stage in stages:
                if not coeffs:
                    break
                coeffs = stage(coeffs)
            return coeffs

        def key_run(key):
            coeffs = first(key)
            for stage in rest:
                if not coeffs:
                    break
                coeffs = stage(coeffs)
            return coeffs

        # a composition streams: its run is the loop, not the cache
        gmap = _compiled(node, maps[0].source, in_spaces, degree, field, run)
        gmap.run, gmap.key_run = run, key_run
        return gmap
    if isinstance(node, Tensor):
        return _compile_tensor(node, ctx, in_spaces, degree)
    return _compile_sum(node, ctx, in_spaces, degree)


# (Composition, typed shapes of its stages' blocks) -> its normal form; a
# pure function of its key (nodes are interned), shared by every context
_NORMAL = {}


def normal_form(node, ctx):
    """The normal form ``(sign, X, P)`` of a composition, which equals
    ``sign * X . P``: P is its input permutation, a ``PERMS`` name as a
    Gen, or None, and X its other stages fused by the interchange law
    (see _fuse).  Nested compositions are flattened; then, from the input
    side, the first permutation stage that can reach the input moves
    there (see _move), a trailing one trivially, and any other stays a
    stage of X.  The form depends on the blocks' arities and degrees,
    which the context types, so it is memoized on the node and its
    blocks' typed shapes, never on the node alone: a fresh context pays
    lookups only."""
    _shape(node, ctx)       # the composition itself must type
    stages = _flatten(node)
    shapes = tuple([_shape(block, ctx) for stage in stages for block in stage])
    form = _NORMAL.get((node, shapes))
    if form is None:
        rest = [tuple((b,) + _shape(b, ctx) for b in stage) for stage in stages]
        sign, perm = 1, None
        for i in reversed(range(len(rest))):
            name = getattr(rest[i][0][0], "name", None)
            if perm is None and len(rest[i]) == 1 and name in PERMS:
                moved = _move(PERMS[name], rest[i + 1:])
                if moved is not None:
                    sign, perm, rest[i:] = moved
        form = _NORMAL[node, shapes] = sign, _fuse(rest), perm
    return form


def _move(perm, stages):
    """(sign, P', stages') with ``P . stages = sign * stages' . P'``, for
    the slot map ``perm`` of a permutation P applied after ``stages``: P
    moves past each stage toward the input by

        P . (f_1 (x) ... (x) f_m) = e (f_{p(1)} (x) ... (x) f_{p(m)}) . P'

    where P moves the stage's output blocks whole into the order p, P'
    its input blocks, and e is the Koszul sign of reordering the f_i by
    degree: odd when an odd number of the inverted pairs of the blocks'
    move (``core._slot_rule``) join two blocks of odd degree.  None when
    P splits a block or a block makes no slot, or when the permutation
    that reaches the input is not a ``PERMS`` name."""
    odd, moved = 0, []
    for stage in stages:
        sizes = [block[2] for block in stage]
        if 0 in sizes:
            return None
        order = sorted(range(len(stage)), key=lambda b: perm[sum(sizes[:b])])
        if _block_map(sizes, order) != perm:
            return None
        # the inverted pairs of the blocks' move, and their degrees' parities
        odd ^= _pairs_odd(_slot_rule(_block_map([1] * len(order), order))[1],
                          sum(b[3] % 2 << i for i, b in enumerate(stage)))
        perm = _block_map([block[1] for block in stage], order)
        moved.append(tuple(stage[b] for b in order))
    name = next((n for n, p in PERMS.items() if p == perm), None)
    return None if name is None else ((-1) ** odd, Gen(name), moved)


def _block_map(sizes, order):
    """The slot map that moves blocks of ``sizes`` slots whole into
    ``order``."""
    starts = {b: sum(sizes[c] for c in order[:j]) for j, b in enumerate(order)}
    return tuple(starts[b] + k for b, size in enumerate(sizes) for k in range(size))


def _flatten(node):
    """The stages of a composition, leftmost (applied last) first, with
    nested compositions flattened: each stage is the tuple of a tensor's
    children, or of one other node."""
    stages = []
    for child in node.children:
        if isinstance(child, Compose):
            stages.extend(_flatten(child))
        else:
            stages.append(child.children if isinstance(child, Tensor) else (child,))
    return tuple(stages)


def _fuse(stages):
    """Adjacent typed stages fused by the interchange law

        (f_1 (x) ... (x) f_m) . (e_1 (x) ... (x) e_m)
            = (-1)^{sum_{i>j} |f_i||e_j|} (f_1 . e_1) (x) ... (x) (f_m . e_m)

    whenever the later stage's blocks split into groups f_i along the
    earlier stage's m >= 2 output blocks (see _split), from the first
    applied stage on; the node of the fused stages.  So ``(mu (x) id) .
    (id (x) Delta (x) id) . (id (x) lambda)`` becomes ``(mu (x) id) . (id
    (x) ((Delta (x) id) . lambda))``, whose composite factor is cached per
    key of its own slots.  A typed block is (node, source arity, target
    arity, degree)."""
    chain = []      # fused stages, first applied first
    for stage in reversed(stages):
        groups = _split(stage, chain[-1]) if chain and len(chain[-1]) > 1 else None
        if groups is None:
            chain.append(stage)
        else:
            chain[-1] = _interchange(groups)
    nodes = [stage[0][0] if len(stage) == 1 else Tensor(tuple(b[0] for b in stage))
             for stage in reversed(chain)]
    return nodes[0] if len(nodes) == 1 else Compose(tuple(nodes))


def _split(later, earlier):
    """(group, block) for each typed block of the ``earlier`` stage, the
    group being the ``later`` stage's blocks that consume its outputs,
    in order; a later block that consumes no slot joins the group being
    filled when it is met, else the next one, or the last.  None when
    some later block straddles two earlier blocks."""
    groups, i = [], 0
    for block in earlier:
        start, need = i, block[2]
        while need > 0:
            need -= later[i][1]
            i += 1
        if need:
            return None
        groups.append((later[start:i], block))
    groups[-1] = (groups[-1][0] + later[i:], groups[-1][1])
    return groups


def _interchange(groups):
    """The typed factors of the fused stage of ``groups`` (see _split):
    ``f_i . e_i`` per group, with an ``id`` side dropped, and the sign
    of the interchange law put on the first factor that is not ``id``,
    so the stage stays a tensor and streams."""
    factors, odd, seen = [], 0, 0
    for group, (node, source, target, degree) in groups:
        later_degree = sum(b[3] for b in group)
        odd ^= later_degree & seen & 1
        seen ^= degree & 1
        if all(b[0] is ID for b in group):
            factors.append((node, source, target, degree))
        elif node is ID:
            factors.extend(group)
        else:
            later = group[0][0] if len(group) == 1 else Tensor(tuple(b[0] for b in group))
            factors.append((Compose(_chain(later) + _chain(node)), source,
                            sum(b[2] for b in group), degree + later_degree))
    if odd:
        i = next(i for i, factor in enumerate(factors) if factor[0] is not ID)
        factors[i] = (_scale(factors[i][0], -1),) + factors[i][1:]
    return factors


def _chain(node):
    return node.children if isinstance(node, Compose) else (node,)


def _compiled(node, source, target, degree, field, run):
    """The GradedMap of the composite ``node``, named by it, whose rule
    runs the compiled loop ``run`` on one key, outside any cache; its
    ``on_key`` checks and caches that output, and its ``run`` reads the
    cache until a caller replaces it.  A map that wraps the composite,
    such as the Gysin bracket, takes this rule as its own."""
    one = field.one
    return GradedMap(source, target, degree, field, name=node,
                     rule=lambda key: _trusted_element(target, field, run({key: one})))


def _compile_sum(node, ctx, in_spaces, degree):
    """A Sum, or a scalar multiple as a Sum of one term, compiles to a
    GradedMap: its scaled summands are added once per source basis key,
    and the output is checked and memoized like a generator's (a failing
    output is not cached).  Typing has matched the summands' arities and
    degrees; their target spaces must agree."""
    field = ctx.field
    scalars, maps = [], []
    for term in node.terms if isinstance(node, Sum) else (node,):
        # a summand's own coefficient becomes its accumulation scalar
        scalar = field.one
        if isinstance(term, Scal):
            scalar, term = field.coerce(term.coeff), term.child
        scalars.append(scalar)
        maps.append(compile_expr(term, ctx, in_spaces))
        in_spaces = maps[0].source     # later summands take the first's slots
    targets = {_spaces_key(m.target) for m in maps}
    if len(targets) != 1:
        raise ArityMismatch("summands have different targets %s" % targets)
    run = _linear_run(tuple(zip(scalars, (m.run for m in maps))), field)
    return _compiled(node, maps[0].source, maps[0].target, degree, field, run)


def _linear_run(terms, field):
    """The ``run`` of a linear combination: the sum of ``scalar *
    run(coeffs)`` over the (scalar, run) pairs of ``terms``."""
    add_into = field.accumulate

    def run(coeffs):
        acc = {}
        for scalar, term in terms:
            add_into(acc, term(coeffs).items(), scalar)
        return acc
    return run


def _compile_tensor(node, ctx, in_spaces, degree):
    """Each factor compiled on its typed share of the input slots (on
    None when the tensor determines its own source), then laid out as
    one kernel, run by ``tensor_run`` and, on one key, ``tensor_key_run``
    or the loop."""
    maps, pos = [], 0
    for child in node.children:
        arity = source_arity(child, ctx)
        maps.append(compile_expr(child, ctx, in_spaces and in_spaces[pos:pos + arity]))
        pos += arity
    field = ctx.field
    source = tuple(s for m in maps for s in m.source)
    target = tuple(t for m in maps for t in m.target)
    # an ``id`` factor is an identity block, any other reads its map
    kernel = tensor_factors([(len(m.source), m.degree,
                              None if child is ID else m)
                             for child, m in zip(node.children, maps)], source)
    run = tensor_run(kernel, field)
    # a tensor product streams: its run is the loop, not the cache
    gmap = _compiled(node, source, target, degree, field, run)
    gmap.run = run
    gmap.key_run = (tensor_key_run(kernel, field)
                    or (lambda key: run({key: field.one})))
    return gmap


def resolve_spaces(node, ctx, in_spaces):
    """Output slot spaces of the expression on the given input slots."""
    return compile_expr(node, ctx, in_spaces).target


def _infer_source_spaces(node, ctx):
    return compile_expr(node, ctx, None).source


def _dual_of(node, ctx):
    from .double import dual_map  # deferred: double builds on core only
    return dual_map(compile_expr(node.child, ctx, None))


def evaluate(node, ctx, elem):
    """Apply the expression to an element, exactly and linearly."""
    return compile_expr(node, ctx, elem.spaces)(elem)


# ---------------------------------------------------------------------------
# element literals
# ---------------------------------------------------------------------------

def parse_element(text, spaces, field):
    """Parse an element literal like ``2*A(x)1 - 2*1(x)A``.

    ``spaces`` is the tuple of slot spaces; arity 0 parses a bare scalar
    (``2``, ``1/2``, ``-3*1``).
    Each basis name is read by its space's ``canonical_name`` (the sphere
    model accepts U^0, U^1, AU^0, AU^1 for 1, U, A, AU).
    """
    spaces = tuple(spaces)
    out = zero_element(spaces, field)
    for coeff, key in _literal_terms(parse(text)):
        if not spaces:
            # a bare number n reads as n*1 ("1" is the scalar's basis name)
            if len(key) != 1 or not _NUMBER_RE.fullmatch(key[0]):
                raise ParseError("expected a scalar literal, got %r" % (text,))
            out = out + scalar_element(field, coeff * _coefficient(key[0]))
            continue
        if len(key) != len(spaces):
            raise ArityMismatch(
                "element literal %r has %d slots, expected %d"
                % (text, len(key), len(spaces)))
        names = []
        for space, raw in zip(spaces, key):
            name = space.canonical_name(raw)
            if name is None:
                raise UnknownName(raw, space)
            names.append(name)
        out = out + basis_element(spaces, field, names, field.coerce(coeff))
    return out


class UnknownName(ParseError):
    def __init__(self, raw, space):
        super().__init__("%r is not a basis element of %s" % (raw, space.name))


def _literal_terms(node, coeff=Fraction(1)):
    """(coefficient, basis-name key) for each term of an element literal."""
    if isinstance(node, Scal):
        return _literal_terms(node.child, coeff * node.coeff)
    if isinstance(node, Sum):
        return [term for t in node.terms for term in _literal_terms(t, coeff)]
    return [(coeff, _flatten_key(node))]


def _flatten_key(n):
    if isinstance(n, Gen):
        return (n.name,)
    if isinstance(n, Tensor):
        out = []
        for c in n.children:
            out.extend(_flatten_key(c))
        return tuple(out)
    raise ParseError("element literals are tensors of basis names, got %s"
                     % print_expr(n))
