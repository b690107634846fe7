"""Expression language over the operation signature.

Concrete syntax: generators by name, ``.`` (or the unicode ring) for
composition, ``(x)`` (or the unicode tensor sign) for tensor, ``+``/``-``
for formal sums, an optional rational coefficient prefix like ``2*`` or
``1/2*``, parentheses for grouping, and ``dual(f)`` for dualization.
Composition binds tighter than tensor, which binds tighter than sums.
ASCII is canonical on output; print . parse is a fixed point.

Expressions are evaluated sign-exactly against a context of named
GradedMaps.  ``id`` / ``tau`` / ``sigma`` / ``sigma2`` are polymorphic:
they resolve against whatever tensor slots flow into them, so the same
relation text works on the base space and on derived spaces.  An
expression is typed once on concrete input slots by ``compile_expr``,
which returns a Plan shared by every use in the same context;
``evaluate`` and ``as_map`` compile, then apply.

The same tokenizer parses element literals (``AU^1 (x) U^1``,
``2*A(x)1 - 2*1(x)A``); see parse_element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import (ArityMismatch, DegreeError, EngineError, GradedMap,
                   basis_element, permute, run_on_element, scalar_element,
                   tensor_factors, tensor_run, zero_element, _spaces_key,
                   _trusted_element)


class ParseError(EngineError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Compose:
    children: tuple  # applied right to left

    def __post_init__(self):
        assert len(self.children) >= 2


@dataclass(frozen=True)
class Tensor:
    children: tuple

    def __post_init__(self):
        assert len(self.children) >= 2


@dataclass(frozen=True)
class Scal:
    coeff: Fraction
    child: object


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __post_init__(self):
        assert len(self.terms) >= 2


@dataclass(frozen=True)
class Dual:
    child: object


POLYMORPHIC_ARITY = {"id": 1, "tau": 2, "sigma": 3, "sigma2": 3}
PERMS = {"tau": (1, 0), "sigma": (1, 2, 0), "sigma2": (2, 0, 1)}


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

    ``plans`` hash-conses compiled expressions: ``compile_expr`` keys it
    on ``(node, in_spaces)``, so one node typed on the same slot spaces
    (compared by identity) is one Plan for every term, group and
    relation compiled in this context.  Names are only added to ``maps``
    before expressions using them are compiled.
    """

    def __init__(self, maps, field):
        self.maps = dict(maps)
        self.field = field
        self.plans = {}

    def lookup(self, name):
        try:
            return self.maps[name]
        except KeyError:
            raise EngineError("unknown generator %r" % name) from None


def _shape(node, ctx):
    """(source arity, target arity, degree) of an expression; summands
    must agree in source arity and degree."""
    if isinstance(node, Gen):
        if node.name in POLYMORPHIC_ARITY:
            arity = POLYMORPHIC_ARITY[node.name]
            return arity, arity, 0
        gmap = ctx.lookup(node.name)
        return gmap.source_arity, gmap.target_arity, gmap.degree
    if isinstance(node, Dual):
        source, target, degree = _shape(node.child, ctx)
        return target, source, degree
    if isinstance(node, Scal):
        return _shape(node.child, ctx)
    if isinstance(node, Compose):
        sources, targets, degrees = zip(*(_shape(c, ctx) for c in node.children))
        return sources[-1], targets[0], sum(degrees)
    if isinstance(node, Tensor):
        sources, targets, degrees = zip(*(_shape(c, ctx) for c in node.children))
        return sum(sources), sum(targets), sum(degrees)
    if isinstance(node, Sum):
        shapes = [_shape(t, ctx) for t in node.terms]
        arities = {s[0] for s in shapes}
        if len(arities) != 1:
            raise ArityMismatch("summands have different source arities %s" % arities)
        _check_degrees(s[2] for s in shapes)
        return shapes[0]
    raise EngineError("unknown node %r" % (node,))


def _check_degrees(degrees):
    degrees = set(degrees)
    if len(degrees) != 1:
        raise DegreeError("summands have different degrees %s" % sorted(degrees))


def source_arity(node, ctx):
    """Number of input tensor slots the expression consumes."""
    return _shape(node, ctx)[0]


def target_arity(node, ctx):
    return _shape(node, ctx)[1]


def infer_degree(node, ctx):
    """Degree of the expression; sums must have agreeing summands."""
    return _shape(node, ctx)[2]


class Plan(NamedTuple):
    """An expression typed on concrete input slots.

    ``run`` maps a coefficient dict over the ``source`` slots to one over
    the ``target`` slots; compiled plans call each other only through it,
    so stages exchange bare dicts.  ``run`` never mutates its input, and
    its result may be a cached map output's own dict, which callers only
    read.  ``apply`` is the Element boundary: for generators and Sums it
    is the GradedMap itself, for other composites one space check and one
    wrap of ``run`` (``core.run_on_element``).  Elements are built only there,
    for witnesses, and as the per-key outputs that maps cache (a composite
    tensor factor's value on one block is wrapped too).

    Only GradedMaps keep per-key results: the generators' own maps, and
    the map a Sum compiles to, so a shared subexpression such as the
    derived bracket is summed once per basis key in a context.  No other
    composite plan caches its outputs.
    """

    source: tuple
    target: tuple
    degree: int
    apply: Callable
    run: Callable


def compile_expr(node, ctx, in_spaces):
    """Type the expression once on the given input slots.

    ``in_spaces`` may be None when the expression determines its own
    source (leftmost composition/tensor of concrete generators).  Plans
    are looked up in ``ctx.plans`` first; a failed compile is not stored.
    """
    if in_spaces is not None:
        in_spaces = tuple(in_spaces)
    key = (node, in_spaces)
    plan = ctx.plans.get(key)
    if plan is None:
        plan = ctx.plans[key] = _compile(node, ctx, in_spaces)
    return plan


def permuted_head(node, ctx, in_spaces):
    """(X's plan, P's map, P's slot map) for a term ``X . P`` whose
    rightmost factor P is a polymorphic ``tau``, ``sigma`` or ``sigma2``;
    None for any other term.  Both plans come from ``compile_expr``, so a
    head X that is also a term of its own is that term's Plan object."""
    if not (isinstance(node, Compose) and isinstance(node.children[-1], Gen)
            and node.children[-1].name in PERMS):
        return None
    *rest, perm = node.children
    perm_plan = compile_expr(perm, ctx, in_spaces)
    head = rest[0] if len(rest) == 1 else Compose(tuple(rest))
    return (compile_expr(head, ctx, perm_plan.target), perm_plan.apply,
            PERMS[perm.name])


def _compile(node, ctx, in_spaces):
    if isinstance(node, Gen):
        return _compile_gen(node.name, ctx, in_spaces)
    if isinstance(node, Dual):
        return _map_plan(_dual_of(node, ctx), in_spaces)
    field = ctx.field
    if isinstance(node, Compose):
        plans = []
        for child in reversed(node.children):
            plans.append(compile_expr(child, ctx, in_spaces))
            in_spaces = plans[-1].target
        stages = tuple(p.run for p in plans)

        def run(coeffs):
            for stage in stages:
                if not coeffs:
                    break
                coeffs = stage(coeffs)
            return coeffs

        return _composite(plans[0].source, in_spaces,
                          sum(p.degree for p in plans), field, run)
    if isinstance(node, Tensor):
        return _compile_tensor(node, ctx, in_spaces)
    if isinstance(node, Scal):
        child = compile_expr(node.child, ctx, in_spaces)
        run = _linear_run(((field.coerce(node.coeff), child.run),), field)
        return _composite(child.source, child.target, child.degree, field, run)
    if isinstance(node, Sum):
        return _compile_sum(node, ctx, in_spaces)
    raise EngineError("unknown node %r" % (node,))


def _compile_sum(node, ctx, in_spaces):
    """A Sum compiles to a GradedMap: its summands are added once per
    source basis key, and the output is checked and memoized like a
    generator's (a failing output is not cached)."""
    field = ctx.field
    scalars, plans = [], []
    for term in node.terms:
        # a summand's own coefficient becomes its accumulation scalar
        scalar = field.one
        if isinstance(term, Scal):
            scalar, term = field.coerce(term.coeff), term.child
        scalars.append(scalar)
        plans.append(compile_expr(term, ctx, in_spaces))
        in_spaces = plans[0].source     # later summands take the first's slots
    targets = {_spaces_key(p.target) for p in plans}
    if len(targets) != 1:
        raise ArityMismatch("summands have different targets %s" % targets)
    _check_degrees(p.degree for p in plans)
    run = _linear_run(tuple(zip(scalars, (p.run for p in plans))), field)
    source, target, degree = plans[0].source, plans[0].target, plans[0].degree
    one = field.one

    def rule(key):
        return _trusted_element(target, field, run({key: one}))

    return _map_plan(GradedMap(source, target, degree, field,
                               name=print_expr(node), rule=rule), None)


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


def _compile_gen(name, ctx, in_spaces):
    if name in POLYMORPHIC_ARITY:
        if in_spaces is None:
            raise EngineError("cannot infer source spaces of polymorphic %r" % name)
        if name == "id":
            if len(in_spaces) != 1:
                raise ArityMismatch("id consumes one slot, got %d" % len(in_spaces))
            return Plan(in_spaces, in_spaces, 0, _identity, _identity)
        return _map_plan(permute(PERMS[name], in_spaces, ctx.field), None)
    return _map_plan(ctx.lookup(name), in_spaces)


def _identity(value):
    return value


def _map_plan(gmap, in_spaces):
    if in_spaces is not None and _spaces_key(gmap.source) != _spaces_key(in_spaces):
        raise ArityMismatch(
            "generator %s defined on %s fed with %s"
            % (gmap.name, _spaces_key(gmap.source), _spaces_key(in_spaces)))
    return Plan(gmap.source, gmap.target, gmap.degree, gmap, gmap.run)


def _composite(source, target, degree, field, run):
    """A plan that is not a GradedMap; its ``apply`` checks the element's
    spaces once and wraps ``run``'s dict (``core.run_on_element``)."""
    return Plan(source, target, degree, lambda elem: run_on_element(
        "expression", source, target, field, run, elem), run)


def _compile_tensor(node, ctx, in_spaces):
    plans = []
    pos = 0
    for child in node.children:
        if in_spaces is None:
            plans.append(compile_expr(child, ctx, None))
        else:
            arity = source_arity(child, ctx)
            plans.append(compile_expr(child, ctx, in_spaces[pos:pos + arity]))
        pos += len(plans[-1].source)
    if in_spaces is not None and pos != len(in_spaces):
        raise ArityMismatch("tensor consumed %d of %d slots" % (pos, len(in_spaces)))
    field = ctx.field
    source = tuple(s for p in plans for s in p.source)
    target = tuple(t for p in plans for t in p.target)
    kernel = tensor_factors([(len(p.source), p.degree, _factor_on_key(p, field))
                             for p in plans], source)
    return _composite(source, target, sum(p.degree for p in plans), field,
                      tensor_run(kernel, field))


def _factor_on_key(plan, field):
    """A tensor factor's on_key for tensor_factors: None for ``id``, the
    generator's memoized on_key, or the whole plan applied to one key."""
    if plan.apply is _identity:
        return None
    if isinstance(plan.apply, GradedMap):
        return plan.apply.on_key
    return _on_key(plan, field)


def _on_key(plan, field):
    """The plan as a function of one source basis key.  Its callers have
    checked the key's arity: the tensor kernel for a factor's block, and
    ``GradedMap.on_key`` for ``as_map``."""
    target, run, one = plan.target, plan.run, field.one
    return lambda key: _trusted_element(target, field, run({key: one}))


def resolve_spaces(node, ctx, in_spaces):
    """Output slot spaces of the expression on the given input slots."""
    return compile_expr(node, ctx, in_spaces).target


def _infer_source_spaces(node, ctx):
    return compile_expr(node, ctx, None).source


def _dual_of(node, ctx):
    from .double import dual_map  # deferred: double builds on core only
    return dual_map(as_map(node.child, ctx, None), name="dual")


def evaluate(node, ctx, elem):
    """Apply the expression to an element, exactly and linearly."""
    return compile_expr(node, ctx, elem.spaces).apply(elem)


def as_map(node, ctx, in_spaces, name=None):
    """Materialize an expression as a GradedMap.

    ``in_spaces`` may be None when the expression determines its own
    source (leftmost composition/tensor of concrete generators).  A
    generator or a Sum is returned as the plan's own map, and ``name``
    is then ignored; any other expression gets a new map.
    """
    plan = compile_expr(node, ctx, in_spaces)
    if isinstance(plan.apply, GradedMap):
        return plan.apply
    return GradedMap(plan.source, plan.target, plan.degree, ctx.field,
                     name=name or print_expr(node), rule=_on_key(plan, ctx.field))


# ---------------------------------------------------------------------------
# element literals
# ---------------------------------------------------------------------------

def parse_element(text, spaces, field, normalize=None):
    """Parse an element literal like ``2*A(x)1 - 2*1(x)A``.

    ``spaces`` is the tuple of slot spaces; arity 0 parses a bare scalar.
    ``normalize`` optionally canonicalizes basis names (the sphere model
    accepts U^0, U^1, AU^0, AU^1 for 1, U, A, AU).
    """
    spaces = tuple(spaces)
    out = zero_element(spaces, field)
    for coeff, key in _literal_terms(parse(text)):
        if not spaces:
            if key != ("1",):
                raise ParseError("expected a scalar literal, got %r" % (text,))
            out = out + scalar_element(field, field.coerce(coeff))
            continue
        if len(key) != len(spaces):
            raise ArityMismatch(
                "element literal %r has %d slots, expected %d"
                % (text, len(key), len(spaces)))
        names = []
        for space, raw in zip(spaces, key):
            name = normalize(raw) if normalize else raw
            if name is None or not space.contains(name):
                raise UnknownName(raw, space)
            names.append(name)
        out = out + basis_element(spaces, field, names, field.coerce(coeff))
    return out


class UnknownName(ParseError):
    def __init__(self, raw, space):
        super().__init__("%r is not a basis element of %s" % (raw, space.name))


def literal_slots(text):
    """Tensor slot count of an element literal (1 for a bare scalar)."""
    counts = {len(key) for _, key in _literal_terms(parse(text))}
    if len(counts) != 1:
        raise ParseError("terms of %r have different slot counts" % text)
    return counts.pop()


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
    raise ParseError("element literals are tensors of basis names, got %r" % (n,))
