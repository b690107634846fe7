"""Exact sparse linear algebra over graded bases.

Everything downstream (expression evaluation, relation checking, the
double construction) reduces to the primitives in this module: exact
scalars, graded spaces with named basis elements, finitely supported
elements of tensor powers, and homogeneous linear maps combined with the
Koszul sign convention

    (f (x) g)(a (x) b) = (-1)^{|g||a|} f(a) (x) g(b).

That single rule is the only place tensor signs are introduced.
``tensor_factors`` lays out each tensor product once, and ``tensor_run``
compiles it over a field to one loop fixed to that layout: a single
non-identity block at the start (the whole key or a prefix), at the end
(a suffix) or in the middle has its slices fixed ahead of time, and
several blocks multiply their outputs out.  The parity of a basis name
in a sign slot is read from a per-kernel dict, filled the first time the
name is seen.  ``tensor_maps`` and tensors in expressions both run such
a compiled loop, and ``tensor_apply`` runs one on a list of items.
Permutation signs, composition of tensored maps and dualization are all
derived from it. No floating point is used anywhere.

Scalar arithmetic on linear combinations runs in one kernel per field:
``Rationals.accumulate`` and ``PrimeField.accumulate`` add a scaled list
of terms into a coefficient dict with the field's arithmetic written
inline, and ``accumulate`` dispatches to them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple


class EngineError(Exception):
    """Base class for all errors raised by the engine."""


class ArityMismatch(EngineError):
    pass


class DegreeError(EngineError):
    pass


class UnknownBasisName(EngineError):
    pass


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

class Rationals:
    """Exact rational scalars (arbitrary precision).

    A value with denominator 1 is held as an ``int``, any other as a
    ``Fraction``: ``coerce``, ``add``, ``mul`` and ``inv`` return an
    ``int`` whenever the result is integral, so the integral coefficients
    that dominate the built-in models never pay for ``Fraction``
    arithmetic.  Both types compare, hash and print alike
    (``str(2) == str(Fraction(2))``).

    ``accumulate`` is the field's kernel for linear combinations: the
    loop of ``add``, ``mul`` and ``is_zero`` with that arithmetic inline.
    """

    name = "Q"
    one = 1

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return _integral(value)
        if isinstance(value, str):
            return _integral(Fraction(value))
        raise EngineError("cannot coerce %r into Q" % (value,))

    def add(self, a, b):
        return _integral(a + b)

    def mul(self, a, b):
        return _integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise EngineError("division by zero in Q")
        return _integral(1 / Fraction(a))

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def fmt(self, a):
        return str(a)

    def accumulate(self, acc, terms, scalar):
        """``core.accumulate`` over Q: an integral sum or product is
        stored as an ``int``."""
        if scalar == 0:
            return
        get = acc.get
        if scalar == 1:
            for key, value in terms:
                old = get(key)
                if old is not None:
                    value = old + value
                    if not value:
                        del acc[key]
                        continue
                    if value.__class__ is not int and value.denominator == 1:
                        value = value.numerator
                acc[key] = value
            return
        for key, value in terms:
            value = scalar * value
            if value.__class__ is not int and value.denominator == 1:
                value = value.numerator
            old = get(key)
            if old is not None:
                value = old + value
                if not value:
                    del acc[key]
                    continue
                if value.__class__ is not int and value.denominator == 1:
                    value = value.numerator
            acc[key] = value

    def __repr__(self):
        return "Q"


def _integral(value):
    """A rational as an ``int`` when its denominator is 1."""
    return value.numerator if value.denominator == 1 else value


class PrimeField:
    """Integers mod an odd prime p; p = 2 erases all signs (diagnostic).

    The modulus must be a prime below 2^64 (``is_prime``).
    ``accumulate`` is the field's kernel for linear combinations, with
    the reductions mod p inline.
    """

    one = 1

    def __init__(self, p):
        if not (p < MAX_MODULUS and is_prime(p)):
            raise EngineError("Fp modulus must be a prime below 2^64, got %d" % p)
        self.p = p
        self.name = "Fp:%d" % p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise EngineError(
                    "denominator of %s not invertible mod %d" % (value, self.p))
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise EngineError("cannot coerce %r into %s" % (value, self.name))

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise EngineError("division by zero in %s" % self.name)
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def fmt(self, a):
        return str(a)

    def accumulate(self, acc, terms, scalar):
        """``core.accumulate`` mod p: products and sums are reduced."""
        if scalar == 0:
            return
        p = self.p
        get = acc.get
        if scalar == 1:
            for key, value in terms:
                old = get(key)
                if old is not None:
                    value = (old + value) % p
                    if not value:
                        del acc[key]
                        continue
                acc[key] = value
            return
        for key, value in terms:
            value = scalar * value % p
            old = get(key)
            if old is not None:
                value = (old + value) % p
                if not value:
                    del acc[key]
                    continue
            acc[key] = value

    def __repr__(self):
        return self.name


MAX_MODULUS = 2 ** 64
# Miller-Rabin with these bases is exact below 3.3 * 10^24 > 2^64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin; exact for
    n < MAX_MODULUS."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = Rationals()


def field_by_name(name):
    """Parse a field tag: "Q" or "Fp:<prime>", the prime in ASCII digits
    and below 2^64."""
    if name == "Q":
        return QQ
    digits = name[3:]
    if name.startswith("Fp:") and digits.isascii() and digits.isdigit():
        if len(digits) > len(str(MAX_MODULUS)):
            raise EngineError("Fp modulus must be a prime below 2^64, got "
                              "%d digits" % len(digits))
        return PrimeField(int(digits))
    raise EngineError("unknown field %r (expected Q or Fp:<prime>)" % name)


# ---------------------------------------------------------------------------
# graded spaces
# ---------------------------------------------------------------------------

class GradedSpace:
    """A set of named basis elements with integer degrees.

    Spaces compare by identity; every instance owns its spaces.  A space
    is either finite (explicit ordered basis) or rule-generated, in
    which case checks enumerate a finite window of the basis.
    """

    name = "?"

    def degree(self, basis_name):
        raise NotImplementedError

    def contains(self, basis_name):
        raise NotImplementedError

    def is_finite(self):
        return False

    def basis_names(self):
        """Ordered basis for finite spaces; EngineError otherwise."""
        raise EngineError("space %s has no finite basis enumeration" % self.name)

    def window_names(self, k):
        """Canonically ordered basis names enumerated for window index k."""
        raise NotImplementedError

    def __repr__(self):
        return "<space %s>" % self.name


class FiniteSpace(GradedSpace):
    def __init__(self, name, degrees):
        self.name = name
        self._degrees = dict(degrees)

    def degree(self, basis_name):
        try:
            return self._degrees[basis_name]
        except KeyError:
            raise UnknownBasisName(
                "%r is not a basis element of %s" % (basis_name, self.name)) from None

    def contains(self, basis_name):
        return basis_name in self._degrees

    def is_finite(self):
        return True

    def basis_names(self):
        return tuple(self._degrees)

    def window_names(self, k):
        return tuple(sorted(self._degrees))

    def dim(self):
        return len(self._degrees)


class ScalarSpace(GradedSpace):
    """The ground field as a graded space (the empty tensor factor)."""

    name = "k"

    def degree(self, basis_name):
        raise UnknownBasisName("the scalar space has no basis names")

    def contains(self, basis_name):
        return False

    def is_finite(self):
        return True

    def basis_names(self):
        return ()

    def window_names(self, k):
        return ()


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _spaces_key(spaces):
    return tuple(s.name for s in spaces)


def _same_spaces(a, b):
    """Slot spaces agree: the same space objects (a C-level tuple
    comparison, spaces compare by identity), else the same names."""
    return a == b or _spaces_key(a) == _spaces_key(b)


class Element:
    """Finitely supported linear combination of tensor basis elements.

    Keys are tuples of basis names, one per tensor slot; ``spaces`` gives
    the ambient space of each slot.  Zero coefficients are pruned eagerly
    so that equality-to-zero is just emptiness of the support.

    Elements are values: nothing mutates ``coeffs`` after construction,
    so results may share a coefficient dict with a cached map output.
    The engine's own arithmetic fills one dict with ``accumulate`` and
    wraps it with ``_trusted_element``, without the per-key checks made
    here.  Inside a relation check no Element is built per stage:
    compiled plans pass bare coefficient dicts (``GradedMap.run``,
    ``expr.Plan.run``), and Elements appear only as map outputs cached
    by ``on_key``, at ``GradedMap.__call__``/``Plan.apply``, and for
    witnesses.
    """

    __slots__ = ("spaces", "field", "coeffs")

    def __init__(self, spaces, field, coeffs=None):
        self.spaces = tuple(spaces)
        self.field = field
        self.coeffs = {}
        if coeffs:
            for key, value in coeffs.items():
                if len(key) != len(self.spaces):
                    raise ArityMismatch(
                        "key %r does not match arity %d" % (key, len(self.spaces)))
                if not field.is_zero(value):
                    self.coeffs[key] = value

    @property
    def arity(self):
        return len(self.spaces)

    def is_zero(self):
        return not self.coeffs

    def key_degree(self, key):
        return sum(space.degree(name) for space, name in zip(self.spaces, key))

    def degrees(self):
        """Sorted degrees present in the support."""
        return sorted({self.key_degree(k) for k in self.coeffs})

    def degree(self):
        """The single degree of a homogeneous element (None when zero)."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError("inhomogeneous element has degrees %s" % degs)
        return degs[0]

    def homogeneous_parts(self):
        parts = {}
        for key, value in self.coeffs.items():
            parts.setdefault(self.key_degree(key), {})[key] = value
        return {d: Element(self.spaces, self.field, c)
                for d, c in sorted(parts.items())}

    def items(self):
        """Support in canonical (lexicographic by basis name) order."""
        return sorted(self.coeffs.items())

    def scale(self, scalar):
        coeffs = {}
        accumulate(coeffs, self.coeffs.items(), self.field.coerce(scalar),
                   self.field)
        return _trusted_element(self.spaces, self.field, coeffs)

    def __add__(self, other):
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        accumulate(coeffs, other.coeffs.items(), self.field.one, self.field)
        return _trusted_element(self.spaces, self.field, coeffs)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def tensor(self, other):
        if self.field is not other.field:
            raise EngineError("cannot tensor elements over different fields")
        mul = self.field.mul
        coeffs = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                coeffs[k1 + k2] = mul(v1, v2)
        return Element(self.spaces + other.spaces, self.field, coeffs)

    def _check_compatible(self, other):
        if not _same_spaces(self.spaces, other.spaces):
            raise ArityMismatch(
                "elements live in different tensor products: %s vs %s"
                % (_spaces_key(self.spaces), _spaces_key(other.spaces)))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (_same_spaces(self.spaces, other.spaces)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((_spaces_key(self.spaces), tuple(self.items())))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return "Element(%s)" % format_element(self)


def _trusted_element(spaces, field, coeffs):
    """Wrap coefficients built by the engine's own arithmetic.

    The caller guarantees what ``Element.__init__`` would check: ``spaces``
    is a tuple, every key has its arity and no value is zero.  ``coeffs``
    is taken over, not copied.
    """
    elem = object.__new__(Element)
    elem.spaces = spaces
    elem.field = field
    elem.coeffs = coeffs
    return elem


def accumulate(acc, terms, scalar, field):
    """Add ``scalar * value`` into the dict ``acc`` for every (key, value)
    of ``terms``, dropping keys that cancel.

    ``scalar`` is a field element; the multiply is skipped when it is the
    field's one, and nothing is added when it is zero.  Values in
    ``terms`` must be non-zero field elements.  The arithmetic runs in
    ``field.accumulate``, the field's own kernel; a hot caller binds that
    method once and calls it directly.
    """
    field.accumulate(acc, terms, scalar)


def format_element(elem):
    """Render an element canonically: ``2*A(x)1 - 2*1(x)A`` style."""
    if elem.is_zero():
        return "0"
    pieces = []
    for key, value in elem.items():
        body = "(x)".join(key) if key else "1"
        text = elem.field.fmt(value)
        negative = text.startswith("-")
        mag = text[1:] if negative else text
        term = body if mag == "1" else "%s*%s" % (mag, body)
        if not pieces:
            pieces.append("-" + term if negative else term)
        else:
            pieces.append(("- " if negative else "+ ") + term)
    return " ".join(pieces)


def basis_element(spaces, field, key, coeff=1):
    return Element(spaces, field, {tuple(key): field.coerce(coeff)})


def scalar_element(field, value=1):
    """An element of the empty tensor power (the ground field)."""
    return Element((), field, {(): field.coerce(value)})


def zero_element(spaces, field):
    return Element(spaces, field)


# ---------------------------------------------------------------------------
# Koszul signs and permutations
# ---------------------------------------------------------------------------

def koszul_sign(perm, degrees):
    """Sign of reordering homogeneous factors: perm[i] is the target
    position (0-indexed) of the factor currently in position i.

    The sign is the product of (-1)^{|a||b|} over every inverted pair,
    which is independent of any decomposition into adjacent swaps.
    """
    if len(perm) != len(degrees):
        raise ArityMismatch("permutation length %d != degrees length %d"
                            % (len(perm), len(degrees)))
    if sorted(perm) != list(range(len(perm))):
        raise EngineError("%r is not a permutation of 0..%d" % (perm, len(perm) - 1))
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j] and (degrees[i] % 2) and (degrees[j] % 2):
                sign = -sign
    return sign


def apply_permutation_key(perm, key):
    out = [None] * len(key)
    for i, name in enumerate(key):
        out[perm[i]] = name
    return tuple(out)


# ---------------------------------------------------------------------------
# graded maps
# ---------------------------------------------------------------------------

class GradedMap:
    """Homogeneous linear map between tensor powers of graded spaces.

    The action is a finite table or a rule producing a finitely
    supported Element for every source basis key.  Outputs are memoized
    per key; when a key's output enters the cache it is checked once to
    lie in the ``target`` spaces and to have degree
    ``source_degree(key) + degree``.  A failing output is not cached, so
    every later application raises again.

    ``run`` applies the map to a bare coefficient dict; it is how
    compiled expression plans call the map, and its result may be a
    cached output's own dict, so callers only read it.  ``__call__``
    is the Element boundary: it checks the element's spaces once and
    wraps ``run``'s dict.
    """

    def __init__(self, source, target, degree, field, name="?",
                 table=None, rule=None):
        self.source = tuple(source)
        self.target = tuple(target)
        self.degree = degree
        self.field = field
        self.name = name
        self._table = table
        self._rule = rule
        self._cache = {}
        if table is None and rule is None:
            raise EngineError("map %s has neither table nor rule" % name)

    @property
    def source_arity(self):
        return len(self.source)

    @property
    def target_arity(self):
        return len(self.target)

    def source_degree(self, key):
        return sum(s.degree(n) for s, n in zip(self.source, key))

    def on_key(self, key):
        key = tuple(key)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if len(key) != len(self.source):
            raise ArityMismatch("map %s expects arity %d, got key %r"
                                % (self.name, len(self.source), key))
        if self._table is not None:
            out = self._table.get(key)
            if out is None:
                out = zero_element(self.target, self.field)
        else:
            out = self._rule(key)
        if not _same_spaces(out.spaces, self.target):
            raise ArityMismatch(
                "map %s maps %r into %s, expected %s"
                % (self.name, key, _spaces_key(out.spaces),
                   _spaces_key(self.target)))
        if not out.is_zero():
            want = self.source_degree(key) + self.degree
            for okey in out.coeffs:
                got = out.key_degree(okey)
                if got != want:
                    raise DegreeError(
                        "map %s violates degree additivity on %r: output %r "
                        "has degree %d, expected %d"
                        % (self.name, key, okey, got, want))
        if out.spaces is not self.target:
            out = _trusted_element(self.target, self.field, out.coeffs)
        self._cache[key] = out
        return out

    def run(self, coeffs):
        """The map on a coefficient dict of source keys; returns the
        coefficient dict of the image.  ``coeffs`` is not mutated.  A
        single key with coefficient one returns its cached output's own
        dict, which the caller only reads."""
        field, on_key = self.field, self.on_key
        if len(coeffs) == 1:
            (key, value), = coeffs.items()
            if field.is_one(value):
                return on_key(key).coeffs
        acc = {}
        add_into = field.accumulate
        for key, value in coeffs.items():
            add_into(acc, on_key(key).coeffs.items(), value)
        return acc

    def __call__(self, elem):
        return run_on_element("map " + self.name, self.source, self.target,
                              self.field, self.run, elem)

    # -- algebra of maps ----------------------------------------------------

    def __mul__(self, other):
        """Composition self(other(x))."""
        return compose(self, other)

    def __matmul__(self, other):
        return tensor_maps(self, other)

    def __add__(self, other):
        if (_spaces_key(self.source) != _spaces_key(other.source)
                or _spaces_key(self.target) != _spaces_key(other.target)
                or self.degree != other.degree):
            raise ArityMismatch("cannot add maps %s and %s" % (self.name, other.name))
        return GradedMap(self.source, self.target, self.degree, self.field,
                         name="(%s + %s)" % (self.name, other.name),
                         rule=lambda key: self.on_key(key) + other.on_key(key))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        return GradedMap(self.source, self.target, self.degree, self.field,
                         name="(%s*%s)" % (scalar, self.name),
                         rule=lambda key: self.on_key(key).scale(scalar))

    def as_table(self):
        """Materialize the action on a finite source basis."""
        table = {}
        for key in source_basis_keys(self.source):
            out = self.on_key(key)
            if not out.is_zero():
                table[key] = out
        return table

    def __repr__(self):
        return "<map %s: %s -> %s deg %d>" % (
            self.name, _spaces_key(self.source), _spaces_key(self.target), self.degree)


def run_on_element(name, source, target, field, run, elem):
    """The Element boundary of a dict-level ``run``: ``elem`` must lie in
    the ``source`` spaces, and ``run``'s dict is wrapped as an element of
    ``target``."""
    if not _same_spaces(elem.spaces, source):
        raise ArityMismatch(
            "%s defined on %s applied to element of %s"
            % (name, _spaces_key(source), _spaces_key(elem.spaces)))
    return _trusted_element(target, field, run(elem.coeffs))


def table_map(source, target, degree, field, entries, name="?"):
    """A table GradedMap from (input key, output key, coefficient)
    entries, the one way finite maps are built.

    Coefficients are coerced into ``field``; repeated entries are summed
    (see ``accumulate``), so zero coefficients, cancelled outputs and
    rows that cancel entirely leave nothing in the table.  ``Element``
    checks each output key's arity; degrees are checked by ``on_key``.
    """
    one = field.one
    rows = {}
    for key, okey, coeff in entries:
        # the coefficient is the scalar: a zero one adds nothing
        accumulate(rows.setdefault(tuple(key), {}), ((tuple(okey), one),),
                   field.coerce(coeff), field)
    table = {key: Element(target, field, row) for key, row in rows.items() if row}
    return GradedMap(source, target, degree, field, name=name, table=table)


def source_basis_keys(spaces):
    """All basis keys of a finite tensor product, in canonical order."""
    pools = []
    for space in spaces:
        if not space.is_finite():
            raise EngineError("space %s is not finite" % space.name)
        pools.append(sorted(space.basis_names()))
    return [()] if not pools else list(itertools.product(*pools))


def identity(space, field):
    return GradedMap((space,), (space,), 0, field, name="id",
                     rule=lambda key: basis_element((space,), field, key))


def compose(f, g):
    """f after g; degree |f| + |g|."""
    if _spaces_key(g.target) != _spaces_key(f.source):
        raise ArityMismatch(
            "cannot compose %s : ->%s with %s : %s->"
            % (g.name, _spaces_key(g.target), f.name, _spaces_key(f.source)))
    return GradedMap(g.source, f.target, f.degree + g.degree, f.field,
                     name="(%s . %s)" % (f.name, g.name),
                     rule=lambda key: f(g.on_key(key)))


class TensorKernel(NamedTuple):
    """A tensor product f_1 (x) ... (x) f_k of maps, laid out once by
    ``tensor_factors`` for ``tensor_run``.

    ``sign_slots`` holds ``(i, degree, parity)`` for each input slot i
    whose degree enters the Koszul sign: slot i of block j counts once
    for every odd f_l with l > j, so only slots counted an odd number of
    times are kept, with their space's ``degree`` function and a dict
    from basis name to degree mod 2.  ``blocks`` holds ``(start, end,
    on_key)`` for each factor that is not an identity; identity blocks
    (degree 0) are copied from the input key.
    """

    arity: int
    sign_slots: tuple
    blocks: tuple


def tensor_factors(factors, spaces):
    """Lay out a TensorKernel from (arity, degree, on_key) triples, one
    per factor in order; ``on_key`` is None for an identity block, whose
    degree is taken as 0.  ``spaces`` are the input slot spaces."""
    sign_slots, blocks = [], []
    later_odd = 0
    pos = len(spaces)
    for arity, degree, on_key in reversed(factors):
        start = pos - arity
        if later_odd % 2:
            sign_slots.extend((i, spaces[i].degree, {}) for i in range(start, pos))
        if on_key is not None:
            blocks.append((start, pos, on_key))
            later_odd += degree % 2
        pos = start
    if pos != 0:
        raise ArityMismatch("tensor factors consume %d slots, not %d"
                            % (len(spaces) - pos, len(spaces)))
    return TensorKernel(len(spaces), tuple(reversed(sign_slots)),
                        tuple(reversed(blocks)))


def tensor_run(kernel, field):
    """The compiled loop of a tensor product over ``field``: it maps the
    coefficient dict of an element to that of its image (see
    ``accumulate``), and does not mutate its input.

    Key x = x_1 (x) ... (x) x_k, block j feeding f_j, goes to
    (-1)^{sum_j |f_j| * (|x_1| + ... + |x_{j-1}|)} f_1(x_1) (x) ... (x)
    f_k(x_k); nothing is added when some f_j(x_j) vanishes.  The loop is
    picked here, once per kernel.  A single non-identity block is the
    whole key or a prefix of it, which has no sign slots, or a suffix or
    the middle of it, whose sign slots all lie before it; its loop copies
    the identity slots around the block's output with slices fixed ahead
    of time, skips a vanishing output and adds a one-term output without
    building a list (on the sphere model about a third of the block
    outputs vanish and over half have one term).  Several blocks (or
    none) multiply their outputs out.
    The parities of ``_odd`` are the only tensor signs introduced.
    """
    arity, sign_slots, blocks = kernel
    neg, add_into = field.neg, field.accumulate
    if len(blocks) != 1:
        return _product_run(kernel, field)
    (start, end, on_key), = blocks
    if start == 0:
        def run(coeffs):
            acc = {}
            for key, coeff in coeffs.items():
                if len(key) != arity:
                    raise _arity_error(key, arity)
                part = on_key(key[:end]).coeffs
                if len(part) == 1:
                    (k, v), = part.items()
                    add_into(acc, ((k + key[end:], v),), coeff)
                elif part:
                    tail = key[end:]
                    add_into(acc, [(k + tail, v) for k, v in part.items()],
                             coeff)
            return acc
    elif end == arity:
        def run(coeffs):
            acc = {}
            for key, coeff in coeffs.items():
                if len(key) != arity:
                    raise _arity_error(key, arity)
                if sign_slots and _odd(sign_slots, key):
                    coeff = neg(coeff)
                part = on_key(key[start:]).coeffs
                if len(part) == 1:
                    (k, v), = part.items()
                    add_into(acc, ((key[:start] + k, v),), coeff)
                elif part:
                    head = key[:start]
                    add_into(acc, [(head + k, v) for k, v in part.items()],
                             coeff)
            return acc
    else:
        def run(coeffs):
            acc = {}
            for key, coeff in coeffs.items():
                if len(key) != arity:
                    raise _arity_error(key, arity)
                if sign_slots and _odd(sign_slots, key):
                    coeff = neg(coeff)
                part = on_key(key[start:end]).coeffs
                if len(part) == 1:
                    (k, v), = part.items()
                    add_into(acc, ((key[:start] + k + key[end:], v),), coeff)
                elif part:
                    head, tail = key[:start], key[end:]
                    add_into(acc, [(head + k + tail, v) for k, v in
                                   part.items()], coeff)
            return acc
    return run


def _product_run(kernel, field):
    """``tensor_run``'s loop for several non-identity blocks, or none:
    the block outputs are multiplied out, identity gaps copied between
    them."""
    arity, sign_slots, blocks = kernel
    neg, mul, one, add_into = field.neg, field.mul, field.one, field.accumulate

    def run(coeffs):
        acc = {}
        for key, coeff in coeffs.items():
            if len(key) != arity:
                raise _arity_error(key, arity)
            if sign_slots and _odd(sign_slots, key):
                coeff = neg(coeff)
            terms = [((), coeff)]
            pos = 0
            for start, end, on_key in blocks:
                part = on_key(key[start:end]).coeffs
                if not part:
                    break
                gap = key[pos:start]
                terms = [(k1 + gap + k2, mul(v1, v2))
                         for k1, v1 in terms for k2, v2 in part.items()]
                pos = end
            else:
                tail = key[pos:]
                add_into(acc, [(k + tail, v) for k, v in terms], one)
        return acc
    return run


def _odd(sign_slots, key):
    """Whether the degrees of ``key``'s names in ``sign_slots`` add up
    to an odd number.  A name's parity is read from its slot's dict, and
    stored there the first time the name is seen; a name whose degree
    lookup raises is not stored, so it raises again."""
    odd = 0
    for i, degree, parity in sign_slots:
        name = key[i]
        bit = parity.get(name)
        if bit is None:
            bit = parity[name] = degree(name) % 2
        odd ^= bit
    return odd


def _arity_error(key, arity):
    return ArityMismatch("key %r does not match arity %d" % (key, arity))


def tensor_apply(kernel, items, field):
    """``tensor_run`` of ``kernel`` on (key, coefficient) items, summed
    first; returns the coefficient dict of the result."""
    coeffs = {}
    field.accumulate(coeffs, items, field.one)
    return tensor_run(kernel, field)(coeffs)


def tensor_maps(*factors):
    """Tensor product of maps with the global Koszul sign rule
    (see tensor_run)."""
    if not factors:
        raise EngineError("empty tensor product of maps")
    if len(factors) == 1:
        return factors[0]
    field = factors[0].field
    source = tuple(s for f in factors for s in f.source)
    target = tuple(t for f in factors for t in f.target)
    degree = sum(f.degree for f in factors)
    run = tensor_run(tensor_factors([(f.source_arity, f.degree, f.on_key)
                                     for f in factors], source), field)

    def rule(key):
        return _trusted_element(target, field, run({key: field.one}))

    name = "(" + " (x) ".join(f.name for f in factors) + ")"
    return GradedMap(source, target, degree, field, name=name, rule=rule)


def permute(perm, spaces, field):
    """Signed permutation map; perm[i] is the 0-indexed target slot of
    factor i.  tau = permute((1, 0), ...), sigma = permute((1, 2, 0), ...).
    """
    perm = tuple(perm)
    if len(perm) != len(spaces):
        raise ArityMismatch("permutation %r does not match arity %d"
                            % (perm, len(spaces)))
    if sorted(perm) != list(range(len(perm))):
        raise EngineError("%r is not a permutation" % (perm,))
    target = [None] * len(spaces)
    for i, space in enumerate(spaces):
        target[perm[i]] = space

    def rule(key):
        degrees = [s.degree(n) for s, n in zip(spaces, key)]
        sign = koszul_sign(perm, degrees)
        return basis_element(tuple(target), field,
                             apply_permutation_key(perm, key), sign)

    return GradedMap(spaces, tuple(target), 0, field,
                     name="perm%s" % (perm,), rule=rule)

