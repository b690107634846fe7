"""Exact sparse linear algebra over graded bases.

Everything downstream (expression evaluation, relation checking, the
double construction) reduces to the primitives in this module: exact
scalars, graded spaces with named basis elements, finitely supported
elements of tensor powers, homogeneous linear maps, and the Koszul sign
convention

    (f (x) g)(a (x) b) = (-1)^{|g||a|} f(a) (x) g(b).

Maps are not combined here: composites, tensor products, sums and
scalar multiples of maps are expressions, compiled by ``expr``.  The
rule above is the only place tensor signs are introduced.
``tensor_factors`` lays out each tensor product of an expression once,
each block holding its GradedMap, and ``tensor_run`` compiles it over a
field to one loop fixed to that layout: a single non-identity block,
wherever it lies, has one loop with its slices fixed ahead of time, and
several blocks multiply their outputs out.  A map's output on a key is
checked once, by ``GradedMap.on_key``, and cached; the loops of
``tensor_run``, ``GradedMap.run`` and ``GradedMap.key_run`` read a
cached output with one dict lookup and call ``on_key`` only on a miss.
Signs come from two rules, each written once here.  ``_parities``
reads the parities of a key's names as a bit pattern, each from its
slot's dict, filled the first time the name is seen; a tensor kernel's
sign is the parity of its sign slots' pattern.  ``_slot_rule`` gives a
slot permutation's move (its inverse) and its inverted slot pairs, and
``_pairs_odd`` the parity of its Koszul sign on a pattern, counted from
those pairs.  ``permute`` compiles each permutation map alike, to one
function ``signed(key) -> (image, sign)`` built on both rules; the map's
rule wraps it, and the relation walker calls it without the cache.  The
walker's permutation action (``checks._Action``) and the normal form of
a composition (``expr._move``) read the same rules.  ``koszul_sign``
computes permutation signs from scratch and is the tests' oracle only:
the engine never calls it.  Dualization (``double.dual_map``) carries
its own sign.  No floating point is used anywhere.

Scalar arithmetic on linear combinations runs in one kernel per field:
``Rationals.accumulate`` and ``PrimeField.accumulate`` each add a scaled
list of terms into a coefficient dict in one loop, with the field's
arithmetic written inline, and every caller calls its field's kernel.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter


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

class _Field:
    """What the two fields share: the unit, the zero test, printing, and
    ``repr`` as the field's ``name``."""

    one = 1

    def is_zero(self, a):
        return a == 0

    def fmt(self, a):
        return str(a)

    def __repr__(self):
        return self.name


class Rationals(_Field):
    """Exact rational scalars (arbitrary precision).

    A value with denominator 1 is held as an ``int``, any other as a
    ``Fraction``: ``coerce``, ``add``, ``mul`` and ``inv`` return an
    ``int`` whenever the result is integral, so the integral coefficients
    that dominate the built-in models never pay for ``Fraction``
    arithmetic.  Both types compare, hash and print alike
    (``str(2) == str(Fraction(2))``).

    ``accumulate`` is the field's kernel for linear combinations: one
    loop of ``add``, ``mul`` and ``is_zero`` with that arithmetic inline.
    """

    name = "Q"

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

    def accumulate(self, acc, terms, scalar):
        """Add ``scalar * value`` into the dict ``acc`` for every (key,
        value) of ``terms``, dropping keys that cancel.  ``scalar`` is a
        field element; nothing is added when it is zero.  Values in
        ``terms`` must be non-zero field elements.  Over Q an integral
        sum or product is stored as an ``int``."""
        if scalar == 0:
            return
        get = acc.get
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


def _integral(value):
    """A rational as an ``int`` when its denominator is 1."""
    return value.numerator if value.denominator == 1 else value


class PrimeField(_Field):
    """Integers mod an odd prime p; p = 2 erases all signs (diagnostic).

    The modulus must be a prime below 2^64 (``is_prime``).
    ``accumulate`` is the field's kernel for linear combinations, with
    the reductions mod p inline.
    """

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

    def accumulate(self, acc, terms, scalar):
        """``Rationals.accumulate`` mod p: products and sums are reduced."""
        if scalar == 0:
            return
        p = self.p
        get = acc.get
        for key, value in terms:
            value = scalar * value % p
            old = get(key)
            if old is not None:
                value = (old + value) % p
                if not value:
                    del acc[key]
                    continue
            acc[key] = value


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
    is finite (explicit ordered basis), of finite type (rule-generated,
    with finitely many names in each degree, see ``names_in_degree``),
    or neither; checks enumerate a finite window of a rule-generated
    basis.
    """

    name = "?"

    def degree(self, basis_name):
        raise NotImplementedError

    def contains(self, basis_name):
        try:
            self.degree(basis_name)
        except UnknownBasisName:
            return False
        return True

    def canonical_name(self, raw):
        """The basis name that ``raw``, as read from input, spells, or
        None when it spells none."""
        return raw if self.contains(raw) else None

    def is_finite(self):
        return False

    def basis_names(self):
        """Ordered basis for finite spaces; EngineError otherwise."""
        raise EngineError("space %s has no finite basis enumeration" % self.name)

    def window_names(self, k):
        """Canonically ordered basis names enumerated for window index k."""
        raise NotImplementedError

    def names_in_degree(self, d):
        """The sorted basis names of degree ``d`` on a space of finite
        type; EngineError otherwise."""
        raise EngineError("space %s is not of finite type" % self.name)

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

    def names_in_degree(self, d):
        return tuple(sorted(n for n, e in self._degrees.items() if e == d))


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
    The engine's own arithmetic fills one dict with ``field.accumulate`` and
    wraps it with ``_trusted_element``, without the per-key checks made
    here.  Inside a relation check no Element is built per stage:
    compiled expressions pass bare coefficient dicts to each other
    (``GradedMap.run``), and Elements appear only as map outputs cached
    by ``on_key``, at ``GradedMap.__call__``, and for witnesses.
    """

    __slots__ = ("spaces", "field", "coeffs")

    def __init__(self, spaces, field, coeffs=None):
        self.spaces = tuple(spaces)
        self.field = field
        self.coeffs = {}
        if coeffs:
            for key, value in coeffs.items():
                if len(key) != len(self.spaces):
                    raise _arity_error(key, len(self.spaces))
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

    def items(self):
        """Support in canonical (lexicographic by basis name) order."""
        return sorted(self.coeffs.items())

    def scale(self, scalar):
        coeffs = {}
        self.field.accumulate(coeffs, self.coeffs.items(),
                              self.field.coerce(scalar))
        return _trusted_element(self.spaces, self.field, coeffs)

    def __add__(self, other):
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        self.field.accumulate(coeffs, other.coeffs.items(), self.field.one)
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


# ---------------------------------------------------------------------------
# graded maps
# ---------------------------------------------------------------------------

class GradedMap:
    """Homogeneous linear map between tensor powers of graded spaces.

    The action is ``rule``, which gives a finitely supported Element
    for a source basis key, and the map's one cache of checked outputs.
    When a key's output enters the cache it is checked once to lie in
    the ``target`` spaces and to have degree ``source_degree(key) +
    degree``, read from per-slot degree functions fixed here.  A failing
    output is not cached, so every later application raises again.  A
    finite map is a rule too: see ``table_map``.  A map that wraps
    another calls the other's ``rule``, not its ``on_key``, so each key
    is checked and cached once.

    ``on_key`` is the checked miss path.  The engine's loops read a key
    with one lookup in the cache (``_cache``) and call ``on_key`` only
    when it is absent, so a hit costs no call; ``on_key`` still answers
    from the cache for any other caller.
    ``run`` applies the map to a bare coefficient dict; it is how
    compiled expressions call each other, and its result may be a
    cached output's own dict, so callers only read it.  ``key_run`` is
    ``run`` on one basis key with coefficient one, the relation
    walker's read of a head: the cached output's own dict.  A
    composition or tensor product compiled by ``expr`` replaces ``run``
    and ``key_run`` with its own loops, which do not use the cache, and
    its rule runs that loop on one key; ``GradedMap.run`` still reads
    its cache.  A permutation's ``key_run`` reads its signed key, also
    without the cache (``permute``).
    ``__call__`` is the Element boundary: it checks the element's spaces
    once and wraps ``run``'s dict.
    """

    def __init__(self, source, target, degree, field, rule, name="?"):
        self.source = tuple(source)
        self.target = tuple(target)
        self.degree = degree
        self.field = field
        self.rule = rule
        self._name = name
        self._cache = {}
        self._source_degrees = tuple(s.degree for s in self.source)
        self._target_degrees = tuple(t.degree for t in self.target)

    @property
    def name(self):
        """``str`` of the name given: a compiled composite is given its
        expression, printed only when an error or ``repr`` reads it."""
        return str(self._name)

    @property
    def source_arity(self):
        return len(self.source)

    @property
    def target_arity(self):
        return len(self.target)

    def source_degree(self, key):
        return sum([degree(n) for degree, n in zip(self._source_degrees, key)])

    def on_key(self, key):
        key = tuple(key)
        out = self._cache.get(key)
        if out is not None:
            return out
        if len(key) != len(self.source):
            raise ArityMismatch("map %s expects arity %d, got key %r"
                                % (self.name, len(self.source), key))
        out, target = self.rule(key), self.target
        if out.spaces is not target:
            if not _same_spaces(out.spaces, target):
                raise ArityMismatch(
                    "map %s maps %r into %s, expected %s"
                    % (self.name, key, _spaces_key(out.spaces),
                       _spaces_key(target)))
            out = _trusted_element(target, self.field, out.coeffs)
        if out.coeffs:
            want = self.degree + self.source_degree(key)
            degrees = self._target_degrees
            for okey in out.coeffs:
                got = sum([degree(n) for degree, n in zip(degrees, okey)])
                if got != want:
                    raise DegreeError(
                        "map %s violates degree additivity on %r: output %r "
                        "has degree %d, expected %d"
                        % (self.name, key, okey, got, want))
        self._cache[key] = out
        return out

    def run(self, coeffs):
        """The map on a coefficient dict of source keys; returns the
        coefficient dict of the image.  ``coeffs`` is not mutated.  A
        single key with coefficient one returns its cached output's own
        dict, which the caller only reads.  Each key is read from the
        cache, and ``on_key`` runs only on a miss."""
        get = self._cache.get
        if len(coeffs) == 1:
            (key, value), = coeffs.items()
            if value == 1:
                out = get(key)
                return (self.on_key(key) if out is None else out).coeffs
        acc = {}
        add_into = self.field.accumulate
        for key, value in coeffs.items():
            out = get(key)
            if out is None:
                out = self.on_key(key)
            add_into(acc, out.coeffs.items(), value)
        return acc

    def key_run(self, key):
        """The coefficient dict of the map on one basis key, which the
        caller only reads: the cached output's, ``on_key`` run only on a
        miss."""
        out = self._cache.get(key)
        return (self.on_key(key) if out is None else out).coeffs

    def __call__(self, elem):
        if not _same_spaces(elem.spaces, self.source):
            raise ArityMismatch(
                "map %s defined on %s applied to element of %s"
                % (self.name, _spaces_key(self.source), _spaces_key(elem.spaces)))
        return _trusted_element(self.target, self.field, self.run(elem.coeffs))

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


def table_map(source, target, degree, field, entries, name="?"):
    """A GradedMap whose rule reads a table built from (input key, output
    key, coefficient) entries, the one way finite maps are built.

    Coefficients are coerced into ``field``; repeated entries are summed
    (see ``field.accumulate``), so zero coefficients, cancelled outputs and
    rows that cancel entirely leave nothing in the table, and a key with
    no row reads one zero Element of the target shared by every such key.
    ``Element`` checks each output key's arity; degrees are checked by
    ``on_key``, as for any rule.
    """
    target, one = tuple(target), field.one
    rows = {}
    for key, okey, coeff in entries:
        # the coefficient is the scalar: a zero one adds nothing
        field.accumulate(rows.setdefault(tuple(key), {}),
                         ((tuple(okey), one),), field.coerce(coeff))
    table = {key: Element(target, field, row) for key, row in rows.items() if row}
    zero = Element(target, field)
    return GradedMap(source, target, degree, field, name=name,
                     rule=lambda key: table.get(key, zero))


def source_basis_keys(spaces):
    """All basis keys of a finite tensor product, in canonical order."""
    pools = []
    for space in spaces:
        if not space.is_finite():
            raise EngineError("space %s is not finite" % space.name)
        pools.append(sorted(space.basis_names()))
    return [()] if not pools else list(itertools.product(*pools))


class TensorKernel(namedtuple("TensorKernel", "arity sign_slots blocks")):
    """A tensor product f_1 (x) ... (x) f_k of maps, laid out once by
    ``tensor_factors`` for ``tensor_run``.

    ``sign_slots`` holds ``(i, degree, parity)`` for each input slot i
    whose degree enters the Koszul sign: slot i of block j counts once
    for every odd f_l with l > j, so only slots counted an odd number of
    times are kept, with their space's ``degree`` function and a dict
    from basis name to degree mod 2.  ``blocks`` holds ``(start, end,
    gmap)`` for each factor that is not an identity, with its
    GradedMap; identity blocks (degree 0) are copied from the input key.
    """

    __slots__ = ()


def tensor_factors(factors, spaces):
    """Lay out a TensorKernel from (arity, degree, gmap) triples, one per
    factor in order; ``gmap`` is None for an identity block, whose degree
    is taken as 0.  ``spaces`` are the input slot spaces."""
    sign_slots, blocks = [], []
    later_odd = 0
    pos = len(spaces)
    for arity, degree, gmap in reversed(factors):
        start = pos - arity
        if later_odd % 2:
            sign_slots.extend((i, spaces[i].degree, {}) for i in range(start, pos))
        if gmap is not None:
            blocks.append((start, pos, gmap))
            later_odd += degree % 2
        pos = start
    if pos != 0:
        raise ArityMismatch("tensor factors consume %d slots, not %d"
                            % (len(spaces) - pos, len(spaces)))
    return TensorKernel(len(spaces), tuple(reversed(sign_slots)),
                        tuple(reversed(blocks)))


def tensor_run(kernel, field):
    """The compiled loop of a tensor product over ``field``: it maps the
    coefficient dict of an element, whose coefficients are non-zero, to
    that of its image (see ``field.accumulate``), and does not mutate
    its input.

    Key x = x_1 (x) ... (x) x_k, block j feeding f_j, goes to
    (-1)^{sum_j |f_j| * (|x_1| + ... + |x_{j-1}|)} f_1(x_1) (x) ... (x)
    f_k(x_k); nothing is added when some f_j(x_j) vanishes.  Each block
    output is read with one lookup in its map's cache, and ``on_key``
    is called only on a miss.  The loop is picked here, once per kernel.
    A single non-identity block has one loop, whose sign slots all lie
    before the block (none for a block at the start); it copies the
    identity slots around the block's output with slices fixed ahead of
    time (an empty head at the start, an empty tail at the end), skips a
    vanishing output and adds a one-term output without building a list
    (on the sphere model about a third of the block outputs vanish and
    over half have one term), storing it at a new key with one field
    multiply, none when the output's coefficient is one, and no kernel
    call.  Several blocks (or none) multiply their outputs out.
    ``tensor_key_run`` is the single block's loop on one key with
    coefficient one.
    The parity of the sign slots' pattern (``_parities``) is the only
    tensor sign introduced.
    """
    arity, sign_slots, blocks = kernel
    neg, mul, add_into = field.neg, field.mul, field.accumulate
    if len(blocks) != 1:
        return _product_run(kernel, field)
    (start, end, gmap), = blocks
    get, on_key = gmap._cache.get, gmap.on_key

    def run(coeffs):
        acc = {}
        for key, coeff in coeffs.items():
            if len(key) != arity:
                raise _arity_error(key, arity)
            if sign_slots and _parities(sign_slots, key).bit_count() & 1:
                coeff = neg(coeff)
            block = key[start:end]
            out = get(block)
            part = (on_key(block) if out is None else out).coeffs
            if len(part) == 1:
                (k, v), = part.items()
                k = key[:start] + k + key[end:]
                if k not in acc:
                    acc[k] = coeff if v == 1 else mul(coeff, v)
                else:
                    add_into(acc, ((k, v),), coeff)
            elif part:
                head, tail = key[:start], key[end:]
                add_into(acc, [(head + k + tail, v) for k, v in
                               part.items()], coeff)
        return acc
    return run


def tensor_key_run(kernel, field):
    """``tensor_run`` of a kernel with one non-identity block on one
    basis key with coefficient one: the block's output read from its
    map's cache (``on_key`` only on a miss), re-keyed between the
    identity slots and negated when the key's sign slots are odd, a
    one-term output without a comprehension.  A vanishing output is
    returned before the identity slots are sliced; the sign slots'
    parities are read first, so an unknown name there raises on every
    path.  None for a kernel with several blocks or none."""
    arity, sign_slots, blocks = kernel
    if len(blocks) != 1:
        return None
    (start, end, gmap), = blocks
    get, on_key, neg = gmap._cache.get, gmap.on_key, field.neg

    def key_run(key):
        if len(key) != arity:
            raise _arity_error(key, arity)
        odd = sign_slots and _parities(sign_slots, key).bit_count() & 1
        block = key[start:end]
        out = get(block)
        part = (on_key(block) if out is None else out).coeffs
        if not part:
            return part
        head, tail = key[:start], key[end:]
        if len(part) == 1:
            (k, v), = part.items()
            return {head + k + tail: neg(v) if odd else v}
        return {head + k + tail: neg(v) if odd else v for k, v in part.items()}
    return key_run


def _product_run(kernel, field):
    """``tensor_run``'s loop for several non-identity blocks, or none:
    the block outputs are multiplied out, identity gaps copied between
    them."""
    arity, sign_slots, blocks = kernel
    neg, mul, one, add_into = field.neg, field.mul, field.one, field.accumulate
    blocks = [(start, end, gmap._cache.get, gmap.on_key)
              for start, end, gmap in blocks]

    def run(coeffs):
        acc = {}
        for key, coeff in coeffs.items():
            if len(key) != arity:
                raise _arity_error(key, arity)
            if sign_slots and _parities(sign_slots, key).bit_count() & 1:
                coeff = neg(coeff)
            terms = [((), coeff)]
            pos = 0
            for start, end, get, on_key in blocks:
                block = key[start:end]
                out = get(block)
                part = (on_key(block) if out is None else out).coeffs
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


def _parities(slots, key):
    """The parities of ``key``'s names in ``slots`` as a bit pattern, bit
    i for slot i.  ``slots`` holds ``(i, degree, parity)`` for each slot
    read: its space's ``degree`` function and a dict from basis name to
    degree mod 2.  A name's parity is read from its slot's dict, and
    stored there the first time the name is seen; a name whose degree
    lookup raises is not stored, so it raises again."""
    pattern = 0
    for i, degree, parity in slots:
        bit = parity.get(key[i])
        if bit is None:
            bit = parity[key[i]] = degree(key[i]) % 2
        pattern |= bit << i
    return pattern


def _slot_rule(perm):
    """(move, pairs) of the slot map ``perm``, perm[i] being the target
    slot of factor i: ``move`` is its inverse, which moves a key k to
    (k[move[0]], k[move[1]], ...), and ``pairs`` are its inverted slot
    pairs, i < j and perm[i] > perm[j], each as the bit mask of its two
    slots, 1 << i | 1 << j.  The Koszul sign of moving a key whose names
    have the parities of a bit pattern (``_parities``) is odd when an odd
    number of those pairs have both names odd (``_pairs_odd``)."""
    return (tuple(map(perm.index, range(len(perm)))), [
        1 << i | 1 << j for i, j in itertools.combinations(range(len(perm)), 2)
        if perm[i] > perm[j]])


def _pairs_odd(pairs, pattern):
    """Whether an odd number of the pair masks ``pairs`` (of
    ``_slot_rule``) have both their slots set in ``pattern``."""
    odd = 0
    for pair in pairs:
        odd ^= pattern & pair == pair
    return odd


def _arity_error(key, arity):
    return ArityMismatch("key %r does not match arity %d" % (key, arity))


def permute(perm, spaces, field):
    """Signed permutation map; perm[i] is the 0-indexed target slot of
    factor i.  tau = permute((1, 0), ...), sigma = permute((1, 2, 0), ...).

    The map is compiled once, to ``signed(key) -> (image, sign)``: the
    key's names move to their target slots by a fixed ``itemgetter`` of
    the inverse permutation, and the sign is the parity of the inverted
    pairs (i < j, perm[i] > perm[j]) whose two names are odd, the move
    and the pairs being ``_slot_rule``'s, fixed here.  ``signed`` checks
    the key's length (ArityMismatch) and reads every slot's name through
    its slot's parity dict (``_parities``), so an unknown name raises
    UnknownBasisName and is not stored.  It does not check degree
    additivity per key, which holds by construction: the target slots
    are the source slots moved by the same ``itemgetter``, and the
    degree is 0.  ``koszul_sign`` computes the same sign from scratch.
    The map's rule wraps ``signed``, so expressions read the map through
    ``GradedMap.on_key``'s checked cache like any other; the relation
    walker calls an output permutation's ``signed``, the map's
    ``signed`` attribute, or the map's ``key_run`` for a permutation
    head, and caches nothing in the map (it reads input permutations
    from its own tables).
    """
    perm = tuple(perm)
    n = len(perm)
    if n != len(spaces):
        raise ArityMismatch("permutation %r does not match arity %d"
                            % (perm, len(spaces)))
    if sorted(perm) != list(range(n)):
        raise EngineError("%r is not a permutation" % (perm,))
    move, pairs = _slot_rule(perm)
    move = itemgetter(*move) if n > 1 else tuple
    target = move(tuple(spaces))    # the slot spaces move like a key
    slots = [(i, space.degree, {}) for i, space in enumerate(spaces)]
    signs = (field.one, field.coerce(-1))

    def signed(key):
        if len(key) != n:
            raise _arity_error(key, n)
        return move(key), signs[_pairs_odd(pairs, _parities(slots, key))]

    def key_run(key):
        return dict((signed(key),))

    gmap = GradedMap(spaces, target, 0, field, name="perm%s" % (perm,),
                     rule=lambda key: _trusted_element(target, field, key_run(key)))
    gmap.signed, gmap.key_run = signed, key_run
    return gmap
