"""Each field's accumulate kernel against the generic loop, and the
moduli ``field_by_name`` accepts."""

import math
import random
import time
from fractions import Fraction

import pytest

import gradedbv as g
from gradedbv.cli import main
from gradedbv.core import PrimeField, is_prime


def reference_accumulate(acc, terms, scalar, field):
    """The generic loop of field calls that the kernels inline."""
    if field.is_zero(scalar):
        return
    scaled = scalar != field.one
    for key, value in terms:
        if scaled:
            value = field.mul(scalar, value)
        old = acc.get(key)
        if old is not None:
            value = field.add(old, value)
            if field.is_zero(value):
                del acc[key]
                continue
        acc[key] = value


FIELDS = [g.QQ, PrimeField(2), PrimeField(3), PrimeField(101)]


def _rational(rng):
    """A non-zero rational; sums of these often cancel or come out integral."""
    value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
    return g.QQ.coerce(value)


def _element(field, rng):
    if field is g.QQ:
        return _rational(rng)
    return rng.randrange(1, field.p)


def _scalars(field):
    if field is g.QQ:
        return [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 6]
    return sorted({0, 1, field.p - 1, 2 % field.p, 5 % field.p})


def _cases(field, rng, count=40):
    """(initial acc, terms) pairs over few keys, so that keys repeat
    within the terms, meet keys already in ``acc`` and cancel."""
    keys = [("a",), ("b",), ("c",), ("a", "b"), ()]
    for _ in range(count):
        acc = {rng.choice(keys): _element(field, rng)
               for _ in range(rng.randrange(0, 4))}
        terms = [(rng.choice(keys), _element(field, rng))
                 for _ in range(rng.randrange(0, 8))]
        yield acc, terms
    # a term that cancels an existing key, then re-creates it
    one = field.one
    minus = field.neg(one)
    yield {("a",): one, ("b",): one}, [(("a",), minus), (("c",), one), (("a",), one)]
    if field is g.QQ:
        # fractions that sum to integers
        yield ({("a",): Fraction(1, 2)},
               [(("a",), Fraction(1, 2)), (("b",), Fraction(1, 3)),
                (("b",), Fraction(2, 3)), (("c",), Fraction(3, 2))])


def _typed(acc):
    return [(key, type(value), value) for key, value in acc.items()]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_matches_the_generic_loop(field):
    rng = random.Random(9)
    compared = 0
    for acc, terms in _cases(field, rng):
        for scalar in _scalars(field):
            frozen = list(terms)
            want = dict(acc)
            reference_accumulate(want, terms, scalar, field)
            for run in (lambda a: field.accumulate(a, terms, scalar),
                        lambda a: field.accumulate(a, iter(terms), scalar)):
                got = dict(acc)
                run(got)
                # equal, in the same insertion order, with the same types
                assert _typed(got) == _typed(want)
                assert terms == frozen
                if field is g.QQ:
                    assert all(type(v) is int for v in got.values()
                               if Fraction(v).denominator == 1)
                else:
                    assert all(0 < v < field.p for v in got.values())
                compared += 1
    assert compared > 150


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_reads_a_dict_view_without_changing_it(field):
    one = field.one
    source = {("a",): one, ("b",): field.neg(one)}
    before = dict(source)
    acc = {("a",): field.neg(one)}
    field.accumulate(acc, source.items(), one)
    assert source == before
    assert acc == {("b",): field.neg(one)}


def test_integral_rational_products_and_sums_are_ints():
    acc = {("x",): Fraction(1, 2)}
    g.QQ.accumulate(acc, [(("x",), Fraction(3, 2)), (("y",), 4)], Fraction(1, 2))
    assert acc == {("x",): Fraction(5, 4), ("y",): 2}
    assert type(acc[("y",)]) is int
    g.QQ.accumulate(acc, [(("x",), Fraction(3, 4))], 1)
    assert acc == {("x",): 2, ("y",): 2}
    assert type(acc[("x",)]) is int


def test_prime_field_kernel_reduces_mod_p():
    f7 = PrimeField(7)
    acc = {}
    f7.accumulate(acc, [(("x",), 5), (("y",), 6)], 3)
    assert acc == {("x",): 1, ("y",): 4}
    f7.accumulate(acc, [(("x",), 6)], 1)
    assert acc == {("y",): 4}


@pytest.mark.parametrize("p", [3, 101, 2 ** 61 - 1])
def test_prime_field_inverse(p):
    field = PrimeField(p)
    for a in (1, 2, p - 1, p + 2, -1, 12345):
        if a % p:
            assert field.mul(a, field.inv(a)) == 1, a
            assert 0 < field.inv(a) < p
    for zero in (0, p, -p, 2 * p):
        with pytest.raises(g.EngineError, match="division by zero in Fp:%d" % p):
            field.inv(zero)


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

def test_is_prime_agrees_with_trial_division():
    for n in range(-2, 5000):
        want = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == want, n


@pytest.mark.parametrize("n", [561, 2047, 3215031751, 2 ** 61 - 3,
                               18446744073709551555])
def test_pseudoprimes_and_composites_are_rejected(n):
    assert not is_prime(n)
    with pytest.raises(g.EngineError):
        g.field_by_name("Fp:%d" % n)


def test_large_primes_below_two_to_the_64_are_accepted_quickly():
    for p in (1000000000000037, 18446744073709551557, 2 ** 61 - 1):
        start = time.perf_counter()
        field = g.field_by_name("Fp:%d" % p)
        assert time.perf_counter() - start < 0.1
        assert field.p == p
    # the least prime above 2^64 is out of range
    with pytest.raises(g.EngineError, match="below 2\\^64"):
        g.field_by_name("Fp:18446744073709551629")


@pytest.mark.parametrize("tag", ["Fp:" + "7" * 5000, "Fp:٣",
                                 "Fp:７", "Fp:+7", "Fp:", "Fp:1"])
def test_bad_moduli_are_engine_errors(tag):
    start = time.perf_counter()
    with pytest.raises(g.EngineError):
        g.field_by_name(tag)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("tag", ["Fp:" + "7" * 5000, "Fp:1000000000000036",
                                 "Fp:٣"])
def test_bad_moduli_exit_64_with_a_message(capsys, tag):
    start = time.perf_counter()
    assert main(["check", "trivial", "--field", tag]) == 64
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
