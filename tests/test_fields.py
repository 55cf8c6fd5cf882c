import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfeq import fields
from hopfeq.fields import QQ, FieldError, PrimeField, is_prime, parse_field, parse_integer


def test_parse_field_descriptors():
    assert parse_field("q") is QQ
    assert parse_field("q").characteristic == 0
    f2 = parse_field("fp:2")
    assert isinstance(f2, PrimeField)
    assert f2.characteristic == 2
    assert parse_field("fp:7").p == 7


@pytest.mark.parametrize("bad", ["fp:4", "fp:1", "fp:0", "fp:91"])
def test_parse_field_rejects_nonprime(bad):
    with pytest.raises(FieldError):
        parse_field(bad)


@pytest.mark.parametrize("bad", [
    "", "Q", "fp:", "fp:x", "gf:5", "fp:-7", "rational",
    # "fp:\u00b2" passed str.isdigit and failed in int(), "fp:\u0663" was F_3,
    # and a descriptor that is not a string raised AttributeError
    "fp:\u00b2", "fp:\u0663", "fp:+7", "fp: 7", "fp:7 ", "fp:1_3", "fp:7\n", "q ",
    7, None, True, ["q"], {"fp": 7},
])
def test_parse_field_rejects_malformed(bad):
    with pytest.raises(FieldError, match="malformed field descriptor"):
        parse_field(bad)


def test_modulus_digits_bounded_before_conversion():
    assert parse_field("fp:0003") == parse_field("fp:" + "0" * 20 + "3") == PrimeField(3)
    # past int()'s 4300-digit limit: refused on its length, not by int()
    with pytest.raises(FieldError, match=r"^modulus of 5000 digits too large \(need p < 2\^31\)$"):
        parse_field("fp:" + "7" * 5000)
    with pytest.raises(FieldError, match="too large"):
        parse_field("fp:21474836470")  # eleven digits
    with pytest.raises(FieldError, match="too large"):
        parse_field("fp:2147483648")  # ten digits, 2^31


def test_parse_integer_reads_the_ascii_grammar():
    assert [parse_integer(s) for s in ("0", "+3", "-12", "007", "-0")] == [0, 3, -12, 7, 0]
    for text in ("", " 3", "3 ", "3\n", "1_2", "\u0662", "\u00b2", "+", "--3", "3.0", "0x10",
                 "9" * 5000, 3, None):
        with pytest.raises(ValueError):
            parse_integer(text)


def test_parse_scalar_is_defined_once():
    # both fields read a JSON scalar through Field.parse_scalar
    assert "parse_scalar" in fields.Field.__dict__
    assert not any("parse_scalar" in cls.__dict__ for cls in (fields.Rationals, PrimeField))


def test_modulus_size_limit():
    parse_field("fp:2147483647")  # 2^31 - 1 is prime and allowed
    with pytest.raises(FieldError):
        PrimeField(2305843009213693951)  # 2^61 - 1: prime but out of range


def test_is_prime_spot_checks():
    primes = [2, 3, 5, 31, 97, 7919, 2147483647]
    composites = [1, 4, 9, 91, 561, 1105, 2147483649]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)
    assert not any(is_prime(k) for k in (-1, -2, -3, -7, -2147483647, True, False))


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 1)
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(sieve[q * q::q])
    assert [is_prime(k) for k in range(limit + 1)] == sieve


def test_size_bound_checked_before_primality(monkeypatch):
    # a primality test on 2^61 - 1 is never needed: the size bound refuses it
    def fail(p):
        raise AssertionError(f"is_prime({p}) called")

    monkeypatch.setattr(fields, "is_prime", fail)
    with pytest.raises(FieldError, match=r"too large \(need p < 2\^31\)"):
        PrimeField(2**61 - 1)


def test_inverse_examples():
    f2, f5 = parse_field("fp:2"), parse_field("fp:5")
    assert f2.inv(1) == 1
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    assert f5.inv(2) == 3  # 2*3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


@pytest.mark.parametrize("desc", ["q", "fp:2", "fp:5", "fp:31"])
def test_field_axioms_on_samples(desc):
    field = parse_field(desc)
    rng = random.Random(42)
    samples = [field.random(rng) for _ in range(12)]
    for a in samples:
        for b in samples:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.add(a, field.neg(a)) == field.zero
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one
            for c in samples[:5]:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


@pytest.mark.parametrize("desc", ["q", "fp:2", "fp:5", "fp:31"])
def test_scalar_truthiness_is_nonzero(desc):
    field = parse_field(desc)
    rng = random.Random(7)
    samples = [field.random(rng) for _ in range(40)] + [field.zero, field.one]
    assert not field.zero and field.one
    for a in samples:
        assert bool(a) == (a != field.zero)
        assert not field.add(a, field.neg(a))
        assert bool(field.mul(a, field.one)) == bool(a)


def test_rational_canonical_form():
    a = QQ.parse_scalar("2/4")
    assert (a.numerator, a.denominator) == (1, 2)
    b = Fraction(3, -6)  # lowest terms, positive denominator
    assert (b.numerator, b.denominator) == (-1, 2)
    # normalizing a normalized scalar changes nothing
    assert QQ.parse_scalar(QQ.scalar_to_json(b)) == b


def test_prime_field_canonical_range():
    f5 = parse_field("fp:5")
    assert f5.parse_scalar(-3) == 2
    assert f5.parse_scalar(12) == 2
    assert f5.neg(0) == 0
    rng = random.Random(1)
    for _ in range(50):
        a, b = f5.random(rng), f5.random(rng)
        for v in (f5.add(a, b), f5.mul(a, b), f5.neg(a), f5.sub(a, b)):
            assert 0 <= v < 5


def test_scalar_json_round_trip():
    f7 = parse_field("fp:7")
    for v in range(7):
        assert f7.parse_scalar(f7.scalar_to_json(v)) == v
    for s in ("0", "-5/3", "22/7", "4"):
        v = QQ.parse_scalar(s)
        assert QQ.parse_scalar(QQ.scalar_to_json(v)) == v
    with pytest.raises(FieldError):
        QQ.parse_scalar("1/0")
    with pytest.raises(FieldError):
        f7.parse_scalar("2/3x")


def test_scalar_grammar_is_the_documented_one():
    f7 = parse_field("fp:7")
    assert [QQ.parse_scalar(s) for s in ("+4/6", "-3", "007/2", 5)] == \
        [Fraction(2, 3), -3, Fraction(7, 2), 5]
    assert [f7.parse_scalar(s) for s in ("+9", "-1", "010", 12)] == [2, 6, 3, 5]
    for field, texts in ((QQ, ("1.5", "1e3", "1_000", " 1", "1 ", "1\n", "\u0663", "1/-2",
                               "", "/2", "inf", 1.5, None)),
                         (f7, ("1/2", "1.0", "1_000", " 1", "\u0663", "", 2.0))):
        for text in texts:
            with pytest.raises(FieldError):
                field.parse_scalar(text)


_COMBINE_SCALARS = {
    "q": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    "fp:2": st.integers(0, 1),
    "fp:3": st.integers(0, 2),
    "fp:7": st.integers(0, 6),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_combine_equals_dense_sum(data):
    # few keys and small scalars, so keys repeat and sums often cancel
    desc = data.draw(st.sampled_from(sorted(_COMBINE_SCALARS)), label="field")
    field = parse_field(desc)
    keys = st.tuples(st.integers(0, 3), st.integers(0, 1))
    pairs = data.draw(st.lists(st.tuples(keys, _COMBINE_SCALARS[desc]), max_size=30))
    dense = {}
    for k in {key for key, _ in pairs}:
        acc = field.zero
        for key, c in pairs:
            if key == k:
                acc = field.add(acc, c)
        dense[k] = acc
    got = field.combine(iter(pairs))
    assert got == {k: c for k, c in dense.items() if c != field.zero}
    assert all(got.values())


def test_combine_adds_only_repeated_keys():
    class CountingF7(PrimeField):
        adds = 0

        def add(self, a, b):
            CountingF7.adds += 1
            return super().add(a, b)

    f = CountingF7(7)
    got = f.combine([("x", 3), ("y", 5), ("x", 4), ("z", 0), ("y", 1)])
    assert got == {"y": 6}  # x sums to zero, z is a lone zero
    assert CountingF7.adds == 2
    half = Fraction(1, 2)
    assert QQ.combine([("a", half)])["a"] is half
