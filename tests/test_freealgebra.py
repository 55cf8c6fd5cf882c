import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hopfeq import linalg
from hopfeq.fields import QQ, parse_field
from hopfeq.freealgebra import (NCPoly, TensorPoly, comatrix_alphabet, free_alphabet,
                                render_word, word_products)

F5 = parse_field("fp:5")
A2 = comatrix_alphabet(2)


def gen(i, j, field=QQ, alphabet=A2):
    return NCPoly.generator(alphabet, field, i, j)


def random_poly(alphabet, field, rng, max_deg=4, terms=5):
    p = NCPoly.zero(alphabet, field)
    for _ in range(terms):
        w = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(0, max_deg)))
        p = p + NCPoly(alphabet, field, {w: field.random(rng)})
    return p


# -- multiplication ---------------------------------------------------------

def test_one_is_neutral():
    p = gen(0, 0) + gen(1, 1).scale(Fraction(2))
    one = NCPoly.one(A2, QQ)
    assert one * p == p
    assert p * one == p


def test_product_of_generators_is_concatenation():
    p = gen(0, 0) * gen(0, 1)
    assert p.terms == {(0, 1): QQ.one}  # letters c11=0, c12=1


def test_bilinear_expansion_with_signs():
    # (c11 + c12)(c21 - c22) has four signed terms
    p = (gen(0, 0) + gen(0, 1)) * (gen(1, 0) - gen(1, 1))
    assert p.terms == {
        (0, 2): QQ.one, (0, 3): -QQ.one,
        (1, 2): QQ.one, (1, 3): -QQ.one,
    }


def test_mul_associative_random():
    rng = random.Random(21)
    for _ in range(10):
        p, q, r = (random_poly(A2, F5, rng, 3, 3) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_canonical_form_no_zero_terms():
    p = gen(0, 0) - gen(0, 0)
    assert p.is_zero() and p.terms == {}
    q = NCPoly(A2, QQ, {(0,): QQ.zero, (1,): QQ.one})
    assert (0,) not in q.terms


def test_monic_and_leading():
    p = gen(1, 1) * gen(0, 0) - gen(0, 0).scale(Fraction(3))
    assert p.leading_word() == (3, 0)  # deglex: degree 2 beats degree 1
    m = p.monic()
    assert m.leading_coeff() == QQ.one
    assert m.terms[(0,)] == Fraction(-3)


# -- comatrix comultiplication and counit -------------------------------------

def test_delta_of_generator():
    d = gen(0, 0).delta()
    # Delta(c11) = c11 (x) c11 + c12 (x) c21
    assert d.terms == {((0,), (0,)): QQ.one, ((1,), (2,)): QQ.one}


def test_eps_values():
    assert gen(0, 1).eps() == QQ.zero
    assert gen(0, 0).eps() == QQ.one
    assert NCPoly.one(A2, QQ).eps() == QQ.one


def test_delta_multiplicative_against_word_expansion():
    # Delta(c11 c22) computed two ways: through delta() on the product, and by
    # expanding Delta(c11) Delta(c22) with an explicit double loop
    p = gen(0, 0) * gen(1, 1)
    expanded = {}
    for u in range(2):
        for v in range(2):
            # (c_1u (x) c_u1) * (c_2v (x) c_v2) in letters: c[a,b] -> 2a+b
            key = ((0 * 2 + u, 1 * 2 + v), (u * 2 + 0, v * 2 + 1))
            expanded[key] = QQ.one
    assert p.delta().terms == expanded


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_delta_and_eps_are_algebra_maps(field):
    rng = random.Random(22)
    for _ in range(8):
        p = random_poly(A2, field, rng, 2, 3)
        q = random_poly(A2, field, rng, 2, 3)
        assert (p * q).delta() == p.delta() * q.delta()
        assert (p * q).eps() == field.mul(p.eps(), q.eps())


def _delta_then_left(p):
    """(Delta (x) I) Delta as a dict (w1, w2, w3) -> coeff."""
    out = {}
    f = p.field
    for (w1, w2), c in p.delta().terms.items():
        inner = NCPoly.word(p.alphabet, f, w1).delta()
        for (a, b), d in inner.terms.items():
            key = (a, b, w2)
            s = f.add(out.get(key, f.zero), f.mul(c, d))
            if s == f.zero:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _delta_then_right(p):
    out = {}
    f = p.field
    for (w1, w2), c in p.delta().terms.items():
        inner = NCPoly.word(p.alphabet, f, w2).delta()
        for (a, b), d in inner.terms.items():
            key = (w1, a, b)
            s = f.add(out.get(key, f.zero), f.mul(c, d))
            if s == f.zero:
                out.pop(key, None)
            else:
                out[key] = s
    return out


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_coassociativity_on_random_polys(field):
    rng = random.Random(23)
    for _ in range(6):
        p = random_poly(A2, field, rng, 4, 4)
        assert _delta_then_left(p) == _delta_then_right(p)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_counit_law_on_random_polys(field):
    rng = random.Random(24)
    for _ in range(8):
        p = random_poly(A2, field, rng, 4, 4)
        left = NCPoly.zero(A2, field)
        right = NCPoly.zero(A2, field)
        for (w1, w2), c in p.delta().terms.items():
            left = left + NCPoly.word(A2, field, w2).scale(
                field.mul(c, NCPoly.word(A2, field, w1).eps()))
            right = right + NCPoly.word(A2, field, w1).scale(
                field.mul(c, NCPoly.word(A2, field, w2).eps()))
        assert left == p and right == p


# -- substitution and rendering ----------------------------------------------

def test_substitute_is_an_algebra_map():
    AB = free_alphabet("A", "B")
    a, b = NCPoly.letter(AB, QQ, 0), NCPoly.letter(AB, QQ, 1)
    images = [a * b, b, NCPoly.zero(AB, QQ), a + b]
    rng = random.Random(25)
    for _ in range(6):
        p = random_poly(A2, QQ, rng, 2, 3)
        q = random_poly(A2, QQ, rng, 2, 3)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_word_products_is_a_left_fold(data):
    # letter images are lifted matrices over F_5 or Q, or polynomials; the
    # products must equal a naive left fold, with one mul per new prefix of
    # length >= 2 and one letter call per new letter
    kind = data.draw(st.sampled_from(["fp:5", "q", "ncpoly"]), label="kind")
    letters = data.draw(st.integers(1, 3), label="letters")
    field = QQ if kind == "ncpoly" else parse_field(kind)
    scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)) if field is QQ \
        else st.integers(0, field.p - 1)
    if kind == "ncpoly":
        AB = free_alphabet("A", "B")
        words = st.lists(st.integers(0, 1), max_size=2).map(tuple)
        images = [NCPoly(AB, field, data.draw(st.dictionaries(words, scalar, max_size=3)))
                  for _ in range(letters)]
        one, times = NCPoly.one(AB, field), NCPoly.__mul__
        letter, lower, fold = images.__getitem__, lambda x: x, times
    else:
        n = data.draw(st.integers(1, 2), label="n")
        images = [[[data.draw(scalar) for _ in range(n)] for _ in range(n)]
                  for _ in range(letters)]
        one, times = field.lift(oracles.identity(field, n)), linalg.lifted_mul
        letter = lambda k: field.lift(images[k])
        lower = lambda m: field.lower(*m)
        fold = lambda a, b: oracles.naive_mat_mul(field, a, b)
    calls = {"mul": 0, "letter": 0}

    def counted_mul(a, b):
        calls["mul"] += 1
        return times(a, b)

    def counted_letter(k):
        calls["letter"] += 1
        return letter(k)

    memo = {(): one}
    product = word_products(counted_letter, counted_mul, memo)
    word = st.lists(st.integers(0, letters - 1), max_size=6).map(tuple)
    for w in data.draw(st.lists(word, max_size=8), label="words"):
        new_prefixes = sum(w[:end] not in memo for end in range(2, len(w) + 1))
        new_letters = len({(k,) for k in w} - set(memo))
        before = dict(calls)
        got = product(w)
        assert calls["mul"] - before["mul"] == new_prefixes
        assert calls["letter"] - before["letter"] == new_letters
        assert all(w[:end] in memo for end in range(len(w) + 1))
        assert lower(got) == reduce(fold, [images[k] for k in w], lower(one))
        after = dict(calls)
        assert product(w) is got and calls == after  # a memo hit multiplies nothing


def test_render_generators():
    assert gen(0, 1).render() == "c[1,2]"
    assert (gen(0, 0) * gen(1, 1) - NCPoly.one(A2, QQ)).render() == "c[1,1]*c[2,2] - 1"
    assert NCPoly.zero(A2, QQ).render() == "0"


def test_render_word_and_tensor_render():
    assert render_word((), A2.names) == "1"
    assert render_word((0, 3, 1), A2.names) == "c[1,1]*c[2,2]*c[1,2]"
    assert render_word((1, 0), ["x", "z"]) == "z*x"
    t = TensorPoly.of(NCPoly.one(A2, QQ) - gen(1, 0), gen(0, 1) * gen(1, 1))
    assert t.render() == "-1*(c[2,1] (x) c[1,2]*c[2,2]) + 1*(1 (x) c[1,2]*c[2,2])"


def test_substitute_sums_cancelling_words():
    # c11 c22 - c22 c11 maps to ab - ab with a = b: the images cancel
    AB = free_alphabet("A", "B")
    a = NCPoly.letter(AB, F5, 0)
    images = [a, a, a * a, NCPoly.one(AB, F5)]
    p = gen(0, 0, F5) * gen(0, 1, F5) - gen(0, 1, F5) * gen(0, 0, F5) + gen(1, 0, F5)
    assert p.substitute(images) == a * a
    assert p.substitute(images).terms == {(0, 0): 1}


def test_tensorpoly_product():
    x = TensorPoly.of(gen(0, 0), gen(0, 1))
    y = TensorPoly.of(gen(1, 0), gen(1, 1))
    assert (x * y).terms == {((0, 2), (1, 3)): QQ.one}


def test_mixed_parents_rejected():
    A3 = comatrix_alphabet(3)
    with pytest.raises(ValueError):
        gen(0, 0) * NCPoly.generator(A3, QQ, 0, 0)
    with pytest.raises(ValueError):
        gen(0, 0, field=QQ) + NCPoly.generator(A2, F5, 0, 0)


# -- the shared linear-combination base ----------------------------------------

def test_zero_poly_is_not_a_zero_tensor():
    assert NCPoly.zero(A2, QQ) == NCPoly.zero(A2, QQ)
    assert TensorPoly.zero(A2, QQ) == TensorPoly.zero(A2, QQ)
    assert NCPoly.zero(A2, QQ) != TensorPoly.zero(A2, QQ)
    assert TensorPoly.zero(A2, QQ) != NCPoly.zero(A2, QQ)
    p = gen(0, 0)
    t = TensorPoly.of(p, gen(1, 1))
    assert p - p != t - t


def test_arithmetic_keeps_the_class():
    t = TensorPoly.of(gen(0, 0), gen(0, 1) + gen(1, 1))
    for x in (-t, t + t, t - t, t * t):
        assert type(x) is TensorPoly
    assert t - t == TensorPoly.zero(A2, QQ) != NCPoly.zero(A2, QQ)
    p = gen(0, 0) + gen(1, 0).scale(Fraction(3))
    for x in (-p, p + p, p - p, p * p, p.scale(QQ.zero), p.monic()):
        assert type(x) is NCPoly
    assert p - p == NCPoly.zero(A2, QQ) != TensorPoly.zero(A2, QQ)


@pytest.mark.parametrize("cls,kept,dropped", [
    (NCPoly, (1, 2), (0,)),
    (TensorPoly, ((1,), (2,)), ((0,), ())),
], ids=["NCPoly", "TensorPoly"])
def test_constructor_drops_zero_scalars(cls, kept, dropped):
    x = cls(A2, F5, {dropped: F5.zero, kept: 3})
    assert x.terms == {kept: 3}
    assert x + x == cls(A2, F5, {kept: 1})
    assert cls(A2, F5, {dropped: F5.zero}) == cls.zero(A2, F5)
    other = TensorPoly if cls is NCPoly else NCPoly
    assert cls(A2, F5, {dropped: F5.zero}) != other.zero(A2, F5)
