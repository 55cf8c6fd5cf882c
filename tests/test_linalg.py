import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hopfeq import linalg
from hopfeq.fields import QQ, parse_field

F5 = parse_field("fp:5")


def random_matrix(field, rows, cols, rng):
    return [[field.random(rng) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_mat_mul_matches_dense_oracle(field):
    rng = random.Random(5)
    for _ in range(20):
        a = random_matrix(field, 3, 4, rng)
        b = random_matrix(field, 4, 2, rng)
        assert linalg.mat_mul(field, a, b) == oracles.naive_mat_mul(field, a, b)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_kron_matches_dense_oracle(field):
    rng = random.Random(6)
    for _ in range(10):
        a = random_matrix(field, 2, 3, rng)
        b = random_matrix(field, 3, 2, rng)
        assert linalg.kron(field, a, b) == oracles.kron(field, a, b)


def test_inverse_and_rank():
    rng = random.Random(7)
    for field in (QQ, F5):
        for _ in range(10):
            m = oracles.random_invertible(field, 4, rng)
            inv = linalg.inverse(field, m)
            assert linalg.mat_mul(field, m, inv) == linalg.identity(field, 4)
            assert linalg.rank(field, m) == 4


def test_singular_matrix_raises():
    m = [[QQ.one, QQ.one], [QQ.one, QQ.one]]
    assert not linalg.is_invertible(QQ, m)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(QQ, m)


def test_rank_matches_oracle():
    rng = random.Random(8)
    for field in (QQ, F5):
        for _ in range(20):
            m = random_matrix(field, 4, 5, rng)
            assert linalg.rank(field, m) == oracles.rank(field, m)


# -- mat_mul against the textbook product, property-based -------------------------

F2, F3, F31 = (parse_field(f"fp:{p}") for p in (2, 3, 31))

# Rationals: the shared zero, other zeros, integer-valued, small and large
# denominators (products of distinct primes, so that lcms grow large), both signs.
_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 7, 12, 97, 1009, 2**31 - 1, 10**9 + 7,
                                 3 * 5 * 11 * 13 * 17 * 19 * 23])
_RATIONALS = st.one_of(
    st.just(QQ.zero),
    st.just(Fraction(0)),
    st.integers(-10**12, 10**12).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), _DENOMINATORS),
)


def _entries(field):
    if field is QQ:
        return _RATIONALS
    return st.one_of(st.just(field.zero), st.integers(0, field.p - 1))


def _matrix(data, field, rows, cols, zero):
    if zero:
        return linalg.zeros(field, rows, cols)
    cell = _entries(field)
    return [[data.draw(cell) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", [QQ, F2, F3, F31], ids=["Q", "F2", "F3", "F31"])
@pytest.mark.parametrize("shape", ["any", "row_by_column", "column_by_row"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mat_mul_matches_naive_oracle(field, shape, data):
    k = data.draw(st.integers(1, 6), label="k")
    if shape == "row_by_column":  # 1 x k times k x 1
        rows, inner, cols = 1, k, 1
    elif shape == "column_by_row":  # k x 1 times 1 x k
        rows, inner, cols = k, 1, k
    else:
        rows, inner, cols = data.draw(st.integers(1, 5)), k, data.draw(st.integers(1, 5))
    zero_a, zero_b = data.draw(st.booleans()), data.draw(st.booleans())
    a = _matrix(data, field, rows, inner, zero_a)
    b = _matrix(data, field, inner, cols, zero_b)
    got = linalg.mat_mul(field, a, b)
    assert got == oracles.naive_mat_mul(field, a, b)
    flat = [x for row in got for x in row]
    if field is QQ:
        assert all(type(x) is Fraction for x in flat)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in flat)
    if zero_a or zero_b:
        assert all(x is field.zero for x in flat)


@pytest.mark.parametrize("field", [QQ, F2, F3, F31], ids=["Q", "F2", "F3", "F31"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mat_sub_matches_entrywise_oracle(field, data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a = _matrix(data, field, rows, cols, data.draw(st.booleans()))
    b = _matrix(data, field, rows, cols, data.draw(st.booleans()))
    got = linalg.mat_sub(field, a, b)
    assert got == [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if field is QQ:
        assert all(type(x) is Fraction for row in got for x in row)


def test_lift_and_lower_round_trip():
    m = [[Fraction(1, 6), Fraction(-3, 4)], [QQ.zero, Fraction(5)]]
    ints, d = QQ.lift(m)
    assert d == 12 and ints == [[2, -9], [0, 60]]
    assert QQ.lower(ints, d) == m
    assert QQ.lower([[0, 24]], 12)[0][0] is QQ.zero
    assert F31.lift([[3, 0]]) == ([[3, 0]], 1)
    assert F31.lower([[65, -1]], 1) == [[3, 30]]
    assert F31.lower([[1]], 2) == [[16]]  # 1/2 in F_31


# -- lifted chains against the entrywise oracle, property-based -------------------

F7 = parse_field("fp:7")


@pytest.mark.parametrize("field", [QQ, F2, F3, F7], ids=["Q", "F2", "F3", "F7"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lifted_chain_lowered_once_matches_entrywise_oracle(field, data):
    # a chain of 1-4 lifted products and differences stays in ints and is
    # lowered once at the end; the oracle lowers after every step
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    start = _matrix(data, field, rows, cols, data.draw(st.booleans()))
    want, chain = start, field.lift(start)
    for _ in range(data.draw(st.integers(1, 4), label="steps")):
        op = data.draw(st.sampled_from(["mul", "sub", "cancel"]), label="op")
        if op == "mul":
            nxt = data.draw(st.integers(1, 4))
            m = _matrix(data, field, cols, nxt, data.draw(st.booleans()))
            want, chain, cols = oracles.naive_mat_mul(field, want, m), \
                linalg.lifted_mul(chain, field.lift(m)), nxt
        else:
            # "cancel" subtracts the chain's own value: over Q every int is
            # then 0, over F_p each is a multiple of p that must lower to 0
            m = want if op == "cancel" else _matrix(data, field, rows, cols,
                                                    data.draw(st.booleans()))
            want = [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(want, m)]
            chain = linalg.lifted_sub(chain, field.lift(m))
    got = field.lower(*chain)
    assert got == want
    flat = [x for row in got for x in row]
    if field is QQ:
        assert all(type(x) is Fraction for x in flat)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in flat)
    assert linalg.lifted_is_zero(field, chain) == (not any(flat))


def test_lifted_is_zero_lowers_nonzero_ints():
    # over F_3 the ints 3 and -6 are zero; over Q 1/2 - 1/2 cancels
    assert linalg.lifted_is_zero(F3, ([[0, 3], [-6, 0]], 1))
    assert not linalg.lifted_is_zero(F3, ([[0, 3], [1, 0]], 1))
    half = QQ.lift([[Fraction(1, 2)]])
    assert linalg.lifted_is_zero(QQ, linalg.lifted_sub(half, half))
    assert not linalg.lifted_is_zero(QQ, half)


# -- the one elimination against the oracles, property-based ---------------------

def _row_combination(field, rows, coeffs):
    out = [field.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


@pytest.mark.parametrize("field", [QQ, F2, F3, F31], ids=["Q", "F2", "F3", "F31"])
@pytest.mark.parametrize("shape", ["square", "dependent_row", "singular_mod_p",
                                   "zero_line", "rectangular"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_elimination_matches_oracles(field, shape, data):
    k = data.draw(st.integers(1, 6), label="k")
    rows = cols = k
    if shape == "rectangular":
        cols = data.draw(st.integers(1, 6).filter(lambda c: c != k), label="cols")
    m = _matrix(data, field, rows, cols, False)
    if shape == "dependent_row" and k > 1:
        # the last row is a combination of the others in the field
        coeffs = [data.draw(_entries(field)) for _ in range(k - 1)]
        m[-1] = _row_combination(field, m[:-1], coeffs)
    elif shape == "singular_mod_p" and k > 1:
        # residues whose last row is a combination of the others mod p
        # (p = 3 over Q), reduced mod p: as ints the rows are independent
        # unless the draw makes them dependent over Q too, so the
        # elimination meets a pivot that is a nonzero multiple of p
        p = 3 if field is QQ else field.p
        ints = [[data.draw(st.integers(0, p - 1)) for _ in range(k)] for _ in range(k - 1)]
        coeffs = [data.draw(st.integers(0, p - 1)) for _ in range(k - 1)]
        ints.append([sum(c * row[j] for c, row in zip(coeffs, ints)) % p for j in range(k)])
        m = [[field.from_int(x) for x in row] for row in ints]
    elif shape == "zero_line":
        if data.draw(st.booleans()):
            m[data.draw(st.integers(0, rows - 1))] = [field.zero] * cols
        if data.draw(st.booleans()):
            c = data.draw(st.integers(0, cols - 1))
            for row in m:
                row[c] = field.zero
    before = [row[:] for row in m]
    want = oracles.rank(field, m)
    assert linalg.rank(field, m) == want
    invertible = rows == cols and want == k
    assert linalg.is_invertible(field, m) == invertible
    if invertible:
        inv = linalg.inverse(field, m)
        ident = linalg.identity(field, k)
        assert linalg.mat_mul(field, m, inv) == ident
        assert linalg.mat_mul(field, inv, m) == ident
        flat = [x for row in inv for x in row]
        if field is QQ:
            assert all(type(x) is Fraction for x in flat)
        else:
            assert all(type(x) is int and 0 <= x < field.p for x in flat)
    else:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse(field, m)
    assert m == before  # nothing is eliminated in place


def test_elimination_over_f_p_tests_pivots_mod_p():
    # invertible over Q (determinant -3) but singular over F_3: the int
    # pivot 3 is zero in F_3
    rows = [[1, 1], [1, 4]]
    assert linalg.rank(F3, [[x % 3 for x in row] for row in rows]) == 1
    m = [[F3.from_int(x) for x in row] for row in rows]
    assert not linalg.is_invertible(F3, m)
    q = [[Fraction(x) for x in row] for row in rows]
    assert linalg.is_invertible(QQ, q)
    assert linalg.inverse(QQ, q) == [[Fraction(4, 3), Fraction(-1, 3)],
                                     [Fraction(-1, 3), Fraction(1, 3)]]


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
def test_empty_matrix_is_invertible(field):
    # the 0 x 0 matrix is the identity of the zero space
    assert linalg.rank(field, []) == 0
    assert linalg.is_invertible(field, [])
    assert linalg.inverse(field, []) == []


def test_non_square_matrix_is_not_invertible():
    m = [[QQ.one, QQ.zero, QQ.zero], [QQ.zero, QQ.one, QQ.zero]]
    assert linalg.rank(QQ, m) == 2
    assert not linalg.is_invertible(QQ, m)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(QQ, m)
