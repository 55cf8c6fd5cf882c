"""Dense exact linear algebra over a Field, on plain list-of-list matrices.

Products and differences work in plain Python ints, on lifted matrices: a
pair ``(ints, d)`` that stands for the matrix ``ints / d`` (``Field.lift``).
``lifted_mul`` and ``lifted_sub`` take and return such pairs, so a chain of
products (the legs of an equation, the letters of a word acting on V) stays
in ints from end to end, and only the matrix that leaves the chain is
lowered, each entry normalised once (``Field.lower``: one ``Fraction`` over
the rationals, one reduction mod p over F_p). ``mat_mul`` and ``mat_sub``
are the one-step chains. Lifted ints are never reduced by a gcd or mod p, so
their size grows with the length of the chain: at most three legs, or the
letters of one word. Products skip zero entries, so the permutation-like
operators this package produces (Takesaki/Galois maps, graded solutions)
stay cheap even at dimension n^3 on V (x) V (x) V. Zero tests are by
truthiness (see ``fields``).
"""

from __future__ import annotations

from math import lcm


class SingularMatrixError(ValueError):
    pass


def zeros(field, rows, cols):
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def identity(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def lifted_mul(a, b):
    """The product of two lifted matrices (ints, d): (ints_a ints_b, d_a d_b)."""
    ia, da = a
    ib, db = b
    cols = len(ib[0]) if ib else 0
    bnz = [[(j, v) for j, v in enumerate(row) if v] for row in ib]
    out = []
    for arow in ia:
        acc = [0] * cols
        for aik, brow in zip(arow, bnz):
            if aik:
                for j, bkj in brow:
                    acc[j] += aik * bkj
        out.append(acc)
    return out, da * db


def lifted_sub(a, b):
    """a - b of two lifted matrices, over the lcm of their denominators."""
    ia, da = a
    ib, db = b
    d = lcm(da, db)
    sa, sb = d // da, d // db
    return [[x * sa - y * sb for x, y in zip(ra, rb)] for ra, rb in zip(ia, ib)], d


def lifted_is_zero(field, a):
    """Whether the lifted matrix a is zero over field. Only the rows that
    hold a nonzero int are lowered: over F_p such an int may be 0 mod p."""
    ints, d = a
    return not any(any(field.lower([row], d)[0]) for row in ints if any(row))


def mat_sub(field, a, b):
    return field.lower(*lifted_sub(field.lift(a), field.lift(b)))


def mat_mul(field, a, b):
    return field.lower(*lifted_mul(field.lift(a), field.lift(b)))


def kron(field, a, b):
    """Kronecker product; row (i,j) = i*len(b)+j, matching lexicographic bases."""
    zero, mul = field.zero, field.mul
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[zero] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for k in range(ca):
            aik = a[i][k]
            if not aik:
                continue
            for j in range(rb):
                brow = b[j]
                orow = out[i * rb + j]
                for l in range(cb):
                    if brow[l]:
                        orow[k * cb + l] = mul(aik, brow[l])
    return out


def row_echelon(field, a):
    """In-place-free reduced row echelon; returns (echelon, rank, pivot cols)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, r, pivots


def rank(field, a):
    return row_echelon(field, a)[1]


def inverse(field, a):
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(field, n))]
    ech, rk, _ = row_echelon(field, aug)
    if rk < n or any(ech[i][i] != field.one for i in range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return [row[n:] for row in ech]


def is_invertible(field, a):
    return len(a) == len(a[0]) and rank(field, a) == len(a)
