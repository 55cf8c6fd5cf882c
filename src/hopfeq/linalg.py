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

Elimination is fraction-free on lifted ints: ``rank``, ``is_invertible``
and ``inverse`` share one Gauss-Jordan elimination after Bareiss (Math.
Comp. 22, 1968), and only its pivots are tested for zero in the field.
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


def int_sums(pairs):
    """Sum (key, int) pairs into {key: sum}; a zero sum may stay."""
    out = {}
    get = out.get
    for key, v in pairs:
        out[key] = get(key, 0) + v
    return out


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


def _eliminate(field, rows, cols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the int rows, in
    place, over their first cols columns; returns (rank, last pivot).

    Each step divides by the previous pivot, exactly by Sylvester's identity,
    whichever pivots were picked. A pivot is nonzero in the field
    (``from_int``: over F_p a nonzero multiple of p is zero). At the end the
    rows are the last pivot times the reduced row echelon form."""
    r, last = 0, 1
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if field.from_int(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and (f or p != last):  # else the step leaves the row as it is
                rows[i] = [(p * x - f * y) // last for x, y in zip(row, prow)]
        r, last = r + 1, p
        if r == len(rows):
            break
    return r, last


def rank(field, a):
    ints, _ = field.lift(a)  # over F_p these are a's own rows: eliminate a copy
    return _eliminate(field, list(ints), len(a[0]) if a else 0)[0]


def _is_square(a):
    return all(len(row) == len(a) for row in a)


def inverse(field, a):
    """The inverse of a square matrix, by one elimination of [ints | d I]
    (a = ints / d): the right block ends as the last pivot times a^-1 and is
    lowered once, over that pivot. The 0 x 0 matrix is its own inverse."""
    n = len(a)
    if not _is_square(a):
        raise SingularMatrixError("matrix is not invertible")
    ints, d = field.lift(a)
    aug = [row + [d if j == i else 0 for j in range(n)] for i, row in enumerate(ints)]
    rk, last = _eliminate(field, aug, n)
    if rk < n:
        raise SingularMatrixError("matrix is not invertible")
    return field.lower([row[n:] for row in aug], last)


def is_invertible(field, a):
    """Whether a is square of full rank; the 0 x 0 matrix is invertible."""
    return _is_square(a) and rank(field, a) == len(a)
