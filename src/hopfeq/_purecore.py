"""Mod-p kernels on flat row-major int matrices, and the exact search for
every solution of an equation over F_p.

Matrices are flat row-major int lists with entries already reduced mod p.
"""

from __future__ import annotations

from functools import reduce

# Each equation as (lhs legs, rhs legs): products of the leg operators
# R^12, R^13, R^23 on V (x) V (x) V, associated from the left.
EQUATIONS = {
    "hopf": ((23, 13, 12), (12, 23)),
    "pentagon": ((12, 13, 23), (23, 12)),
    "qybe": ((12, 13, 23), (23, 13, 12)),
    "commutative": ((12, 13), (13, 12)),
    "cocommutative": ((13, 23), (23, 13)),
}

# The legs in the order legs_mod returns them.
LEGS = (12, 13, 23)


def matmul_mod(a, b, dim, p):
    out = [0] * (dim * dim)
    for i in range(dim):
        arow = i * dim
        orow = i * dim
        for k in range(dim):
            aik = a[arow + k]
            if aik:
                brow = k * dim
                for j in range(dim):
                    bkj = b[brow + j]
                    if bkj:
                        out[orow + j] = (out[orow + j] + aik * bkj) % p
    return out


def legs_mod(flat, n, p):
    """R12, R13, R23 of an n^2 x n^2 operator, as flat n^3 x n^3 matrices.

    Entries are copied, not reduced, so a vector of variable labels comes
    back as the labels' positions in each leg.
    """
    d2 = n * n
    d3 = d2 * n
    r12 = [0] * (d3 * d3)
    r13 = [0] * (d3 * d3)
    r23 = [0] * (d3 * d3)
    for i in range(d2):
        for j in range(d2):
            v = flat[i * d2 + j]
            if not v:
                continue
            a, b = divmod(i, n)
            u, w = divmod(j, n)
            for k in range(n):
                # R12 = R (x) I
                r12[(i * n + k) * d3 + (j * n + k)] = v
                # R23 = I (x) R
                r23[(k * d2 + i) * d3 + (k * d2 + j)] = v
                # R13: middle slot untouched
                r13[((a * n + k) * n + b) * d3 + ((u * n + k) * n + w)] = v
    return r12, r13, r23


def equation_holds_mod(flat, n, p, which):
    """Whether the flat operator solves the named equation of EQUATIONS."""
    legs = dict(zip(LEGS, legs_mod(flat, n, p)))
    d3 = n * n * n
    lhs, rhs = (
        reduce(lambda a, b: matmul_mod(a, b, d3, p), [legs[k] for k in side])
        for side in EQUATIONS[which]
    )
    return lhs == rhs


def _defect_polynomials(n, p, which):
    """Each entry of lhs - rhs as {monomial: coefficient mod p}, zero terms
    dropped. A monomial is the sorted tuple of the flat indices of R whose
    entries it multiplies."""
    size = n ** 4
    d3 = n ** 3
    rows = {}  # leg -> per row, the (column, flat index) of its nonzero entries
    for name, pattern in zip(LEGS, legs_mod(list(range(1, size + 1)), n, p)):
        rows[name] = [
            [(j, pattern[i * d3 + j] - 1) for j in range(d3) if pattern[i * d3 + j]]
            for i in range(d3)
        ]
    polys = [{} for _ in range(d3 * d3)]
    for side, sign in zip(EQUATIONS[which], (1, -1)):
        for i in range(d3):
            paths = [(i, ())]
            for name in side:
                paths = [(j, mono + (v,)) for k, mono in paths for j, v in rows[name][k]]
            for j, mono in paths:
                poly = polys[i * d3 + j]
                key = tuple(sorted(mono))
                poly[key] = poly.get(key, 0) + sign
    return [{m: c % p for m, c in poly.items() if c % p} for poly in polys]


def _search_order(supports, size):
    """The order in which the search fixes the variables: again and again,
    all unfixed variables of the polynomial with the fewest of them left, so
    that some check falls due after every few levels."""
    supports = [*supports, set(range(size))]  # so that every variable gets fixed
    order = []
    fixed = set()
    while len(order) < size:
        left = (sorted(s - fixed) for s in supports if not s <= fixed)
        new = min(left, key=lambda vs: (len(vs), vs))
        order.extend(new)
        fixed.update(new)
    return order


def _checks_by_level(polys, order):
    """Per search level, the polynomials whose last variable in ``order`` is
    fixed there, each split by the power of that variable x_k: a list of
    (e, terms), the terms being the (coefficient, other variables) of the
    monomials that hold x_k^e."""
    level_of = {v: i for i, v in enumerate(order)}
    levels = [[] for _ in order]
    for poly in polys:
        k = max((v for mono in poly for v in mono), key=level_of.get)
        by_power = {}
        for mono, c in poly.items():
            others = tuple(v for v in mono if v != k)
            by_power.setdefault(len(mono) - len(others), []).append((c, others))
        levels[level_of[k]].append(sorted(by_power.items()))
    return levels


def solutions_mod(n, p, which):
    """Every flat n^2 x n^2 operator over F_p solving the named equation of
    EQUATIONS, in lexicographic order of the entry vector.

    Exact backtracking over the entries. Each scalar equation of lhs - rhs
    is checked as soon as the last of its entries is fixed, and a prefix
    that breaks one is never extended. The entries are fixed in the order of
    ``_search_order``, and the solutions sorted at the end.
    """
    size = n ** 4
    distinct = {frozenset(poly.items()): poly for poly in _defect_polynomials(n, p, which)}
    polys = [poly for poly in distinct.values() if poly]
    order = _search_order([{v for mono in poly for v in mono} for poly in polys], size)
    levels = _checks_by_level(polys, order)
    values = range(p)
    x = [0] * size
    found = []

    def admissible(level):
        """The values of the variable fixed at ``level`` that pass its checks."""
        allowed = list(values)
        for poly in levels[level]:
            coeffs = []
            for e, terms in poly:
                acc = 0
                for c, others in terms:
                    for v in others:
                        c *= x[v]
                        if not c:
                            break
                    acc += c
                coeffs.append((e, acc))
            allowed = [t for t in allowed if not sum(c * t ** e for e, c in coeffs) % p]
            if not allowed:
                break
        return allowed

    def extend(level):
        if level == size:
            found.append(tuple(x))
            return
        k = order[level]
        for t in admissible(level):
            x[k] = t
            extend(level + 1)

    extend(0)
    found.sort()
    return found
