"""The equation table, the leg index map, and the exact search for every
solution of an equation over F_p with its membership test. No matrix
products: over a general field, ``tensorops`` decides every equation on one
lifted chain of ``linalg.lifted_mul``.

It imports nothing from the package. The search and ``holds_mod`` run on
plain ints, with operators as flat row-major entry vectors. Both run the
same checks: each entry of lhs - rhs, an integer polynomial mod p, compiled
once per call into a straight-line function.
"""

from __future__ import annotations

# Each equation as (lhs legs, rhs legs): products of the leg operators
# R^12, R^13, R^23 on V (x) V (x) V, associated from the left.
EQUATIONS = {
    "hopf": ((23, 13, 12), (12, 23)),
    "pentagon": ((12, 13, 23), (23, 12)),
    "qybe": ((12, 13, 23), (23, 13, 12)),
    "commutative": ((12, 13), (13, 12)),
    "cocommutative": ((13, 23), (23, 13)),
}


def leg_rows(rows, n, which, zero):
    """R^12, R^13 or R^23 on V(x)V(x)V (lexicographic basis) of the square
    n^2 x n^2 matrix ``rows``, as an n^3 x n^3 list of rows.

    R^12 = R(x)I, R^23 = I(x)R, R^13 = (I(x)tau)(R(x)I)(I(x)tau). Entries
    are copied, not computed with, and every other entry is ``zero``; so a
    matrix of labels comes back as the labels' positions in the leg.
    """
    if which not in (12, 13, 23):
        raise ValueError("which must be one of 12, 13, 23")
    d2 = n * n
    d3 = d2 * n
    out = [[zero] * d3 for _ in range(d3)]
    for i, row in enumerate(rows):
        a, b = divmod(i, n)
        for j, v in enumerate(row):
            if not v:
                continue
            if which == 12:
                for k in range(n):
                    out[i * n + k][j * n + k] = v
            elif which == 23:
                for k in range(n):
                    out[k * d2 + i][k * d2 + j] = v
            else:  # 13: the middle slot untouched
                u, w = divmod(j, n)
                for k in range(n):
                    out[(a * n + k) * n + b][(u * n + k) * n + w] = v
    return out


def _defect_polynomials(n, p, which):
    """Each entry of lhs - rhs as {monomial: coefficient mod p}, zero terms
    dropped. A monomial is the sorted tuple of the flat indices of R whose
    entries it multiplies."""
    d2 = n * n
    d3 = d2 * n
    labels = [[r * d2 + c + 1 for c in range(d2)] for r in range(d2)]
    rows = {}  # leg -> per row, the (column, flat index) of its nonzero entries
    for name in (12, 13, 23):
        rows[name] = [[(j, v - 1) for j, v in enumerate(row) if v]
                      for row in leg_rows(labels, n, name, 0)]
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


def _compile_check(parts, p):
    """A function check(x, allowed) for one polynomial split as by
    ``_checks_by_level``: the values t in ``allowed`` at which
    sum_e a_e t^e vanishes mod p, where a_e = sum c * x[v]... over the terms
    of power e. Straight-line code, built from ints only."""
    lines = ["def check(x, allowed):"]
    powers = []
    for e, terms in parts:
        monomials = ("*".join([str(c)] * (c != 1) + [f"x[{v}]" for v in others]) or "1"
                     for c, others in terms)
        lines.append(f"    a{e} = {' + '.join(monomials)}")
        powers.append("*".join([f"a{e}"] + ["t"] * e))
    lines.append(f"    return [t for t in allowed if not ({' + '.join(powers)}) % {p}]")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace.pop("check")  # no cycle through its own globals


def _compiled_checks(n, p, which):
    """The search order of the variables, and per level the compiled checks
    of the nonzero distinct defect polynomials that fall due there."""
    distinct = {frozenset(poly.items()): poly for poly in _defect_polynomials(n, p, which)}
    polys = [poly for poly in distinct.values() if poly]
    order = _search_order([{v for mono in poly for v in mono} for poly in polys], n ** 4)
    levels = [[_compile_check(parts, p) for parts in level]
              for level in _checks_by_level(polys, order)]
    return order, levels


def holds_mod(n, p, which):
    """A predicate on flat n^2 x n^2 entry vectors over F_p: whether the
    named equation of EQUATIONS holds. It runs the search's compiled checks,
    each on the one value its variable has."""
    order, levels = _compiled_checks(n, p, which)
    checks = [(k, check) for k, level in zip(order, levels) for check in level]
    return lambda x: all(check(x, (x[k],)) for k, check in checks)


def solutions_mod(n, p, which):
    """Every flat n^2 x n^2 operator over F_p solving the named equation of
    EQUATIONS, in lexicographic order of the entry vector.

    Exact backtracking over the entries. Each scalar equation of lhs - rhs
    is compiled to a check (``_compile_check``) that runs as soon as the
    last of its entries is fixed, and a prefix that breaks one is never
    extended. The entries are fixed in the order of ``_search_order``, and
    the solutions sorted at the end.
    """
    order, levels = _compiled_checks(n, p, which)
    size = len(order)
    values = range(p)
    x = [0] * size
    found = []

    def extend(level):
        if level == size:
            found.append(tuple(x))
            return
        allowed = values
        for check in levels[level]:
            allowed = check(x, allowed)
            if not allowed:
                return
        k = order[level]
        for t in allowed:
            x[k] = t
            extend(level + 1)

    extend(0)
    del extend  # it refers to itself: free the compiled checks now, not at a collection
    found.sort()
    return found
