"""Endomorphisms of V (x) V and the Hopf / pentagon / QYBE decision procedures.

Basis conventions, pinned once for the whole package:

* V (x) V is ordered lexicographically: m_1(x)m_1, m_1(x)m_2, ..., so the
  column a*n+b (0-based) of a TensorOp holds the image of m_{a+1}(x)m_{b+1}.
* Structure constants are indexed R(m_v (x) m_u) = sum_{i,j} x[u][v][j][i]
  m_i (x) m_j (all indices 0-based here), i.e. entries[i*n+j][v*n+u] =
  x[u][v][j][i].  Reproducing the printed coefficient list of the R_q family
  is the regression test that pins this down.

All comparisons are exact, entrywise; no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_

from . import kernels, linalg
from .fields import Field, FieldError, PrimeField, _quote, parse_field
from .freealgebra import word_products


class CapExceededError(RuntimeError):
    """Candidate space p^(n^4) larger than the configured cap."""


def _check_square(rows, d):
    """Refuse rows unless they are a list of d lists of d entries each."""
    if not isinstance(rows, list) or len(rows) != d or any(
            not isinstance(row, list) or len(row) != d for row in rows):
        raise ValueError(f"entries must be {d}x{d}")


@dataclass
class TensorOp:
    n: int
    field: Field
    entries: list  # n^2 x n^2, row-major

    def __post_init__(self):
        _check_square(self.entries, self.n * self.n)

    def copy(self):
        return TensorOp(self.n, self.field, [row[:] for row in self.entries])

    def flat(self):
        return [x for row in self.entries for x in row]

    def to_json(self):
        f = self.field
        return {
            "field": f.descriptor,
            "n": self.n,
            "matrix": [[f.scalar_to_json(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, doc):
        field = parse_field(doc["field"])
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"bad dimension {_quote(n)}")
        rows = doc["matrix"]
        _check_square(rows, n * n)  # no entry of a misshapen document is parsed
        return cls(n, field, [[field.parse_scalar(x) for x in row] for row in rows])


@dataclass
class EndoV:
    n: int
    field: Field
    entries: list  # n x n

    def __post_init__(self):
        _check_square(self.entries, self.n)


def identity_op(n, field):
    return TensorOp(n, field, linalg.identity(field, n * n))


def switch(n, field):
    """The flip map tau(v (x) w) = w (x) v as a TensorOp."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = linalg.zeros(field, n * n, n * n)
    for a in range(n):
        for b in range(n):
            m[b * n + a][a * n + b] = field.one
    return TensorOp(n, field, m)


def pair_tensor(f: EndoV, g: EndoV) -> TensorOp:
    """f (x) g acting on V (x) V, i.e. the Kronecker product of the matrices."""
    if f.n != g.n or f.field != g.field:
        raise ValueError("mismatched endomorphisms")
    return TensorOp(f.n, f.field, linalg.kron(f.field, f.entries, g.entries))


def leg(R: TensorOp, which: int):
    """R^12, R^13 or R^23 on V(x)V(x)V (lexicographic basis), as a plain matrix.

    R^12 = R(x)I, R^23 = I(x)R, R^13 = (I(x)tau)(R(x)I)(I(x)tau).
    """
    return kernels.leg_rows(R.entries, R.n, which, R.field.zero)


class _Slot:
    """A memo of named values built from one key: the field object and the
    list of scalar objects they were built from. ``get`` returns the value of
    a name while the field and every scalar are the very same objects
    (``is``; the slot holds them, so no id is reused while it lives), builds
    it on first use, and drops every value when the key changes. So an entry
    changed in place, an equal operator made of other scalar objects and the
    same ints over another field all miss, and a slot keeps one operator's
    data at a time."""

    __slots__ = ("field", "scalars", "values")

    def __init__(self):
        self.clear()

    def clear(self):
        self.field = self.scalars = None
        self.values = {}

    def get(self, field, scalars, name, build):
        if not (field is self.field and len(scalars) == len(self.scalars)
                and all(map(is_, scalars, self.scalars))):
            self.clear()  # the last operator's data goes before the next is built
            self.field, self.scalars = field, scalars
        if name not in self.values:
            self.values[name] = build()
        return self.values[name]


# the last operator's leg products ("legs") and its lifted defects, one per
# equation name of kernels.EQUATIONS
_OPERATOR = _Slot()


def leg_products(R: TensorOp):
    """A function from a tuple of legs, e.g. (23, 13, 12), to their product
    R^23 R^13 R^12 as a lifted matrix (ints, d) (see ``linalg``), associated
    from the left (``freealgebra.word_products``). It lifts each leg and
    builds each prefix product once, and the same function serves every call
    on the same operator (``_Slot``), so every check and identity on R shares
    them; a product has at most three legs, which bounds the size of its
    ints. The products are shared: do not change them."""
    # a copy: the legs are built later, from the entries R has now
    return _OPERATOR.get(R.field, R.flat(), "legs", lambda: _leg_products(R.copy()))


def _leg_products(R: TensorOp):
    field = R.field
    return word_products(lambda which: field.lift(leg(R, which)), linalg.lifted_mul, {})


def equation_defect(R: TensorOp, name: str):
    """lhs - rhs of the named equation of ``kernels.EQUATIONS`` as a lifted
    matrix, from ``leg_products(R)``. Each is built once per operator and
    shared by every check and identity on it: do not change it."""
    return _OPERATOR.get(R.field, R.flat(), name, lambda: linalg.lifted_sub(
        *map(leg_products(R), kernels.EQUATIONS[name])))


def _equation_holds(R: TensorOp, name: str) -> bool:
    return linalg.lifted_is_zero(R.field, equation_defect(R, name))


def check_hopf(R):
    """R^23 R^13 R^12 == R^12 R^23."""
    return _equation_holds(R, "hopf")


def check_pentagon(R):
    """R^12 R^13 R^23 == R^23 R^12."""
    return _equation_holds(R, "pentagon")


def check_qybe(R):
    """R^12 R^13 R^23 == R^23 R^13 R^12."""
    return _equation_holds(R, "qybe")


def check_commutative(R):
    """R^12 R^13 == R^13 R^12."""
    return _equation_holds(R, "commutative")


def check_cocommutative(R):
    """R^13 R^23 == R^23 R^13."""
    return _equation_holds(R, "cocommutative")


def is_bijective(R):
    return linalg.is_invertible(R.field, R.entries)


def solution_report(R):
    """The five equation verdicts and bijectivity. The equations share the
    legs and their prefix products: on a fresh operator 3 legs and 8
    products, not 14; after ``frt``'s Hopf and commutator identities on the
    same R, which built the Hopf and commutative defects, no leg and 3
    products."""
    report = {name: _equation_holds(R, name) for name in kernels.EQUATIONS}
    report["bijective"] = is_bijective(R)
    return report


def to_structure_constants(R: TensorOp):
    """Four-index array x[u][v][j][i] with entries[i*n+j][v*n+u] = x[u][v][j][i]."""
    n = R.n
    ent = R.entries
    return [
        [[[ent[i * n + j][v * n + u] for i in range(n)] for j in range(n)]
         for v in range(n)]
        for u in range(n)
    ]


def from_structure_constants(x, field) -> TensorOp:
    n = len(x)
    if any(
        len(x[u]) != n or any(len(x[u][v]) != n or any(len(x[u][v][j]) != n for j in range(n))
                             for v in range(n))
        for u in range(n)
    ):
        raise ValueError("structure constant array must be n x n x n x n")
    ent = linalg.zeros(field, n * n, n * n)
    for u in range(n):
        for v in range(n):
            for j in range(n):
                for i in range(n):
                    ent[i * n + j][v * n + u] = x[u][v][j][i]
    return TensorOp(n, field, ent)


def conjugate(R: TensorOp, u: EndoV) -> TensorOp:
    """(u (x) u) R (u (x) u)^{-1}; u must be invertible."""
    if u.n != R.n or u.field != R.field:
        raise ValueError("mismatched operator and automorphism")
    field = R.field
    uu = linalg.kron(field, u.entries, u.entries)
    return transform(R, TensorOp(R.n, field, uu), TensorOp(R.n, field, linalg.inverse(field, uu)))


def invert(R: TensorOp) -> TensorOp:
    return TensorOp(R.n, R.field, linalg.inverse(R.field, R.entries))


def transform(R: TensorOp, left: TensorOp, right: TensorOp) -> TensorOp:
    """Matrix product left * R * right as a TensorOp (e.g. tau R tau)."""
    field = R.field
    m = linalg.lifted_mul(field.lift(left.entries),
                          linalg.lifted_mul(field.lift(R.entries), field.lift(right.entries)))
    return TensorOp(R.n, field, field.lower(*m))


def random_tensorop(n, field, rng) -> TensorOp:
    d2 = n * n
    return TensorOp(n, field, [[field.random(rng) for _ in range(d2)] for _ in range(d2)])


def enumerate_solutions(n, field, which="hopf", cap=2**24):
    """All n^2 x n^2 operators over F_p solving the chosen equation.

    Exact pruned search (``kernels.solutions_mod``); output in lexicographic
    order of the flattened entry vector. Raises CapExceededError when the
    p^(n^4) candidates exceed the cap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(field, PrimeField):
        raise FieldError("enumeration needs a prime field")
    if which not in kernels.EQUATIONS:
        raise ValueError(f"unknown equation {which!r}")
    p = field.p
    fits = 0  # the largest k with p^k <= cap; p^(n^4) is never built
    while p ** (fits + 1) <= cap:
        fits += 1
    if n ** 4 > fits:
        raise CapExceededError(
            f"{p}^{n ** 4} candidates exceed the cap {cap}; raise it explicitly to proceed"
        )
    d2 = n * n
    return [
        TensorOp(n, field, [list(flat[r * d2:(r + 1) * d2]) for r in range(d2)])
        for flat in kernels.solutions_mod(n, p, which)
    ]
