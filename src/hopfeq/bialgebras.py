"""Finite-dimensional bialgebras as structure tables, their axiom checks, and
constructors for every operator example in scope: projections f_q and the
R_q family built from them, graded and crossed module solutions, Takesaki
and Galois maps on group algebras, the characteristic-two matrix and the
classical Yang-Baxter operator.

Table conventions: mult[i][j] is the coefficient vector of m_i * m_j,
comult[i][u][v] the coefficient of m_u (x) m_v in Delta(m_i), antipode[i] the
coefficient vector of S(m_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import linalg
from .fields import Field, parse_field
from .tensorops import EndoV, TensorOp, pair_tensor


class MissingAntipodeError(ValueError):
    pass


class GradingError(ValueError):
    pass


@dataclass
class StructureBialgebra:
    field: Field
    dim: int
    basis_labels: list
    unit: list
    mult: list
    comult: list
    counit: list
    antipode: list | None = None
    basis_words: list | None = None  # set by quotient constructions

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def multiply(self, a, b):
        f = self.field
        zero = f.zero
        out = [zero] * self.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                coeff = f.mul(ai, bj)
                for k, m in enumerate(self.mult[i][j]):
                    if m:
                        out[k] = f.add(out[k], f.mul(coeff, m))
        return out

    def sparse(self):
        """The tables lifted to ints over one denominator D (``Field.lift``),
        as sparse views: m[i][j] = {k: c} for m_i m_j, d[i] = {(u, v): c} for
        Delta(m_i), the unit as {k: c}, the counit as the list of its values,
        and S[i] = {k: c} for S(m_i), or S = None without an antipode table.
        Returns (m, d, unit, eps, S, D): a product of k table entries stands
        for its int over D^k. Built anew per call, so they follow changes to
        the tables."""
        ints, D = self.field.lift([*chain(*self.mult), *chain(*self.comult), self.unit,
                                   self.counit, *(self.antipode or ())])
        rows = iter(ints)
        m = [[_sparse(next(rows)) for _ in row] for row in self.mult]
        d = [{(u, v): c for u in range(len(mat)) for v, c in enumerate(next(rows)) if c}
             for mat in self.comult]
        unit, eps = _sparse(next(rows)), next(rows)
        S = None if self.antipode is None else [_sparse(next(rows)) for _ in self.antipode]
        return m, d, unit, eps, S, D

    def is_commutative(self):
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def is_cocommutative(self):
        return all(mat[u][v] == mat[v][u] for mat in self.comult
                   for u in range(self.dim) for v in range(u + 1, self.dim))

    def to_json(self):
        f = self.field
        s = f.scalar_to_json
        doc = {
            "field": f.descriptor,
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "unit": [s(x) for x in self.unit],
            "mult": [[[s(x) for x in vec] for vec in row] for row in self.mult],
            "comult": [[[s(x) for x in row] for row in mat] for mat in self.comult],
            "counit": [s(x) for x in self.counit],
            "antipode": None if self.antipode is None
            else [[s(x) for x in vec] for vec in self.antipode],
        }
        if self.basis_words is not None:
            doc["basis_words"] = [list(w) for w in self.basis_words]
        return doc

    @classmethod
    def from_json(cls, doc):
        field = parse_field(doc["field"])
        dim = doc["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise ValueError(f"bad dimension {dim!r}")
        # no entry of a misshapen document is parsed
        for key, depth in (("basis", 1), ("unit", 1), ("mult", 3), ("comult", 3),
                           ("counit", 1), ("antipode", 2), ("basis_words", 1)):
            table = doc.get(key)
            if not ((table is None and key in ("antipode", "basis_words"))
                    or _has_shape(table, dim, depth)):
                raise ValueError(f"{key} must be {'x'.join([str(dim)] * depth)}")
        p = field.parse_scalar
        return cls(
            field=field,
            dim=dim,
            basis_labels=list(doc["basis"]),
            unit=[p(x) for x in doc["unit"]],
            mult=[[[p(x) for x in vec] for vec in row] for row in doc["mult"]],
            comult=[[[p(x) for x in row] for row in mat] for mat in doc["comult"]],
            counit=[p(x) for x in doc["counit"]],
            antipode=None if doc.get("antipode") is None
            else [[p(x) for x in vec] for vec in doc["antipode"]],
            basis_words=None if doc.get("basis_words") is None
            else [tuple(w) for w in doc["basis_words"]],
        )


def _has_shape(table, dim, depth):
    """Whether table is nested lists, depth deep, of dim entries each."""
    return isinstance(table, list) and len(table) == dim and (
        depth == 1 or all(_has_shape(row, dim, depth - 1) for row in table))


@dataclass
class AxiomReport:
    assoc: bool
    unit: bool
    coassoc: bool
    counit: bool
    delta_multiplicative: bool
    eps_multiplicative: bool
    antipode: bool | None = None

    @property
    def all_ok(self):
        core = (
            self.assoc and self.unit and self.coassoc and self.counit
            and self.delta_multiplicative and self.eps_multiplicative
        )
        return core and self.antipode is not False


def _sparse(vec):
    """A coefficient vector as {index: c} over its nonzero entries."""
    return {k: c for k, c in enumerate(vec) if c}


def _dense(terms, index, zero):
    """The terms {word: c} of a combination of basis words as a coefficient
    vector over the word index {word: position}."""
    vec = [zero] * len(index)
    for w, c in terms.items():
        vec[index[w]] = c
    return vec


def _same(field, a, b, sa=1, sb=1):
    """Whether sa times the sums of the (key, int) pairs a and sb times those
    of b agree in field, key by key: the difference is lowered
    (``linalg.lifted_is_zero``), so over F_p a sum that is a multiple of p
    reads as zero."""
    a, b = linalg.int_sums(a), linalg.int_sums(b)
    diff = [a.get(k, 0) * sa - b.get(k, 0) * sb for k in a.keys() | b.keys()]
    return linalg.lifted_is_zero(field, ([diff], 1))


def _associative(f, m):
    """Whether the lifted sparse table m (m[i][j] = {k: c}, as from
    ``StructureBialgebra.sparse``) is associative in f: (m_i m_j) m_k =
    m_i (m_j m_k), keyed by (j, k, l) for each i. Both sides are over D^2.
    Only nonzero entries are visited: each row's nonzero (j, entry) pairs,
    and for each t the (j, k, a) with a m_t a term of m_j m_k, are listed
    once."""
    rows = [[(j, e) for j, e in enumerate(row) if e] for row in m]
    into = [[] for _ in m]
    for j, row in enumerate(rows):
        for k, e in row:
            for t, a in e.items():
                into[t].append((j, k, a))
    return all(_same(f, (((j, k, l), a * c) for j, e in row for t, a in e.items()
                         for k, g in rows[t] for l, c in g.items()),
                     (((j, k, l), a * c) for t, g in row for j, k, a in into[t]
                      for l, c in g.items()))
               for row in rows)


def _unital(f, m, unit, D):
    """Whether unit ({t: a}, over D) is a two-sided unit of the lifted sparse
    table m in f: unit m_i = m_i = m_i unit for every i."""
    ident = [((i, i), D * D) for i in range(len(m))]
    return all(_same(f, (((i, k), a * c) for i, row in enumerate(m) for t, a in unit.items()
                         for k, c in (m[t][i] if left else row[t]).items()), ident)
               for left in (True, False))


def check_bialgebra_axioms(B: StructureBialgebra) -> AxiomReport:
    """Decide every axiom exactly on the structure tables; a failing axiom is
    reported, never raised.

    The dense tables are read once into the lifted sparse views of
    ``StructureBialgebra.sparse``, ints over one denominator D. Each axiom
    then compares two contractions of these views, keyed by their free basis
    indices and summed in ints; a side that multiplies k table entries is
    over D^k, so the side with fewer is scaled up before the two are
    compared (``_same``). The coalgebra axioms are the algebra axioms of the
    dual table, dual[u][v][i] = c over Delta(m_i) = sum c m_u (x) m_v, with
    the counit as its unit: one associativity check (``_associative``) and
    one unit check (``_unital``) decide both. ``antipode`` is None when B
    has no antipode table.
    """
    f, n = B.field, range(B.dim)
    m, d, unit, eps, S, D = B.sparse()
    dual = [[{} for _ in n] for _ in n]
    for i in n:
        for (u, v), c in d[i].items():
            dual[u][v][i] = c
    assoc, unit_ok = _associative(f, m), _unital(f, m, unit, D)
    coassoc, counit = _associative(f, dual), _unital(f, dual, _sparse(eps), D)
    # Delta(m_i m_j) = Delta(m_i) Delta(m_j) in H (x) H, keyed by (j, u, v):
    # two entries on the left, four on the right
    delta_mult = all(
        _same(f, (((j, u, v), a * c) for j in n for k, a in m[i][j].items()
                  for (u, v), c in d[k].items()),
              (((j, u, v), c * e * x * y) for (a, b), c in d[i].items()
               for j in n for (g, h), e in d[j].items()
               for u, x in m[a][g].items() for v, y in m[b][h].items()), D * D)
        for i in n
    ) and _same(f, (((u, v), a * c) for k, a in unit.items() for (u, v), c in d[k].items()),
                (((u, v), a * b) for u, a in unit.items() for v, b in unit.items()))
    eps_mult = _same(f, (((i, j), a * eps[k]) for i in n for j in n
                         for k, a in m[i][j].items()),
                     (((i, j), eps[i] * eps[j]) for i in n for j in n)) \
        and _same(f, (((), a * eps[k]) for k, a in unit.items()), [((), D * D)])

    antipode = None
    if S is not None:
        # sum S(m_u) m_v = eps(m_i) 1 = sum m_u S(m_v) over Delta(m_i): three
        # entries on each side, two in eps(m_i) 1
        target = [((i, k), eps[i] * a * D) for i in n for k, a in unit.items()]
        antipode = _same(f, (((i, k), c * s * x) for i in n for (u, v), c in d[i].items()
                             for t, s in S[u].items() for k, x in m[t][v].items()), target) \
            and _same(f, (((i, k), c * s * x) for i in n for (u, v), c in d[i].items()
                          for t, s in S[v].items() for k, x in m[u][t].items()), target)

    return AxiomReport(assoc, unit_ok, coassoc, counit, delta_mult, eps_mult, antipode)


def group_algebra(m: int, field: Field) -> StructureBialgebra:
    """k[C_m] with grouplike basis, Delta(g) = g (x) g, S(g) = g^-1; products
    and inverses are read off ``cyclic_group(m)``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    G = cyclic_group(m)
    zero, one = field.zero, field.one

    def vec(i):
        v = [zero] * m
        v[i] = one
        return v

    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, m)]
    mult = [[vec(g) for g in row] for row in G.table]
    comult = [[vec(i) if u == i else [zero] * m for u in range(m)] for i in range(m)]
    antipode = [vec(g) for g in G.inverse]
    return StructureBialgebra(field, m, labels, vec(G.identity), mult, comult, [one] * m,
                              antipode)


def _tensor_op(f, dim, pairs, d):
    """The operator on H (x) H whose (row, col) entry is the sum of the ints
    of the ((row, col), int) pairs over d, each entry lowered once; zero
    elsewhere."""
    ent = linalg.zeros(f, dim * dim, dim * dim)
    sums = linalg.int_sums(pairs)
    for (row, col), c in zip(sums, f.lower([list(sums.values())], d)[0]):
        ent[row][col] = c
    return TensorOp(dim, f, ent)


def _comult_map(H: StructureBialgebra, h_first: bool) -> TensorOp:
    """g (x) h -> sum x h_(2), where x is h_(1) g if h_first, else g h_(1)."""
    dim = H.dim
    m, d, _, _, _, D = H.sparse()
    # m_a (x) m_b -> c x m_i (x) m_v over Delta(m_b) = sum c m_u (x) m_v
    return _tensor_op(H.field, dim, (
        ((i * dim + v, a * dim + b), c * x) for a in range(dim) for b in range(dim)
        for (u, v), c in d[b].items() for i, x in (m[u][a] if h_first else m[a][u]).items()),
        D * D)


def takesaki(H: StructureBialgebra) -> TensorOp:
    """R(g (x) h) = sum h_(1) g (x) h_(2) on H (x) H."""
    return _comult_map(H, h_first=True)


def galois_beta(H: StructureBialgebra) -> TensorOp:
    """beta(g (x) h) = sum g h_(1) (x) h_(2); bijective for Hopf algebras."""
    return _comult_map(H, h_first=False)


def galois_rprime(H: StructureBialgebra) -> TensorOp:
    """R'(g (x) h) = sum g_(1) (x) S(g_(2)) h; needs the antipode."""
    if H.antipode is None:
        raise MissingAntipodeError("R' needs an antipode")
    dim = H.dim
    m, d, _, _, S, D = H.sparse()
    # m_a (x) m_b -> c s x m_u (x) m_j over Delta(m_a) = sum c m_u (x) m_v,
    # S(m_v) = sum s m_t and m_t m_b = sum x m_j
    return _tensor_op(H.field, dim, (
        ((u * dim + j, a * dim + b), c * s * x) for a in range(dim)
        for (u, v), c in d[a].items() for t, s in S[v].items()
        for b in range(dim) for j, x in m[t][b].items()), D ** 3)


@dataclass
class Group:
    name: str
    table: list  # table[g][h] = g*h
    inverse: list
    identity: int = 0

    @property
    def order(self):
        return len(self.table)

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.inverse[g]


def cyclic_group(m: int) -> Group:
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    inverse = [(-i) % m for i in range(m)]
    return Group(f"C{m}", table, inverse)


def symmetric_group_3() -> Group:
    perms = [
        (0, 1, 2),
        (1, 0, 2),
        (2, 1, 0),
        (0, 2, 1),
        (1, 2, 0),
        (2, 0, 1),
    ]
    index = {p: k for k, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[x]] for x in range(3))  # apply q, then p
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    inverse = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    return Group("S3", table, inverse)


@dataclass
class GradedModuleSpec:
    group: Group
    n: int
    field: Field
    degree: list  # basis index -> group element
    action: list  # group element -> n x n matrix

    def validate(self, mode="graded"):
        """Action must be a homomorphism moving V_sigma into V_{g sigma}
        (graded) or V_{g sigma g^-1} (crossed); checked entrywise."""
        G = self.group
        f = self.field
        if len(self.degree) != self.n or len(self.action) != G.order:
            raise GradingError("degree/action tables have wrong shape")
        if self.action[G.identity] != linalg.identity(f, self.n):
            raise GradingError("identity element must act as the identity")
        for g in range(G.order):
            for h in range(G.order):
                lhs = linalg.mat_mul(f, self.action[g], self.action[h])
                if lhs != self.action[G.mul(g, h)]:
                    raise GradingError("action is not a group homomorphism")
        for g in range(G.order):
            mat = self.action[g]
            for b in range(self.n):
                sigma = self.degree[b]
                target = G.mul(g, sigma) if mode == "graded" \
                    else G.mul(G.mul(g, sigma), G.inv(g))
                for i in range(self.n):
                    if mat[i][b] and self.degree[i] != target:
                        raise GradingError(
                            f"action of {g} maps degree {sigma} outside degree {target}"
                        )


def graded_solution(spec: GradedModuleSpec, mode="graded") -> TensorOp:
    """R(u (x) v) = sum_sigma sigma.u (x) v_sigma for a graded or crossed module."""
    if mode not in ("graded", "crossed"):
        raise ValueError("mode must be graded or crossed")
    spec.validate(mode)
    f = spec.field
    n = spec.n
    ent = linalg.zeros(f, n * n, n * n)
    for a in range(n):
        for b in range(n):
            col = a * n + b
            mat = spec.action[spec.degree[b]]
            for i in range(n):
                if mat[i][a]:
                    ent[i * n + b][col] = mat[i][a]
    return TensorOp(n, f, ent)


# -- the printed operator matrices ---------------------------------------
# The R_q family is built from its definition as f_q (x) g, for g = I - f_q,
# I and f_q; the characteristic-two and classical Yang-Baxter matrices are
# written out as printed.

def projection_fq(q, field: Field) -> EndoV:
    """f_q = [[1, q], [0, 0]]; an idempotent for every scalar q."""
    zero, one = field.zero, field.one
    return EndoV(2, field, [[one, q], [zero, zero]])


def _op4(field, rows):
    return TensorOp(2, field, [[field.from_int(x) if isinstance(x, int) else x for x in row]
                               for row in rows])


def r_q(q, field: Field) -> TensorOp:
    """R_q = f_q (x) (I - f_q)."""
    f = projection_fq(q, field)
    g = linalg.mat_sub(field, linalg.identity(field, 2), f.entries)
    return pair_tensor(f, EndoV(2, field, g))


def r_q_prime(q, field: Field) -> TensorOp:
    """R'_q = f_q (x) I."""
    return pair_tensor(projection_fq(q, field), EndoV(2, field, linalg.identity(field, 2)))


def r_q_dblprime(q, field: Field) -> TensorOp:
    """R''_q = f_q (x) f_q."""
    f = projection_fq(q, field)
    return pair_tensor(f, f)


def char2_matrix(field: Field) -> TensorOp:
    """The 4x4 unipotent matrix that solves the Hopf equation iff char k = 2."""
    return _op4(field, [
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])


def classical_yb(q, field: Field) -> TensorOp:
    """The classical two-dimensional Yang-Baxter operator; needs q != 0."""
    if not q:
        raise ValueError("classical YB operator needs q != 0")
    d = field.sub(q, field.inv(q))
    return _op4(field, [
        [q, 0, 0, 0],
        [0, 1, d, 0],
        [0, 0, 1, 0],
        [0, 0, 0, q],
    ])
