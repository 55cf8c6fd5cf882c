"""Finite-dimensional bialgebras as structure tables, their axiom checks, and
constructors for every operator example in scope: projections f_q and the
R_q family built from them, graded and crossed module solutions, Takesaki
and Galois maps on group algebras, the characteristic-two matrix and the
classical Yang-Baxter operator.

Table conventions: a structure bialgebra stores its tables in one sparse
form, holding only nonzero field scalars: mult[i][j] = {k: c} for m_i * m_j
= sum c m_k, comult[i] = {(u, v): c} for Delta(m_i) = sum c m_u (x) m_v, and
antipode[i] = {k: c} for S(m_i), or antipode = None. The unit and the counit
are coefficient lists of length dim. Only ``to_json`` lays the tables out
densely; ``StructureBialgebra.sparse`` lifts their nonzero entries to ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import linalg
from .fields import Field, parse_field
from .tensorops import (EndoV, TensorOp, _from_action, _has_shape, _require_keys,
                        _require_shape, pair_tensor)


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
    mult: list  # mult[i][j] = {k: c}
    comult: list  # comult[i] = {(u, v): c}
    counit: list
    antipode: list | None = None  # antipode[i] = {k: c}
    basis_words: list | None = None  # set by quotient constructions

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def multiply(self, a, b):
        """a b for coefficient vectors a and b, summed by ``Field.combine``
        over the nonzero entries of a, b and the table."""
        f, mul = self.field, self.field.mul
        out, b_terms = [f.zero] * self.dim, _sparse(b).items()
        for k, c in f.combine((k, mul(mul(ai, bj), c)) for i, ai in enumerate(a) if ai
                              for j, bj in b_terms for k, c in self.mult[i][j].items()).items():
            out[k] = c
        return out

    def sparse(self):
        """The tables lifted to ints over one denominator D, by one
        ``Field.lift`` of their nonzero entries, the unit and the counit:
        m[i][j] = {k: c} for m_i m_j, d[i] = {(u, v): c} for Delta(m_i), the
        unit as {k: c}, the counit as the list of its values, and S[i] = {k:
        c} for S(m_i), or S = None without an antipode table. Returns (m, d,
        unit, eps, S, D): a product of k table entries stands for its int
        over D^k. Built anew per call, so they follow changes to the
        tables."""
        n, tables = self.dim, [*chain(*self.mult), *self.comult, *(self.antipode or ())]
        (entries, unit, eps), D = self.field.lift(
            [[c for t in tables for c in t.values()], self.unit, self.counit])
        rest = iter(entries)
        lifted = [dict(zip(t, rest)) for t in tables]  # each t takes len(t) entries
        return ([lifted[i * n:i * n + n] for i in range(n)], lifted[n * n:n * n + n],
                _sparse(unit), eps, None if self.antipode is None else lifted[n * n + n:], D)

    def is_commutative(self):
        return all(row[j] == self.mult[j][i] for i, row in enumerate(self.mult) for j in range(i))

    def is_cocommutative(self):
        return all(t.get((v, u)) == c for t in self.comult for (u, v), c in t.items())

    def to_json(self):
        f, n = self.field, range(self.dim)
        s = f.scalar_to_json
        zero = s(f.zero)

        def vec(t):  # {k: c} as a coefficient list
            return [s(t[k]) if k in t else zero for k in n]

        doc = {
            "field": f.descriptor,
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "unit": [s(x) for x in self.unit],
            "mult": [[vec(t) for t in row] for row in self.mult],
            "comult": [[[s(t[u, v]) if (u, v) in t else zero for v in n] for u in n]
                       for t in self.comult],
            "counit": [s(x) for x in self.counit],
            "antipode": None if self.antipode is None else [vec(t) for t in self.antipode],
        }
        if self.basis_words is not None:
            doc["basis_words"] = [list(w) for w in self.basis_words]
        return doc

    @classmethod
    def from_json(cls, doc):
        """The bialgebra of a ``to_json`` document; its zero entries are not
        stored. A document with a missing key, a table of another shape or a
        bad basis word is refused with ValueError before any entry is
        parsed."""
        _require_keys(doc, "field", "dim")
        field = parse_field(doc["field"])
        dim = doc["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise ValueError(f"bad dimension {dim!r}")
        # no entry of a misshapen document is parsed
        for key, depth in (("basis", 1), ("unit", 1), ("mult", 3), ("comult", 3),
                           ("counit", 1), ("antipode", 2), ("basis_words", 1)):
            if not (doc.get(key) is None and key in ("antipode", "basis_words")):
                _require_shape(doc.get(key), dim, depth, key)
        words = doc.get("basis_words") or []
        if not all(isinstance(w, list) and all(type(g) is int and g >= 0 for g in w)
                   for w in words):
            raise ValueError("basis_words must be lists of letter indices")
        p = field.parse_scalar
        return cls(
            field=field,
            dim=dim,
            basis_labels=list(doc["basis"]),
            unit=[p(x) for x in doc["unit"]],
            mult=[[_sparse(map(p, vec)) for vec in row] for row in doc["mult"]],
            comult=[{(u, v): c for u, row in enumerate(mat) for v, x in enumerate(row)
                     if (c := p(x))} for mat in doc["comult"]],
            counit=[p(x) for x in doc["counit"]],
            antipode=None if doc.get("antipode") is None
            else [_sparse(map(p, vec)) for vec in doc["antipode"]],
            basis_words=None if doc.get("basis_words") is None
            else [tuple(w) for w in doc["basis_words"]],
        )


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

    The nonzero table entries are lifted once by
    ``StructureBialgebra.sparse``, to ints over one denominator D. Each axiom
    then compares two contractions of these tables, keyed by their free basis
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
    nonzero_eps = _sparse(eps)
    coassoc, counit = _associative(f, dual), _unital(f, dual, nonzero_eps, D)
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
                     (((i, j), x * y) for i, x in nonzero_eps.items()
                      for j, y in nonzero_eps.items())) \
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
    one = field.one
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, m)]
    unit = [one if g == G.identity else field.zero for g in range(m)]
    return StructureBialgebra(field, m, labels, unit, [[{g: one} for g in row] for row in G.table],
                              [{(g, g): one} for g in range(m)], [one] * m,
                              [{g: one} for g in G.inverse])


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
        G, f = self.group, self.field
        # shapes and degrees are checked before any product is taken
        if not (_has_shape(self.degree, self.n, 1) and _has_shape(self.action, G.order, 1)
                and all(_has_shape(mat, self.n, 2) for mat in self.action)):
            raise GradingError("degree/action tables have wrong shape")
        if not all(type(s) is int and 0 <= s < G.order for s in self.degree):
            raise GradingError(f"degrees must be elements 0..{G.order - 1} of {G.name}")
        if self.action[G.identity] != linalg.identity(f, self.n):
            raise GradingError("identity element must act as the identity")
        if any(linalg.mat_mul(f, self.action[g], self.action[h]) != self.action[G.mul(g, h)]
               for g in range(G.order) for h in range(G.order)):
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
    n, zeros = spec.n, linalg.zeros(spec.field, spec.n, spec.n)
    # R_(M,.,rho) of the graded module: c_ju acts as sigma_deg(u) if j = u, else as 0
    return _from_action(n, spec.field, {(j, u): spec.action[spec.degree[u]] if j == u else zeros
                                        for j in range(n) for u in range(n)})


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
