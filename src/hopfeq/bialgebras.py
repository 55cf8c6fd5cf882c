"""Finite-dimensional bialgebras as structure tables, their axiom checks, and
constructors for every operator example in scope: projections f_q and the
R_q family, graded and crossed module solutions, Takesaki and Galois maps on
group algebras, the characteristic-two matrix and the classical Yang-Baxter
operator.

Table conventions: mult[i][j] is the coefficient vector of m_i * m_j,
comult[i][u][v] the coefficient of m_u (x) m_v in Delta(m_i), antipode[i] the
coefficient vector of S(m_i).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .fields import Field, parse_field
from .tensorops import EndoV, TensorOp


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

    def comultiply(self, a):
        f = self.field
        zero = f.zero
        out = [[zero] * self.dim for _ in range(self.dim)]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for u in range(self.dim):
                row = self.comult[i][u]
                for v in range(self.dim):
                    if row[v]:
                        out[u][v] = f.add(out[u][v], f.mul(ai, row[v]))
        return out

    def counit_of(self, a):
        f = self.field
        acc = f.zero
        for ai, e in zip(a, self.counit):
            acc = f.add(acc, f.mul(ai, e))
        return acc

    def apply_antipode(self, a):
        if self.antipode is None:
            raise MissingAntipodeError("no antipode table")
        f = self.field
        out = [f.zero] * self.dim
        for i, ai in enumerate(a):
            if ai:
                for k, s in enumerate(self.antipode[i]):
                    out[k] = f.add(out[k], f.mul(ai, s))
        return out

    def is_commutative(self):
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def is_cocommutative(self):
        for mat in (self.comult[i] for i in range(self.dim)):
            for u in range(self.dim):
                for v in range(u + 1, self.dim):
                    if mat[u][v] != mat[v][u]:
                        return False
        return True

    def to_json(self):
        f = self.field
        s = f.scalar_to_json
        return {
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

    @classmethod
    def from_json(cls, doc):
        field = parse_field(doc["field"])
        p = field.parse_scalar
        return cls(
            field=field,
            dim=doc["dim"],
            basis_labels=list(doc["basis"]),
            unit=[p(x) for x in doc["unit"]],
            mult=[[[p(x) for x in vec] for vec in row] for row in doc["mult"]],
            comult=[[[p(x) for x in row] for row in mat] for mat in doc["comult"]],
            counit=[p(x) for x in doc["counit"]],
            antipode=None if doc.get("antipode") is None
            else [[p(x) for x in vec] for vec in doc["antipode"]],
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

    def as_dict(self):
        d = {
            "assoc": self.assoc,
            "unit": self.unit,
            "coassoc": self.coassoc,
            "counit": self.counit,
            "delta_multiplicative": self.delta_multiplicative,
            "eps_multiplicative": self.eps_multiplicative,
        }
        if self.antipode is not None:
            d["antipode"] = self.antipode
        return d


def check_bialgebra_axioms(B: StructureBialgebra) -> AxiomReport:
    """Contract every axiom over all basis tuples; failures are reported."""
    f = B.field
    dim = B.dim
    basis = [B.basis_vector(i) for i in range(dim)]

    assoc = all(
        B.multiply(B.multiply(basis[i], basis[j]), basis[k])
        == B.multiply(basis[i], B.multiply(basis[j], basis[k]))
        for i in range(dim) for j in range(dim) for k in range(dim)
    )
    unit = all(
        B.multiply(B.unit, basis[i]) == basis[i]
        and B.multiply(basis[i], B.unit) == basis[i]
        for i in range(dim)
    )

    def coassoc_at(i):
        C = B.comult
        lhs = {}  # (u,v,w) -> scalar of (Delta (x) I) Delta
        rhs = {}
        for a in range(dim):
            for w in range(dim):
                c = C[i][a][w]
                if c:
                    for u in range(dim):
                        for v in range(dim):
                            if C[a][u][v]:
                                key = (u, v, w)
                                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(c, C[a][u][v]))
        for u in range(dim):
            for a in range(dim):
                c = C[i][u][a]
                if c:
                    for v in range(dim):
                        for w in range(dim):
                            if C[a][v][w]:
                                key = (u, v, w)
                                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(c, C[a][v][w]))
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        return lhs == rhs

    coassoc = all(coassoc_at(i) for i in range(dim))

    counit = True
    for i in range(dim):
        left = [f.sum(f.mul(B.comult[i][u][v], B.counit[u]) for u in range(dim))
                for v in range(dim)]
        right = [f.sum(f.mul(B.comult[i][u][v], B.counit[v]) for v in range(dim))
                 for u in range(dim)]
        if left != basis[i] or right != basis[i]:
            counit = False
            break

    def delta_of_product(i, j):
        out = [[f.zero] * dim for _ in range(dim)]
        for a in range(dim):
            for b in range(dim):
                cab = B.comult[i][a][b]
                if not cab:
                    continue
                for c in range(dim):
                    for d in range(dim):
                        ccd = B.comult[j][c][d]
                        if not ccd:
                            continue
                        coeff = f.mul(cab, ccd)
                        ac = B.mult[a][c]
                        bd = B.mult[b][d]
                        for u in range(dim):
                            if not ac[u]:
                                continue
                            cu = f.mul(coeff, ac[u])
                            for v in range(dim):
                                if bd[v]:
                                    out[u][v] = f.add(out[u][v], f.mul(cu, bd[v]))
        return out

    delta_mult = all(
        B.comultiply(B.mult[i][j]) == delta_of_product(i, j)
        for i in range(dim) for j in range(dim)
    )
    unit_outer = [[f.mul(a, b) for b in B.unit] for a in B.unit]
    delta_mult = delta_mult and B.comultiply(B.unit) == unit_outer

    eps_mult = all(
        B.counit_of(B.mult[i][j]) == f.mul(B.counit[i], B.counit[j])
        for i in range(dim) for j in range(dim)
    ) and B.counit_of(B.unit) == f.one

    antipode_ok = None
    if B.antipode is not None:
        antipode_ok = True
        for i in range(dim):
            left = [f.zero] * dim
            right = [f.zero] * dim
            for u in range(dim):
                for v in range(dim):
                    c = B.comult[i][u][v]
                    if not c:
                        continue
                    sl = B.multiply(B.apply_antipode(basis[u]), basis[v])
                    sr = B.multiply(basis[u], B.apply_antipode(basis[v]))
                    for k in range(dim):
                        left[k] = f.add(left[k], f.mul(c, sl[k]))
                        right[k] = f.add(right[k], f.mul(c, sr[k]))
            target = [f.mul(B.counit[i], x) for x in B.unit]
            if left != target or right != target:
                antipode_ok = False
                break

    return AxiomReport(assoc, unit, coassoc, counit, delta_mult, eps_mult, antipode_ok)


def group_algebra(m: int, field: Field) -> StructureBialgebra:
    """k[C_m] with grouplike basis, Delta(g) = g (x) g, S(g) = g^-1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    zero, one = field.zero, field.one
    dim = m

    def vec(i):
        v = [zero] * dim
        v[i] = one
        return v

    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, m)]
    mult = [[vec((i + j) % m) for j in range(m)] for i in range(m)]
    comult = []
    for i in range(m):
        mat = [[zero] * dim for _ in range(dim)]
        mat[i][i] = one
        comult.append(mat)
    counit = [one] * m
    antipode = [vec((-i) % m) for i in range(m)]
    return StructureBialgebra(field, dim, labels, vec(0), mult, comult, counit, antipode)


def _comult_map(H: StructureBialgebra, h_first: bool) -> TensorOp:
    """g (x) h -> sum x h_(2), where x is h_(1) g if h_first, else g h_(1)."""
    f = H.field
    dim = H.dim
    ent = linalg.zeros(f, dim * dim, dim * dim)
    for a in range(dim):
        for b in range(dim):
            col = a * dim + b
            for u in range(dim):
                for v in range(dim):
                    c = H.comult[b][u][v]
                    if not c:
                        continue
                    prod = H.mult[u][a] if h_first else H.mult[a][u]
                    for i in range(dim):
                        if prod[i]:
                            row = i * dim + v
                            ent[row][col] = f.add(ent[row][col], f.mul(c, prod[i]))
    return TensorOp(dim, f, ent)


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
    f = H.field
    dim = H.dim
    ent = linalg.zeros(f, dim * dim, dim * dim)
    for a in range(dim):
        for b in range(dim):
            col = a * dim + b
            for u in range(dim):
                for v in range(dim):
                    c = H.comult[a][u][v]
                    if not c:
                        continue
                    sv = H.multiply(H.apply_antipode(H.basis_vector(v)), H.basis_vector(b))
                    for j in range(dim):
                        if sv[j]:
                            row = u * dim + j
                            ent[row][col] = f.add(ent[row][col], f.mul(c, sv[j]))
    return TensorOp(dim, f, ent)


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
                    if mat[i][b] != f.zero and self.degree[i] != target:
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
                if mat[i][a] != f.zero:
                    ent[i * n + b][col] = mat[i][a]
    return TensorOp(n, f, ent)


# -- the printed operator matrices ---------------------------------------

def projection_fq(q, field: Field) -> EndoV:
    """f_q = [[1, q], [0, 0]]; an idempotent for every scalar q."""
    zero, one = field.zero, field.one
    return EndoV(2, field, [[one, q], [zero, zero]])


def _op4(field, rows):
    return TensorOp(2, field, [[field.from_int(x) if isinstance(x, int) else x for x in row]
                               for row in rows])


def r_q(q, field: Field) -> TensorOp:
    """R_q = f_q (x) (I - f_q)."""
    mq = field.neg(q)
    mq2 = field.neg(field.mul(q, q))
    return _op4(field, [
        [0, mq, 0, mq2],
        [0, 1, 0, q],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])


def r_q_prime(q, field: Field) -> TensorOp:
    """R'_q = f_q (x) I."""
    return _op4(field, [
        [1, 0, q, 0],
        [0, 1, 0, q],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])


def r_q_dblprime(q, field: Field) -> TensorOp:
    """R''_q = f_q (x) f_q."""
    q2 = field.mul(q, q)
    return _op4(field, [
        [1, q, q, q2],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])


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
    if q == field.zero:
        raise ValueError("classical YB operator needs q != 0")
    d = field.sub(q, field.inv(q))
    return _op4(field, [
        [q, 0, 0, 0],
        [0, 1, d, 0],
        [0, 0, 1, 0],
        [0, 0, 0, q],
    ])
