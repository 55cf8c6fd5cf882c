"""Module/comodule structures on V over a presented bialgebra or a structure
bialgebra: the multiplicative action extension, the comatrix coaction, the
Hopf compatibility check on generators, the induced operator
R(m (x) n) = sum n_<1>.m (x) n_<0>, annihilation checks and the universal
property of B(R).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import linalg
from .freealgebra import NCPoly, comatrix_alphabet
from .rewriting import normal_form
from .tensorops import TensorOp, to_structure_constants


@dataclass
class HopfModuleData:
    """Action of the comatrix generators on V plus the comatrix coaction
    rho(m_l) = sum_v m_v (x) c_vl; the T(C)-action extends multiplicatively."""

    n: int
    field: object
    action: dict  # (j, u) -> n x n matrix of c_{j+1,u+1} acting on V
    ambient: object = None  # optional Presentation, for bookkeeping

    def to_json(self):
        f = self.field
        return {
            "field": f.descriptor,
            "n": self.n,
            "action": {
                f"c[{j + 1},{u + 1}]": [[f.scalar_to_json(x) for x in row] for row in mat]
                for (j, u), mat in sorted(self.action.items())
            },
            "ambient": getattr(self.ambient, "provenance", None),
        }


def module_from_R(R: TensorOp) -> HopfModuleData:
    """Read the action off the structure constants: c_ju . m_v = sum_i
    x[u][v][j][i] m_i; coaction is the comatrix assignment."""
    n = R.n
    x = to_structure_constants(R)
    action = {
        (j, u): [[x[u][v][j][i] for v in range(n)] for i in range(n)]
        for j in range(n)
        for u in range(n)
    }
    return HopfModuleData(n=n, field=R.field, action=action)


def act_word(w, data: HopfModuleData, memo=None):
    """Matrix of a word acting on V; the empty word acts as the identity.

    memo maps words to their matrices. Pass one dict to the calls of one
    computation and each prefix is multiplied out once: a word then costs
    one product beyond its longest prefix. The returned matrix is shared
    with memo; do not change it.
    """
    return _act_word(w, data, {} if memo is None else memo)


def _act_word(w, data, memo):
    mat = memo.get(w)
    if mat is None:
        n = data.n
        if len(w) > 1:
            mat = linalg.mat_mul(data.field, _act_word(w[:-1], data, memo),
                                 data.action[divmod(w[-1], n)])
        elif w:
            mat = [row[:] for row in data.action[divmod(w[0], n)]]
        else:
            mat = linalg.identity(data.field, n)
        memo[w] = mat
    return mat


def act_poly(p, data: HopfModuleData, memo=None):
    """Matrix of a polynomial acting on V, as the coefficient row times the
    word matrices (flattened) in one ``mat_mul``; memo as for ``act_word``."""
    n = data.n
    if not p.terms:
        return linalg.zeros(data.field, n, n)
    memo = {} if memo is None else memo
    mats = [[x for row in _act_word(w, data, memo) for x in row] for w in p.terms]
    flat = linalg.mat_mul(data.field, [list(p.terms.values())], mats)[0]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def induced_R(data) -> TensorOp:
    """The operator R(m (x) n) = sum n_<1>.m (x) n_<0> of the module/comodule
    pair; accepts either HopfModuleData or BialgebraHopfModule."""
    if isinstance(data, BialgebraHopfModule):
        return _induced_R_bialgebra(data)
    n = data.n
    field = data.field
    ent = linalg.zeros(field, n * n, n * n)
    for v, u in product(range(n), repeat=2):
        for i, j in product(range(n), repeat=2):
            ent[i * n + j][v * n + u] = data.action[(j, u)][i][v]
    return TensorOp(n, field, ent)


def check_annihilation(pres, data: HopfModuleData) -> bool:
    """I . V = 0: every relation acts as the zero matrix."""
    zero_mat = linalg.zeros(data.field, data.n, data.n)
    memo = {}
    return all(act_poly(r, data, memo) == zero_mat for r in pres.relations)


def check_hopf_compat(data: HopfModuleData, rs) -> bool:
    """Hopf compatibility rho(h.m) = sum h_(1).m_<0> (x) h_(2) m_<1> checked
    for every generator h = c_jk and basis vector m_l, with the second tensor
    legs reduced to normal form in B = T(C)/I (equality in T(C) is generally
    false; the defect is exactly sum_i m_i (x) chi(i,j,k,l))."""
    n = data.n
    field = data.field
    alphabet = comatrix_alphabet(n)
    gen_word = lambda a, b: (a * n + b,)
    for j, k in product(range(n), repeat=2):
        A = data.action[(j, k)]
        for l in range(n):
            for w in range(n):
                # rho(c_jk . m_l) component at m_w
                lhs = NCPoly.zero(alphabet, field)
                for i in range(n):
                    if A[i][l]:
                        lhs = lhs + NCPoly(alphabet, field, {gen_word(w, i): A[i][l]})
                # sum_{u,v} (c_ju . m_v)_w  c_uk c_vl component at m_w
                rhs = NCPoly.zero(alphabet, field)
                for u, v in product(range(n), repeat=2):
                    c = data.action[(j, u)][w][v]
                    if c:
                        word = gen_word(u, k) + gen_word(v, l)
                        rhs = rhs + NCPoly(alphabet, field, {word: c})
                if normal_form(lhs, rs) != normal_form(rhs, rs):
                    return False
    return True


@dataclass
class BialgebraHopfModule:
    """Hopf module structure on V over a StructureBialgebra: an H-action per
    basis element of H, and coaction coefficients c'_vl in H with
    rho(m_l) = sum_v m_v (x) coelems[v][l]."""

    bialgebra: object
    n: int
    field: object
    basis_action: list  # H-basis index -> n x n matrix
    coelems: list  # coelems[v][l] = coefficient vector in H

    def act(self, hvec):
        f = self.field
        out = linalg.zeros(f, self.n, self.n)
        for t, c in enumerate(hvec):
            if not c:
                continue
            mat = self.basis_action[t]
            for i in range(self.n):
                for j in range(self.n):
                    if mat[i][j]:
                        out[i][j] = f.add(out[i][j], f.mul(c, mat[i][j]))
        return out


def regular_hopf_module(H) -> BialgebraHopfModule:
    """H as a Hopf module over itself: action by multiplication, coaction by
    comultiplication."""
    dim = H.dim
    basis_action = [
        [[H.mult[t][v][i] for v in range(dim)] for i in range(dim)]
        for t in range(dim)
    ]
    # coelems[u][l][v] = comult[l][u][v]: Delta(m_l) = sum_u m_u (x) coelems[u][l]
    coelems = [
        [[H.comult[l][u][v] for v in range(dim)] for l in range(dim)]
        for u in range(dim)
    ]
    return BialgebraHopfModule(H, dim, H.field, basis_action, coelems)


def _induced_R_bialgebra(bm: BialgebraHopfModule) -> TensorOp:
    n = bm.n
    field = bm.field
    ent = linalg.zeros(field, n * n, n * n)
    for u in range(n):
        for j in range(n):
            A = bm.act(bm.coelems[j][u])
            for v in range(n):
                for i in range(n):
                    ent[i * n + j][v * n + u] = A[i][v]
    return TensorOp(n, field, ent)


def check_hopf_compat_bialgebra(bm: BialgebraHopfModule) -> bool:
    """The compatibility law checked over a structure bialgebra, all basis
    elements h and basis vectors m_l, componentwise in V (x) H."""
    H = bm.bialgebra
    f = bm.field
    n = bm.n
    dim = H.dim
    zero = f.zero
    for t in range(dim):
        A = bm.basis_action[t]
        for l in range(n):
            # lhs component at m_w: sum_i A[i][l] coelems[w][i]
            for w in range(n):
                lhs = [zero] * dim
                for i in range(n):
                    if A[i][l] != zero:
                        for s, c in enumerate(bm.coelems[w][i]):
                            lhs[s] = f.add(lhs[s], f.mul(A[i][l], c))
                rhs = [zero] * dim
                for a in range(dim):
                    for b in range(dim):
                        c = H.comult[t][a][b]
                        if c == zero:
                            continue
                        Aa = bm.basis_action[a]
                        for v in range(n):
                            if Aa[w][v] == zero:
                                continue
                            coeff = f.mul(c, Aa[w][v])
                            hv = H.multiply(H.basis_vector(b), bm.coelems[v][l])
                            for s in range(dim):
                                if hv[s] != zero:
                                    rhs[s] = f.add(rhs[s], f.mul(coeff, hv[s]))
                if lhs != rhs:
                    return False
    return True


def verify_morphism(source, target, target_data: BialgebraHopfModule, assignment,
                    source_data: HopfModuleData | None = None) -> bool:
    """Universal property instance: the generator assignment c_ij -> f(c_ij)
    must (a) annihilate every source relation inside the target, (b) intertwine
    Delta and eps on generators, (c) reproduce the target coaction
    ((I (x) f) rho = rho') and act on V as the target action does; with
    source_data given, f(c_ij) must act exactly as c_ij does upstream."""
    n = source.alphabet.comatrix_n
    f = target.field
    dim = target.dim

    def assigned(i, j):
        return assignment[(i, j)]

    # (a) relations map to zero through target multiplication
    for r in source.relations:
        total = [f.zero] * dim
        for w, c in r.terms.items():
            vec = target.unit
            for k in w:
                vec = target.multiply(vec, assigned(*divmod(k, n)))
            for s in range(dim):
                total[s] = f.add(total[s], f.mul(c, vec[s]))
        if any(x != f.zero for x in total):
            return False

    # (b) Delta(f(c_jk)) = sum_u f(c_ju) (x) f(c_uk); eps(f(c_jk)) = delta_jk
    for j, k in product(range(n), repeat=2):
        lhs = target.comultiply(assigned(j, k))
        rhs = [[f.zero] * dim for _ in range(dim)]
        for u in range(n):
            left, right = assigned(j, u), assigned(u, k)
            for a in range(dim):
                if left[a] == f.zero:
                    continue
                for b in range(dim):
                    if right[b] != f.zero:
                        rhs[a][b] = f.add(rhs[a][b], f.mul(left[a], right[b]))
        if lhs != rhs:
            return False
        want = f.one if j == k else f.zero
        if target.counit_of(assigned(j, k)) != want:
            return False

    # (c) coaction match and action match
    for v, l in product(range(n), repeat=2):
        if assigned(v, l) != target_data.coelems[v][l]:
            return False
    if source_data is not None:
        for i, j in product(range(n), repeat=2):
            if target_data.act(assigned(i, j)) != source_data.action[(i, j)]:
                return False
    return True


def quotient_hopf_module(pres, rs, quotient, data: HopfModuleData):
    """The canonical Hopf module structure on V over the quotient bialgebra
    B = T(C)/I, together with the generator assignment c_ij -> [c_ij].

    quotient must come from rewriting.quotient_bialgebra(pres, rs), so its
    basis_words are the irreducible words of rs."""
    words = quotient.basis_words
    if words is None:
        raise ValueError("quotient carries no basis words")
    index = {w: k for k, w in enumerate(words)}
    field = data.field
    n = data.n
    alphabet = comatrix_alphabet(n)

    def to_vec(poly):
        vec = [field.zero] * quotient.dim
        for w, c in poly.terms.items():
            vec[index[w]] = c
        return vec

    # the irreducible words are closed under prefixes, so with one memo each
    # basis word costs one product
    memo = {}
    basis_action = [act_word(w, data, memo) for w in words]
    assignment = {
        (i, j): to_vec(normal_form(NCPoly.generator(alphabet, field, i, j), rs))
        for i in range(n)
        for j in range(n)
    }
    coelems = [[assignment[(v, l)] for l in range(n)] for v in range(n)]
    return BialgebraHopfModule(quotient, n, field, basis_action, coelems), assignment
