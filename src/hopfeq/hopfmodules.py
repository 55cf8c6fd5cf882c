"""Module/comodule structures on V over a presented bialgebra or a structure
bialgebra: the multiplicative action extension, the comatrix coaction, the
obstructions chi read off the action, the Hopf compatibility check (every
chi reduces to zero), the induced operator
R(m (x) n) = sum n_<1>.m (x) n_<0> and the universal property of B(R).

Both module kinds give V as a T(C)-module, ``action``: (j, u) -> the
matrix of c_{j+1,u+1}; over a structure bialgebra H, c_ju acts as the
coaction coefficient coelems[j][u]. The regular module of H induces
R(g (x) h) = sum h_(2) g (x) h_(1), Takesaki's map only when H is
cocommutative. Checks over H read the lifted sparse views of
``StructureBialgebra.sparse`` and compare two contractions keyed by their
free basis indices and summed in ints, each side scaled by its power of
the denominators and the difference lowered, as ``check_bialgebra_axioms``
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import lcm

from . import linalg
from .bialgebras import _dense, _same, _sparse
from .freealgebra import NCPoly, comatrix_alphabet, word_products
from .rewriting import normal_form
from .tensorops import TensorOp, _Slot


@dataclass
class HopfModuleData:
    """Action of the comatrix generators on V plus the comatrix coaction
    rho(m_l) = sum_v m_v (x) c_vl; the T(C)-action extends multiplicatively."""

    n: int
    field: object
    action: dict  # (j, u) -> n x n matrix of c_{j+1,u+1} acting on V

    def to_json(self):
        f = self.field
        return {
            "field": f.descriptor,
            "n": self.n,
            "action": {
                f"c[{j + 1},{u + 1}]": [[f.scalar_to_json(x) for x in row] for row in mat]
                for (j, u), mat in sorted(self.action.items())
            },
        }


def module_from_R(R: TensorOp) -> HopfModuleData:
    """Read the action off R.entries through the index map that ``induced_R``
    inverts: (c_ju . m_v)_i = entries[i*n+j][v*n+u]; coaction is the
    comatrix assignment."""
    n, ent = R.n, R.entries
    action = {
        (j, u): [[ent[i * n + j][v * n + u] for v in range(n)] for i in range(n)]
        for j in range(n)
        for u in range(n)
    }
    return HopfModuleData(n=n, field=R.field, action=action)


# the last module's obstructions ("chi") and _short_word_rows ("words"),
# keyed on its action entries in sorted key order, not in R's flat order
_MODULE = _Slot()


def _action_scalars(data):
    """The scalar objects of data.action, in sorted key order: a ``_Slot`` key."""
    action = data.action
    return [x for key in sorted(action) for row in action[key] for x in row]


def obstructions(data: HopfModuleData) -> dict:
    """All n^4 obstruction polynomials of the module, keyed by (i,j,k,l) in
    lexicographic order, zeros included: chi(i,j,k,l) =
    sum_{u,v} (c_ju . m_v)_i c_uk c_vl - sum_a (c_jk . m_l)_a c_ia.

    They are built once per module (``tensorops._Slot`` on the action
    entries) and shared; each call returns a new dict of them."""
    return dict(_MODULE.get(data.field, _action_scalars(data), "chi", lambda: _obstructions(data)))


def _obstructions(data):
    n, field, V = data.n, data.field, range(data.n)
    alphabet, neg = comatrix_alphabet(n), field.neg
    mats = [[data.action[(j, u)] for u in V] for j in V]
    out = {}
    for i, j, k, l in product(V, repeat=4):
        # the quadratic words differ for different (u, v) and the linear
        # words for different a, so no two terms meet
        terms = {}
        for u in V:
            for v, c in enumerate(mats[j][u][i]):
                if c:
                    terms[(u * n + k, v * n + l)] = c
        for a, row in enumerate(mats[j][k]):
            if row[l]:
                terms[(i * n + a,)] = neg(row[l])
        out[(i, j, k, l)] = NCPoly._from_terms(alphabet, field, terms)
    return out


def act_word(w, data: HopfModuleData, memo=None):
    """Matrix of a word acting on V; the empty word acts as the identity.

    memo maps words to their lifted matrices (ints, d) (see ``linalg``).
    Pass one dict to the calls of one computation and each prefix is
    multiplied out once: a word then costs one product beyond its longest
    prefix, and its ints grow with its length only. The returned matrix is
    lowered afresh on each call.
    """
    return data.field.lower(*_word_matrices(data, memo)(w))


def _word_matrices(data, memo):
    """``freealgebra.word_products`` over the lifted action matrices, on
    memo (a fresh dict for None) with the lifted identity as the empty word."""
    field, n = data.field, data.n
    memo = {} if memo is None else memo
    if () not in memo:
        memo[()] = field.lift(linalg.identity(field, n))
    return word_products(lambda k: field.lift(data.action[divmod(k, n)]),
                         linalg.lifted_mul, memo)


def _short_word_rows(data):
    """Each word of one or two letters as its matrix flattened by rows, in ints over one
    denominator: the letters stacked (n^3 x n) times them side by side has A_a A_b at (a, b).
    Built once per module, as ``obstructions``, and shared: do not change the rows."""
    return _MODULE.get(data.field, _action_scalars(data), "words", lambda: _block_rows(data))


def _block_rows(data):
    n, N, L = data.n, range(data.n), range(data.n ** 2)
    stacked, d = data.field.lift([row for a in L for row in data.action[divmod(a, n)]])
    side = [[x for a in L for x in stacked[a * n + i]] for i in N]
    blocks, _ = linalg.lifted_mul((stacked, d), (side, d))
    rows = {(a,): [x * d for i in N for x in stacked[a * n + i]] for a in L}
    rows.update(((a, b), [x for i in N for x in blocks[a * n + i][b * n:b * n + n]])
                for a in L for b in L)
    return rows, d * d


def _combine(field, n, coeffs, mats):
    """sum_t coeffs[t] M_t over the lifted n x n matrices mats, lowered once:
    the lifted coefficient row times the matrix whose row t is M_t flattened
    over the lcm of their denominators, in one ``linalg.lifted_mul``."""
    if not coeffs:
        return linalg.zeros(field, n, n)
    d = lcm(*(e for _, e in mats))
    stacked = [[x * (d // e) for row in ints for x in row] for ints, e in mats]
    flat = field.lower(*linalg.lifted_mul(field.lift([coeffs]), (stacked, d)))[0]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def act_poly(p, data: HopfModuleData, memo=None):
    """Matrix of a polynomial acting on V, the coefficient-weighted sum of its
    word matrices; memo as for ``act_word``."""
    word = _word_matrices(data, memo)
    return _combine(data.field, data.n, list(p.terms.values()), [word(w) for w in p.terms])


def induced_R(data) -> TensorOp:
    """The operator R(m (x) n) = sum n_<1>.m (x) n_<0> of the module/comodule
    pair, read off data.action: entries[i*n+j][v*n+u] = (c_ju . m_v)_i.
    data is a HopfModuleData or a BialgebraHopfModule."""
    n = data.n
    action = data.action
    return TensorOp(n, data.field, [[action[(j, u)][i][v] for v in range(n) for u in range(n)]
                                    for i in range(n) for j in range(n)])


def check_hopf_compat(data: HopfModuleData, rs) -> bool:
    """Hopf compatibility rho(h.m) = sum h_(1).m_<0> (x) h_(2) m_<1> for every
    generator h = c_jk and basis vector m_l, second legs in B = T(C)/I. At
    m_w the right side minus the left is chi(w,j,k,l), nonzero in T(C) in
    general; ``normal_form`` is linear, so the law holds iff every
    obstruction has normal form zero."""
    return not any(normal_form(p, rs) for p in obstructions(data).values())


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
        """The matrix by which the element hvec of H acts on V."""
        field = self.field
        terms = [t for t, c in enumerate(hvec) if c]
        return _combine(field, self.n, [hvec[t] for t in terms],
                        [field.lift(self.basis_action[t]) for t in terms])

    @property
    def action(self):
        """V as a T(C)-module along c_ju -> coelems[j][u]: (j, u) -> the
        matrix of c_{j+1,u+1}, as in HopfModuleData."""
        return {(j, u): self.act(self.coelems[j][u])
                for j in range(self.n) for u in range(self.n)}


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


def check_hopf_compat_bialgebra(bm: BialgebraHopfModule) -> bool:
    """The compatibility law rho(h.m) = sum h_(1).m_<0> (x) h_(2) m_<1> for
    every basis element h = m_t of H and basis vector m_l, as two
    contractions keyed by (l, w, s), the coefficient of m_w (x) m_s. The
    action and coaction are lifted over one denominator E, the tables of H
    over D: the left side is over E^2, the right over D^2 E^2."""
    H = bm.bialgebra
    V = range(bm.n)
    m, d, _, _, _, D = H.sparse()
    ints, _ = bm.field.lift([*chain(*bm.basis_action), *chain(*bm.coelems)])
    rows = iter(ints)
    act = [{(i, v): c for i in V for v, c in enumerate(next(rows)) if c}
           for _ in bm.basis_action]
    co = [[_sparse(next(rows)) for _ in V] for _ in V]
    # lhs: sum_i (m_t.m_l)_i rho(m_i); rhs: over Delta(m_t) = sum m_p (x) m_b,
    # (m_p.m_v)_w m_w (x) m_b coelems[v][l]
    return all(
        _same(bm.field, (((l, w, s), a * c) for (i, l), a in act[t].items()
                         for w in V for s, c in co[w][i].items()),
              (((l, w, s), c * a * x * y) for (p, b), c in d[t].items()
               for (w, v), a in act[p].items() for l in V
               for k, x in co[v][l].items() for s, y in m[b][k].items()), D * D)
        for t in range(H.dim))


def verify_morphism(source, target, target_data: BialgebraHopfModule, assignment,
                    source_data: HopfModuleData | None = None) -> bool:
    """Universal property instance: the generator assignment c_ij -> f(c_ij)
    must (a) annihilate every source relation inside the target, (b) intertwine
    Delta and eps on generators, (c) reproduce the target coaction
    ((I (x) f) rho = rho') and act on V as the target action does; with
    source_data given, f(c_ij) must act exactly as c_ij does upstream."""
    n = source.alphabet.comatrix_n
    f = target.field
    mul, total = f.mul, f.combine
    V = range(n)
    gens = [assignment[divmod(k, n)] for k in range(n * n)]

    # (a) relations map to zero; a word's image is its longest prefix's image
    # times one generator image
    image = word_products(gens.__getitem__, target.multiply, {(): target.unit})
    for r in source.relations:
        if total((s, mul(c, x)) for w, c in r.terms.items()
                 for s, x in enumerate(image(w)) if x):
            return False

    # (b) Delta(f(c_jk)) = sum_u f(c_ju) (x) f(c_uk), keyed by (j, k, a, b),
    # and eps(f(c_jk)) = delta_jk; the assignment is lifted over E, the
    # tables of the target over D
    _, d, _, eps, _, D = target.sparse()
    ints, E = f.lift([assignment[(j, k)] for j in V for k in V])
    g = [[_sparse(ints[j * n + k]) for k in V] for j in V]
    if not _same(f, (((j, k, a, b), x * c) for j in V for k in V
                     for t, x in g[j][k].items() for (a, b), c in d[t].items()),
                 (((j, k, a, b), x * y) for j in V for k in V for u in V
                  for a, x in g[j][u].items() for b, y in g[u][k].items()), E, D):
        return False
    if not _same(f, (((j, k), x * eps[t]) for j in V for k in V for t, x in g[j][k].items()),
                 [((j, j), E * D) for j in V]):
        return False

    # (c) the assignment is the target coaction, so target_data.action is
    # what each f(c_ij) does on V
    if any(assignment[(v, l)] != target_data.coelems[v][l] for v in V for l in V):
        return False
    return source_data is None or target_data.action == source_data.action


def quotient_hopf_module(pres, rs, quotient, data: HopfModuleData):
    """The canonical Hopf module structure on V over the quotient bialgebra
    B = T(C)/I, together with the generator assignment c_ij -> [c_ij].

    quotient must come from rewriting.quotient_bialgebra(pres, rs), so its
    basis_words are the irreducible words of rs. pres is not read: the
    quotient and rs carry what is needed of it, and the parameter stays in
    the signature that callers use."""
    words = quotient.basis_words
    if words is None:
        raise ValueError("quotient carries no basis words")
    index = {w: k for k, w in enumerate(words)}
    field = data.field
    n = data.n
    alphabet = comatrix_alphabet(n)

    # the irreducible words are closed under prefixes, so with one memo each
    # basis word costs one product
    memo = {}
    basis_action = [act_word(w, data, memo) for w in words]
    assignment = {
        (i, j): _dense(normal_form(NCPoly.generator(alphabet, field, i, j), rs).terms, index,
                       field.zero)
        for i in range(n)
        for j in range(n)
    }
    coelems = [[assignment[(v, l)] for l in range(n)] for v in range(n)]
    return BialgebraHopfModule(quotient, n, field, basis_action, coelems), assignment
