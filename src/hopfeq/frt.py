"""FRT-type construction for the Hopf equation: the obstruction elements
chi(i,j,k,l), the presentation of B(R) = T(C)/I (and its commutative variant),
``build``, which composes B(R) from R once (presentation, completion,
dimension, quotient bialgebra), and exact verification of the three
structural identities that make I a bi-ideal annihilating V.

With structure constants R(m_v (x) m_u) = sum x[u][v][j][i] m_i (x) m_j,

    chi(i,j,k,l) = sum_{u,v} x[u][v][j][i] c_{uk} c_{vl}
                   - sum_{a} x[k][l][j][a] c_{ia},

indices 0-based internally, listed in lexicographic (i,j,k,l) order. ``chi`` is
``hopfmodules.obstructions`` of ``module_from_R(R)``, where (c_ju.m_v)_i = x[u][v][j][i]
is read off R by ``tensorops._action_of``, the one writing of this index map
with its inverse ``tensorops._from_action``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from . import bialgebras, linalg, rewriting
from .fields import _quote, parse_field
from .freealgebra import Alphabet, NCPoly, comatrix_alphabet
from .hopfmodules import _short_word_rows, module_from_R, obstructions
from .tensorops import (TensorOp, _has_shape, _require_keys, check_commutative, check_hopf,
                        equation_defect)


class NotHopfSolutionError(ValueError):
    pass


class NotCommutativeSolutionError(ValueError):
    pass


@dataclass
class Presentation:
    alphabet: object
    field: object
    relations: list  # nonzero monic NCPoly, deduplicated, canonical order
    commutative_closure: bool = False
    provenance: str = ""
    chi_origin: list = dc_field(default_factory=list)  # (i,j,k,l) per chi relation
    # set by frt after construction, never in JSON nor by replace(): a copy of
    # the operator R the relations were built from, and their term sets
    source: tuple | None = dc_field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for r in self.relations:
            if r.is_zero():
                raise ValueError("zero relation in presentation")
            if self.alphabet.comatrix_n is not None and r.eps():
                raise ValueError(f"relation {r.render()} has nonzero counit")

    def coideal_certificate(self):
        """``verify_delta_chi(R)`` for the operator R that ``frt`` built the
        relations from, which decides whether they span a coideal (see
        ``rewriting.quotient_bialgebra``; their counit is 0, as the
        constructor checks); None when there is no such R, or when the
        relations are no longer the ones built from it."""
        R, built = self.source or (None, None)
        if R is not None and built == _term_sets(self.relations):
            return verify_delta_chi(R)

    def to_json(self):
        f = self.field
        return {
            "field": f.descriptor,
            "generators": len(self.alphabet),
            "comatrix_n": self.alphabet.comatrix_n,
            "commutative_closure": self.commutative_closure,
            "provenance": self.provenance,
            "relations": [
                {
                    "text": r.render(),
                    "terms": [[list(w), f.scalar_to_json(c)] for w, c in r.sorted_terms()],
                }
                for r in self.relations
            ],
            "chi_origin": [list(idx) for idx in self.chi_origin],
        }

    @classmethod
    def from_json(cls, doc):
        _require_keys(doc, "field", "relations")
        field = parse_field(doc["field"])
        n, gens = doc.get("comatrix_n"), doc.get("generators")
        if not all(x is None or type(x) is int and x >= 0 for x in (n, gens)) or n is None is gens:
            raise ValueError(f"bad generator count: comatrix_n {n!r}, generators {gens!r}")
        if n is not None:
            alphabet = comatrix_alphabet(n)
            if gens not in (None, n * n):
                raise ValueError(f"comatrix_n {n} needs {n * n} generators, not {gens!r}")
        else:
            alphabet = Alphabet(tuple(f"g{k}" for k in range(gens)))
        letters = range(len(alphabet))
        origin = doc.get("chi_origin", [])
        if not (isinstance(origin, list) and all(isinstance(idx, list) for idx in origin)):
            raise ValueError("chi_origin must be a list of index lists")
        rels, closure = doc["relations"], doc.get("commutative_closure", False)
        if not isinstance(rels, list) or not all(
                isinstance(rel, dict) and isinstance(rel.get("terms"), list)
                and all(_has_shape(t, 2, 1) for t in rel["terms"]) for rel in rels):
            raise ValueError("relations must be objects with a terms list of [word, scalar] pairs")
        if not isinstance(closure, bool):
            raise ValueError(f"commutative_closure must be true or false, not {_quote(closure)}")
        words = [[w for w, _ in rel["terms"]] for rel in rels]
        for ws in words:  # every word is checked before any relation is built
            for w in ws:
                if not isinstance(w, list):
                    raise ValueError(f"word {w!r} is not a list of letters")
                if not all(type(g) is int and g in letters for g in w):
                    raise ValueError(f"word {w} has a letter outside the "
                                     f"{len(letters)} generators")
            ws = [tuple(w) for w in ws]
            if len(set(ws)) < len(ws):
                twice = next(w for k, w in enumerate(ws) if w in ws[:k])
                raise ValueError(f"word {list(twice)} is listed twice in one relation")
        relations = []
        for rel in rels:
            terms = {tuple(w): field.parse_scalar(c) for w, c in rel["terms"]}
            relations.append(NCPoly(alphabet, field, terms))
        return cls(
            alphabet=alphabet,
            field=field,
            relations=relations,
            commutative_closure=closure,
            provenance=doc.get("provenance", ""),
            chi_origin=[tuple(idx) for idx in origin],
        )


def _term_sets(relations):
    """Each relation's terms as a frozenset, the key chi_relations dedups by."""
    return [frozenset(p.terms.items()) for p in relations]


def chi(R: TensorOp):
    """The n^4 obstructions of ``module_from_R(R)``, keyed by (i,j,k,l); zeros
    included. A new dict on each call, of polynomials built once per operator."""
    return obstructions(module_from_R(R))


def chi_relations(R: TensorOp, extra=()):
    """Deduplicated nonzero chi list (monic), with originating indices, then
    the monic forms of the extra polynomials not listed yet."""
    indexed = sorted(chi(R).items()) + [(None, p) for p in extra]
    seen = set()
    relations, origin = [], []
    for idx, poly in indexed:
        if not poly:
            continue
        p = poly.monic()
        key = frozenset(p.terms.items())
        if key not in seen:
            seen.add(key)
            relations.append(p)
            if idx is not None:
                origin.append(idx)
    return relations, origin


def commutator_relations(n, field):
    """Monic commutators [c_g, c_h] over unordered generator pairs g < h."""
    alphabet = comatrix_alphabet(n)
    out = []
    gens = range(n * n)
    for g in gens:
        for h in gens:
            if g < h:
                p = (
                    NCPoly.word(alphabet, field, (h, g))
                    - NCPoly.word(alphabet, field, (g, h))
                )
                out.append(p)
    return out


def _chi_presentation(R: TensorOp, commutative: bool) -> Presentation:
    """The chi relations, with the generator commutators when commutative."""
    extra = commutator_relations(R.n, R.field) if commutative else ()
    relations, origin = chi_relations(R, extra)
    provenance = "chi presentation + commutators" if commutative else "chi presentation"
    pres = Presentation(comatrix_alphabet(R.n), R.field, relations,
                        commutative_closure=commutative, provenance=provenance, chi_origin=origin)
    pres.source = (R.copy(), _term_sets(relations))
    return pres


def frt_presentation(R: TensorOp, force=False) -> Presentation:
    """The presentation of B(R) = T(C)/(all chi).

    Refuses operators that fail the Hopf equation (the annihilation guarantee
    would be void) unless force=True; the coideal property holds regardless.
    """
    if not force and not check_hopf(R):
        raise NotHopfSolutionError("R does not solve the Hopf equation (use force to override)")
    return _chi_presentation(R, commutative=False)


def frt_commutative(R: TensorOp, force=False) -> Presentation:
    """The commutative variant: chi relations plus all generator commutators."""
    if not force:
        if not check_hopf(R):
            raise NotHopfSolutionError("R does not solve the Hopf equation")
        if not check_commutative(R):
            raise NotCommutativeSolutionError("R is not a commutative solution")
    return _chi_presentation(R, commutative=True)


@dataclass
class FRTResult:
    presentation: Presentation
    system: rewriting.RewriteSystem
    dimension: rewriting.DimensionReport
    quotient: bialgebras.StructureBialgebra | None
    annihilates_module: bool | None


def build(R: TensorOp, commutative=False, force=False, max_degree=8) -> FRTResult:
    """B(R) = T(C)/(all chi), or its commutative variant: the presentation
    (refused as ``frt_presentation``/``frt_commutative`` refuse it unless
    force), its completion on the comatrix alphabet at max_degree, the
    dimension report to word length max_degree, and the quotient bialgebra
    when that dimension is finite (else None). ``annihilates_module`` is
    False when force let a non-solution through, else None: the chi ideal
    is still a coideal, but by the defect identity (``verify_defect_identity``,
    which holds for every R) the chi act on V as the nonzero Hopf defect.
    A max_degree below 1 is refused before any stage runs."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    pres = (frt_commutative if commutative else frt_presentation)(R, force=force)
    annihilates = False if force and not check_hopf(R) else None
    rs = rewriting.complete(pres.relations, max_degree, pres.alphabet, pres.field)
    report = rewriting.dimension(rs, max_len=max_degree)
    quotient = (rewriting.quotient_bialgebra(pres, rs, max_len=max_degree)
                if report.is_finite() else None)
    return FRTResult(pres, rs, report, quotient, annihilates)


def eps_chi_zero(R: TensorOp) -> bool:
    """eps(chi(i,j,k,l)) = 0 for every index, any R. eps(c_jk) = delta_jk,
    so eps(chi) is the sum of the coefficients of its diagonal words. Those
    coefficients of all n^4 chi are lifted by one ``Field.lift``, summed as
    ints per chi, and the n^4 sums are lowered once. The coideal certificate
    does not call it: ``Presentation`` refuses a comatrix relation of nonzero
    counit when it is built."""
    diagonal_letters = frozenset(range(0, R.n ** 2, R.n + 1))  # c_11, c_22, ...
    diagonal = [[c for w, c in p.terms.items() if diagonal_letters.issuperset(w)]
                for p in chi(R).values()]
    ints, d = R.field.lift(diagonal)
    return linalg.lifted_is_zero(R.field, ([[sum(row) for row in ints]], d))


def verify_delta_chi(R: TensorOp) -> bool:
    """Coideal identity: Delta(chi(i,j,k,l)) = sum_{a,b} chi(i,j,a,b) (x)
    c_ak c_bl + sum_p c_ip (x) chi(p,j,k,l), for every R; eps(chi) = 0 is
    ``eps_chi_zero``. With c_xy the letter x*n+y, Delta(c_xy) = sum_p c_xp
    (x) c_py, and it holds for all (i,j,k,l) iff: (1) every word of every
    chi has 1 or 2 letters; (2) those of chi(i,j,k,l) are c_uk c_vl or c_iw;
    (3) the coefficient X(i,j,u,v) of c_uk c_vl is the same for every (k,l),
    and Y(j,k,l,w) of c_iw for every i (absent words count 0); (4)
    Y(j,a,b,q) + X(q,j,a,b) = 0. Proof: distinct words have disjoint
    Delta-supports; sort the terms of lhs - rhs by their leg lengths. The
    (2,2) terms vanish iff (2) and (3) hold for X, the (1,1) terms iff they
    hold for Y, the (1,2) terms c_iq (x) c_ak c_bl iff (4); a word of m
    letters, m not 1 or 2, leaves a lone (m,m) term on the lhs.

    One ``Field.lift`` of every coefficient, each read once. A word that
    breaks (1) or (2) returns False; (3), as differences from the first
    (k,l) or i, and (4) fill one row for one ``linalg.lifted_is_zero``."""
    n, field = R.n, R.field
    indexed = chi(R)
    ints, d = field.lift([list(p.terms.values()) for p in indexed.values()])
    keys = list(product(range(n), repeat=4))
    X = {key: [0] * n ** 2 for key in keys}  # (i,j,u,v) -> by (k,l)
    Y = {key: [0] * n for key in keys}  # (j,k,l,w) -> by i
    for ((i, j, k, l), poly), row in zip(indexed.items(), ints):
        for w, c in zip(poly.terms, row):
            if len(w) == 2 and (w[0] % n, w[1] % n) == (k, l):
                X[i, j, w[0] // n, w[1] // n][k * n + l] = c
            elif len(w) == 1 and w[0] // n == i:
                Y[j, k, l, w[0] % n][i] = c
            else:
                return False
    sums = [c - cs[0] for cs in (*X.values(), *Y.values()) for c in cs[1:]]
    sums += [Y[j, a, b, q][0] + X[q, j, a, b][0] for j, a, b, q in keys]
    return linalg.lifted_is_zero(field, ([sums], d))


def _matches_defect(R: TensorOp, equation, M, d):
    """defect(z (x) m_k (x) m_j) = sum_{r,s} M[r,s,j,k].z (x) m_r (x) m_s for
    every basis z, k, j. defect is the lifted lhs - rhs of the equation; each
    M[r,s,j,k] is flattened by rows, in ints over d, and its entry (i, t) goes
    to row (i*n+r)*n+s, column (t*n+k)*n+j: one ``lifted_sub`` compares them."""
    V = range(R.n)
    target = [[M[(r, s, j, k)][i * R.n + t] for t, k, j in product(V, repeat=3)]
              for i, r, s in product(V, repeat=3)]
    return linalg.lifted_is_zero(R.field, linalg.lifted_sub(equation_defect(R, equation),
                                                            (target, d)))


def _chi_actions(data):
    """Every chi's action on V, flattened by rows in ints over one denominator:
    its lifted coefficients weight the words of the module's one block product."""
    words, d = _short_word_rows(data)
    indexed = obstructions(data)
    ints, dc = data.field.lift([list(p.terms.values()) for p in indexed.values()])
    actions = {}
    for (idx, p), coeffs in zip(indexed.items(), ints):
        acc = [0] * data.n ** 2
        for w, c in zip(p.terms, coeffs):
            acc = [x + c * y for x, y in zip(acc, words[w])]
        actions[idx] = acc
    return actions, dc * d


def verify_defect_identity(R: TensorOp) -> bool:
    """(R^23 R^13 R^12 - R^12 R^23)(z (x) m_k (x) m_j) =
    sum_{r,s} chi(r,s,j,k).z (x) m_r (x) m_s for every basis z, k, j; any R."""
    return _matches_defect(R, "hopf", *_chi_actions(module_from_R(R)))


def verify_commutator_identity(R: TensorOp) -> bool:
    """(R^12 R^13 - R^13 R^12)(z (x) m_k (x) m_j) =
    sum_{r,s} (c_rk c_sj - c_sj c_rk).z (x) m_r (x) m_s for every z, k, j,
    with [c_rk, c_sj] block (rk, sj) minus block (sj, rk) of one block product."""
    n = R.n
    words, d = _short_word_rows(module_from_R(R))
    M = {(r, s, j, k): [x - y for x, y in zip(words[(r * n + k, s * n + j)],
                                              words[(s * n + j, r * n + k)])]
         for r, s, j, k in product(range(n), repeat=4)}
    return _matches_defect(R, "commutative", M, d)
