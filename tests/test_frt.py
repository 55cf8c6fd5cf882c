import json
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from hopfeq import bialgebras as B, frt, hopfmodules as HM, linalg, rewriting as RW, tensorops as T
from hopfeq.fields import QQ, parse_field
from hopfeq.fixtures import build_fixture
from hopfeq.freealgebra import NCPoly, TensorPoly, comatrix_alphabet
from hopfeq.hopfmodules import act_poly, act_word, module_from_R, obstructions

F2 = parse_field("fp:2")
F3 = parse_field("fp:3")
F5 = parse_field("fp:5")
F7 = parse_field("fp:7")
A2 = comatrix_alphabet(2)


def gen(i, j, field=QQ, alphabet=A2):
    return NCPoly.generator(alphabet, field, i, j)


# -- chi -------------------------------------------------------------------

def assert_chi_matches_expansion_oracle(R):
    # the same terms in the same insertion order: quadratic words in (u, v)
    # order, then linear words in a order
    indexed = frt.chi(R)
    assert list(indexed) == list(product(range(R.n), repeat=4))
    for idx in indexed:
        assert list(indexed[idx].terms.items()) == \
            list(oracles.obstruction_terms(R, *idx).items())


def test_chi_matches_expansion_oracle_random():
    rng = random.Random(41)
    for field, n in ((F5, 2), (QQ, 2), (F3, 3), (F2, 1), (QQ, 1)):
        assert_chi_matches_expansion_oracle(T.random_tensorop(n, field, rng))


CHI_FIXTURES = [
    ("identity:1", QQ), ("identity:2", F5), ("r_q:2", QQ), ("r_q_prime:1", QQ),
    ("r_q_dblprime:1", F3), ("char2", F2), ("classical_yb:2", QQ), ("graded_c2", QQ),
    ("crossed_s3", QQ), ("takesaki_c3", QQ), ("galois_c3", F7),
]


@pytest.mark.parametrize("fid,field", CHI_FIXTURES, ids=[fid for fid, _ in CHI_FIXTURES])
def test_chi_matches_expansion_oracle_fixtures(fid, field):
    assert_chi_matches_expansion_oracle(build_fixture(fid, field))


def test_chi_for_identity_formula():
    # chi(i,j,k,l) = c_jk c_il - delta_jk c_il for R = identity
    n = 2
    R = T.identity_op(n, F5)
    indexed = frt.chi(R)
    for i, j, k, l in product(range(n), repeat=4):
        want = gen(j, k, F5) * gen(i, l, F5)
        if j == k:
            want = want - gen(i, l, F5)
        assert indexed[(i, j, k, l)] == want


def test_chi_rq_at_q0_slot_family():
    R = B.r_q(Fraction(0), QQ)
    indexed = frt.chi(R)
    # the (i,j) = (1,2) family in paper's 1-based indexing, 0-based (0,1):
    assert indexed[(0, 1, 0, 0)] == gen(1, 0) * gen(0, 0)
    assert indexed[(0, 1, 0, 1)] == gen(1, 0) * gen(0, 1)
    assert indexed[(0, 1, 1, 0)] == gen(1, 1) * gen(0, 0) - gen(0, 0)
    assert indexed[(0, 1, 1, 1)] == gen(1, 1) * gen(0, 1)


def test_chi_rq_all_sixteen_at_sample_q():
    # the printed sixteen relations of the R_q proposition, at q = 2 over Q
    q = Fraction(2)
    R = B.r_q(q, QQ)
    indexed = frt.chi(R)
    c = lambda i, j: gen(i - 1, j - 1)  # 1-based helper mirroring the lists
    q2 = q * q
    expected = {
        (1, 1, 1, 1): (c(2, 1) * c(1, 1)).scale(-q) - (c(2, 1) * c(2, 1)).scale(q2),
        (1, 1, 1, 2): (c(2, 1) * c(1, 2)).scale(-q) - (c(2, 1) * c(2, 2)).scale(q2),
        (1, 1, 2, 1): (c(2, 2) * c(1, 1)).scale(-q) - (c(2, 2) * c(2, 1)).scale(q2)
                      + c(1, 1).scale(q),
        (1, 1, 2, 2): (c(2, 2) * c(1, 2)).scale(-q) - (c(2, 2) * c(2, 2)).scale(q2)
                      + c(1, 1).scale(q2),
        (1, 2, 1, 1): c(2, 1) * c(1, 1) + (c(2, 1) * c(2, 1)).scale(q),
        (1, 2, 1, 2): c(2, 1) * c(1, 2) + (c(2, 1) * c(2, 2)).scale(q),
        (1, 2, 2, 1): c(2, 2) * c(1, 1) + (c(2, 2) * c(2, 1)).scale(q) - c(1, 1),
        (1, 2, 2, 2): c(2, 2) * c(1, 2) + (c(2, 2) * c(2, 2)).scale(q) - c(1, 1).scale(q),
        (2, 1, 2, 1): c(2, 1).scale(q),
        (2, 1, 2, 2): c(2, 1).scale(q2),
        (2, 2, 2, 1): -c(2, 1),
        (2, 2, 2, 2): -c(2, 1).scale(q),
    }
    for idx4 in product(range(2), repeat=4):
        one_based = tuple(a + 1 for a in idx4)
        want = expected.get(one_based, NCPoly.zero(A2, QQ))
        assert indexed[idx4] == want, one_based


def test_chi_char2_sixteen_relations():
    R = B.char2_matrix(F2)
    rels, _ = frt.chi_relations(R)
    c = lambda i, j: gen(i - 1, j - 1, F2)
    want = [
        c(1, 1) * c(1, 1) - c(1, 1),
        c(1, 1) * c(1, 2) - c(1, 2),
        c(1, 2) * c(1, 1),
        c(1, 2) * c(1, 2),
        c(2, 1) * c(1, 1) + c(1, 1) * c(2, 1),
        c(2, 1) * c(1, 2) + c(1, 1) * c(2, 2) - c(1, 1),
        c(2, 2) * c(1, 1) + c(1, 2) * c(2, 1) - c(1, 1),
        c(2, 2) * c(1, 2) + c(1, 2) * c(2, 2) - c(1, 2),
        c(1, 1) * c(2, 1) - c(2, 1),
        c(1, 1) * c(2, 2) - c(2, 2),
        c(1, 2) * c(2, 1),
        c(1, 2) * c(2, 2),
        c(2, 1) * c(2, 1),
        c(2, 1) * c(2, 2) - c(2, 1),
        c(2, 2) * c(2, 1) - c(2, 1),
        c(2, 2) * c(2, 2) - c(2, 2),
    ]
    normalized = {tuple(sorted(r.monic().terms.items())) for r in want}
    got = {tuple(sorted(r.terms.items())) for r in rels}
    assert got == normalized
    assert len(rels) == 16


def test_chi_relations_dedup_and_order():
    R = B.r_q(Fraction(0), QQ)
    rels, origin = frt.chi_relations(R)
    texts = [r.render() for r in rels]
    assert texts == ["c[2,1]*c[1,1]", "c[2,1]*c[1,2]",
                     "c[2,2]*c[1,1] - c[1,1]", "c[2,2]*c[1,2]", "c[2,1]"]
    assert origin == sorted(origin)
    assert all(r.leading_coeff() == QQ.one for r in rels)


# -- presentations ------------------------------------------------------------

def test_frt_presentation_identity_n1():
    built = frt.build(T.identity_op(1, QQ))
    pres, rep = built.presentation, built.dimension
    assert len(pres.relations) == 1
    r = pres.relations[0]
    assert r.terms == {(0, 0): QQ.one, (0,): -QQ.one}  # c^2 - c
    assert rep.is_finite() and rep.count == 2  # k[c]/(c^2 - c)


def test_frt_presentation_refuses_non_solution():
    R = B.classical_yb(Fraction(2), QQ)
    with pytest.raises(frt.NotHopfSolutionError) as plain:
        frt.frt_presentation(R)
    with pytest.raises(frt.NotHopfSolutionError) as comm:
        frt.frt_commutative(R)
    assert str(plain.value) == "R does not solve the Hopf equation (use force to override)"
    assert str(comm.value) == "R does not solve the Hopf equation"
    pres = frt.frt_presentation(R, force=True)
    assert pres.relations  # builds anyway under the override


def test_frt_commutative_refuses_noncommutative_solution(f2_hopf_solutions):
    # hunt a noncommutative Hopf solution among the F2 brute-force results
    sols = [T.TensorOp(2, F2, [list(flat[r * 4:(r + 1) * 4]) for r in range(4)])
            for flat in f2_hopf_solutions]
    R = next(S for S in sols if not T.check_commutative(S))
    with pytest.raises(frt.NotCommutativeSolutionError) as refused:
        frt.frt_commutative(R)
    assert str(refused.value) == "R is not a commutative solution"


def test_frt_commutative_n1_keeps_the_flag_without_commutators():
    # one generator has no commutator, yet the variant is still the commutative one
    R = T.identity_op(1, QQ)
    assert frt.commutator_relations(1, QQ) == []
    pres, plain = frt.frt_commutative(R), frt.frt_presentation(R)
    assert pres.commutative_closure and pres.to_json()["commutative_closure"] is True
    assert pres.provenance == "chi presentation + commutators"
    assert pres.relations == plain.relations and pres.chi_origin == plain.chi_origin
    assert not plain.commutative_closure and plain.provenance == "chi presentation"


def test_commutator_count_n2():
    # unordered pairs of distinct generators: C(4, 2)
    comms = frt.commutator_relations(2, QQ)
    assert len(comms) == 6
    n = 3
    assert len(frt.commutator_relations(n, QQ)) == (n * n) * (n * n - 1) // 2


def test_frt_commutative_flag_and_content():
    R = B.char2_matrix(F2)
    pres = frt.frt_commutative(R)
    assert pres.commutative_closure
    plain = frt.frt_presentation(R)
    assert len(pres.relations) > len(plain.relations)


def test_commutative_variant_equals_polynomial_quotient():
    # Bbar(char2) = k[X, Z]/(X^2 - X, Z^2, XZ - Z) under x->X, y->0, z->Z, t->X
    from hopfeq.freealgebra import free_alphabet

    R = B.char2_matrix(F2)
    p1 = frt.frt_commutative(R)
    XZ = free_alphabet("X", "Z")
    X = NCPoly.letter(XZ, F2, 0)
    Z = NCPoly.letter(XZ, F2, 1)
    p2 = frt.Presentation(
        alphabet=XZ, field=F2,
        relations=[(X * X - X).monic(), (Z * Z).monic(), (X * Z - Z).monic(),
                   (X * Z - Z * X).monic()],
    )
    forward = [X, NCPoly.zero(XZ, F2), Z, X]  # c11, c12, c21, c22
    backward = [gen(0, 0, F2), gen(1, 0, F2)]  # X -> c11, Z -> c21
    rep = RW.presentations_equivalent(p1, p2, forward, backward, max_degree=6)
    assert rep.equivalent


def test_presentation_rejects_nonzero_counit_relation():
    with pytest.raises(ValueError):
        frt.Presentation(alphabet=A2, field=QQ, relations=[gen(0, 0)])


# -- B(R) in one call -------------------------------------------------------------

# the chi fixtures, plus a lower bound and a completion capped at degree 8
BUILD_FIXTURES = CHI_FIXTURES + [("r_q:0", QQ), ("r_q:1", QQ)]
VARIANTS = {"plain": (False, False), "commutative": (True, False), "force": (False, True)}


def by_stages(R, commutative, force, max_degree):
    """The stages frt.build composes, each called on its own."""
    make = frt.frt_commutative if commutative else frt.frt_presentation
    pres = make(R, force=force)
    rs = RW.complete(pres.relations, max_degree, pres.alphabet, pres.field)
    rep = RW.dimension(rs, max_degree)
    return pres, rs, rep, RW.quotient_bialgebra(pres, rs, max_degree) if rep.is_finite() else None


def assert_build_agrees_with_stages(R, commutative, force, max_degree, built=None):
    """frt.build (or built, its result) against by_stages: the same JSON, the
    same dimension report and the same refusal. Where there are relations,
    their completion without the alphabet, as perfbench calls it, is the same
    system too."""
    try:
        pres, rs, rep, quo = by_stages(R, commutative, force, max_degree)
    except (frt.NotHopfSolutionError, frt.NotCommutativeSolutionError) as exc:
        with pytest.raises(type(exc)) as refused:
            frt.build(R, commutative, force, max_degree)
        assert str(refused.value) == str(exc)
        return
    built = built or frt.build(R, commutative, force, max_degree)
    assert built.presentation.to_json() == pres.to_json()
    assert built.system.to_json() == rs.to_json()
    assert built.dimension == rep
    assert (built.quotient and built.quotient.to_json()) == (quo and quo.to_json())
    assert built.annihilates_module is (False if force and not T.check_hopf(R) else None)
    if pres.relations:
        assert RW.complete(pres.relations, max_degree=max_degree).to_json() == rs.to_json()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fid,field", BUILD_FIXTURES, ids=[fid for fid, _ in BUILD_FIXTURES])
def test_build_agrees_with_its_stages_on_fixtures(fid, field, variant, request):
    # crossed_s3 under force is the session's build, read and not rebuilt
    built = request.getfixturevalue("crossed_s3_forced") \
        if (fid, variant) == ("crossed_s3", "force") else None
    assert_build_agrees_with_stages(build_fixture(fid, field), *VARIANTS[variant], 8, built)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("max_degree", range(1, 9))
def test_build_agrees_with_its_stages_at_every_degree(max_degree, variant):
    assert_build_agrees_with_stages(build_fixture("takesaki_c3", QQ), *VARIANTS[variant],
                                    max_degree)


@pytest.mark.parametrize("commutative", [False, True], ids=["chi", "commutative"])
def test_build_refuses_a_non_solution_before_any_stage(commutative, monkeypatch):
    for name in ("complete", "dimension", "quotient_bialgebra"):
        monkeypatch.setattr(RW, name, None)
    for fid in ("classical_yb:2", "crossed_s3"):
        with pytest.raises(frt.NotHopfSolutionError):
            frt.build(build_fixture(fid, QQ), commutative)


@pytest.mark.parametrize("max_degree", [0, -1])
def test_build_refuses_a_degree_cap_below_one_before_any_stage(max_degree, monkeypatch):
    # refused up front: no stage can give a meaningful report at such a cap
    R = build_fixture("takesaki_c2", QQ)
    for owner, name in ((frt, "frt_presentation"), (frt, "frt_commutative"),
                        (RW, "complete"), (RW, "dimension"), (RW, "quotient_bialgebra")):
        monkeypatch.setattr(owner, name, None)
    for commutative in (False, True):
        with pytest.raises(ValueError, match=f"max_degree must be >= 1, got {max_degree}"):
            frt.build(R, commutative, max_degree=max_degree)


def test_build_counts_the_free_algebra_of_the_zero_operator():
    # no chi relations: the system keeps the comatrix alphabet, so B(R) is
    # the free algebra on four letters, counted to word length 8
    built = frt.build(T.TensorOp(2, F2, [[F2.zero] * 4 for _ in range(4)]))
    assert built.presentation.relations == []
    assert built.system.alphabet == A2 and built.system.field == F2
    levels = [4 ** d for d in range(9)]
    assert built.dimension == RW.DimensionReport("lower_bound", sum(levels), levels, 8)
    assert built.quotient is None and built.annihilates_module is None
    # a completion given neither relations nor alphabet, as perfbench's
    # chain still asks for, only knows the empty word
    bare = RW.complete(built.presentation.relations, max_degree=8)
    assert RW.dimension(bare, 8) == RW.DimensionReport("lower_bound", 1, [1], 8)


# -- the unconditional identities ------------------------------------------------

@pytest.mark.parametrize("field,n", [(F5, 2), (QQ, 2), (F3, 3)],
                         ids=["F5-2", "Q2", "F3-3"])
def test_delta_chi_identity_random(field, n):
    rng = random.Random(42)
    for _ in range(5):
        R = T.random_tensorop(n, field, rng)
        assert frt.verify_delta_chi(R)
        assert frt.eps_chi_zero(R)


def test_delta_chi_on_rq1():
    assert frt.verify_delta_chi(B.r_q(Fraction(1), QQ))


def test_delta_chi_detects_perturbation():
    # perturbing one chi breaks the identity: recompute the (0,0,0,0) instance
    # with chi(0,0,0,0) + c11 and check the two sides now differ
    R = B.r_q(Fraction(1), QQ)
    indexed = frt.chi(R)
    i = j = k = l = 0
    perturbed = indexed[(0, 0, 0, 0)] + gen(0, 0)
    lhs = perturbed.delta()
    rhs = TensorPoly.zero(A2, QQ)
    for a in range(2):
        for b in range(2):
            src = perturbed if (a, b) == (k, l) else indexed[(i, j, a, b)]
            rhs = rhs + TensorPoly.of(src, gen(a, k) * gen(b, l))
    for p in range(2):
        src = perturbed if p == i else indexed[(p, j, k, l)]
        rhs = rhs + TensorPoly.of(gen(i, p), src)
    assert lhs != rhs


@pytest.mark.parametrize("field,n", [(F3, 2), (QQ, 2), (F5, 3)],
                         ids=["F3-2", "Q2", "F5-3"])
def test_defect_identity_random(field, n):
    rng = random.Random(43)
    for _ in range(5):
        R = T.random_tensorop(n, field, rng)
        assert frt.verify_defect_identity(R)


def test_defect_identity_sides_for_hopf_and_non_hopf():
    # Hopf solution: left side vanishes, so every chi annihilates V
    R = B.char2_matrix(F2)
    assert frt.verify_defect_identity(R)
    data = module_from_R(R)
    zero = linalg.zeros(F2, 2, 2)
    assert all(act_poly(p, data) == zero for p in frt.chi(R).values())
    # non-solution: the identity still holds and the left side is nonzero
    Y = B.classical_yb(Fraction(2), QQ)
    assert frt.verify_defect_identity(Y)
    dataY = module_from_R(Y)
    zeroQ = linalg.zeros(QQ, 2, 2)
    assert any(act_poly(p, dataY) != zeroQ for p in frt.chi(Y).values())


@pytest.mark.parametrize("field,n", [(QQ, 2), (F5, 2), (F3, 3)],
                         ids=["Q2", "F5-2", "F3-3"])
def test_commutator_identity_random(field, n):
    rng = random.Random(44)
    for _ in range(5):
        R = T.random_tensorop(n, field, rng)
        assert frt.verify_commutator_identity(R)


def test_commutator_identity_commutative_solution_vanishes():
    R = B.char2_matrix(F2)
    assert frt.verify_commutator_identity(R)
    r12, r13 = T.leg(R, 12), T.leg(R, 13)
    assert linalg.mat_mul(F2, r12, r13) == linalg.mat_mul(F2, r13, r12)


def test_commutator_identity_rq1():
    assert frt.verify_commutator_identity(B.r_q(Fraction(1), QQ))


# -- negative controls: each identity check must notice a broken side ------------

def _perturb_nth_call(fn, nth, change):
    """fn, with change applied to the result of its nth call (0-based)."""
    calls = []

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(None)
        return change(out) if len(calls) == nth + 1 else out

    return wrapped


@pytest.mark.parametrize("field,n", [(QQ, 2), (F5, 2), (F3, 3)], ids=["Q2", "F5-2", "F3-3"])
def test_defect_identity_notices_one_wrong_entry_of_act_poly(monkeypatch, field, n):
    # the fault is one wrong entry in one chi's action on V, injected where
    # the batched actions of every chi replace one act_poly per chi
    rng = random.Random(45)
    chi_actions = frt._chi_actions
    for _ in range(3):
        R = T.random_tensorop(n, field, rng)
        i, j, nth = rng.randrange(n), rng.randrange(n), rng.randrange(n ** 4)

        def broken(data):
            # entry (i, j) of the nth chi's action, in ints over d, gains one
            actions, d = chi_actions(data)
            actions[list(actions)[nth]][i * n + j] += d
            return actions, d

        with monkeypatch.context() as m:
            m.setattr(frt, "_chi_actions", broken)
            assert not frt.verify_defect_identity(R)
        assert frt.verify_defect_identity(R)


def _plus(indexed, field, n, idx, word, c):
    indexed[idx] = indexed[idx] + NCPoly(comatrix_alphabet(n), field, {word: c})


def _shift(indexed, field, n, kind, at, c):
    """indexed with c added to a whole family of coefficients, at = (i,j,u,v)
    for "x" and "xy", (j,k,l,w) for "y": "x" adds c c_uk c_vl to
    chi(i,j,k,l) for every (k,l), so X(i,j,u,v) moves and (4) breaks; "y"
    adds c c_iw to chi(i,j,k,l) for every i, so Y(j,k,l,w) moves and (4)
    breaks; "xy" is "x" plus -c c_pi in chi(p,j,u,v) for every p, the
    matching Y(j,u,v,i) shift, which keeps the coideal identity true."""
    V = range(n)
    if kind == "y":
        j, k, l, w = at
        for i in V:
            _plus(indexed, field, n, (i, j, k, l), (i * n + w,), c)
        return
    i, j, u, v = at
    for k, l in product(V, repeat=2):
        _plus(indexed, field, n, (i, j, k, l), (u * n + k, v * n + l), c)
    if kind == "xy":
        for p in V:
            _plus(indexed, field, n, (p, j, u, v), (p * n + i,), field.neg(c))


def _delta_chi_on(R, indexed):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(frt, "chi", lambda _: indexed)
        return frt.verify_delta_chi(R)


@pytest.mark.parametrize("field,n", [(QQ, 2), (F5, 2), (F3, 3)], ids=["Q2", "F5-2", "F3-3"])
def test_delta_chi_notices_one_dropped_term_of_delta(monkeypatch, field, n):
    # one dropped term of NCPoly.delta, which the oracle expands per chi;
    # verify_delta_chi reads coefficients, so it gets one negative control
    # per condition of its docstring instead
    rng = random.Random(46)
    delta = NCPoly.delta
    for _ in range(3):
        R = T.random_tensorop(n, field, rng)
        nth = rng.randrange(n ** 4)
        indexed = frt.chi(R)

        def change(tp):
            tp.terms.pop(next(iter(tp.terms)))
            return tp

        with monkeypatch.context() as m:
            m.setattr(NCPoly, "delta", _perturb_nth_call(delta, nth, change))
            assert not oracles.delta_chi_identity(indexed, n)
        assert oracles.delta_chi_identity(indexed, n)
        assert frt.verify_delta_chi(R)
        i, j, k, l, u, v = (rng.randrange(n) for _ in range(6))
        c = field.one
        controls = {
            "two letters off column k": ((i, j, k, l), (u * n + (k + 1) % n, v * n + l)),
            "one letter off row i": ((i, j, k, l), ((i + 1) % n * n + u,)),
            "no letter": ((i, j, k, l), ()),
            "three letters": ((i, j, k, l), (u * n + k, v * n + l, i * n + u)),
            # at the last (k,l), or the last i, only the equalities of (3) see it
            "shift at one (k,l)": ((i, j, n - 1, n - 1), (u * n + n - 1, v * n + n - 1)),
            "shift at one i": ((n - 1, j, k, l), ((n - 1) * n + u,)),
        }
        for name, (idx, word) in controls.items():
            bad = frt.chi(R)
            _plus(bad, field, n, idx, word, c)
            assert not _delta_chi_on(R, bad), name
            assert not oracles.delta_chi_identity(bad, n), name
        for kind, holds in (("x", False), ("y", False), ("xy", True)):
            shifted = frt.chi(R)
            _shift(shifted, field, n, kind, (i, j, u, v), c)
            assert _delta_chi_on(R, shifted) is holds, kind
            assert oracles.delta_chi_identity(shifted, n) is holds, kind


@pytest.mark.parametrize("field,n", [(QQ, 2), (F5, 2), (F3, 3)], ids=["Q2", "F5-2", "F3-3"])
def test_commutator_identity_notices_one_wrong_action_entry(monkeypatch, field, n):
    rng = random.Random(47)
    for _ in range(3):
        R = T.random_tensorop(n, field, rng)
        key = (rng.randrange(n), rng.randrange(n))
        i, v = rng.randrange(n), rng.randrange(n)

        def broken(R):
            data = module_from_R(R)
            mat = data.action[key]
            mat[i][v] = field.add(mat[i][v], field.one)
            return data

        with monkeypatch.context() as m:
            m.setattr(frt, "module_from_R", broken)
            assert not frt.verify_commutator_identity(R)
        assert frt.verify_commutator_identity(R)


# -- the block product of the letter matrices against act_word and act_poly -------

def _unflatten(field, n, flat, d):
    row = field.lower([flat], d)[0]
    return [row[i * n:(i + 1) * n] for i in range(n)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_product_and_batched_chi_actions_match_act_word_and_act_poly(data):
    field = data.draw(st.sampled_from([QQ, F2, F3, F5]), label="field")
    n = data.draw(st.integers(1, 3), label="n")
    R = T.random_tensorop(n, field, random.Random(data.draw(st.integers(0, 2**32))))
    module = module_from_R(R)
    words, d = HM._short_word_rows(module)
    letters = range(n * n)
    assert set(words) == {(a,) for a in letters} | set(product(letters, repeat=2))
    for w, flat in words.items():
        assert _unflatten(field, n, flat, d) == act_word(w, module)
    actions, d = frt._chi_actions(module)
    indexed = obstructions(module)
    assert list(actions) == list(indexed)
    for idx, poly in indexed.items():
        assert _unflatten(field, n, actions[idx], d) == act_poly(poly, module)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("check,products", [
    (frt.verify_defect_identity, 4),  # the block product, then 3 for the Hopf legs
    (frt.verify_commutator_identity, 3),  # the block product, then R^12 R^13 and R^13 R^12
], ids=["defect", "commutator"])
def test_identities_make_a_constant_number_of_lifted_products(monkeypatch, n, check, products):
    calls = []
    lifted_mul = linalg.lifted_mul

    def counting(a, b):
        calls.append(None)
        return lifted_mul(a, b)

    monkeypatch.setattr(linalg, "lifted_mul", counting)
    assert check(T.random_tensorop(n, QQ, random.Random(50)))
    assert len(calls) == products


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q3", "F3-3"])
def test_delta_chi_lifts_once_tests_once_and_expands_no_delta(monkeypatch, field):
    R = T.random_tensorop(3, field, random.Random(51))
    calls = {"delta": 0, "lift": 0, "lifted_is_zero": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counting(NCPoly, "delta")
    counting(type(field), "lift")
    counting(linalg, "lifted_is_zero")
    assert frt.verify_delta_chi(R)
    assert calls == {"delta": 0, "lift": 1, "lifted_is_zero": 1}


# -- the lifted coideal and counit checks against the scalar oracles -------------

# the (field, n) cells of acceptance criterion 05
CRITERION_05_CELLS = [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F5, 2), (F5, 3), (QQ, 2), (QQ, 3)]


def _nonzero_scalar(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    return st.integers(1, field.p - 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lifted_chi_identities_match_scalar_oracles(data):
    # random R in the criterion-05 cells, with one term of 0 to 3 letters
    # added to one chi, or one of the structured shifts of _shift, in most
    # draws: the lifted checks agree with the scalar ones
    field, n = data.draw(st.sampled_from(CRITERION_05_CELLS), label="cell")
    R = T.random_tensorop(n, field, random.Random(data.draw(st.integers(0, 2**32))))
    indexed = frt.chi(R)
    kind = data.draw(st.sampled_from([None, "word", "x", "y", "xy"]), label="perturb")
    if kind:
        idx = data.draw(st.sampled_from(sorted(indexed)), label="idx")
        c = data.draw(_nonzero_scalar(field), label="c")
        if kind == "word":
            word = tuple(data.draw(st.lists(st.integers(0, n * n - 1), max_size=3), label="word"))
            _plus(indexed, field, n, idx, word, c)
        else:
            _shift(indexed, field, n, kind, idx, c)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(frt, "chi", lambda _: indexed)
        got = frt.verify_delta_chi(R), frt.eps_chi_zero(R)
    assert got == (oracles.delta_chi_identity(indexed, n), oracles.eps_chi_identity(indexed))
    # (eps (x) id) of the coideal identity: sum_{a,b} eps(chi(i,j,a,b)) c_ak c_bl = 0
    assert not got[0] or oracles.eps_chi_identity(indexed)


@pytest.mark.parametrize("field", [QQ, F5, F3], ids=["Q3", "F5-3", "F3-3"])
def test_eps_chi_zero_notices_one_perturbed_diagonal_coefficient(monkeypatch, field):
    n = 3
    rng = random.Random(48)
    diagonal = [k * (n + 1) for k in range(n)]  # the letters c_11, c_22, c_33
    for _ in range(3):
        R = T.random_tensorop(n, field, rng)
        i, j, k, l = idx = tuple(rng.randrange(n) for _ in range(4))
        # chi(i,j,k,l) holds the diagonal words c_kk c_ll and c_ii
        word = rng.choice([(diagonal[k], diagonal[l]), (diagonal[i],)])
        indexed = frt.chi(R)
        indexed[idx] = indexed[idx] + NCPoly.word(comatrix_alphabet(n), field, word)
        with monkeypatch.context() as m:
            m.setattr(frt, "chi", lambda _: indexed)
            assert not frt.eps_chi_zero(R)
        assert not oracles.eps_chi_identity(indexed)
        assert frt.eps_chi_zero(R)


def _recording_lifted_is_zero(seen):
    lifted_is_zero = linalg.lifted_is_zero

    def record(field, a):
        seen.extend(x for row in a[0] for x in row)
        return lifted_is_zero(field, a)

    return record


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_lifted_sums_that_are_multiples_of_p_read_as_zero(monkeypatch, field):
    # over F_p the lifted coefficients are residues in [0, p), so a term
    # and its negative sum to p, not 0: both checks must lower their int
    # sums before testing them
    p, n = field.p, 3
    R = T.random_tensorop(n, field, random.Random(49))
    for check in (frt.verify_delta_chi, frt.eps_chi_zero):
        seen = []
        with monkeypatch.context() as m:
            m.setattr(linalg, "lifted_is_zero", _recording_lifted_is_zero(seen))
            assert check(R)
        assert any(seen) and all(x % p == 0 for x in seen)
    # one chi whose diagonal coefficients are 1 and p - 1
    alphabet = comatrix_alphabet(n)
    poly = NCPoly(alphabet, field, {(0,): 1, (0, 4): p - 1})
    monkeypatch.setattr(frt, "chi", lambda _: {(0, 0, 0, 0): poly})
    assert frt.eps_chi_zero(R)


def test_lifted_sums_over_q_cancel_over_one_denominator(monkeypatch):
    # chi with different denominators: a coefficient shared by two chi is
    # one int only if every chi is lifted over one common denominator
    n = 2
    R = T.TensorOp(n, QQ, [[Fraction(1, (2, 3, 5, 7)[r]) if r == c else QQ.zero
                            for c in range(4)] for r in range(4)])
    indexed = frt.chi(R)
    denominators = {QQ.lift([list(p.terms.values())])[1] for p in indexed.values()}
    assert len(denominators) > 1
    assert frt.verify_delta_chi(R) and frt.eps_chi_zero(R)
    # one chi whose diagonal coefficients 1/3, 1/6 and -1/2 cancel only
    # over their common denominator (the numerators sum to 1)
    alphabet = comatrix_alphabet(n)
    poly = NCPoly(alphabet, QQ, {(0,): Fraction(1, 3), (3,): Fraction(1, 6),
                                 (0, 3): Fraction(-1, 2)})
    monkeypatch.setattr(frt, "chi", lambda _: {(0, 0, 0, 0): poly})
    assert frt.eps_chi_zero(R)
    poly.terms[(0, 3)] = Fraction(-1, 3)
    assert not frt.eps_chi_zero(R)


# -- coideal ----------------------------------------------------------------------

def test_frt_presentations_pass_coideal():
    for R in (B.char2_matrix(F2), B.r_q(Fraction(0), QQ),
              B.r_q_prime(Fraction(1), QQ)):
        pres = frt.frt_presentation(R)
        rs = RW.complete(pres.relations, 8)
        assert RW.check_coideal(pres, rs)


def test_presentation_json_round_trip():
    pres = frt.frt_presentation(B.char2_matrix(F2))
    doc = json.loads(json.dumps(pres.to_json()))
    back = frt.Presentation.from_json(doc)
    assert back.relations == pres.relations
    assert back.commutative_closure == pres.commutative_closure
    assert back.alphabet == pres.alphabet
    assert len(pres.chi_origin) == 16
    assert back.chi_origin == pres.chi_origin
    assert all(type(idx) is tuple for idx in back.chi_origin)
    del doc["chi_origin"]  # a document written without the key reads as no origins
    assert frt.Presentation.from_json(doc).chi_origin == []


# the changes to a presentation document that from_json refuses, in its last
# relation or its header, by the message they raise
MISREADINGS = {
    "outside the 4 generators":
        lambda doc: doc["relations"][-1]["terms"].append([[0, 9], "1"]),
    r"\[0, 1\] is listed twice":
        lambda doc: doc["relations"][-1].update(terms=[[[0, 1], "1"], [[0, 1], "-1"]]),
    "comatrix_n 2 needs 4 generators, not 5": lambda doc: doc.update(generators=5),
}


@pytest.mark.parametrize("message", MISREADINGS)
def test_presentation_from_json_refuses_bad_input_up_front(message):
    doc = frt.frt_presentation(build_fixture("takesaki_c2", QQ)).to_json()
    MISREADINGS[message](doc)
    with mock.patch.object(frt, "NCPoly", side_effect=AssertionError("an NCPoly was built")):
        with pytest.raises(ValueError, match=message):
            frt.Presentation.from_json(doc)


# fixture ids; those ending in ":" take a scalar parameter
ROUND_TRIP_FIXTURES = ("identity:1", "identity:2", "r_q:", "r_q_prime:", "r_q_dblprime:",
                       "char2", "classical_yb:", "graded_c2", "takesaki_c2", "takesaki_c3",
                       "galois_c2", "galois_c3")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_presentation_json_round_trip_property(data):
    field = parse_field(data.draw(st.sampled_from(("q", "fp:2", "fp:3", "fp:5", "fp:7"))))
    fixture_id = data.draw(st.sampled_from(ROUND_TRIP_FIXTURES))
    if fixture_id.endswith(":"):
        q = data.draw(st.integers(-3, 3))
        assume(field.parse_scalar(str(q)) or fixture_id != "classical_yb:")  # needs q != 0
        fixture_id += str(q)
    make = data.draw(st.sampled_from((frt.frt_presentation, frt.frt_commutative)))
    pres = make(build_fixture(fixture_id, field), force=True)
    doc = json.loads(json.dumps(pres.to_json()))
    back = frt.Presentation.from_json(doc)
    assert back == pres
    assert back.to_json() == doc
