"""Acceptance suite: one test per criterion, each printing a PASS line once
every assertion in it has held. All comparisons are exact; run with
`pytest -v -s tests/test_acceptance.py` to see the lines."""

import random
from fractions import Fraction

import pytest

import oracles
from hopfeq import bialgebras as B, frt, hopfmodules as HM, linalg, rewriting as RW, tensorops as T
from hopfeq.fields import QQ, parse_field
from hopfeq.fixtures import build_fixture
from hopfeq.freealgebra import NCPoly, TensorPoly, comatrix_alphabet, free_alphabet

F2 = parse_field("fp:2")
F3 = parse_field("fp:3")
F5 = parse_field("fp:5")
A2 = comatrix_alphabet(2)


def gen(i, j, field=QQ, alphabet=A2):
    return NCPoly.generator(alphabet, field, i, j)


def report(k, text):
    print(f"ACCEPTANCE {k:02d} PASS: {text}")


def test_criterion_01_solution_verdict_table():
    # (hopf, qybe) verdicts; None marks a coordinate with no claim
    table = [
        ("identity:2", QQ, True, True),
        ("r_q:1", QQ, True, True),
        ("r_q_prime:1", QQ, True, True),
        ("r_q_dblprime:1", QQ, True, True),
        ("char2", F2, True, None),
        ("char2", QQ, False, None),
        ("classical_yb:2", QQ, False, True),
        ("graded_c2", QQ, True, False),
        ("crossed_s3", QQ, False, True),
        ("takesaki_c2", QQ, True, None),
        ("takesaki_c3", QQ, True, None),
        ("galois_c3", QQ, True, None),
    ]
    for fid, field, hopf, qybe in table:
        R = build_fixture(fid, field)
        assert T.check_hopf(R) == hopf, (fid, field.descriptor, "hopf")
        if qybe is not None:
            assert T.check_qybe(R) == qybe, (fid, field.descriptor, "qybe")
    report(1, "hopf/qybe verdicts match all twelve fixture claims")


def test_criterion_02_char2_five_dimensional_construction():
    built = frt.build(build_fixture("char2", F2))
    rs, dim_report, quo = built.system, built.dimension, built.quotient
    assert rs.status == "complete"
    assert dim_report.is_finite() and dim_report.count == 5
    assert B.check_bialgebra_axioms(quo).all_ok

    nf = lambda p: RW.normal_form(p, rs)
    one = NCPoly.one(A2, F2)
    x, y, z = gen(0, 0, F2), gen(0, 1, F2), gen(1, 0, F2)
    zy = z * y

    # {1, x, y, z, zy} is a basis: expand in the irreducible-word basis and
    # check the transition matrix is invertible
    words = quo.basis_words
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for p in (one, x, y, z, zy):
        vec = [F2.zero] * 5
        for w, c in nf(p).terms.items():
            vec[index[w]] = c
        rows.append(vec)
    assert linalg.rank(F2, rows) == 5

    # multiplication table of the proposition (char 2: -1 = 1)
    zero = NCPoly.zero(A2, F2)
    products = [
        (x * x, x), (y * y, zero), (z * z, zero), (y * x, zero), (y * z, zero),
        (x * y, y), (x * z, z), (z * x, z),
        (x * zy, zy), (zy * zy, zero), (zy * x, zero), (y * zy, zero),
        (zy * y, zero), (z * zy, zero), (zy * z, zero),
    ]
    for lhs, rhs in products:
        assert nf(lhs) == nf(rhs)

    # comultiplication: Delta(x) = x(x)x + y(x)z, Delta(y) = x(x)y + y(x)x + y(x)zy,
    # Delta(z) = z(x)x + x(x)z + zy(x)z
    nf_legs = lambda p: p.delta().map_legs(nf)
    tensor_of = lambda a, b: TensorPoly.of(nf(a), nf(b))
    assert nf_legs(x) == tensor_of(x, x) + tensor_of(y, z)
    assert nf_legs(y) == tensor_of(x, y) + tensor_of(y, x) + tensor_of(y, zy)
    assert nf_legs(z) == tensor_of(z, x) + tensor_of(x, z) + tensor_of(zy, z)
    assert x.eps() == F2.one and y.eps() == F2.zero and z.eps() == F2.zero
    report(2, "char-2 B(R) has dimension 5, basis {1,x,y,z,zy}, printed tables")


def _two_generator_presentation(field, relations):
    AB = free_alphabet("A", "B")
    a, b = NCPoly.letter(AB, field, 0), NCPoly.letter(AB, field, 1)
    rels = [r(a, b).monic() for r in relations]
    return frt.Presentation(alphabet=AB, field=field, relations=rels), a, b


def _check_family_equivalence(builder, target_rels, substitutions, q, field):
    R = builder(q, field)
    p1 = frt.frt_presentation(R)
    p2, a, b = _two_generator_presentation(field, target_rels)
    forward, backward = substitutions(a, b, q, field)
    rep = RW.presentations_equivalent(p1, p2, forward, backward, max_degree=6)
    assert rep.equivalent and not rep.undecided, (builder.__name__, q, field.descriptor)


def test_criterion_03_presentation_equivalences():
    AB_zero = lambda field: NCPoly.zero(free_alphabet("A", "B"), field)

    def subst_b(a, b, q, field):
        fwd = [(a * b).scale(field.inv(q)), b - a.scale(q),
               NCPoly.zero(a.alphabet, field), a]
        bwd = [gen(1, 1, field), gen(0, 1, field) + gen(1, 1, field).scale(q)]
        return fwd, bwd

    def subst_d(a, b, q, field):
        qinv = field.inv(q)
        fwd = [a * a - (b * a).scale(qinv), b,
               NCPoly.zero(a.alphabet, field), a - b.scale(qinv)]
        bwd = [gen(0, 1, field).scale(qinv) + gen(1, 1, field), gen(0, 1, field)]
        return fwd, bwd

    def subst_e(a, b, q, field):
        fwd = [b * b, (b - a).scale(q), NCPoly.zero(a.alphabet, field), a]
        bwd = [gen(1, 1, field), gen(1, 1, field) + gen(0, 1, field).scale(field.inv(q))]
        return fwd, bwd

    cases = [
        (B.r_q, [lambda a, b: a * a * b - a * b], subst_b, "B_q^2 = <A,B | A^2B-AB>"),
        (B.r_q_prime, [lambda a, b: a * a * a - a * a, lambda a, b: b * a],
         subst_d, "D_q^2 = <A,B | A^3-A^2, BA>"),
        (B.r_q_dblprime, [lambda a, b: b * b * b - b * b], subst_e,
         "E_q^2 = <A,B | B^3-B^2>"),
    ]
    for builder, target, subst, _name in cases:
        for q, field in ((Fraction(1), QQ), (Fraction(2), QQ), (3, F5)):
            _check_family_equivalence(builder, target, subst, q, field)
    report(3, "B/D/E_q^2 match their two-generator presentations at q=1,2 (Q) "
              "and q=3 (F_5), bidirectionally to degree 6")


def test_criterion_04_q0_presentations():
    ident2 = [NCPoly.letter(A2, QQ, k) for k in range(4)]
    x, z, c21, y = gen(0, 0), gen(0, 1), gen(1, 0), gen(1, 1)

    def ideal_equal(R, target_polys, alphabet=A2, n=2):
        p1 = frt.frt_presentation(R)
        p2 = frt.Presentation(alphabet=alphabet, field=QQ,
                              relations=[p.monic() for p in target_polys])
        ident = [NCPoly.letter(alphabet, QQ, k) for k in range(n * n)]
        rep = RW.presentations_equivalent(p1, p2, ident, ident, max_degree=6)
        return rep.equivalent and not rep.undecided

    # B_0^2: {c21, yx - x, yz}
    assert ideal_equal(B.r_q(Fraction(0), QQ), [c21, y * x - x, y * z])
    # D_0^2: {c21, x^2 - x, yx - x, zx, xz, z^2, yz}
    assert ideal_equal(B.r_q_prime(Fraction(0), QQ),
                       [c21, x * x - x, y * x - x, z * x, x * z, z * z, y * z])
    # E_0^2: {c21, x^2 - x, xz, zx, z^2}
    assert ideal_equal(B.r_q_dblprime(Fraction(0), QQ),
                       [c21, x * x - x, x * z, z * x, z * z])

    # B_0^3 = B(pi_1 (x) pi^1) on k^3: c_i1 = 0 (i >= 2) and
    # c_jk c_1l = delta_kj delta_l1 c_11 (j >= 2)
    A3 = comatrix_alphabet(3)
    g3 = lambda i, j: NCPoly.generator(A3, QQ, i, j)
    pi1 = T.EndoV(3, QQ, [[QQ.one if i == j == 0 else QQ.zero for j in range(3)]
                          for i in range(3)])
    pi_up = T.EndoV(3, QQ, [[QQ.one if (i == j and i > 0) else QQ.zero
                             for j in range(3)] for i in range(3)])
    R3 = T.pair_tensor(pi1, pi_up)
    target = [g3(i, 0) for i in range(1, 3)]
    for j in range(1, 3):
        for k in range(3):
            for l in range(3):
                rel = g3(j, k) * g3(0, l)
                if k == j and l == 0:
                    rel = rel - g3(0, 0)
                target.append(rel)
    assert ideal_equal(R3, target, alphabet=A3, n=3)
    report(4, "q=0 presentations of B/D/E_0^2 and B_0^3 are ideal-equal to the "
              "printed relation lists (degree 6)")


def test_criterion_05_unconditional_identities_500_random():
    allocation = [
        (F2, 2, 100), (F2, 3, 60),
        (F3, 2, 80), (F3, 3, 50),
        (F5, 2, 80), (F5, 3, 40),
        (QQ, 2, 60), (QQ, 3, 30),
    ]
    assert sum(cnt for _, _, cnt in allocation) == 500
    rng = random.Random(2024)
    for field, n, cnt in allocation:
        for _ in range(cnt):
            R = T.random_tensorop(n, field, rng)
            assert frt.verify_delta_chi(R)
            assert frt.eps_chi_zero(R)
            assert frt.verify_defect_identity(R)
            assert frt.verify_commutator_identity(R)
    report(5, "Delta(chi), eps(chi)=0, defect and commutator identities hold on "
              "500 random operators over {Q, F2, F3, F5}, n in {2,3}")


HOPF_FIXTURES = [
    ("identity:2", QQ),
    ("r_q:1", QQ),
    ("r_q_prime:1", QQ),
    ("r_q_dblprime:1", QQ),
    ("char2", F2),
    ("graded_c2", QQ),
    ("takesaki_c2", QQ),
    ("takesaki_c3", QQ),
    ("galois_c3", QQ),
]

ALL_FIXTURES = HOPF_FIXTURES + [
    ("char2", QQ),
    ("classical_yb:2", QQ),
    ("crossed_s3", QQ),
]


def test_criterion_06_round_trip_and_hopf_module_structure():
    for fid, field in ALL_FIXTURES:
        R = build_fixture(fid, field)
        assert HM.induced_R(HM.module_from_R(R)) == R, fid
    rng = random.Random(2025)
    samples = [(F3, 2, 100), (F5, 2, 50), (QQ, 2, 30), (F3, 3, 20)]
    assert sum(c for _, _, c in samples) == 200
    for field, n, cnt in samples:
        for _ in range(cnt):
            R = T.random_tensorop(n, field, rng)
            assert HM.induced_R(HM.module_from_R(R)) == R
    for fid, field in HOPF_FIXTURES:
        R = build_fixture(fid, field)
        pres = frt.frt_presentation(R)
        rs = RW.complete(pres.relations, 4)
        data = HM.module_from_R(R)
        assert HM.check_hopf_compat(data, rs), fid
        assert oracles.check_annihilation(pres, data), fid
    report(6, "induced_R(module_from_R(R)) = R on all fixtures and 200 random "
              "operators; Hopf compatibility and annihilation hold on every B(R)")


def test_criterion_07_equivalence_propositions_200_samples():
    rng = random.Random(2026)
    samples = [(F5, 2, 60), (F3, 2, 60), (QQ, 2, 40), (F3, 3, 40)]
    assert sum(c for _, _, c in samples) == 200
    # hopf(R) <=> pentagon(tau R tau), and positive instances among fixtures
    for field, n, cnt in samples:
        tau = T.switch(n, field)
        for _ in range(cnt):
            R = T.random_tensorop(n, field, rng)
            assert T.check_hopf(R) == T.check_pentagon(T.transform(R, tau, tau))
    # the two tau13 operator identities for ALL R
    for field, n, cnt in samples:
        tau = T.switch(n, field)
        tau12, tau13 = T.leg(tau, 12), T.leg(tau, 13)
        mm = lambda a, b: linalg.mat_mul(field, a, b)
        for _ in range(cnt):
            R = T.random_tensorop(n, field, rng)
            Top = T.TensorOp(n, field, mm(tau.entries, R.entries))
            t12, t23 = T.leg(Top, 12), T.leg(Top, 23)
            r12, r13, r23 = T.leg(R, 12), T.leg(R, 13), T.leg(R, 23)
            assert mm(mm(t12, t23), t12) == mm(tau13, mm(mm(r23, r13), r12))
            assert mm(mm(t23, tau12), t23) == mm(tau13, mm(r12, r23))
    # f (x) I solves Hopf iff f is idempotent
    for field, n, cnt in samples:
        I = T.EndoV(n, field, linalg.identity(field, n))
        for _ in range(cnt):
            f = oracles.random_endo(n, field, rng)
            idem = linalg.mat_mul(field, f.entries, f.entries) == f.entries
            assert T.check_hopf(T.pair_tensor(f, I)) == idem
    report(7, "hopf <=> pentagon-of-flip, both tau13 operator identities, and the "
              "idempotent characterization hold on 200 random samples each")


def test_criterion_08_derived_dimensions():
    # commutative variant of the char-2 solution: dimension 3
    built = frt.build(build_fixture("char2", F2), commutative=True)
    rs, rep = built.system, built.dimension
    assert rs.status == "complete" and rep.is_finite() and rep.count == 3

    # T(k): dimension 3 with Delta(z) = x (x) z + z (x) 1
    x, z, c21, y = gen(0, 0), gen(0, 1), gen(1, 0), gen(1, 1)
    tk = [x * x - x, x * z, z * x, z * z, c21, y - NCPoly.one(A2, QQ)]
    pres_tk = frt.Presentation(alphabet=A2, field=QQ,
                               relations=[r.monic() for r in tk])
    assert pres_tk.coideal_certificate() is None  # hand-presented: check_coideal decides
    rs_tk = RW.complete(pres_tk.relations, 8)
    rep_tk = RW.dimension(rs_tk, 8)
    assert rep_tk.is_finite() and rep_tk.count == 3
    quo = RW.quotient_bialgebra(pres_tk, rs_tk)
    ix = {name: k for k, name in enumerate(quo.basis_labels)}
    dz = quo.comult[ix["c[1,2]"]]
    want = {(ix["c[1,1]"], ix["c[1,2]"]): QQ.one, (ix["c[1,2]"], ix["1"]): QQ.one}
    assert dz == want

    # y^n = y family: exponents 3 and 4 give dimensions 7 and 9
    for e, dim in ((3, 7), (4, 9)):
        ye = y
        for _ in range(e - 1):
            ye = ye * y
        rels = [x * x - x, x * z, z * x, z * z, z * y, ye - y,
                x * y - x, y * x - x, c21]
        pres_b = frt.Presentation(alphabet=A2, field=QQ,
                                  relations=[r.monic() for r in rels])
        rs_b = RW.complete(pres_b.relations, 10)
        rep_b = RW.dimension(rs_b, 10)
        assert rs_b.status == "complete"
        assert rep_b.is_finite() and rep_b.count == dim
    report(8, "commutative char-2 variant has dimension 3, T(k) has dimension 3 "
              "with Delta(z) = x(x)z + z(x)1, and the y^n = y family reaches "
              "dimensions 7 and 9")


def test_criterion_09_universal_property():
    # identity morphism from the five-dimensional B(R) presentation to its quotient
    R = build_fixture("char2", F2)
    built = frt.build(R)
    pres, rs, quo = built.presentation, built.system, built.quotient
    data = HM.module_from_R(R)
    bm, assignment = HM.quotient_hopf_module(pres, rs, quo, data)
    assert HM.verify_morphism(pres, quo, bm, assignment, source_data=data)

    # B(takesaki(k[C2])) -> k[C2] with the grouplike assignment
    H = B.group_algebra(2, QQ)
    Rt = B.takesaki(H)
    pres_t = frt.frt_presentation(Rt)
    bm_t = HM.regular_hopf_module(H)
    one, g = H.basis_vector(0), H.basis_vector(1)
    zero = [QQ.zero, QQ.zero]
    assignment_t = {(0, 0): one, (0, 1): zero, (1, 0): zero, (1, 1): g}
    assert HM.verify_morphism(pres_t, H, bm_t, assignment_t,
                              source_data=HM.module_from_R(Rt))
    report(9, "universal property verified for B(R) -> B(R) and "
              "B(takesaki(k[C2])) -> k[C2]")


def test_criterion_10_enumeration_integrity():
    sols = T.enumerate_solutions(2, F2, "hopf")
    assert all(T.check_hopf(S) for S in sols)
    rescan = oracles.hopf_rescan_count(2, 2)
    assert len(sols) == rescan
    report(10, f"n=2 over F_2: matrix-product enumeration and the scalar-system "
               f"rescan both count {rescan} Hopf solutions out of 65536")
