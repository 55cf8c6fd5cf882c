import copy
import gc
import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from bialgebra_examples import group_algebra_s3, sweedler_h4
from hopfeq import bialgebras as B, frt, hopfmodules as HM, linalg, rewriting as RW, tensorops as T
from hopfeq.fields import QQ, parse_field
from hopfeq.fixtures import build_fixture
from hopfeq.freealgebra import NCPoly, comatrix_alphabet

F2 = parse_field("fp:2")
F3 = parse_field("fp:3")
A2 = comatrix_alphabet(2)

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


# -- action ------------------------------------------------------------------

def test_identity_action_pattern():
    # for R = I: x[u][v][j][i] = delta_iv delta_ju, so c_ju acts as delta_ju I
    data = HM.module_from_R(T.identity_op(2, QQ))
    I2 = linalg.identity(QQ, 2)
    Z2 = linalg.zeros(QQ, 2, 2)
    assert data.action[(0, 0)] == I2
    assert data.action[(1, 1)] == I2
    assert data.action[(0, 1)] == Z2
    assert data.action[(1, 0)] == Z2


def test_rq_action_constants():
    q = Fraction(3)
    data = HM.module_from_R(B.r_q(q, QQ))
    # c22.m2 = q m1 (from x_22^21 = q); c12.m2 = -q^2 m1 (from x_22^11 = -q^2)
    assert data.action[(1, 1)][0][1] == q
    assert data.action[(0, 1)][0][1] == -q * q
    # c21 acts as zero for every q
    assert data.action[(1, 0)] == linalg.zeros(QQ, 2, 2)


def test_action_is_read_off_the_structure_constants():
    # (c_ju . m_v)_i = x[u][v][j][i], read off R.entries without the array
    rng = random.Random(60)
    ops = [build_fixture(fid, field) for fid, field in HOPF_FIXTURES + [("crossed_s3", QQ)]]
    ops += [T.random_tensorop(n, field, rng) for field in (F2, F3, QQ) for n in (1, 2, 3)]
    for R in ops:
        x = oracles.structure_constants(R)
        action = HM.module_from_R(R).action
        assert all(action[(j, u)][i][v] == x[u][v][j][i]
                   for j, u, i, v in product(range(R.n), repeat=4))


def test_act_word_homomorphism():
    data = HM.module_from_R(B.r_q(Fraction(1), QQ))
    assert HM.act_word((), data) == linalg.identity(QQ, 2)
    w1, w2 = (0, 1), (3,)
    lhs = HM.act_word(w1 + w2, data)
    rhs = linalg.mat_mul(QQ, HM.act_word(w1, data), HM.act_word(w2, data))
    assert lhs == rhs


@pytest.mark.parametrize("field,n", [(QQ, 2), (F3, 3)], ids=["Q2", "F3-3"])
def test_memoised_act_word_matches_left_to_right_product(field, n):
    rng = random.Random(51)
    data = HM.module_from_R(T.random_tensorop(n, field, rng))
    memo = {}  # shared by every word, as in oracles.check_annihilation
    for _ in range(60):
        w = tuple(rng.randrange(n * n) for _ in range(rng.randrange(6)))
        want = oracles.identity(field, n)
        for k in w:
            want = oracles.naive_mat_mul(field, want, data.action[divmod(k, n)])
        assert HM.act_word(w, data, memo) == want
        assert HM.act_word(w, data) == want
    # a one-letter word gets a copy, not the module's own action matrix
    assert HM.act_word((0,), data, memo) is not data.action[(0, 0)]


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_act_word_memo_is_lifted_and_results_are_fresh(field):
    rng = random.Random(53)
    R = T.random_tensorop(2, field, rng)
    data = HM.module_from_R(R)
    memo = {}
    w = (1, 2, 3)
    want = HM.act_word(w, data)
    got = HM.act_word(w, data, memo)
    assert got == want
    # the memo holds (ints, d) pairs for every prefix and every letter
    assert {(1,), (1, 2), (1, 2, 3), (2,), (3,)} <= set(memo)
    for ints, d in memo.values():
        assert type(d) is int and d > 0
        assert all(type(x) is int for row in ints for x in row)
    assert field.lower(*memo[w]) == want
    # changing a returned matrix changes neither the memo nor later results
    got[0][0] = field.add(got[0][0], field.one)
    assert HM.act_word(w, data, memo) == want
    assert HM.act_word(w, data, memo) is not HM.act_word(w, data, memo)
    poly = NCPoly(A2, field, {w: field.one})
    assert HM.act_poly(poly, data, memo) == want
    HM.act_poly(poly, data, memo)[1][1] = field.one
    assert HM.act_word(w, data, memo) == want


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_act_word_on_a_long_word_is_the_repeated_product(field):
    # 3,000 letters: more prefixes than the interpreter's recursion limit
    rng = random.Random(57)
    data = HM.module_from_R(T.random_tensorop(2, field, rng))
    w = tuple(rng.randrange(4) for _ in range(3000))
    want = oracles.identity(field, 2)
    for k in w:
        want = oracles.naive_mat_mul(field, want, data.action[divmod(k, 2)])
    assert HM.act_word(w, data) == want


def test_act_poly_with_memo_matches_term_by_term():
    rng = random.Random(52)
    R = T.random_tensorop(2, QQ, rng)
    data = HM.module_from_R(R)
    memo = {}
    for poly in frt.chi(R).values():
        want = linalg.zeros(QQ, 2, 2)
        for w, c in poly.terms.items():
            want = oracles.mat_add(QQ, want, oracles.mat_scale(QQ, c, HM.act_word(w, data)))
        assert HM.act_poly(poly, data, memo) == want
    assert HM.act_poly(NCPoly.zero(A2, QQ), data) == linalg.zeros(QQ, 2, 2)


def test_act_poly_linear():
    data = HM.module_from_R(B.r_q(Fraction(1), QQ))
    p = NCPoly.generator(A2, QQ, 0, 0) * NCPoly.generator(A2, QQ, 1, 1)
    q = NCPoly.generator(A2, QQ, 1, 1)
    lhs = HM.act_poly(p + q.scale(Fraction(2)), data)
    rhs = oracles.mat_add(QQ, HM.act_poly(p, data),
                         oracles.mat_scale(QQ, Fraction(2), HM.act_poly(q, data)))
    assert lhs == rhs


def test_chi_annihilates_for_char2():
    R = B.char2_matrix(F2)
    data = HM.module_from_R(R)
    zero = linalg.zeros(F2, 2, 2)
    assert all(HM.act_poly(p, data) == zero for p in frt.chi(R).values())


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_obstructions_of_a_changed_action_are_chi_of_its_induced_R(field):
    # the obstructions are read off any action: changing one entry gives the
    # chi of the operator that the changed action induces, term order and all
    rng = random.Random(63)
    for n in (1, 2, 3):
        R = T.random_tensorop(n, field, rng)
        data = HM.module_from_R(R)
        mat = data.action[(rng.randrange(n), rng.randrange(n))]
        i, v = rng.randrange(n), rng.randrange(n)
        mat[i][v] = field.add(mat[i][v], field.one)
        got = HM.obstructions(data)
        want = frt.chi(HM.induced_R(data))
        assert [(k, list(p.terms.items())) for k, p in got.items()] == \
            [(k, list(p.terms.items())) for k, p in want.items()]
        assert got != frt.chi(R)


# -- induced operator -----------------------------------------------------------

def test_induced_round_trip_fixtures():
    for fid, field in HOPF_FIXTURES + [("classical_yb:2", QQ), ("crossed_s3", QQ)]:
        R = build_fixture(fid, field)
        assert HM.induced_R(HM.module_from_R(R)) == R


def test_induced_round_trip_random():
    rng = random.Random(61)
    for _ in range(200):
        R = T.random_tensorop(2, F3, rng)
        assert HM.induced_R(HM.module_from_R(R)) == R


def test_takesaki_equals_regular_module_induction():
    # the regular module induces h_(2) g (x) h_(1), Takesaki's map is
    # h_(1) g (x) h_(2): they agree because k[C_m] is cocommutative
    for m in (2, 3, 4):
        H = B.group_algebra(m, QQ)
        bm = HM.regular_hopf_module(H)
        assert HM.check_hopf_compat_bialgebra(bm)
        assert HM.induced_R(bm) == B.takesaki(H)


# -- compatibility and annihilation ------------------------------------------------

def compat_case(fid, field, max_degree=8, force=False):
    R = build_fixture(fid, field)
    pres = frt.frt_presentation(R, force=force)
    rs = RW.complete(pres.relations, max_degree, pres.alphabet, pres.field)
    return HM.module_from_R(R), rs


@pytest.mark.parametrize("fid,field,max_degree,force,status", [
    ("char2", F2, 8, False, "complete"),
    ("r_q:0", QQ, 8, False, "complete"),
    ("takesaki_c3", QQ, 8, False, "complete"),
    ("crossed_s3", QQ, 8, True, "complete"),
    ("r_q:1", QQ, 3, False, "capped"),
], ids=["char2", "r_q0", "takesaki_c3", "crossed_s3", "r_q1-capped"])
def test_hopf_compat_on_presented_quotients(fid, field, max_degree, force, status):
    # one normal form per obstruction against two per coordinate, side by side
    data, rs = compat_case(fid, field, max_degree, force)
    assert rs.status == status
    assert HM.check_hopf_compat(data, rs)
    assert oracles.two_sided_hopf_compat(data, rs)


def test_hopf_compat_detects_corruption():
    R = build_fixture("char2", F2)
    pres = frt.frt_presentation(R)
    rs = RW.complete(pres.relations, 8)
    data = HM.module_from_R(R)
    data.action[(0, 0)] = [[F2.one, F2.one], [F2.zero, F2.one]]
    assert not HM.check_hopf_compat(data, rs)


@pytest.mark.parametrize("fid,field,rejected", [
    ("char2", F2, 16),
    ("takesaki_c2", F3, 16),
    ("graded_c2", QQ, 16),
    ("r_q:0", QQ, 14),  # its 3 rules leave room for two of the changes
], ids=["char2-F2", "takesaki_c2-F3", "graded_c2-Q", "r_q0-Q"])
def test_hopf_compat_on_one_entry_action_changes(fid, field, rejected):
    data, rs = compat_case(fid, field)
    n = data.n
    verdicts = []
    for j, u, i, v in product(range(n), repeat=4):
        changed = copy.deepcopy(data)
        mat = changed.action[(j, u)]
        mat[i][v] = field.add(mat[i][v], field.one)
        verdict = HM.check_hopf_compat(changed, rs)
        assert verdict is oracles.two_sided_hopf_compat(changed, rs), (j, u, i, v)
        verdicts.append(verdict)
    assert verdicts.count(False) == rejected


def test_hopf_compat_takes_one_normal_form_per_obstruction(monkeypatch):
    data, rs = compat_case("takesaki_c3", QQ)
    calls = []

    def counted(p, rs):
        calls.append(p)
        return RW.normal_form(p, rs)

    monkeypatch.setattr(HM, "normal_form", counted)
    assert HM.check_hopf_compat(data, rs)
    assert len(calls) == data.n ** 4


def test_annihilation_claims():
    for fid, field in HOPF_FIXTURES:
        R = build_fixture(fid, field)
        pres = frt.frt_presentation(R)
        assert oracles.check_annihilation(pres, HM.module_from_R(R)), fid
    # non-solution under the override: annihilation fails
    Y = build_fixture("classical_yb:2", QQ)
    presY = frt.frt_presentation(Y, force=True)
    assert not oracles.check_annihilation(presY, HM.module_from_R(Y))
    # empty presentation annihilates trivially
    empty = frt.Presentation(alphabet=A2, field=QQ, relations=[])
    assert oracles.check_annihilation(empty, HM.module_from_R(build_fixture("identity:2", QQ)))


@pytest.mark.parametrize("field,n", [(F2, 2), (F3, 2), (QQ, 2), (F2, 3), (F3, 3), (QQ, 3)],
                         ids=["F2-2", "F3-2", "Q2", "F2-3", "F3-3", "Q3"])
def test_annihilation_of_a_non_solution_is_its_hopf_verdict(field, n):
    # frt --force writes annihilates_module from check_hopf alone: by the
    # defect identity the chi act on V as the Hopf defect of R
    rng = random.Random(80 + n)
    for _ in range(3):
        R = T.random_tensorop(n, field, rng)
        while T.check_hopf(R):
            R = T.random_tensorop(n, field, rng)
        assert frt.verify_defect_identity(R)
        data = HM.module_from_R(R)
        for make in (frt.frt_presentation, frt.frt_commutative):
            assert oracles.check_annihilation(make(R, force=True), data) == T.check_hopf(R)


def test_compat_implies_induced_solves_hopf():
    # honest Hopf modules: regular modules plus the canonical quotient modules
    for m in (2, 3):
        bm = HM.regular_hopf_module(B.group_algebra(m, QQ))
        assert HM.check_hopf_compat_bialgebra(bm)
        assert T.check_hopf(HM.induced_R(bm))
    R = build_fixture("char2", F2)
    pres = frt.frt_presentation(R)
    rs = RW.complete(pres.relations, 8)
    quo = RW.quotient_bialgebra(pres, rs)
    bm, _ = HM.quotient_hopf_module(pres, rs, quo, HM.module_from_R(R))
    assert HM.check_hopf_compat_bialgebra(bm)
    assert T.check_hopf(HM.induced_R(bm))


def test_commutative_bialgebra_induces_commutative_solution():
    for m in (2, 3, 4):
        H = B.group_algebra(m, QQ)
        assert H.is_commutative()
        bm = HM.regular_hopf_module(H)
        assert T.check_commutative(HM.induced_R(bm))


def test_compat_on_generators_extends_to_short_words():
    # the subalgebra argument in action: once generators pass, words do too
    R = build_fixture("char2", F2)
    pres = frt.frt_presentation(R)
    rs = RW.complete(pres.relations, 8)
    data = HM.module_from_R(R)
    assert HM.check_hopf_compat(data, rs)
    nf = lambda p: RW.normal_form(p, rs)
    n = 2
    rng = random.Random(62)
    for _ in range(20):
        w = tuple(rng.randrange(4) for _ in range(rng.randint(2, 3)))
        for l in range(n):
            for target in range(n):
                lhs = NCPoly.zero(A2, F2)
                act = HM.act_word(w, data)
                for i in range(n):
                    if act[i][l] != F2.zero:
                        lhs = lhs + NCPoly(A2, F2, {(target * n + i,): act[i][l]})
                rhs = NCPoly.zero(A2, F2)
                dw = NCPoly.word(A2, F2, w).delta()
                for (w1, w2), c in dw.terms.items():
                    a1 = HM.act_word(w1, data)
                    for v in range(n):
                        if a1[target][v] != F2.zero:
                            coeff = F2.mul(c, a1[target][v])
                            rhs = rhs + NCPoly.word(A2, F2, w2 + (v * n + l,)).scale(coeff)
                assert nf(lhs) == nf(rhs)


# -- universal property ---------------------------------------------------------------

def test_morphism_to_own_quotient():
    R = build_fixture("char2", F2)
    pres = frt.frt_presentation(R)
    rs = RW.complete(pres.relations, 8)
    quo = RW.quotient_bialgebra(pres, rs)
    data = HM.module_from_R(R)
    bm, assignment = HM.quotient_hopf_module(pres, rs, quo, data)
    assert HM.verify_morphism(pres, quo, bm, assignment, source_data=data)


def test_morphism_check_leaves_no_reference_cycle():
    # clause (a) memoises the word images in a loop, not in a closure that
    # calls itself, so nothing waits for the cyclic collector
    R = build_fixture("takesaki_c3", QQ)
    pres = frt.frt_presentation(R)
    rs = RW.complete(pres.relations, 8, pres.alphabet, pres.field)
    quo = RW.quotient_bialgebra(pres, rs)
    data = HM.module_from_R(R)
    bm, assignment = HM.quotient_hopf_module(pres, rs, quo, data)
    gc.collect()
    gc.disable()
    try:
        holds = HM.verify_morphism(pres, quo, bm, assignment, source_data=data)
        cyclic = gc.collect()
    finally:
        gc.enable()
    assert holds
    assert cyclic == 0


def test_morphism_takesaki_to_group_algebra():
    H = B.group_algebra(2, QQ)
    R = B.takesaki(H)
    pres = frt.frt_presentation(R)
    bm = HM.regular_hopf_module(H)
    one, g = H.basis_vector(0), H.basis_vector(1)
    zero = [QQ.zero, QQ.zero]
    assignment = {(0, 0): one, (0, 1): zero, (1, 0): zero, (1, 1): g}
    assert HM.verify_morphism(pres, H, bm, assignment,
                              source_data=HM.module_from_R(R))


def test_morphism_rejects_eps_violation():
    H = B.group_algebra(2, QQ)
    R = B.takesaki(H)
    pres = frt.frt_presentation(R)
    bm = HM.regular_hopf_module(H)
    zero = [QQ.zero, QQ.zero]
    bad = {(0, 0): zero, (0, 1): zero, (1, 0): zero, (1, 1): H.basis_vector(1)}
    assert not HM.verify_morphism(pres, H, bm, bad)


def test_morphism_rejects_wrong_coaction():
    H = B.group_algebra(2, QQ)
    R = B.takesaki(H)
    pres = frt.frt_presentation(R)
    bm = HM.regular_hopf_module(H)
    one, g = H.basis_vector(0), H.basis_vector(1)
    zero = [QQ.zero, QQ.zero]
    swapped = {(0, 0): g, (0, 1): zero, (1, 0): zero, (1, 1): one}
    assert not HM.verify_morphism(pres, H, bm, swapped)


def test_hopf_module_json():
    data = HM.module_from_R(build_fixture("r_q:1", QQ))
    doc = data.to_json()
    assert doc["n"] == 2 and "c[1,1]" in doc["action"]


def failing_clauses(*args):
    """The universal-property clauses the dense oracle finds false."""
    return [name for name, ok in oracles.naive_morphism_clauses(*args).items() if ok is False]


def test_morphism_rejects_relations_not_annihilated():
    # clause (a) alone: the Takesaki assignment is a comatrix and the coaction
    # of the regular module, but sends c11 - c22 to 1 - g
    H = B.group_algebra(2, QQ)
    bm = HM.regular_hopf_module(H)
    assignment = {(0, 0): H.basis_vector(0), (0, 1): [QQ.zero] * 2,
                  (1, 0): [QQ.zero] * 2, (1, 1): H.basis_vector(1)}
    c = lambda i, j: NCPoly.generator(A2, QQ, i, j)
    empty = frt.Presentation(alphabet=A2, field=QQ, relations=[])
    pres = frt.Presentation(alphabet=A2, field=QQ, relations=[c(0, 0) - c(1, 1)])
    assert HM.verify_morphism(empty, H, bm, assignment)
    assert not HM.verify_morphism(pres, H, bm, assignment)
    assert failing_clauses(pres, H, bm, assignment) == ["relations"]


@pytest.mark.parametrize("clause", ["delta", "eps"])
def test_morphism_rejects_comatrix_violation(clause):
    # clause (b) alone: no relations, and the module's coaction is the
    # assignment. c12 -> g - 1 keeps every counit, but Delta(g - 1) =
    # g (x) g - 1 (x) 1 is not 1 (x) (g - 1) + (g - 1) (x) 1; c_jk -> 0
    # keeps Delta, but eps(0) is not 1
    H = B.group_algebra(2, QQ)
    one, zero = H.basis_vector(0), [QQ.zero] * 2
    good = {(0, 0): one, (0, 1): zero, (1, 0): zero, (1, 1): one}
    bad = {**good, (0, 1): [QQ.from_int(-1), QQ.one]} if clause == "delta" \
        else dict.fromkeys(good, zero)
    empty = frt.Presentation(alphabet=A2, field=QQ, relations=[])
    regular = HM.regular_hopf_module(H)

    def module(assignment):
        coelems = [[assignment[(v, l)] for l in range(2)] for v in range(2)]
        return HM.BialgebraHopfModule(H, 2, QQ, regular.basis_action, coelems)

    assert HM.verify_morphism(empty, H, module(good), good)
    assert not HM.verify_morphism(empty, H, module(bad), bad)
    assert failing_clauses(empty, H, module(bad), bad) == [clause]


def test_morphism_rejects_action_mismatch():
    # clause (c) alone, in the action: the canonical morphism from B(R) to H,
    # against a source module with one entry changed
    H = B.group_algebra(2, QQ)
    R = B.takesaki(H)
    pres = frt.frt_presentation(R)
    bm = HM.regular_hopf_module(H)
    one, g, zero = H.basis_vector(0), H.basis_vector(1), [QQ.zero] * 2
    assignment = {(0, 0): one, (0, 1): zero, (1, 0): zero, (1, 1): g}
    data = HM.module_from_R(R)
    data.action[(1, 1)] = [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]]
    assert HM.verify_morphism(pres, H, bm, assignment)
    assert not HM.verify_morphism(pres, H, bm, assignment, source_data=data)
    assert failing_clauses(pres, H, bm, assignment, data) == ["action"]


# -- a noncommutative, noncocommutative Hopf algebra ----------------------------

def regular_induced_by_formula(H):
    """R(g (x) h) = sum h_(2) g (x) h_(1) on H (x) H, from the tables."""
    f, dim = H.field, H.dim
    ent = [[f.zero] * (dim * dim) for _ in range(dim * dim)]
    for a in range(dim):
        for b in range(dim):
            for u in range(dim):
                for v in range(dim):
                    for i in range(dim):
                        row = i * dim + u
                        ent[row][a * dim + b] = f.add(
                            ent[row][a * dim + b],
                            f.mul(H.comult[b][u][v], H.mult[v][a][i]))
    return T.TensorOp(dim, f, ent)


@pytest.mark.parametrize("fd", ["q", "fp:3"])
def test_sweedler_h4_regular_hopf_module(fd):
    H = sweedler_h4(parse_field(fd))
    assert not H.is_commutative() and not H.is_cocommutative()
    bm = HM.regular_hopf_module(H)
    assert HM.check_hopf_compat_bialgebra(bm)
    R = HM.induced_R(bm)
    assert R == regular_induced_by_formula(H)
    assert R != B.takesaki(H)
    assert T.check_hopf(R)


# -- against the dense oracles ---------------------------------------------------

def quotient_case(R, pres=None, rs=None):
    """(source, target, module, assignment, source module) of the canonical
    morphism B(R) -> B(R), or None when B(R) is not known finite; pres and
    rs, when given, are frt_presentation(R) and its completion."""
    if pres is None:
        pres = frt.frt_presentation(R)
        rs = RW.complete(pres.relations, 8)
    if not RW.dimension(rs, 8).is_finite():
        return None
    quo = RW.quotient_bialgebra(pres, rs, 8)
    data = HM.module_from_R(R)
    bm, assignment = HM.quotient_hopf_module(pres, rs, quo, data)
    return pres, quo, bm, assignment, data


def regular_case(H):
    """The canonical morphism B(R) -> H of the regular module of H, with R
    built by the oracle."""
    bm = HM.regular_hopf_module(H)
    R = T.TensorOp(H.dim, H.field, oracles.naive_induced_R(bm))
    assignment = {(v, l): bm.coelems[v][l] for v in range(H.dim) for l in range(H.dim)}
    return frt.frt_presentation(R), H, bm, assignment, HM.module_from_R(R)


@pytest.fixture(scope="module")
def oracle_cases(f2_hopf_systems):
    F7 = parse_field("fp:7")
    f2 = [case for case in (quotient_case(*system) for system in f2_hopf_systems)
          if case is not None]
    assert len(f2) == 55
    fixtures = [quotient_case(build_fixture(fid, parse_field(fd))) for fid, fd in (
        ("identity:2", "q"), ("char2", "fp:2"), ("graded_c2", "q"), ("takesaki_c2", "q"),
        ("takesaki_c3", "q"), ("galois_c2", "q"), ("galois_c3", "fp:7"))]
    dense = T.conjugate(build_fixture("takesaki_c3", F7), T.EndoV(3, F7, [
        [F7.from_int(x) for x in row] for row in ((1, -1, 1), (1, 1, 1), (1, 1, -1))]))
    regular = [regular_case(H) for H in (
        B.group_algebra(1, QQ), B.group_algebra(2, QQ), B.group_algebra(3, F3),
        sweedler_h4(QQ), sweedler_h4(F3))]
    return f2 + fixtures + [quotient_case(dense)] + regular


def assert_matches_oracles(case):
    """Compatibility, induced operator and universal property against the
    dense oracles; returns the oracle's verdicts."""
    pres, target, bm, assignment, data = case
    compat = oracles.naive_hopf_compat_bialgebra(bm)
    assert HM.check_hopf_compat_bialgebra(bm) == compat
    assert HM.induced_R(bm).entries == oracles.naive_induced_R(bm)
    clauses = oracles.naive_morphism_clauses(pres, target, bm, assignment, data)
    assert HM.verify_morphism(pres, target, bm, assignment, source_data=data) \
        == (False not in clauses.values())
    return {"compat": compat, **clauses}


def test_hopf_module_checks_match_oracles(oracle_cases):
    for case in oracle_cases:
        assert all(assert_matches_oracles(case).values())


@pytest.mark.parametrize("fd", ["q", "fp:3"])
def test_regular_modules_of_noncommutative_algebras_match_oracles(fd):
    # k[S3] is too large for the dense universal-property oracle
    for H in (group_algebra_s3(parse_field(fd))[1], sweedler_h4(parse_field(fd))):
        bm = HM.regular_hopf_module(H)
        assert HM.check_hopf_compat_bialgebra(bm) is oracles.naive_hopf_compat_bialgebra(bm)
        assert HM.induced_R(bm).entries == oracles.naive_induced_R(bm)


def changed(field, vec, k, rng):
    """A copy of vec with entry k set to another scalar."""
    out = list(vec)
    while out[k] == vec[k]:
        out[k] = field.random(rng)
    return out


def perturb(case, rng):
    """The case with one scalar changed: an assignment vector (the module's
    coaction follows it), a coaction vector alone, an entry of a basis
    action, or an entry of the source module's action."""
    pres, target, bm, assignment, data = case
    f, n, dim = target.field, bm.n, target.dim
    bm = copy.copy(bm)
    kind = rng.choice(["assignment", "coaction", "basis_action", "source"])
    key = (rng.randrange(n), rng.randrange(n))
    if kind == "assignment":
        assignment = {**assignment, key: changed(f, assignment[key], rng.randrange(dim), rng)}
        bm.coelems = [[assignment[(v, l)] for l in range(n)] for v in range(n)]
    elif kind == "coaction":
        bm.coelems = [row[:] for row in bm.coelems]
        bm.coelems[key[0]][key[1]] = changed(f, bm.coelems[key[0]][key[1]],
                                             rng.randrange(dim), rng)
    elif kind == "basis_action":
        t, i = rng.randrange(dim), rng.randrange(n)
        bm.basis_action = bm.basis_action[:]
        bm.basis_action[t] = [row[:] for row in bm.basis_action[t]]
        bm.basis_action[t][i] = changed(f, bm.basis_action[t][i], rng.randrange(n), rng)
    else:
        data = HM.HopfModuleData(n, f, dict(data.action))
        i = rng.randrange(n)
        data.action[key] = [row[:] for row in data.action[key]]
        data.action[key][i] = changed(f, data.action[key][i], rng.randrange(n), rng)
    return pres, target, bm, assignment, data


def test_hopf_module_checks_match_oracles_on_perturbations(oracle_cases):
    rng = random.Random(81)
    cases = oracle_cases
    falses = dict.fromkeys(["compat", "relations", "delta", "eps", "coaction", "action"], 0)
    for _ in range(300):
        verdicts = assert_matches_oracles(perturb(rng.choice(cases), rng))
        for name, verdict in verdicts.items():
            falses[name] += verdict is False
    # every clause was seen failing, so none is compared on passes alone
    assert all(falses.values()), falses
