import copy
import random
from fractions import Fraction
from functools import reduce

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hopfeq import bialgebras, linalg, tensorops as T
from hopfeq.fields import QQ, parse_field
from hopfeq.fixtures import build_fixture

F2 = parse_field("fp:2")
F3 = parse_field("fp:3")
F5 = parse_field("fp:5")


# -- switch ---------------------------------------------------------------

def test_switch_n1_is_identity():
    assert T.switch(1, QQ) == T.identity_op(1, QQ)


def test_switch_n2_swaps_mixed_slots():
    tau = T.switch(2, QQ)
    # column (1,2) -> e_(2,1), column (2,1) -> e_(1,2), pure tensors fixed
    e = lambda k: [QQ.one if i == k else QQ.zero for i in range(4)]
    cols = [[row[j] for row in tau.entries] for j in range(4)]
    assert cols == [e(0), e(2), e(1), e(3)]


def test_switch_is_involution():
    tau = T.switch(3, F5)
    sq = linalg.mat_mul(F5, tau.entries, tau.entries)
    assert sq == linalg.identity(F5, 9)


# -- legs -----------------------------------------------------------------

def test_leg_identity_13():
    R = T.identity_op(2, QQ)
    assert T.leg(R, 13) == linalg.identity(QQ, 8)


def test_leg_tau_12_permutes_first_two_slots():
    tau = T.switch(3, QQ)
    m = T.leg(tau, 12)
    # e1 (x) e2 (x) e3 has index (0*3+1)*3+2 = 5; image e2 (x) e1 (x) e3 = index 11
    col = [row[5] for row in m]
    assert col == [QQ.one if i == 11 else QQ.zero for i in range(27)]


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_leg13_matches_explicit_product_oracle(field):
    rng = random.Random(9)
    for _ in range(10):
        R = T.random_tensorop(2, field, rng)
        assert T.leg(R, 13) == oracles.leg13_by_products(R)


def test_leg_rejects_bad_selector():
    with pytest.raises(ValueError):
        T.leg(T.identity_op(2, QQ), 21)


# -- equation checks -------------------------------------------------------

def test_identity_solves_everything():
    R = T.identity_op(2, QQ)
    assert T.solution_report(R) == {
        "hopf": True, "pentagon": True, "qybe": True,
        "commutative": True, "cocommutative": True, "bijective": True,
    }


@pytest.mark.parametrize("fid", ["r_q:1", "r_q_prime:1", "classical_yb:2", "char2",
                                 "graded_c2", "random", "char2@fp:2", "random@fp:3",
                                 "random@fp:5"])
def test_solution_report_verdicts_match_naive_products(fid):
    # solution_report shares legs and leg products between the equations;
    # an id without "@field" is over Q
    fid, _, descriptor = fid.partition("@")
    field = parse_field(descriptor or "q")
    if fid == "random":
        R = T.random_tensorop(2, field, random.Random(9))
    else:
        R = build_fixture(fid, field)
    mm = lambda a, b: oracles.naive_mat_mul(field, a, b)
    product = T.leg_products(R)
    want = {}
    for name, sides in T.kernels.EQUATIONS.items():
        lhs, rhs = (reduce(mm, [T.leg(R, k) for k in side]) for side in sides)
        want[name] = lhs == rhs
        assert tuple(field.lower(*product(side)) for side in sides) == (lhs, rhs)
    report = T.solution_report(R)
    assert {name: report[name] for name in want} == want


def test_rq1_is_hopf_solution():
    assert T.check_hopf(bialgebras.r_q(Fraction(1), QQ))


def test_classical_yb_not_hopf_entries():
    R = bialgebras.classical_yb(Fraction(2), QQ)
    assert not T.check_hopf(R)
    assert T.check_qybe(R)
    # the (1,1) entries of the two sides are q^3 versus q^2
    lhs = oracles.naive_mat_mul(QQ, oracles.naive_mat_mul(QQ, T.leg(R, 23), T.leg(R, 13)), T.leg(R, 12))
    rhs = oracles.naive_mat_mul(QQ, T.leg(R, 12), T.leg(R, 23))
    assert lhs[0][0] == Fraction(8) and rhs[0][0] == Fraction(4)


def test_pentagon_examples():
    R = bialgebras.r_q(Fraction(1), QQ)
    tau = T.switch(2, QQ)
    W = T.transform(R, tau, tau)
    assert T.check_pentagon(W)
    # R_q is f (x) g with commuting idempotents, so it happens to solve the
    # pentagon too; the direct product comparison is the authority here
    mm = lambda a, b: oracles.naive_mat_mul(QQ, a, b)
    lhs = mm(mm(T.leg(R, 12), T.leg(R, 13)), T.leg(R, 23))
    rhs = mm(T.leg(R, 23), T.leg(R, 12))
    assert (lhs == rhs) == T.check_pentagon(R)
    assert T.check_pentagon(R)
    # a Hopf solution that genuinely fails the pentagon
    assert not T.check_pentagon(build_fixture("takesaki_c3", QQ))


def test_qybe_examples():
    assert T.check_qybe(bialgebras.r_q_prime(Fraction(1), QQ))
    assert not T.check_qybe(build_fixture("graded_c2", QQ))


def test_commutativity_checks():
    C = bialgebras.char2_matrix(F2)
    assert T.check_commutative(C)
    R = bialgebras.r_q(Fraction(1), QQ)
    mm = lambda a, b: oracles.naive_mat_mul(QQ, a, b)
    assert (mm(T.leg(R, 12), T.leg(R, 13)) == mm(T.leg(R, 13), T.leg(R, 12))) \
        == T.check_commutative(R)
    assert (mm(T.leg(R, 13), T.leg(R, 23)) == mm(T.leg(R, 23), T.leg(R, 13))) \
        == T.check_cocommutative(R)


F7 = parse_field("fp:7")
_FAMILIES = (bialgebras.r_q, bialgebras.r_q_prime, bialgebras.r_q_dblprime,
             bialgebras.classical_yb)


def _scalar(data, field, nonzero=False):
    if field is QQ:
        num = st.integers(-3, 3).filter(bool) if nonzero else st.integers(-3, 3)
        return Fraction(data.draw(num), data.draw(st.integers(1, 3)))
    return data.draw(st.integers(1 if nonzero else 0, field.p - 1))


def test_equation_holds_matches_oracle_products(f2_hopf_solutions):
    # random operators, scalar multiples of I, the R_q families and the
    # Hopf solutions over F_2, each also with one entry perturbed; every
    # equation must come out both true and false somewhere
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def verdicts_agree(data):
        field = data.draw(st.sampled_from([QQ, F2, F3, F7]), label="field")
        kind = data.draw(st.sampled_from(["random", "scalar", "family", "solution"]))
        if kind == "random":
            n = data.draw(st.integers(1, 2), label="n")
            R = T.TensorOp(n, field, [[_scalar(data, field) for _ in range(n * n)]
                                      for _ in range(n * n)])
        elif kind == "scalar":
            n = data.draw(st.integers(1, 2), label="n")
            c = _scalar(data, field)
            R = T.TensorOp(n, field, [[c if i == j else field.zero for j in range(n * n)]
                                      for i in range(n * n)])
        elif kind == "family" or field is not F2:  # the solutions are over F_2
            R = data.draw(st.sampled_from(_FAMILIES))(_scalar(data, field, True), field)
        else:
            flat = data.draw(st.sampled_from(f2_hopf_solutions))
            R = T.TensorOp(2, F2, [list(flat[r * 4:(r + 1) * 4]) for r in range(4)])
            assert T.check_hopf(R)
        if data.draw(st.booleans(), label="perturb"):
            d2 = R.n * R.n
            R.entries[data.draw(st.integers(0, d2 - 1))][data.draw(st.integers(0, d2 - 1))] \
                = _scalar(data, field)
        product = T.leg_products(R)
        for name in T.kernels.EQUATIONS:
            lhs, rhs = oracles.naive_sides(R, name)
            got = T._equation_holds(R, name)
            assert got == (lhs == rhs)
            assert tuple(field.lower(*product(side))
                         for side in T.kernels.EQUATIONS[name]) == (lhs, rhs)
            seen.add((name, got))

    verdicts_agree()
    assert seen == {(name, v) for name in T.kernels.EQUATIONS for v in (False, True)}


# -- structure constants ----------------------------------------------------

def test_rq_structure_constants_pin_the_convention():
    q = Fraction(3)
    R = bialgebras.r_q(q, QQ)
    x = T.to_structure_constants(R)
    nonzero = {
        (u, v, j, i): c
        for u in range(2) for v in range(2) for j in range(2) for i in range(2)
        if (c := x[u][v][j][i]) != 0
    }
    # 0-based images of x_21^11=-q, x_21^21=1, x_22^11=-q^2, x_22^21=q
    assert nonzero == {
        (1, 0, 0, 0): -q,
        (1, 0, 1, 0): Fraction(1),
        (1, 1, 0, 0): -q * q,
        (1, 1, 1, 0): q,
    }


def test_identity_structure_constants_are_deltas():
    n = 3
    x = T.to_structure_constants(T.identity_op(n, F5))
    for u in range(n):
        for v in range(n):
            for j in range(n):
                for i in range(n):
                    want = F5.one if (i == v and j == u) else F5.zero
                    assert x[u][v][j][i] == want


def test_structure_constant_round_trip_random():
    rng = random.Random(10)
    for _ in range(100):
        R = T.random_tensorop(2, F3, rng)
        assert T.from_structure_constants(T.to_structure_constants(R), F3) == R


def test_from_structure_constants_refuses_a_misshapen_array():
    x = T.to_structure_constants(bialgebras.r_q(Fraction(3), QQ))
    assert T.from_structure_constants(x, QQ) == bialgebras.r_q(Fraction(3), QQ)
    bad = []
    for depth in range(1, 4):  # the last item at that depth loses its last entry
        short = copy.deepcopy(x)
        holder = short
        for _ in range(depth):
            holder = holder[-1]
        holder.pop()
        bad.append(short)
    # tuples where lists are due, at the top and in the last row, as TensorOp refuses them
    bad += [tuple(x), x[:-1] + [x[-1][:-1] + [tuple(x[-1][-1])]]]
    for array in bad:
        with pytest.raises(ValueError, match="^structure constant array must be 2x2x2x2$"):
            T.from_structure_constants(array, QQ)


# -- conjugation and inversion ----------------------------------------------

def test_conjugate_by_identity():
    R = bialgebras.r_q(Fraction(1), QQ)
    u = T.EndoV(2, QQ, linalg.identity(QQ, 2))
    assert T.conjugate(R, u) == R


def test_conjugation_preserves_hopf():
    rng = random.Random(11)
    R = bialgebras.r_q(Fraction(1), QQ)
    for _ in range(10):
        u = T.EndoV(2, QQ, oracles.random_invertible(QQ, 2, rng))
        assert T.check_hopf(T.conjugate(R, u))


def test_conjugation_invariance_of_hopf_verdict():
    rng = random.Random(12)
    for _ in range(20):
        R = T.random_tensorop(2, F5, rng)
        u = T.EndoV(2, F5, oracles.random_invertible(F5, 2, rng))
        assert T.check_hopf(R) == T.check_hopf(T.conjugate(R, u))


def test_conjugate_round_trip():
    rng = random.Random(13)
    R = T.random_tensorop(2, F5, rng)
    um = oracles.random_invertible(F5, 2, rng)
    u = T.EndoV(2, F5, um)
    uinv = T.EndoV(2, F5, linalg.inverse(F5, um))
    assert T.conjugate(T.conjugate(R, u), uinv) == R


def test_conjugate_rejects_singular():
    R = T.identity_op(2, QQ)
    u = T.EndoV(2, QQ, [[QQ.one, QQ.one], [QQ.one, QQ.one]])
    with pytest.raises(linalg.SingularMatrixError):
        T.conjugate(R, u)


def test_invert_identity():
    assert T.invert(T.identity_op(2, QQ)) == T.identity_op(2, QQ)


def test_takesaki_inverse_solves_pentagon():
    R = build_fixture("takesaki_c2", QQ)
    assert T.check_hopf(R) and T.is_bijective(R)
    assert T.check_pentagon(T.invert(R))


def test_rq1_singular():
    R = bialgebras.r_q(Fraction(1), QQ)
    assert oracles.rank(QQ, R.entries) == 1
    with pytest.raises(linalg.SingularMatrixError):
        T.invert(R)


# -- enumeration -------------------------------------------------------------

def test_enumerate_n1_f2_hopf():
    sols = T.enumerate_solutions(1, F2, "hopf")
    assert [S.entries for S in sols] == [[[0]], [[1]]]


def test_enumerate_n1_f5_all_pass_and_ordered():
    sols = T.enumerate_solutions(1, F5, "hopf")
    assert all(T.check_hopf(S) for S in sols)
    flats = [S.flat() for S in sols]
    assert flats == sorted(flats)


def test_enumerate_cap_exceeded():
    with pytest.raises(T.CapExceededError):
        T.enumerate_solutions(2, parse_field("fp:7"), "hopf")


def test_enumerate_cap_is_checked_on_the_exponent():
    # p^(n^4) for n = 10^6 would have 10^24 bits: the cap must refuse it
    # from the exponent, at once
    start = time.perf_counter()
    with pytest.raises(T.CapExceededError, match=r"2\^1000000000000000000000000 candidates"):
        T.enumerate_solutions(10**6, F2)
    assert time.perf_counter() - start < 1
    assert len(T.enumerate_solutions(1, F2, cap=2)) == 2
    with pytest.raises(T.CapExceededError):
        T.enumerate_solutions(1, F2, cap=1)


def test_enumerate_rejects_rationals():
    from hopfeq.fields import FieldError

    with pytest.raises(FieldError):
        T.enumerate_solutions(1, QQ, "hopf")


def test_enumerate_rejects_n_below_one():
    with pytest.raises(ValueError):
        T.enumerate_solutions(0, F2, "hopf")


def test_enumerate_n2_f2_matches_brute_force():
    sols = T.enumerate_solutions(2, F2, "hopf")
    assert [tuple(S.flat()) for S in sols] == oracles.brute_force_solutions(2, 2, "hopf")
    assert all(S.field == F2 and S.n == 2 for S in sols)


# -- invariants -------------------------------------------------------------

@pytest.mark.parametrize("field,n", [(QQ, 2), (F5, 2), (F5, 3), (QQ, 3)],
                         ids=["Q2", "F5-2", "F5-3", "Q3"])
def test_hopf_iff_pentagon_of_flip_conjugate(field, n):
    rng = random.Random(14)
    tau = T.switch(n, field)
    for _ in range(8):
        R = T.random_tensorop(n, field, rng)
        assert T.check_hopf(R) == T.check_pentagon(T.transform(R, tau, tau))


@pytest.mark.parametrize("field,n", [(QQ, 2), (F5, 2), (F5, 3)],
                         ids=["Q2", "F5-2", "F5-3"])
def test_tau13_operator_identities_hold_for_all_R(field, n):
    # T = tau R satisfies T12 T23 T12 = tau13 R23 R13 R12 and
    # T23 tau12 T23 = tau13 R12 R23 as plain matrix identities
    rng = random.Random(15)
    tau = T.switch(n, field)
    mm = lambda a, b: linalg.mat_mul(field, a, b)
    for _ in range(8):
        R = T.random_tensorop(n, field, rng)
        Top = T.TensorOp(n, field, mm(tau.entries, R.entries))
        t12, t23 = T.leg(Top, 12), T.leg(Top, 23)
        tau12, tau13 = T.leg(tau, 12), T.leg(tau, 13)
        r12, r13, r23 = T.leg(R, 12), T.leg(R, 13), T.leg(R, 23)
        assert mm(mm(t12, t23), t12) == mm(tau13, mm(mm(r23, r13), r12))
        assert mm(mm(t23, tau12), t23) == mm(tau13, mm(r12, r23))


@pytest.mark.parametrize("field,n", [(QQ, 2), (F5, 3)], ids=["Q2", "F5-3"])
def test_idempotent_characterization(field, n):
    rng = random.Random(16)
    I = T.EndoV(n, field, linalg.identity(field, n))
    for _ in range(20):
        f = oracles.random_endo(n, field, rng)
        idem = linalg.mat_mul(field, f.entries, f.entries) == f.entries
        assert T.check_hopf(T.pair_tensor(f, I)) == idem
        assert T.check_hopf(T.pair_tensor(I, f)) == idem


def test_commuting_idempotent_pairs_solve_hopf():
    rng = random.Random(17)
    for field, n in ((QQ, 2), (F5, 3)):
        for _ in range(10):
            fm, gm = oracles.random_commuting_idempotents(field, n, rng)
            R = T.pair_tensor(T.EndoV(n, field, fm), T.EndoV(n, field, gm))
            assert T.check_hopf(R)


def test_commutativity_transport():
    # comm(R) <=> W13 W23 = W23 W13 for W = tau R tau, i.e. cocomm(W);
    # under Hopf this is the commutative-solution correspondence
    rng = random.Random(18)
    tau2 = T.switch(2, F5)
    for _ in range(60):
        R = T.random_tensorop(2, F5, rng)
        W = T.transform(R, tau2, tau2)
        assert T.check_commutative(R) == T.check_cocommutative(W)
    for fid, field in (("char2", F2), ("takesaki_c2", QQ), ("r_q:1", QQ)):
        R = build_fixture(fid, field)
        tau = T.switch(R.n, field)
        W = T.transform(R, tau, tau)
        assert T.check_hopf(R) and T.check_commutative(R)
        assert T.check_pentagon(W) and T.check_cocommutative(W)


def test_cocommutativity_transport_bijective():
    rng = random.Random(19)
    tau2 = T.switch(2, F5)
    for _ in range(60):
        R = T.random_tensorop(2, F5, rng)
        if not T.is_bijective(R):
            continue
        V = T.transform(T.invert(R), tau2, tau2)
        lhs = T.check_hopf(R) and T.check_cocommutative(R)
        rhs = T.check_hopf(V) and T.check_commutative(V)
        assert lhs == rhs
    R = build_fixture("takesaki_c3", QQ)  # positive instance
    tau = T.switch(3, QQ)
    V = T.transform(T.invert(R), tau, tau)
    assert T.check_hopf(R) and T.check_cocommutative(R)
    assert T.check_hopf(V) and T.check_commutative(V)


# -- json -------------------------------------------------------------------

def test_tensorop_json_round_trip():
    for fid, field in (("r_q:1/2", QQ), ("char2", F2)):
        R = build_fixture(fid, field)
        doc = R.to_json()
        assert T.TensorOp.from_json(doc) == R


@pytest.mark.parametrize("key", ["field", "n", "matrix"])
def test_tensorop_from_json_refuses_a_missing_key(key):
    doc = build_fixture("char2", F2).to_json()
    del doc[key]
    with pytest.raises(ValueError, match=f"^missing key '{key}'$"):
        T.TensorOp.from_json(doc)


_SCALARS = {
    "q": st.one_of(st.just(QQ.zero), st.builds(Fraction, st.integers(-10**12, 10**12),
                                                 st.integers(1, 10**6))),
    "fp:2": st.integers(0, 1),
    "fp:5": st.integers(0, 4),
    "fp:2147483647": st.integers(0, 2**31 - 2),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tensorop_json_round_trip_property(data):
    fd = data.draw(st.sampled_from(sorted(_SCALARS)), label="field")
    n = data.draw(st.integers(1, 3), label="n")
    row = st.lists(_SCALARS[fd], min_size=n * n, max_size=n * n)
    R = T.TensorOp(n, parse_field(fd), data.draw(st.lists(row, min_size=n * n, max_size=n * n)))
    assert T.TensorOp.from_json(json.loads(json.dumps(R.to_json()))) == R


def test_tensorop_equality_needs_n_field_and_entries():
    R = T.identity_op(2, F2)
    assert R == R.copy() and not R != R.copy()
    other = R.copy()
    other.entries[3][1] = 1
    assert R != other
    # Fraction(1) == 1: the entries compare equal, the fields do not
    assert T.identity_op(2, QQ).entries == R.entries and T.identity_op(2, QQ) != R
    assert T.identity_op(1, F2) != R
    assert R != T.EndoV(4, F2, [row[:] for row in R.entries])
    with pytest.raises(TypeError):
        hash(R)


def test_tensorop_shape_validation():
    with pytest.raises(ValueError):
        T.TensorOp(2, QQ, [[QQ.zero] * 3 for _ in range(4)])
