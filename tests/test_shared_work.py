"""The work that every decider taking R shares: the leg prefix products and
the equation defects of ``tensorops``, the chi family and the short word
rows of ``hopfmodules``. Each module keeps them in one slot, for the last
operator only, keyed by its field and scalar objects; these tests check
that a warm answer is always the cold one, that the sharing saves the work
it should, and that no slot outlives the operator it was built for."""

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hopfeq import bialgebras, cli, frt, hopfmodules as HM, kernels, linalg, tensorops as T
from hopfeq.fields import QQ, parse_field

F3 = parse_field("fp:3")
F5 = parse_field("fp:5")
SLOTS = (T._OPERATOR, HM._MODULE)


def _chi_terms(R):
    return [(idx, list(p.terms.items())) for idx, p in frt.chi(R).items()]


def _word_rows(R):
    return HM._short_word_rows(HM.module_from_R(R))


DECIDERS = {
    "report": T.solution_report,
    "hopf": T.check_hopf,
    "commutative": T.check_commutative,
    "delta_chi": frt.verify_delta_chi,
    "eps_chi_zero": frt.eps_chi_zero,
    "defect_identity": frt.verify_defect_identity,
    "commutator_identity": frt.verify_commutator_identity,
    "chi": _chi_terms,
    "word_rows": _word_rows,
    **{f"defect:{name}": lambda R, name=name: T.equation_defect(R, name)
       for name in kernels.EQUATIONS},
}


def _cold(decide, R):
    """decide(R) with every slot empty; the slots are put back as they were."""
    saved = [(s.field, s.scalars, s.values) for s in SLOTS]
    for s in SLOTS:
        s.clear()
    try:
        return decide(R)
    finally:
        for s, (field, scalars, values) in zip(SLOTS, saved):
            s.field, s.scalars, s.values = field, scalars, values


def _fresh(R):
    """An operator equal to R, built from new scalar objects where the field allows."""
    copy = Fraction if R.field is QQ else int
    return T.TensorOp(R.n, R.field, [[copy(x) for x in row] for row in R.entries])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_warm_results_are_the_cold_ones(data):
    field = data.draw(st.sampled_from([QQ, F3, F5]), label="field")
    n = data.draw(st.integers(2, 3), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    kind = data.draw(st.sampled_from(["random", "equal", "copy", "other field"]), label="second")
    if kind == "other field":  # the same ints over F_3, then over F_5
        field = F3
    A = T.random_tensorop(n, field, rng)
    B = {"random": lambda: T.random_tensorop(n, field, rng),
         "equal": lambda: _fresh(A),
         "copy": A.copy,  # the same scalar objects in new rows
         "other field": lambda: T.TensorOp(n, F5, [row[:] for row in A.entries])}[kind]()
    steps = data.draw(st.lists(st.tuples(st.sampled_from("AB"), st.sampled_from(sorted(DECIDERS)),
                                         st.booleans()), min_size=2, max_size=8), label="steps")
    ops = {"A": A, "B": B}
    for which, name, change in steps:
        R = ops[which]
        if change:  # an entry of R changed in place between two calls
            R.entries[rng.randrange(n * n)][rng.randrange(n * n)] = R.field.random(rng)
        decide = DECIDERS[name]
        assert decide(R) == _cold(decide, R), (which, name)


def test_the_same_ints_over_another_field_miss():
    # the ints of an F_3 operator are the very objects of the F_5 one, so
    # only the field tells them apart: chi negates its linear terms in it
    A = T.random_tensorop(3, F3, random.Random(53))
    B = T.TensorOp(3, F5, [row[:] for row in A.entries])
    for name, decide in sorted(DECIDERS.items()):
        decide(A)
        assert decide(B) == _cold(decide, B), name


def test_legs_come_from_the_entries_the_products_were_keyed_on():
    # the legs are built on demand: R^23 is built after R changed in place,
    # for a copy that still holds the scalars the products are keyed on
    commutative, hopf = DECIDERS["defect:commutative"], DECIDERS["defect:hopf"]
    R = T.random_tensorop(2, F5, random.Random(55))
    S = R.copy()
    assert commutative(R) == _cold(commutative, R)
    R.entries[0][0] = F5.add(R.entries[0][0], F5.one)
    assert hopf(S) == _cold(hopf, S)
    assert T.check_hopf(S) == _cold(T.check_hopf, S)


def _count(monkeypatch, calls, owner, name):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_verify_then_report_builds_each_kind_of_work_once(monkeypatch):
    # verify's four identities, then the five equations: one chi family, one
    # block product of the letter matrices, one leg each and nine products
    # (each built anew per decider: 3 chi families, 2 block products, 8 legs
    # and 15 products)
    calls = Counter()
    for owner, name in ((HM, "_obstructions"), (HM, "_block_rows"),
                        (kernels, "leg_rows"), (linalg, "lifted_mul")):
        _count(monkeypatch, calls, owner, name)
    R = T.random_tensorop(3, QQ, random.Random(52))
    assert all(cli._verify_one(R).values())
    T.solution_report(R)
    assert calls == {"_obstructions": 1, "_block_rows": 1, "leg_rows": 3, "lifted_mul": 9}


def test_frt_presentation_takes_the_hopf_defect_of_the_check_before_it(monkeypatch):
    calls = Counter()
    _count(monkeypatch, calls, linalg, "lifted_mul")
    R = _fresh(bialgebras.r_q(Fraction(1), QQ))
    assert T.check_hopf(R)
    assert calls["lifted_mul"] == 3  # R^23 R^13, then R^12 on it, and R^12 R^23
    frt.frt_presentation(R)
    assert calls["lifted_mul"] == 3


def test_each_slot_keeps_every_named_value_of_its_key():
    # one operator's leg products and five defects share its slot under
    # names that do not collide; its module's chi family and word rows
    # share the other
    R = T.random_tensorop(2, F5, random.Random(56))
    T.solution_report(R)
    frt.verify_delta_chi(R)
    frt.verify_commutator_identity(R)
    assert sorted(T._OPERATOR.values) == sorted(["legs", *kernels.EQUATIONS])
    assert sorted(HM._MODULE.values) == ["chi", "words"]


class _Watched(Fraction):
    """A Fraction that a weak reference can watch."""

    __slots__ = ("__weakref__",)


def _analyse(R):
    cli._verify_one(R)
    T.solution_report(R)


def test_a_slot_keeps_the_last_operator_only():
    rng = random.Random(54)
    A = T.TensorOp(3, QQ, [[_Watched(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(9)]
                           for _ in range(9)])
    watched = [weakref.ref(x) for x in A.flat()]
    _analyse(A)
    del A
    gc.collect()
    # the slots hold A's scalars, so no id of theirs can be reused while they live
    assert all(ref() is not None for ref in watched)
    _analyse(T.random_tensorop(3, QQ, rng))
    gc.collect()
    assert all(ref() is None for ref in watched)
