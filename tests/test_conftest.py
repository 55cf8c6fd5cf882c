"""The session's shared presentations and completions: a test that changes
one in place fails."""

import copy

import pytest

from conftest import SHARED_SYSTEMS, assert_shared_systems_unchanged, fingerprint
from hopfeq.freealgebra import NCPoly


def test_shared_systems_are_the_solution_sets(f2_hopf_systems, f3_hopf_systems,
                                              f2_commutative_systems, f3_commutative_systems):
    assert [len(s) for s in (f2_hopf_systems, f3_hopf_systems, f2_commutative_systems,
                             f3_commutative_systems)] == [147, 463, 147, 463]
    assert all(type(s) is tuple for s in (f2_hopf_systems, f3_hopf_systems))
    assert not any(pres.commutative_closure for _, pres, _ in f3_hopf_systems)
    assert all(pres.commutative_closure for _, pres, _ in f3_commutative_systems)


def test_fingerprint_sees_each_kind_of_in_place_change(f3_hopf_systems):
    systems = copy.deepcopy(f3_hopf_systems[:20])
    want = fingerprint(systems)
    R, pres, rs = systems[-1]
    rule = rs.rules[0]
    changes = [
        lambda: R.entries[0].__setitem__(0, R.field.from_int(R.entries[0][0] + 1)),
        lambda: pres.relations[0].terms.__setitem__((0, 0, 0), R.field.one),
        lambda: pres.relations.append(pres.relations[0]),
        lambda: rule.tail.terms.__setitem__((1, 1, 1), R.field.one),
        lambda: setattr(rule, "tail", rule.tail + NCPoly.one(rule.tail.alphabet, R.field)),
        lambda: rs.rules.pop(),
        lambda: setattr(rs, "status", "capped" if rs.status == "complete" else "complete"),
    ]
    for change in changes:
        copied = copy.deepcopy(systems)
        R, pres, rs = copied[-1]
        rule = rs.rules[0]
        change()
        assert fingerprint(copied) != want


def test_a_test_that_changes_a_shared_system_fails(f2_hopf_systems, request):
    # what the autouse guard asserts at each teardown, run here with one
    # relation changed in place and then restored
    assert SHARED_SYSTEMS["f2_hopf_systems"] == fingerprint(f2_hopf_systems)
    terms = f2_hopf_systems[1][1].relations[0].terms
    terms[(0, 0, 0)] = 1
    try:
        with pytest.raises(AssertionError, match="the test changed a system of f2_hopf_systems"):
            assert_shared_systems_unchanged(request)
    finally:
        del terms[(0, 0, 0)]
    assert_shared_systems_unchanged(request)
