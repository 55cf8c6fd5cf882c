import pytest

from hopfeq import frt, kernels, rewriting as RW, tensorops as T
from hopfeq.fields import parse_field


@pytest.fixture(scope="session")
def f3_hopf_solutions():
    """Flat entry vectors of every 4x4 Hopf solution over F_3, from the
    pruned search; shared because one search takes about a second. A tuple
    of tuples, as below."""
    return tuple(kernels.solutions_mod(2, 3, "hopf"))


@pytest.fixture(scope="session")
def f2_hopf_solutions():
    """Flat entry vectors of the 147 4x4 Hopf solutions over F_2, in the order
    of ``tensorops.enumerate_solutions``; a tuple of tuples, so no test can
    change what the next one reads."""
    return tuple(kernels.solutions_mod(2, 2, "hopf"))


# -- presentations and completions of the solution sets, built once -------------

# fixture name -> fingerprint of its systems when they were built
SHARED_SYSTEMS = {}


def fingerprint(systems):
    """A hash of every entry of R, every relation and every rule of the
    (R, presentation, completion) triples; it changes when any of them is
    changed in place."""
    return hash(tuple(
        (tuple(map(tuple, R.entries)), pres.commutative_closure,
         tuple(frozenset(r.terms.items()) for r in pres.relations),
         rs.status, tuple((q.lhs, frozenset(q.tail.terms.items())) for q in rs.rules))
        for R, pres, rs in systems))


def _systems(name, solutions, p, build):
    """(R, build(R), its completion at degree 8) for each flat n = 2
    solution over F_p, recorded in SHARED_SYSTEMS under name."""
    field = parse_field(f"fp:{p}")
    out = []
    for flat in solutions:
        R = T.TensorOp(2, field, [list(flat[r * 4:(r + 1) * 4]) for r in range(4)])
        pres = build(R)
        out.append((R, pres, RW.complete(pres.relations, 8, pres.alphabet, pres.field)))
    SHARED_SYSTEMS[name] = fingerprint(out)
    return tuple(out)


def _commutative(R):
    return frt.frt_commutative(R, force=True)


@pytest.fixture(scope="session")
def f2_hopf_systems(f2_hopf_solutions):
    """``frt_presentation`` and its completion for each F_2 solution."""
    return _systems("f2_hopf_systems", f2_hopf_solutions, 2, frt.frt_presentation)


@pytest.fixture(scope="session")
def f3_hopf_systems(f3_hopf_solutions):
    """``frt_presentation`` and its completion for each F_3 solution."""
    return _systems("f3_hopf_systems", f3_hopf_solutions, 3, frt.frt_presentation)


@pytest.fixture(scope="session")
def f2_commutative_systems(f2_hopf_solutions):
    """``frt_commutative(force=True)`` and its completion for each F_2 solution."""
    return _systems("f2_commutative_systems", f2_hopf_solutions, 2, _commutative)


@pytest.fixture(scope="session")
def f3_commutative_systems(f3_hopf_solutions):
    """``frt_commutative(force=True)`` and its completion for each F_3 solution."""
    return _systems("f3_commutative_systems", f3_hopf_solutions, 3, _commutative)


def assert_shared_systems_unchanged(request):
    """Every shared system the test of request reads has its fingerprint of
    when it was built."""
    for name in SHARED_SYSTEMS.keys() & set(request.fixturenames):
        assert fingerprint(request.getfixturevalue(name)) == SHARED_SYSTEMS[name], \
            f"the test changed a system of {name}"


@pytest.fixture(autouse=True)
def _shared_systems_unchanged(request):
    """Fail, at its teardown, a test that changed a shared system in place:
    the systems are handed out as they are, not copied."""
    yield
    assert_shared_systems_unchanged(request)
