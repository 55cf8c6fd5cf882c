import random
from functools import reduce

import pytest

import oracles
from hopfeq import kernels, linalg, tensorops
from hopfeq.fields import parse_field

F3 = parse_field("fp:3")
F5 = parse_field("fp:5")
EQUATIONS = sorted(kernels.EQUATIONS)


def random_flat(dim, p, rng):
    return [rng.randrange(p) for _ in range(dim * dim)]


def test_backend_reports_name():
    assert kernels.BACKEND == "python"


def test_matmul_mod_matches_linalg():
    rng = random.Random(1)
    for dim in (2, 4, 8):
        a, b = random_flat(dim, 5, rng), random_flat(dim, 5, rng)
        am = [a[i * dim:(i + 1) * dim] for i in range(dim)]
        bm = [b[i * dim:(i + 1) * dim] for i in range(dim)]
        want = [x for row in linalg.mat_mul(F5, am, bm) for x in row]
        assert kernels.matmul_mod(a, b, dim, 5) == want


def test_legs_mod_matches_tensorops_leg():
    rng = random.Random(2)
    for n in (2, 3):
        R = tensorops.random_tensorop(n, F5, rng)
        r12, r13, r23 = kernels.legs_mod(R.flat(), n, 5)
        assert r12 == [x for row in tensorops.leg(R, 12) for x in row]
        assert r13 == [x for row in tensorops.leg(R, 13) for x in row]
        assert r23 == [x for row in tensorops.leg(R, 23) for x in row]


@pytest.mark.parametrize("eq", EQUATIONS)
def test_twins_agree_on_equation_checks(eq):
    """The two implementations of each check agree over F_p: the mod-p
    kernel, and the field-generic linalg products that the rationals use."""
    rng = random.Random(3)
    identity = [int(r == c) for r in range(4) for c in range(4)]
    for flat in [[0] * 16, identity] + [random_flat(4, 3, rng) for _ in range(25)]:
        R = tensorops.TensorOp(2, F3, [flat[r * 4:(r + 1) * 4] for r in range(4)])
        legs = {k: tensorops.leg(R, k) for k in kernels.LEGS}
        lhs, rhs = (
            reduce(lambda a, b: linalg.mat_mul(F3, a, b), [legs[k] for k in side])
            for side in kernels.EQUATIONS[eq]
        )
        assert kernels.equation_holds_mod(flat, 2, 3, eq) == (lhs == rhs)


@pytest.mark.parametrize("eq", EQUATIONS)
def test_pruned_search_matches_brute_force_f2(eq):
    want = oracles.brute_force_solutions(2, 2, eq)
    assert kernels.solutions_mod(2, 2, eq) == want
    # every verdict of the checker agrees with membership in the solution set
    rng = random.Random(4)
    members = set(want)
    for flat in want[:20] + [tuple(random_flat(4, 2, rng)) for _ in range(40)]:
        assert kernels.equation_holds_mod(list(flat), 2, 2, eq) == (flat in members)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("eq", EQUATIONS)
def test_pruned_search_matches_brute_force_n1(eq, p):
    assert kernels.solutions_mod(1, p, eq) == oracles.brute_force_solutions(1, p, eq)


def test_pruned_search_f3_hopf_count():
    # 3^16 = 43M candidates: far past brute force, about a second pruned
    assert len(kernels.solutions_mod(2, 3, "hopf")) == 463
