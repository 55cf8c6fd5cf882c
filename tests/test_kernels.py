import random

import pytest

import oracles
from hopfeq import kernels, tensorops
from hopfeq.fields import QQ, parse_field

F2 = parse_field("fp:2")
F5 = parse_field("fp:5")
F101 = parse_field("fp:101")
EQUATIONS = sorted(kernels.EQUATIONS)


def random_flat(dim, p, rng):
    return [rng.randrange(p) for _ in range(dim * dim)]


def test_backend_reports_name():
    assert kernels.BACKEND == "python"


def test_leg_matches_pattern_oracle():
    """tensorops.leg puts each entry of R where the dense Kronecker and
    switch products of oracles.leg_patterns put its label."""
    rng = random.Random(2)
    for n in (1, 2, 3):
        d2 = n * n
        patterns = oracles.leg_patterns(n)
        labels = tensorops.TensorOp(n, F101, [[r * d2 + c + 1 for c in range(d2)]
                                              for r in range(d2)])
        for which, pattern in patterns.items():
            assert tensorops.leg(labels, which) == pattern
        for field in (F5, QQ):
            R = tensorops.random_tensorop(n, field, rng)
            for which, want in oracles.legs_of(R).items():
                assert tensorops.leg(R, which) == want


@pytest.mark.parametrize("eq", EQUATIONS)
def test_twins_agree_on_equation_checks(eq):
    """Two implementations of each check agree over F_2, F_3 and F_5: the
    package's check on linalg products, and naive products of legs built
    from dense Kronecker and switch products (tests/oracles.py)."""
    rng = random.Random(3)
    check = getattr(tensorops, f"check_{eq}")
    identity = [[int(r == c) for c in range(4)] for r in range(4)]
    for p in (2, 3, 5):
        field = parse_field(f"fp:{p}")
        ops = [tensorops.TensorOp(2, field, [[0] * 4 for _ in range(4)]),
               tensorops.TensorOp(2, field, identity), tensorops.switch(2, field)]
        ops += [tensorops.random_tensorop(2, field, rng) for _ in range(25)]
        for R in ops:
            lhs, rhs = oracles.naive_sides(R, eq)
            assert check(R) == (lhs == rhs)


@pytest.mark.parametrize("eq", EQUATIONS)
def test_pruned_search_matches_brute_force_f2(eq):
    want = oracles.brute_force_solutions(2, 2, eq)
    assert kernels.solutions_mod(2, 2, eq) == want
    # every verdict of the checker agrees with membership in the solution set
    rng = random.Random(4)
    members = set(want)
    check = getattr(tensorops, f"check_{eq}")
    for flat in want[:20] + [tuple(random_flat(4, 2, rng)) for _ in range(40)]:
        R = tensorops.TensorOp(2, F2, [list(flat[r * 4:(r + 1) * 4]) for r in range(4)])
        assert check(R) == (flat in members)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("eq", EQUATIONS)
def test_pruned_search_matches_brute_force_n1(eq, p):
    assert kernels.solutions_mod(1, p, eq) == oracles.brute_force_solutions(1, p, eq)


def test_pruned_search_f3_hopf_count(f3_hopf_solutions):
    # 3^16 = 43M candidates: far past brute force, about a second pruned
    assert len(f3_hopf_solutions) == 463
