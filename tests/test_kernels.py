import hashlib
import itertools
import random

import pytest

import oracles
from hopfeq import _purecore, kernels, tensorops
from hopfeq.fields import QQ, parse_field

F2 = parse_field("fp:2")
F3 = parse_field("fp:3")
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
    # 3^16 = 43M candidates: far past brute force, well under a second pruned
    assert len(f3_hopf_solutions) == 463
    text = "\n".join(",".join(map(str, flat)) for flat in sorted(f3_hopf_solutions))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3464d72cd23be0ccce5aa359df61665ab7abe6b01d393eb20f9a47ab3ae7ee1c")


def test_pruned_search_f3_pentagon_is_transpose_and_tau_conjugate_of_hopf(f3_hopf_solutions):
    """P = H^t and P = tau H tau over F_3, n=2: two checks of the pentagon
    search against the Hopf search where brute force cannot reach."""
    def permuted(flat, position):
        out = [0] * 16
        for r, c in itertools.product(range(4), repeat=2):
            out[position(r, c)] = flat[r * 4 + c]
        return tuple(out)

    def swap(i):  # the basis index of the swapped pair, for i = a*2 + b
        return (i % 2) * 2 + i // 2

    pentagon = set(kernels.solutions_mod(2, 3, "pentagon"))
    assert len(pentagon) == len(f3_hopf_solutions)
    assert pentagon == {permuted(flat, lambda r, c: c * 4 + r) for flat in f3_hopf_solutions}
    assert pentagon == {permuted(flat, lambda r, c: swap(r) * 4 + swap(c))
                        for flat in f3_hopf_solutions}


def _operator(n, field, flat):
    d2 = n * n
    return tensorops.TensorOp(n, field, [list(flat[r * d2:(r + 1) * d2]) for r in range(d2)])


@pytest.mark.parametrize("eq", EQUATIONS)
def test_holds_mod_matches_equation_checks(eq, f2_hopf_solutions):
    """kernels.holds_mod agrees with tensorops.check_* on every n=1 operator
    over F_2, F_3 and F_5, on the 147 Hopf solutions over F_2 and on 210
    seeded random n=2 operators; each verdict comes out both ways."""
    rng = random.Random(16)
    check = getattr(tensorops, f"check_{eq}")
    cases = [(1, field, (t,)) for field in (F2, F3, F5) for t in range(field.p)]
    cases += [(2, F2, flat) for flat in f2_hopf_solutions]
    cases += [(2, field, tuple(random_flat(4, field.p, rng)))
              for field in (F2, F3, F5) for _ in range(70)]
    holds = {(n, field.p): kernels.holds_mod(n, field.p, eq)
             for n in (1, 2) for field in (F2, F3, F5)}
    seen = set()
    for n, field, flat in cases:
        verdict = holds[n, field.p](flat)
        assert verdict == check(_operator(n, field, flat)), (n, field.p, flat)
        seen.add(verdict)
    assert seen == {False, True}


def _random_parts(rng, size):
    """A random polynomial split by the power of one variable, as
    _checks_by_level gives it: powers 0 to 3, any coefficients from 1 up,
    and some terms with no other variable."""
    powers = sorted(rng.sample(range(4), rng.randint(1, 4)))
    return [(e, [(rng.randint(1, 9), tuple(rng.randrange(size) for _ in range(rng.randint(0, 3))))
                 for _ in range(rng.randint(1, 4))])
            for e in powers]


def _plain_value(parts, x, t):
    total = 0
    for e, terms in parts:
        for c, others in terms:
            for v in others:
                c *= x[v]
            total += c * t ** e
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_compiled_check_matches_plain_evaluation(p):
    """Each compiled check keeps exactly the values t at which the
    polynomial vanishes mod p. F_5 and F_7 tell every power 0 to 3 apart,
    which t^p = t hides over F_2 and F_3."""
    rng = random.Random(p)
    size = 6
    for _ in range(60):
        parts = _random_parts(rng, size)
        check = _purecore._compile_check(parts, p)
        for _ in range(5):
            x = [rng.randrange(p) for _ in range(size)]
            want = [t for t in range(p) if not _plain_value(parts, x, t) % p]
            assert check(x, range(p)) == want
            subset = [t for t in range(p) if rng.random() < 0.5]
            assert check(x, subset) == [t for t in want if t in subset]
