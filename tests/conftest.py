import pytest

from hopfeq import kernels


@pytest.fixture(scope="session")
def f3_hopf_solutions():
    """Flat entry vectors of every 4x4 Hopf solution over F_3, from the
    pruned search; shared because one search takes about a second."""
    return kernels.solutions_mod(2, 3, "hopf")


@pytest.fixture(scope="session")
def f2_hopf_solutions():
    """Flat entry vectors of the 147 4x4 Hopf solutions over F_2, in the order
    of ``tensorops.enumerate_solutions``; a tuple of tuples, so no test can
    change what the next one reads."""
    return tuple(kernels.solutions_mod(2, 2, "hopf"))
