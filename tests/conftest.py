import pytest

from hopfeq import kernels


@pytest.fixture(scope="session")
def f3_hopf_solutions():
    """Flat entry vectors of every 4x4 Hopf solution over F_3, from the
    pruned search; shared because one search takes about a second."""
    return kernels.solutions_mod(2, 3, "hopf")
