"""The mod-p kernels: pure Python, on flat row-major int matrices.

BACKEND names the implementation; there is one, ``python``.
"""

from __future__ import annotations

from ._purecore import EQUATIONS, LEGS, equation_holds_mod, legs_mod, matmul_mod, solutions_mod

BACKEND = "python"

__all__ = ["BACKEND", "EQUATIONS", "LEGS", "equation_holds_mod", "legs_mod", "matmul_mod",
           "solutions_mod"]
