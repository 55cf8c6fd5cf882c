"""The equation table, the leg index map and the exact pruned search over
F_p, in pure Python. No matrix products: ``tensorops`` decides every
equation over every field on one lifted chain of ``linalg.lifted_mul``.

BACKEND names the implementation; there is one, ``python``.
"""

from __future__ import annotations

from ._purecore import EQUATIONS, leg_rows, solutions_mod

BACKEND = "python"

__all__ = ["BACKEND", "EQUATIONS", "leg_rows", "solutions_mod"]
