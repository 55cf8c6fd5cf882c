"""The equation table, the leg index map, the exact pruned search over F_p
and ``holds_mod``, the test of one flat operator over F_p on the search's
compiled checks, in pure Python. No matrix products: over a general field,
``tensorops`` decides every equation on one lifted chain of
``linalg.lifted_mul``.

BACKEND names the implementation; there is one, ``python``.
"""

from __future__ import annotations

from ._purecore import EQUATIONS, holds_mod, leg_rows, solutions_mod

BACKEND = "python"

__all__ = ["BACKEND", "EQUATIONS", "holds_mod", "leg_rows", "solutions_mod"]
