"""Built-in catalog of the concrete operators studied in the package docs:
projections, graded/crossed module solutions, Takesaki and Galois maps on
cyclic group algebras, the characteristic-two matrix and the classical
Yang-Baxter operator.

Fixture ids: identity:<n>, r_q:<q>, r_q_prime:<q>, r_q_dblprime:<q>, char2,
classical_yb:<q>, graded_c2, crossed_s3, takesaki_c<m>, galois_c<m>.
"""

from __future__ import annotations

import re

from . import bialgebras, linalg, tensorops
from .bialgebras import GradedModuleSpec, cyclic_group, symmetric_group_3
from .fields import Field

MAX_FIXTURE_N = 12  # legs grow as n^6: `check` on takesaki_c12 over Q peaks at 295 MB


class FixtureError(ValueError):
    pass


def graded_c2_solution(field: Field) -> tensorops.TensorOp:
    """C2-graded k^2 with deg(m1) = e, deg(m2) = s and s swapping the basis."""
    G = cyclic_group(2)
    swap = [[field.zero, field.one], [field.one, field.zero]]
    spec = GradedModuleSpec(
        group=G, n=2, field=field, degree=[0, 1],
        action=[linalg.identity(field, 2), swap],
    )
    return bialgebras.graded_solution(spec, mode="graded")


def crossed_s3_solution(field: Field) -> tensorops.TensorOp:
    """k[S3] with conjugation action and deg(h) = h; a crossed module."""
    G = symmetric_group_3()
    n = G.order
    action = []
    for g in range(n):
        mat = linalg.zeros(field, n, n)
        for h in range(n):
            mat[G.mul(G.mul(g, h), G.inv(g))][h] = field.one
        action.append(mat)
    spec = GradedModuleSpec(group=G, n=n, field=field, degree=list(range(n)), action=action)
    return bialgebras.graded_solution(spec, mode="crossed")


def _parse_param(raw, field):
    try:
        return field.parse_scalar(raw)
    except Exception as exc:
        raise FixtureError(f"bad fixture parameter {raw!r}") from exc


def build_fixture(fixture_id: str, field: Field) -> tensorops.TensorOp:
    name, _, raw = fixture_id.partition(":")
    group = re.fullmatch(r"(takesaki|galois)_c(\d+)", name)
    if name == "identity" or group:  # V has dimension n: bound it before building
        n = int(group.group(2) if group else raw or 2)
        if not 1 <= n <= MAX_FIXTURE_N:
            raise FixtureError(f"fixture {fixture_id!r} needs a dimension in 1..{MAX_FIXTURE_N}")
    if name == "identity":
        return tensorops.identity_op(n, field)
    if name == "r_q":
        return bialgebras.r_q(_parse_param(raw or "0", field), field)
    if name == "r_q_prime":
        return bialgebras.r_q_prime(_parse_param(raw or "0", field), field)
    if name == "r_q_dblprime":
        return bialgebras.r_q_dblprime(_parse_param(raw or "0", field), field)
    if name == "char2":
        return bialgebras.char2_matrix(field)
    if name == "classical_yb":
        if not raw:
            raise FixtureError("classical_yb:<q> needs its parameter")
        return bialgebras.classical_yb(_parse_param(raw, field), field)
    if name == "graded_c2":
        return graded_c2_solution(field)
    if name == "crossed_s3":
        return crossed_s3_solution(field)
    if group:
        H = bialgebras.group_algebra(n, field)
        return bialgebras.takesaki(H) if group.group(1) == "takesaki" else bialgebras.galois_beta(H)
    raise FixtureError(f"unknown fixture {fixture_id!r}")


FIXTURE_NAMES = [
    "identity:<n>",
    "r_q:<q>",
    "r_q_prime:<q>",
    "r_q_dblprime:<q>",
    "char2",
    "classical_yb:<q>",
    "graded_c2",
    "crossed_s3",
    "takesaki_c<m>",
    "galois_c<m>",
]
