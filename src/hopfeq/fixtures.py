"""Built-in catalog of the concrete operators studied in the package docs:
projections, graded/crossed module solutions, Takesaki and Galois maps on
cyclic group algebras, the characteristic-two matrix and the classical
Yang-Baxter operator.

``FIXTURE_NAMES`` lists the fixture ids, each with its parameter if it takes
one: ``<n>`` and ``<m>`` are dimensions in 1..``MAX_FIXTURE_N``, written in
the integer grammar of ``fields`` (read by ``fields.parse_integer``), and
``<q>`` is a scalar of the field, written in its scalar grammar (read by
``Field.parse_scalar``). A parameter follows a colon, except that
``<m>`` ends the name. A parameter outside its grammar or range, or given to
a fixture that takes none, raises ``FixtureError`` before anything is built.
"""

from __future__ import annotations

from . import bialgebras, linalg, tensorops
from .bialgebras import GradedModuleSpec, cyclic_group, symmetric_group_3
from .fields import Field, parse_integer

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


# fixture id -> (the parameter's default, or None when it has to be given;
# the builder). The builders look up their constructors when called.
_CATALOGUE = {
    "identity:<n>": ("2", lambda n, field: tensorops.identity_op(n, field)),
    "r_q:<q>": ("0", lambda q, field: bialgebras.r_q(q, field)),
    "r_q_prime:<q>": ("0", lambda q, field: bialgebras.r_q_prime(q, field)),
    "r_q_dblprime:<q>": ("0", lambda q, field: bialgebras.r_q_dblprime(q, field)),
    "char2": (None, lambda field: bialgebras.char2_matrix(field)),
    "classical_yb:<q>": (None, lambda q, field: bialgebras.classical_yb(q, field)),
    "graded_c2": (None, lambda field: graded_c2_solution(field)),
    "crossed_s3": (None, lambda field: crossed_s3_solution(field)),
    "takesaki_c<m>": (None, lambda m, field: bialgebras.takesaki(
        bialgebras.group_algebra(m, field))),
    "galois_c<m>": (None, lambda m, field: bialgebras.galois_beta(
        bialgebras.group_algebra(m, field))),
}
FIXTURE_NAMES = list(_CATALOGUE)


def _parse_param(raw, field):
    try:
        return field.parse_scalar(raw)
    except Exception as exc:
        raise FixtureError(f"bad fixture parameter {raw!r}") from exc


def _dimension(fixture_id, raw):
    # V has dimension n: bound it before building
    try:
        n = parse_integer(raw)
    except ValueError:
        n = 0
    if not 1 <= n <= MAX_FIXTURE_N:
        raise FixtureError(f"fixture {fixture_id!r} needs a dimension in 1..{MAX_FIXTURE_N}")
    return n


def build_fixture(fixture_id: str, field: Field) -> tensorops.TensorOp:
    name, _, raw = fixture_id.partition(":")
    for key, (default, build) in _CATALOGUE.items():
        head, _, param = key.partition("<")
        if head.endswith(":") and name == head[:-1]:  # identity:<n>: after a colon
            text, stray = raw or default, ""
        elif param and not head.endswith(":") and name.startswith(head):  # takesaki_c<m>
            text, stray = name[len(head):], raw
        elif name == head:  # char2: no parameter
            text, stray = None, raw
        else:
            continue
        if stray:
            raise FixtureError(f"fixture {fixture_id!r} has a stray parameter {stray!r}")
        if not param:
            return build(field)
        if text is None:
            raise FixtureError(f"{key} needs its parameter")
        value = _parse_param(text, field) if key.endswith("<q>") else _dimension(fixture_id, text)
        return build(value, field)
    raise FixtureError(f"unknown fixture {fixture_id!r}")
