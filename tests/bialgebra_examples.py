"""Small bialgebras written out by hand from their definitions, shared by the
bialgebra and Hopf module tests: Sweedler's H4 (noncommutative and
noncocommutative) and the group algebra of S3 (noncommutative); and
``from_dense``, a structure bialgebra from dense tables."""

from hopfeq import bialgebras as B
from hopfeq.fields import QQ


def from_dense(field, dim, labels, unit, mult, comult, counit, antipode=None):
    """The structure bialgebra of the dense tables mult[i][j][k],
    comult[i][u][v] and antipode[i][k] (or None), in its stored form: their
    zero entries dropped."""
    def terms(vec):
        return {k: c for k, c in enumerate(vec) if c}

    return B.StructureBialgebra(
        field, dim, labels, unit, [[terms(vec) for vec in row] for row in mult],
        [{(u, v): c for u, row in enumerate(mat) for v, c in enumerate(row) if c}
         for mat in comult],
        counit, None if antipode is None else [terms(vec) for vec in antipode])


def sweedler_h4(field):
    """Sweedler's Hopf algebra on basis 1, g, x, gx: g^2 = 1, x^2 = 0,
    xg = -gx, Delta(g) = g (x) g, Delta(x) = x (x) 1 + g (x) x, eps(x) = 0,
    S(x) = -gx. Noncommutative and noncocommutative; needs char != 2."""
    word = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}  # g^a x^b -> basis index
    gx = list(word)

    def vec(*terms):
        out = [field.zero] * 4
        for k, c in terms:
            out[k] = field.from_int(c)
        return out

    def terms(*pairs):
        return {k: field.from_int(c) for k, c in pairs}

    def product(i, j):
        (a1, b1), (a2, b2) = gx[i], gx[j]
        if b1 + b2 > 1:
            return terms()
        return terms((word[(a1 + a2) % 2, b1 + b2], -1 if b1 and a2 else 1))

    def tensor(*pairs):
        return {pair: field.one for pair in pairs}

    mult = [[product(i, j) for j in range(4)] for i in range(4)]
    comult = [tensor((0, 0)), tensor((1, 1)), tensor((2, 0), (1, 2)), tensor((3, 1), (0, 3))]
    antipode = [terms((0, 1)), terms((1, 1)), terms((3, -1)), terms((2, 1))]
    return B.StructureBialgebra(field, 4, ["1", "g", "x", "gx"], vec((0, 1)), mult, comult,
                                vec((0, 1), (1, 1)), antipode)


def group_algebra_s3(field=QQ):
    """The group S3 and k[S3] over field with grouplike basis; S(g) = g^-1."""
    G = B.symmetric_group_3()
    dim = G.order

    def vec(i):
        return [field.one if k == i else field.zero for k in range(dim)]

    comult = [{(g, g): field.one} for g in range(dim)]
    H = B.StructureBialgebra(field, dim, [str(g) for g in range(dim)], vec(G.identity),
                             [[{G.mul(g, h): field.one} for h in range(dim)] for g in range(dim)],
                             comult, [field.one] * dim,
                             [{G.inv(g): field.one} for g in range(dim)])
    return G, H
