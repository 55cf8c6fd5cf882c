"""Independent oracles used to freeze expected values: dense triple-loop
matrix arithmetic, the scalar form of the Hopf equation, direct expansions
of the obstruction formula, the coideal and counit identities of chi in
scalars, brute-force enumeration of solutions over F_p,
normal forms by a scan of the whole rule list, completion that pairs every
two rules, the diamond lemma's test of a finished rewriting system,
irreducible words by listing them, the coideal check relation by
relation, the action of every relation on V, Hopf compatibility over a
presented quotient side by side, the bialgebra and Hopf module checks on
dense vectors, and the Takesaki and Galois maps by loops over the dense
tables.
Deliberately written without the package's production shortcuts."""

from itertools import product
from types import SimpleNamespace


def naive_mat_mul(field, a, b):
    """The textbook triple loop, on field.add and field.mul alone."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[field.zero] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = field.zero
            for k in range(inner):
                acc = field.add(acc, field.mul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def mat_add(field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(field, c, a):
    return [[field.mul(c, x) for x in row] for row in a]


def kron(field, a, b):
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    out = [[field.zero] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(rb):
            for k in range(ca):
                for l in range(cb):
                    out[i * rb + j][k * cb + l] = field.mul(a[i][k], b[j][l])
    return out


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def switch_matrix(field, n):
    out = [[field.zero] * (n * n) for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            out[b * n + a][a * n + b] = field.one
    return out


def leg13_by_products(R):
    """(I (x) tau)(R (x) I)(I (x) tau) computed with explicit dense products."""
    field, n = R.field, R.n
    i_tau = kron(field, identity(field, n), switch_matrix(field, n))
    r_i = kron(field, R.entries, identity(field, n))
    return naive_mat_mul(field, naive_mat_mul(field, i_tau, r_i), i_tau)


def rank(field, mat):
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != field.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def structure_constants(R):
    """x[u][v][j][i] read directly off the matrix (0-based)."""
    n = R.n
    return [
        [[[R.entries[i * n + j][v * n + u] for i in range(n)] for j in range(n)]
         for v in range(n)]
        for u in range(n)
    ]


def obstruction_terms(R, i, j, k, l):
    """chi(i,j,k,l) as a raw word->coefficient dict, expanded from scratch."""
    field, n = R.field, R.n
    x = structure_constants(R)
    terms = {}

    def bump(word, c):
        s = field.add(terms.get(word, field.zero), c)
        if s == field.zero:
            terms.pop(word, None)
        else:
            terms[word] = s

    for u in range(n):
        for v in range(n):
            if x[u][v][j][i] != field.zero:
                bump((u * n + k, v * n + l), x[u][v][j][i])
    for a in range(n):
        if x[k][l][j][a] != field.zero:
            bump((i * n + a,), field.neg(x[k][l][j][a]))
    return terms


def delta_chi_identity(indexed, n):
    """The coideal identity on a chi dict keyed (i,j,k,l), in scalars:
    Delta(chi(i,j,k,l)) by NCPoly.delta against the TensorPoly sum
    sum_{a,b} chi(i,j,a,b) (x) c_ak c_bl + sum_p c_ip (x) chi(p,j,k,l)."""
    from hopfeq.freealgebra import NCPoly, TensorPoly, comatrix_alphabet

    some = next(iter(indexed.values()))
    alphabet, field = comatrix_alphabet(n), some.field
    for i, j, k, l in product(range(n), repeat=4):
        rhs = TensorPoly.zero(alphabet, field)
        for a, b in product(range(n), repeat=2):
            word = NCPoly.word(alphabet, field, (a * n + k, b * n + l))
            rhs = rhs + TensorPoly.of(indexed[(i, j, a, b)], word)
        for p in range(n):
            letter = NCPoly.letter(alphabet, field, i * n + p)
            rhs = rhs + TensorPoly.of(letter, indexed[(p, j, k, l)])
        if indexed[(i, j, k, l)].delta() != rhs:
            return False
    return True


def eps_chi_identity(indexed):
    """eps(chi) = 0 for every chi of the dict, by NCPoly.eps in scalars."""
    return not any(p.eps() for p in indexed.values())


def hopf_scalar_system_holds(x, n, p):
    """Candidate structure constants solve the componentwise Hopf system:
    sum_{a,b,c} x[c][a][j][k] x[w][b][c][l] x[u][v][a][b]
        = sum_i x[w][u][j][i] x[i][v][k][l]  for all j,k,l,u,v,w."""
    rng = range(n)
    for j, k, l, u, v, w in product(rng, repeat=6):
        lhs = 0
        for a in rng:
            for b in rng:
                for c in rng:
                    lhs += x[c][a][j][k] * x[w][b][c][l] * x[u][v][a][b]
        rhs = sum(x[w][u][j][i] * x[i][v][k][l] for i in rng)
        if (lhs - rhs) % p:
            return False
    return True


def hopf_rescan_count(n, p):
    """Brute-force count of Hopf solutions via the scalar system, enumerating
    candidates by the same flattened-entry encoding as the production path."""
    entries = n ** 4
    d2 = n * n
    count = 0
    rng = range(n)
    for cand in range(p ** entries):
        digits = [0] * entries
        rem = cand
        for pos in range(entries - 1, -1, -1):
            digits[pos] = rem % p
            rem //= p
        x = [[[[0] * n for _ in rng] for _ in rng] for _ in rng]
        for row in range(d2):
            i, j = divmod(row, n)
            for col in range(d2):
                v, u = divmod(col, n)
                x[u][v][j][i] = digits[row * d2 + col]
        if hopf_scalar_system_holds(x, n, p):
            count += 1
    return count


# The five equations as (lhs, rhs) products of legs, read off the
# definitions: e.g. hopf is R^23 R^13 R^12 = R^12 R^23.
EQUATION_SIDES = {
    "hopf": ((23, 13, 12), (12, 23)),
    "pentagon": ((12, 13, 23), (23, 12)),
    "qybe": ((12, 13, 23), (23, 13, 12)),
    "commutative": ((12, 13), (13, 12)),
    "cocommutative": ((13, 23), (23, 13)),
}

# The integers, with the interface the dense helpers above expect of a field.
INTEGERS = SimpleNamespace(zero=0, one=1, add=lambda a, b: a + b, mul=lambda a, b: a * b)


def leg_patterns(n):
    """R^12, R^13 and R^23 of the operator whose entries are the labels
    1..n^4 in flat order (0 where a leg has no entry), built from dense
    Kronecker and switch products."""
    d2 = n * n
    labels = [[r * d2 + c + 1 for c in range(d2)] for r in range(d2)]
    one = identity(INTEGERS, n)
    r12 = kron(INTEGERS, labels, one)
    i_tau = kron(INTEGERS, one, switch_matrix(INTEGERS, n))
    r13 = naive_mat_mul(INTEGERS, naive_mat_mul(INTEGERS, i_tau, r12), i_tau)
    return {12: r12, 13: r13, 23: kron(INTEGERS, one, labels)}


def legs_of(R):
    """R^12, R^13 and R^23 of the operator R: each entry of R put where
    leg_patterns puts its label, the field's zero elsewhere."""
    flat = [x for row in R.entries for x in row]
    zero = R.field.zero
    return {name: [[flat[lab - 1] if lab else zero for lab in row] for row in pattern]
            for name, pattern in leg_patterns(R.n).items()}


def naive_sides(R, which):
    """Both sides of the named equation as naive products of legs_of(R),
    associated from the left."""
    legs = legs_of(R)

    def product(side):
        out = legs[side[0]]
        for name in side[1:]:
            out = naive_mat_mul(R.field, out, legs[name])
        return out

    return tuple(product(side) for side in EQUATION_SIDES[which])


def brute_force_solutions(n, p, which):
    """Every flat entry vector over F_p solving the named equation, found
    by testing all p^(n^4) candidates in lexicographic order.

    Each entry of lhs - rhs is kept as its signed paths of labels through
    the legs, unmerged, and evaluated on every candidate."""
    size = n ** 4
    d3 = n ** 3
    legs = leg_patterns(n)
    defect = []
    for r, c in product(range(d3), repeat=2):
        terms = []
        for side, sign in zip(EQUATION_SIDES[which], (1, -1)):
            for middle in product(range(d3), repeat=len(side) - 1):
                stops = (r, *middle, c)
                path = [legs[name][stops[k]][stops[k + 1]] for k, name in enumerate(side)]
                if all(path):
                    # pad to three factors with the slot that holds 1
                    terms.append((sign, *[lab - 1 for lab in path], *[size] * (3 - len(path))))
        defect.append(terms)
    found = []
    for cand in product(range(p), repeat=size):
        g = cand + (1,)
        if all(not sum(s * g[a] * g[b] * g[c] for s, a, b, c in terms) % p
               for terms in defect):
            found.append(cand)
    return found


def linear_scan_normal_form(field, terms, rules):
    """Normal form of a word -> scalar dict under rules, a list of (lhs word,
    tail dict) pairs with every tail word deglex-smaller than its lhs.

    Reduces the deglex-largest word first, at the leftmost position where
    some lhs occurs, with the first such rule in list order; an empty lhs
    matches any word. Every rule is tried at every position."""

    def scan(w):
        for lhs, tail in rules:
            if not lhs:
                return 0, lhs, tail
        for pos in range(len(w)):
            for lhs, tail in rules:
                if w[pos:pos + len(lhs)] == lhs:
                    return pos, lhs, tail
        return None

    def bump(acc, word, c):
        s = field.add(acc.get(word, field.zero), c)
        if s == field.zero:
            acc.pop(word, None)
        else:
            acc[word] = s

    work = dict(terms)
    done = {}
    while work:
        w = max(work, key=lambda u: (len(u), u))
        c = work.pop(w)
        hit = scan(w)
        if hit is None:
            bump(done, w, c)
            continue
        pos, lhs, tail = hit
        for t, tc in tail.items():
            bump(work, w[:pos] + t + w[pos + len(lhs):], field.mul(c, tc))
    return done


def random_invertible(field, n, rng):
    while True:
        m = [[field.random(rng) for _ in range(n)] for _ in range(n)]
        if rank(field, m) == n:
            return m


def random_commuting_idempotents(field, n, rng):
    """f = u diag(d) u^-1, g = u diag(e) u^-1 with 0/1 diagonals: idempotent
    and commuting by construction."""
    from hopfeq import linalg

    u = random_invertible(field, n, rng)
    uinv = linalg.inverse(field, u)
    d = [field.from_int(rng.randrange(2)) for _ in range(n)]
    e = [field.from_int(rng.randrange(2)) for _ in range(n)]

    def conj(diag):
        dm = [[diag[i] if i == j else field.zero for j in range(n)] for i in range(n)]
        return naive_mat_mul(field, naive_mat_mul(field, u, dm), uinv)

    return conj(d), conj(e)


def naive_bialgebra_axioms(B):
    """The seven axiom verdicts of a structure bialgebra, by products of
    dense basis vectors: every triple for associativity, every pair for
    Delta and eps multiplicative. Reads only B.field, B.dim and the tables;
    "antipode" is None when B has no antipode table. Zero coefficients are
    skipped, never assumed."""
    field, dim = B.field, B.dim
    zero, one = field.zero, field.one
    rng = range(dim)

    def add_into(acc, c, vec):
        if c != zero:
            for k in range(len(vec)):
                if vec[k] != zero:
                    acc[k] = field.add(acc[k], field.mul(c, vec[k]))

    def times(a, b):
        out = [zero] * dim
        for i in rng:
            if a[i] != zero:
                for j in rng:
                    if b[j] != zero:
                        add_into(out, field.mul(a[i], b[j]), B.mult[i][j])
        return out

    def delta(a):
        out = [[zero] * dim for _ in rng]
        for i in rng:
            for u in rng:
                add_into(out[u], a[i], B.comult[i][u])
        return out

    def total(values):
        acc = zero
        for v in values:
            acc = field.add(acc, v)
        return acc

    def eps(a):
        return total(field.mul(a[i], B.counit[i]) for i in rng)

    def antipode(a):
        out = [zero] * dim
        for i in rng:
            add_into(out, a[i], B.antipode[i])
        return out

    def tensor_times(x, y):
        # (sum x_uv m_u (x) m_v)(sum y_st m_s (x) m_t) in H (x) H
        out = [[zero] * dim for _ in rng]
        for u, v in product(rng, repeat=2):
            if x[u][v] == zero:
                continue
            for s, t in product(rng, repeat=2):
                if y[s][t] != zero:
                    c = field.mul(x[u][v], y[s][t])
                    for a in rng:
                        add_into(out[a], field.mul(c, B.mult[u][s][a]), B.mult[v][t])
        return out

    def coassoc_sides(i):
        # (Delta (x) 1) Delta(m_i) and (1 (x) Delta) Delta(m_i), indexed [u][v][w]
        lhs = [[[zero] * dim for _ in rng] for _ in rng]
        rhs = [[[zero] * dim for _ in rng] for _ in rng]
        for x, y in product(rng, repeat=2):
            c = B.comult[i][x][y]
            if c == zero:
                continue
            for u, v in product(rng, repeat=2):
                lhs[u][v][y] = field.add(lhs[u][v][y], field.mul(c, B.comult[x][u][v]))
                rhs[x][u][v] = field.add(rhs[x][u][v], field.mul(c, B.comult[y][u][v]))
        return lhs, rhs

    def sweedler_sum(i, side):
        # sum over Delta(m_i) = sum c m_u (x) m_v of c * side(m_u, m_v)
        out = [zero] * dim
        for u, v in product(rng, repeat=2):
            if B.comult[i][u][v] != zero:
                add_into(out, B.comult[i][u][v], side(basis[u], basis[v]))
        return out

    basis = [[one if k == i else zero for k in rng] for i in rng]
    unit = list(B.unit)
    report = {
        "assoc": all(times(times(basis[i], basis[j]), basis[k])
                     == times(basis[i], times(basis[j], basis[k]))
                     for i, j, k in product(rng, repeat=3)),
        "unit": all(times(unit, basis[i]) == basis[i] == times(basis[i], unit)
                    for i in rng),
        "coassoc": all(lhs == rhs for lhs, rhs in map(coassoc_sides, rng)),
        "counit": all(
            [total(field.mul(B.comult[i][u][v], B.counit[u]) for u in rng) for v in rng]
            == basis[i]
            == [total(field.mul(B.comult[i][u][v], B.counit[v]) for v in rng) for u in rng]
            for i in rng),
        "delta_multiplicative": all(
            delta(times(basis[i], basis[j])) == tensor_times(delta(basis[i]), delta(basis[j]))
            for i, j in product(rng, repeat=2))
        and delta(unit) == [[field.mul(a, b) for b in unit] for a in unit],
        "eps_multiplicative": all(
            eps(times(basis[i], basis[j])) == field.mul(eps(basis[i]), eps(basis[j]))
            for i, j in product(rng, repeat=2)) and eps(unit) == one,
        "antipode": None,
    }
    if B.antipode is not None:
        report["antipode"] = all(
            sweedler_sum(i, lambda x, y: times(antipode(x), y))
            == [field.mul(B.counit[i], c) for c in unit]
            == sweedler_sum(i, lambda x, y: times(x, antipode(y)))
            for i in rng)
    return report


def irreducible_levels(rs, max_len):
    """Irreducible words of rs grouped by length, listed by extending every
    word of the previous level by every letter and testing each suffix of
    the new word against the lhs set; stops early at an empty level."""
    lhs_set = set(rs.lhs_words())
    if () in lhs_set:
        return [[]]
    max_lhs = max((len(w) for w in lhs_set), default=1)
    letters = range(len(rs.alphabet))
    levels = [[()]]
    for _ in range(max_len):
        nxt = []
        for w in levels[-1]:
            for g in letters:
                nw = w + (g,)
                if any(nw[-L:] in lhs_set for L in range(1, min(len(nw), max_lhs) + 1)):
                    continue
                nxt.append(nw)
        levels.append(nxt)
        if not nxt:
            break
    return levels


def listing_dimension(rs, max_len, levels=None):
    """The dimension report of rs read off the listed irreducible words;
    levels, when given, are irreducible_levels(rs, L) for some L >= max_len."""
    from hopfeq.rewriting import DimensionReport

    levels = levels or irreducible_levels(rs, max_len)
    counts = [len(level) for level in levels[:max_len + 1]]
    total = sum(counts)
    if rs.status == "complete" and counts[-1] == 0:
        return DimensionReport("finite", total, counts)
    return DimensionReport("lower_bound", total, counts, word_length_cap=max_len)


def all_pairs_complete(relations, max_degree=8, alphabet=None, field=None):
    """Completion that tries every (new rule, rule) pair in both orders for
    overlaps, in rule-list order, and builds each S-polynomial with
    polynomial products: tail1 * b - a * tail2. Otherwise the same steps as
    rewriting.complete, so the two must return the same system, capped runs
    included; alphabet and field are for an empty relation list, as there."""
    from collections import deque

    from hopfeq.freealgebra import NCPoly, word_key
    from hopfeq.rewriting import RewriteRule, RewriteSystem, normal_form

    def orient(poly):
        p = poly.monic()
        lhs = p.leading_word()
        return RewriteRule(lhs, NCPoly.word(p.alphabet, p.field, lhs) - p)

    def has_factor(w, f):
        return any(w[i:i + len(f)] == f for i in range(len(w) - len(f) + 1))

    def overlaps(r1, r2):
        w1, w2 = r1.lhs, r2.lhs
        alphabet, field = r1.tail.alphabet, r1.tail.field
        out = []
        for L in range(1, min(len(w1), len(w2))):
            if w1[len(w1) - L:] == w2[:L]:
                a, b = w1[:len(w1) - L], w2[L:]
                out.append((w1 + b, r1.tail * NCPoly.word(alphabet, field, b)
                            - NCPoly.word(alphabet, field, a) * r2.tail))
        return out

    relations = [r for r in relations if not r.is_zero()]
    if not relations:
        return RewriteSystem(alphabet, field, [], "complete", max_degree)
    alphabet, field = relations[0].alphabet, relations[0].field
    queue = deque(sorted((r.monic() for r in relations),
                         key=lambda p: word_key(p.leading_word())))
    rules = []
    work = RewriteSystem(alphabet, field, rules, "capped", max_degree)
    capped = False
    while queue:
        p = normal_form(queue.popleft(), work)
        if p.is_zero():
            continue
        if p.degree() > max_degree:
            capped = True
            continue
        new = orient(p)
        if not new.lhs:
            rules = [RewriteRule((), NCPoly.zero(alphabet, field))]
            break
        kept = []
        for r in rules:
            if has_factor(r.lhs, new.lhs):
                queue.append(r.poly())
            else:
                kept.append(r)
        rules = kept + [new]
        work = RewriteSystem(alphabet, field, rules, "capped", max_degree)
        for r in rules:
            if any(has_factor(t, new.lhs) for t in r.tail.terms):
                r.tail = normal_form(r.tail, work)
        for r in rules:
            for pair in (new, r), (r, new):
                for amb, spoly in overlaps(*pair):
                    if len(amb) > max_degree:
                        capped = True
                    else:
                        queue.append(spoly)
    rules.sort(key=lambda r: word_key(r.lhs))
    return RewriteSystem(alphabet, field, rules, "capped" if capped else "complete", max_degree)


def check_complete(rs, relations):
    """Bergman's diamond lemma on a finished system, with no completion
    queue and no rule index: every tail word lies deglex below its lhs, no
    lhs is a factor of another lhs or of a tail word (so there are no
    inclusion ambiguities), every overlap ambiguity w1 = a t, w2 = t b
    resolves (tail1 b - a tail2, built by polynomial products, has normal
    form zero) and every relation has normal form zero. Then the irreducible
    words are a basis of T/(rules) and the relations lie in (rules). That
    each rule lies in the ideal of the relations is not checked here:
    complete builds every rule from them."""
    from hopfeq.freealgebra import NCPoly, word_key
    from hopfeq.rewriting import normal_form

    alphabet, field = rs.alphabet, rs.field
    lhs = {r.lhs for r in rs.rules}
    if len(lhs) < len(rs.rules):
        return False
    longest = max((len(w) for w in lhs), default=0)

    def factors(w):  # every factor of w up to the longest lhs, () included
        return {w[i:i + k] for k in range(min(len(w), longest) + 1)
                for i in range(len(w) - k + 1)}

    for r in rs.rules:
        if (factors(r.lhs) - {r.lhs}) & lhs:
            return False
        for t in r.tail.terms:
            if word_key(t) >= word_key(r.lhs) or factors(t) & lhs:
                return False
    starting = {}  # proper prefix -> the rules whose lhs starts with it
    for r in rs.rules:
        for L in range(1, len(r.lhs)):
            starting.setdefault(r.lhs[:L], []).append(r)
    for r1 in rs.rules:
        w1 = r1.lhs
        for L in range(1, len(w1)):
            for r2 in starting.get(w1[len(w1) - L:], ()):
                a, b = w1[:len(w1) - L], r2.lhs[L:]
                spoly = (r1.tail * NCPoly.word(alphabet, field, b)
                         - NCPoly.word(alphabet, field, a) * r2.tail)
                if not normal_form(spoly, rs).is_zero():
                    return False
    return all(normal_form(r, rs).is_zero() for r in relations)


def check_annihilation(pres, data) -> bool:
    """I . V = 0: every relation acts as the zero matrix."""
    from hopfeq import linalg
    from hopfeq.hopfmodules import act_poly

    zero_mat = linalg.zeros(data.field, data.n, data.n)
    memo = {}
    return all(act_poly(r, data, memo) == zero_mat for r in pres.relations)


def per_relation_coideal(pres, rs):
    """The coideal verdict relation by relation: Delta(r) expanded as a
    TensorPoly, both legs of every term put in normal form under rs by
    TensorPoly.map_legs, and each result tested for zero on its own."""
    from hopfeq.rewriting import normal_form

    def nf(p):
        return normal_form(p, rs)

    return all(r.delta().map_legs(nf).is_zero() for r in pres.relations)


def two_sided_hopf_compat(data, rs):
    """Hopf compatibility over a presented quotient, side by side: for every
    generator c_jk, basis vector m_l and coordinate m_w, the second legs
    rho(c_jk . m_l) = sum_i (c_jk . m_l)_i c_wi and
    sum_{u,v} (c_ju . m_v)_w c_uk c_vl are put in normal form under rs apart
    and compared, 2 n^4 normal forms in all."""
    from hopfeq.freealgebra import NCPoly, comatrix_alphabet
    from hopfeq.rewriting import normal_form

    n, field = data.n, data.field
    alphabet = comatrix_alphabet(n)
    for j, k, l, w in product(range(n), repeat=4):
        lhs = NCPoly(alphabet, field, {(w * n + i,): data.action[(j, k)][i][l]
                                       for i in range(n)})
        rhs = NCPoly(alphabet, field, {(u * n + k, v * n + l): data.action[(j, u)][w][v]
                                       for u, v in product(range(n), repeat=2)})
        if normal_form(lhs, rs) != normal_form(rhs, rs):
            return False
    return True


def _dense_bialgebra_ops(H):
    """times, delta and eps on dense coefficient vectors of H, by plain loops
    over its tables."""
    field, dim = H.field, H.dim
    zero = field.zero
    rng = range(dim)

    def times(a, b):
        out = [zero] * dim
        for i in rng:
            for j in rng:
                if a[i] != zero and b[j] != zero:
                    c = field.mul(a[i], b[j])
                    for k in rng:
                        out[k] = field.add(out[k], field.mul(c, H.mult[i][j][k]))
        return out

    def delta(a):
        out = [[zero] * dim for _ in rng]
        for i in rng:
            if a[i] != zero:
                for u in rng:
                    for v in rng:
                        out[u][v] = field.add(out[u][v], field.mul(a[i], H.comult[i][u][v]))
        return out

    def eps(a):
        acc = zero
        for i in rng:
            acc = field.add(acc, field.mul(a[i], H.counit[i]))
        return acc

    return times, delta, eps


def act_element(bm, hvec):
    """The matrix by which hvec in H acts on V: sum_t hvec[t] basis_action[t]."""
    field, n = bm.field, bm.n
    out = [[field.zero] * n for _ in range(n)]
    for t, c in enumerate(hvec):
        for i in range(n):
            for j in range(n):
                out[i][j] = field.add(out[i][j], field.mul(c, bm.basis_action[t][i][j]))
    return out


def naive_induced_R(bm):
    """Entries of R(m (x) n) = sum n_<1>.m (x) n_<0> for a Hopf module over a
    structure bialgebra: entries[i*n+j][v*n+u] = (coelems[j][u] . m_v)_i."""
    field, n = bm.field, bm.n
    ent = [[field.zero] * (n * n) for _ in range(n * n)]
    for u in range(n):
        for j in range(n):
            A = act_element(bm, bm.coelems[j][u])
            for v in range(n):
                for i in range(n):
                    ent[i * n + j][v * n + u] = A[i][v]
    return ent


def naive_hopf_compat_bialgebra(bm):
    """rho(h.m) = sum h_(1).m_<0> (x) h_(2) m_<1> for every basis element h
    of H and basis vector m_l, compared componentwise in V (x) H on dense
    vectors."""
    H, field, n, dim = bm.bialgebra, bm.field, bm.n, bm.bialgebra.dim
    zero = field.zero
    times, _, _ = _dense_bialgebra_ops(H)
    basis = [[field.one if k == t else zero for k in range(dim)] for t in range(dim)]
    # m_b coelems[v][l], for every b, v, l
    hv = [[[times(basis[b], bm.coelems[v][l]) for l in range(n)] for v in range(n)]
          for b in range(dim)]
    for t in range(dim):
        A = bm.basis_action[t]
        for l in range(n):
            for w in range(n):
                lhs = [zero] * dim
                for i in range(n):
                    for s in range(dim):
                        lhs[s] = field.add(lhs[s], field.mul(A[i][l], bm.coelems[w][i][s]))
                rhs = [zero] * dim
                for a in range(dim):
                    for b in range(dim):
                        for v in range(n):
                            coeff = field.mul(H.comult[t][a][b], bm.basis_action[a][w][v])
                            if coeff != zero:
                                for s in range(dim):
                                    rhs[s] = field.add(rhs[s], field.mul(coeff, hv[b][v][l][s]))
                if lhs != rhs:
                    return False
    return True


def naive_morphism_clauses(source, target, target_data, assignment, source_data=None):
    """Each clause of the universal property, decided on dense vectors:
    "relations", each relation's image, word by word from the unit, is zero;
    "delta" and "eps", each f(c_jk) has the comultiplication and counit of a
    comatrix entry; "coaction", the assignment is the target coaction;
    "action", f(c_ij) acts on V as c_ij does in source_data (None without
    source_data). The universal property holds iff no clause is False."""
    n = source.alphabet.comatrix_n
    field, dim = target.field, target.dim
    zero = field.zero
    times, delta, eps = _dense_bialgebra_ops(target)
    pairs = list(product(range(n), repeat=2))
    out = {"relations": True, "delta": True, "eps": True, "coaction": True, "action": None}
    for r in source.relations:
        total = [zero] * dim
        for w, c in r.terms.items():
            vec = target.unit
            for k in w:
                vec = times(vec, assignment[divmod(k, n)])
            total = [field.add(x, field.mul(c, y)) for x, y in zip(total, vec)]
        if any(x != zero for x in total):
            out["relations"] = False
    for j, k in pairs:
        rhs = [[zero] * dim for _ in range(dim)]
        for u in range(n):
            left, right = assignment[(j, u)], assignment[(u, k)]
            for a in range(dim):
                for b in range(dim):
                    rhs[a][b] = field.add(rhs[a][b], field.mul(left[a], right[b]))
        if delta(assignment[(j, k)]) != rhs:
            out["delta"] = False
        if eps(assignment[(j, k)]) != (field.one if j == k else zero):
            out["eps"] = False
    out["coaction"] = all(assignment[(v, l)] == target_data.coelems[v][l] for v, l in pairs)
    if source_data is not None:
        out["action"] = all(act_element(target_data, assignment[(i, j)])
                            == source_data.action[(i, j)] for i, j in pairs)
    return out


def naive_comult_map(H, h_first):
    """Entries of g (x) h -> sum x (x) h_(2), with x = h_(1) g if h_first, else
    g h_(1), by a loop over every dense table entry."""
    f, dim = H.field, H.dim
    ent = [[f.zero] * (dim * dim) for _ in range(dim * dim)]
    for a in range(dim):
        for b in range(dim):
            col = a * dim + b
            for u in range(dim):
                for v in range(dim):
                    c = H.comult[b][u][v]
                    if c == f.zero:
                        continue
                    prod = H.mult[u][a] if h_first else H.mult[a][u]
                    for i in range(dim):
                        row = i * dim + v
                        ent[row][col] = f.add(ent[row][col], f.mul(c, prod[i]))
    return ent


def naive_galois_rprime(H):
    """Entries of R'(g (x) h) = sum g_(1) (x) S(g_(2)) h, with S(g_(2)) h
    multiplied out on dense vectors."""
    f, dim = H.field, H.dim
    times, _, _ = _dense_bialgebra_ops(H)
    basis = [[f.one if k == t else f.zero for k in range(dim)] for t in range(dim)]
    ent = [[f.zero] * (dim * dim) for _ in range(dim * dim)]
    for a in range(dim):
        for b in range(dim):
            col = a * dim + b
            for u in range(dim):
                for v in range(dim):
                    c = H.comult[a][u][v]
                    if c == f.zero:
                        continue
                    sv = times(H.antipode[v], basis[b])
                    for j in range(dim):
                        row = u * dim + j
                        ent[row][col] = f.add(ent[row][col], f.mul(c, sv[j]))
    return ent
