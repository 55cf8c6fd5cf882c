"""Noncommutative rewriting over the free algebra: orientation, overlap
completion up to a degree bound, normal forms, irreducible-word bases,
dimension reports, quotient structure tables and presentation equivalence.

The monomial order is deglex with the row-major generator order pinned in
freealgebra; rule tails are strictly smaller than their leading words, so
reduction never increases degree and always terminates. Completion keeps the
rule set inter-reduced and processes overlap obligations FIFO, so the result
is deterministic for a given relation list.

Reduction looks rules up in a hash index of their left-hand sides (lhs word
-> rule, plus the distinct lhs lengths) instead of scanning the rule list:
at each position of a word it tries one slice per lhs length. Because the
rule set is inter-reduced, no lhs is a factor of another and at most one lhs
matches at any position, so the leftmost match picks the rule a scan would.
On a list that is not inter-reduced the first matching rule in list order
still wins. Every RewriteSystem builds its index from its rules; complete()
updates the index of its working system only when it admits or retires a
rule, and after admitting one re-reduces only the tails in which the new lhs
occurs. quotient_bialgebra and check_coideal reduce each word once per call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field

from .freealgebra import NCPoly, word_key

COMPLETION_STEP_LIMIT = 500_000  # safety valve; desk-scale inputs never get close


class CompletionError(RuntimeError):
    pass


class NotFiniteDimensionalError(ValueError):
    pass


@dataclass
class RewriteRule:
    lhs: tuple
    tail: NCPoly  # strictly deglex-smaller than lhs

    def poly(self):
        return NCPoly.word(self.tail.alphabet, self.tail.field, self.lhs) - self.tail

    def render(self, names=None):
        names = names or self.tail.alphabet.names
        lhs = "*".join(names[k] for k in self.lhs) if self.lhs else "1"
        return f"{lhs} -> {self.tail.render(names)}"


@dataclass
class RewriteSystem:
    alphabet: object
    field: object
    rules: list
    status: str  # "complete" | "capped"
    max_degree: int
    # built from rules at construction; complete() keeps its own in step
    index: _RuleIndex = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = _RuleIndex(self.rules)

    def is_complete(self):
        return self.status == "complete"

    def lhs_words(self):
        return [r.lhs for r in self.rules]

    def to_json(self):
        f = self.field
        return {
            "order": "deglex/row-major",
            "status": self.status,
            "max_degree": self.max_degree,
            "rules": [
                {
                    "lhs": list(r.lhs),
                    "tail": [[list(w), f.scalar_to_json(c)] for w, c in r.tail.sorted_terms()],
                    "text": r.render(),
                }
                for r in self.rules
            ],
        }


def _orient(poly):
    """Monic polynomial -> (lhs word, tail) with tail = lhs - poly."""
    p = poly.monic()
    lhs = p.leading_word()
    tail = NCPoly.word(p.alphabet, p.field, lhs) - p
    return RewriteRule(lhs, tail)


class _RuleIndex:
    """Hash index of rule left-hand sides: lhs -> (rank, rule), with rank the
    rule's place in list order, plus the sorted distinct lhs lengths.

    At each position of a word the index tries every lhs length; the leftmost
    position with a match wins, and among several matches there the lowest
    rank, as a scan of the rule list would pick. In an inter-reduced set no
    lhs is a factor of another, so at most one lhs matches at a position.
    """

    __slots__ = ("by_lhs", "lengths", "_next_rank")

    def __init__(self, rules=()):
        self.by_lhs = {}
        self.lengths = []
        self._next_rank = 0
        for r in rules:
            self.add(r)

    def add(self, rule):
        rank = self._next_rank
        self._next_rank += 1
        if rule.lhs in self.by_lhs:  # a later duplicate never wins
            return
        self.by_lhs[rule.lhs] = (rank, rule)
        if len(rule.lhs) not in self.lengths:
            self.lengths = sorted(self.lengths + [len(rule.lhs)])

    def remove(self, rule):
        del self.by_lhs[rule.lhs]
        self.lengths = sorted({len(w) for w in self.by_lhs})

    def find(self, w):
        """(position, rule) of the reduction to apply to w, or None."""
        by_lhs = self.by_lhs
        if () in by_lhs:  # an empty lhs (unit ideal) matches everywhere
            return 0, by_lhs[()][1]
        n = len(w)
        lengths = self.lengths
        for pos in range(n):
            best = None
            for L in lengths:
                if pos + L > n:
                    break
                hit = by_lhs.get(w[pos:pos + L])
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
            if best is not None:
                return pos, best[1]
        return None


def _has_factor(w, f):
    L = len(f)
    if len(w) <= L:
        return w == f
    return any(w[i:i + L] == f for i in range(len(w) - L + 1))


def normal_form(poly, rs):
    """Reduce every term until no factor matches a rule; linear, idempotent."""
    field = poly.field
    zero, add, mul = field.zero, field.add, field.mul
    find = rs.index.find
    work = dict(poly.terms)
    done = {}
    while work:
        w = max(work, key=word_key)
        c = work.pop(w)
        hit = find(w)
        if hit is None:
            if c:  # words leave work in falling order, each once
                done[w] = c
            continue
        pos, rule = hit
        head, tail_of_word = w[:pos], w[pos + len(rule.lhs):]
        for t, tc in rule.tail.terms.items():
            nw = head + t + tail_of_word
            s = add(work.get(nw, zero), mul(c, tc))
            if s:
                work[nw] = s
            else:
                work.pop(nw, None)
    out = NCPoly(poly.alphabet, poly.field)
    out.terms = done
    return out


def _word_normal_forms(rs):
    """normal_form(., rs) that reduces each word once per returned function:
    a single-term polynomial reuses the stored normal form of its word."""
    memo = {}

    def nf(p):
        if len(p.terms) != 1:
            return normal_form(p, rs)
        (w, c), = p.terms.items()
        q = memo.get(w)
        if q is None:
            q = memo[w] = normal_form(NCPoly.word(p.alphabet, p.field, w), rs)
        return q if c == p.field.one else q.scale(c)

    return nf


def _proper_overlaps(r1, r2):
    """Suffix-of-r1 = prefix-of-r2 ambiguities; S-polynomial per ambiguity."""
    w1, w2 = r1.lhs, r2.lhs
    out = []
    for L in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - L:] != w2[:L]:
            continue
        amb = w1 + w2[L:]
        a = w1[:len(w1) - L]
        b = w2[L:]
        alphabet, field = r1.tail.alphabet, r1.tail.field
        left = r1.tail * NCPoly.word(alphabet, field, b)
        right = NCPoly.word(alphabet, field, a) * r2.tail
        out.append((amb, left - right))
    return out


def complete(relations, max_degree=8):
    """Inter-reduced rewriting system from the relations.

    Status is "complete" iff every overlap ambiguity resolved to zero and
    nothing (input relation, admitted rule, or ambiguity word) exceeded
    max_degree; otherwise "capped". Reaching the cap is never an exception.
    """
    relations = [r for r in relations if not r.is_zero()]
    if not relations:
        return RewriteSystem(None, None, [], "complete", max_degree)
    alphabet = relations[0].alphabet
    field = relations[0].field
    queue = deque(
        sorted((r.monic() for r in relations), key=lambda p: word_key(p.leading_word()))
    )
    rules = []
    # the working system: its rule list and index change only when a rule
    # is admitted or retired
    work = RewriteSystem(alphabet, field, rules, "capped", max_degree)
    index = work.index
    capped = False
    steps = 0
    while queue:
        steps += 1
        if steps > COMPLETION_STEP_LIMIT:
            raise CompletionError("completion did not settle within the step limit")
        p = normal_form(queue.popleft(), work)
        if p.is_zero():
            continue
        if p.degree() > max_degree:
            capped = True
            continue
        new = _orient(p)
        if not new.lhs:
            # constant relation: unit ideal; single rule 1 -> 0
            rules = [RewriteRule((), NCPoly.zero(alphabet, field))]
            break
        kept = []
        for r in rules:
            if _has_factor(r.lhs, new.lhs):
                queue.append(r.poly())
                index.remove(r)
            else:
                kept.append(r)
        kept.append(new)
        rules[:] = kept
        index.add(new)
        # every tail was irreducible before new came in, and the tail of new
        # is smaller than its lhs: only tails with the lhs as a factor change
        for r in rules:
            if any(_has_factor(t, new.lhs) for t in r.tail.terms):
                r.tail = normal_form(r.tail, work)
        for r in rules:
            for pair in (new, r), (r, new):
                for amb, spoly in _proper_overlaps(*pair):
                    if len(amb) > max_degree:
                        capped = True
                    else:
                        queue.append(spoly)
    rules.sort(key=lambda r: word_key(r.lhs))
    return RewriteSystem(alphabet, field, rules, "capped" if capped else "complete", max_degree)


def irreducible_levels(rs, max_len):
    """Irreducible words grouped by length, stopping early at an empty level."""
    if rs.alphabet is None:
        return [[()]]
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


def irreducible_words(rs, max_len):
    """All irreducible words of length <= max_len, in deglex order."""
    return [w for level in irreducible_levels(rs, max_len) for w in level]


@dataclass
class DimensionReport:
    kind: str  # "finite" | "lower_bound"
    count: int
    hilbert_prefix: list
    word_length_cap: int | None = None

    def is_finite(self):
        return self.kind == "finite"


def dimension(rs, max_len=12):
    """Quotient dimension by irreducible-word exhaustion.

    A finite verdict needs a complete system plus an exhausted level: once a
    length has no irreducible words, no longer word can avoid reducible
    factors. Anything else is reported as a lower bound at the cap.
    """
    levels = irreducible_levels(rs, max_len)
    counts = [len(level) for level in levels]
    total = sum(counts)
    if rs.status == "complete" and counts and counts[-1] == 0:
        return DimensionReport("finite", total, counts)
    return DimensionReport("lower_bound", total, counts, word_length_cap=max_len)


def check_coideal(pres, rs):
    """Delta(r) with both tensor legs reduced must vanish for every relation.

    On a complete system this is exactly Delta(r) in I(x)T + T(x)I; with a
    capped system the verdict is only degree-bounded.
    """
    nf = _word_normal_forms(rs)
    for r in pres.relations:
        if not r.delta().map_legs(nf).is_zero():
            return False
    return True


def quotient_bialgebra(pres, rs, max_len=12):
    """Structure tables of T(C)/I on the irreducible-word basis.

    Needs a complete system, a finite dimension and the coideal property
    (otherwise the comultiplication would not descend).
    """
    from .bialgebras import StructureBialgebra  # deferred: bialgebras is a leaf

    if not rs.is_complete():
        raise NotFiniteDimensionalError("rewriting system is not complete")
    report = dimension(rs, max_len)
    if not report.is_finite():
        raise NotFiniteDimensionalError(
            f"no empty irreducible level up to length {max_len}; dimension undecided"
        )
    if not check_coideal(pres, rs):
        raise ValueError("relation ideal is not a coideal; no quotient bialgebra")
    field = rs.field
    alphabet = rs.alphabet
    words = irreducible_words(rs, max_len)
    index = {w: k for k, w in enumerate(words)}
    dim = len(words)
    zero = field.zero

    def to_vec(poly):
        vec = [zero] * dim
        for w, c in poly.terms.items():
            vec[index[w]] = c
        return vec

    nf = _word_normal_forms(rs)
    unit = to_vec(nf(NCPoly.one(alphabet, field)))
    mult = [
        [to_vec(nf(NCPoly.word(alphabet, field, wi + wj))) for wj in words]
        for wi in words
    ]
    comult = []
    for w in words:
        dw = NCPoly.word(alphabet, field, w).delta().map_legs(nf)
        mat = [[zero] * dim for _ in range(dim)]
        for (w1, w2), c in dw.terms.items():
            mat[index[w1]][index[w2]] = c
        comult.append(mat)
    counit = [NCPoly.word(alphabet, field, w).eps() for w in words]
    names = alphabet.names
    labels = ["*".join(names[k] for k in w) if w else "1" for w in words]
    return StructureBialgebra(
        field=field,
        dim=dim,
        basis_labels=labels,
        unit=unit,
        mult=mult,
        comult=comult,
        counit=counit,
        antipode=None,
        basis_words=words,
    )


@dataclass
class EquivalenceReport:
    forward_annihilates: bool
    backward_annihilates: bool
    roundtrip_ok: bool | None
    undecided: bool
    degree_bounded: bool
    max_degree: int

    @property
    def equivalent(self):
        return (
            not self.undecided
            and self.forward_annihilates
            and self.backward_annihilates
            and self.roundtrip_ok is not False
        )

    @property
    def containment(self):
        if self.forward_annihilates and not self.backward_annihilates:
            return "forward"
        if self.backward_annihilates and not self.forward_annihilates:
            return "backward"
        return None


def presentations_equivalent(p1, p2, forward, backward, max_degree=6, check_roundtrip=True):
    """Degree-bounded bidirectional equivalence under the given substitutions.

    forward maps each letter of p1's alphabet into p2's algebra, backward the
    other way. Both relation lists must map to normal form zero; optionally
    the two composites must fix every generator modulo the ideals.
    """
    rs1 = complete(p1.relations, max_degree)
    rs2 = complete(p2.relations, max_degree)
    undecided = False

    def annihilates(relations, images, rs):
        nonlocal undecided
        ok = True
        for r in relations:
            q = r.substitute(images)
            if q.degree() > max_degree:
                undecided = True
                continue
            if not normal_form(q, rs).is_zero():
                ok = False
        return ok

    fwd = annihilates(p1.relations, forward, rs2)
    bwd = annihilates(p2.relations, backward, rs1)
    roundtrip = None
    if check_roundtrip:
        roundtrip = True
        for k in range(len(p1.alphabet)):
            g = NCPoly.letter(p1.alphabet, p1.field, k)
            back = forward[k].substitute(backward)
            if back.degree() > max_degree:
                undecided = True
                continue
            if normal_form(back, rs1) != normal_form(g, rs1):
                roundtrip = False
        for k in range(len(p2.alphabet)):
            g = NCPoly.letter(p2.alphabet, p2.field, k)
            back = backward[k].substitute(forward)
            if back.degree() > max_degree:
                undecided = True
                continue
            if normal_form(back, rs2) != normal_form(g, rs2):
                roundtrip = False
    return EquivalenceReport(
        forward_annihilates=fwd,
        backward_annihilates=bwd,
        roundtrip_ok=roundtrip,
        undecided=undecided,
        degree_bounded=(rs1.status == "capped" or rs2.status == "capped"),
        max_degree=max_degree,
    )
