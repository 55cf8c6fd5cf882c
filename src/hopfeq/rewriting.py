"""Noncommutative rewriting over the free algebra: orientation, overlap
completion up to a degree bound, normal forms, irreducible-word bases,
dimension reports, quotient structure tables and presentation equivalence.

The monomial order is deglex with the row-major generator order pinned in
freealgebra; rule tails are strictly smaller than their leading words, so
reduction never increases degree and always terminates. Completion keeps the
rule set inter-reduced and processes overlap obligations FIFO, so the result
is deterministic for a given relation list.

Reduction looks rules up in a hash index of their left-hand sides (lhs word
-> rule, plus every lhs length it has held) instead of scanning the rule list:
at each position of a word it tries one slice per lhs length. Because the
rule set is inter-reduced, no lhs is a factor of another and at most one lhs
matches at any position, so the leftmost match picks the rule a scan would.
On a list that is not inter-reduced the first matching rule in list order
still wins. Every RewriteSystem builds its index from its rules; complete()
updates the index of its working system only when it admits or retires a
rule, and after admitting one re-reduces only the tails in which the new lhs
occurs. quotient_bialgebra reduces each word once per call: one memo serves
its mult table, its comult table and, on relations that frt did not build,
its coideal check (on those frt built, R's own Delta identity decides it).

Completion first tries a direct route, for relations of degree at most 2
under a cap of at least 3. Row reduction of the relations, over
deglex-descending words through a pivot index, must make every quadratic
word a leading word and leave no element of degree 1 or 0 in their span.
Then the reduced rows are rules xy -> t(xy) with tails in span{1, letters},
and their only ambiguities are the cubic words xyz. Either side of one
reduces through a degree-<=1 tail and one more rule to a product of the
table x . y = t(xy), so the ambiguity resolves iff (x . y) . z = x . (y . z),
and the system is complete iff the table is associative (Bergman's diamond
lemma). The table is lifted to ints and laid out on the basis {1, letters},
with 1 as its unit, and decided by the one associativity check of the
package, ``bialgebras._associative``, which also decides the associativity
and coassociativity of a structure bialgebra. Otherwise the overlap loop
runs. The reduced system of an ideal is unique, so both routes give the
same rules.

The loop takes the overlap ambiguities of a new rule (Bergman's) from
the same index, which maps every proper prefix and proper suffix of an lhs
to its rules: the new lhs looks up each of its own suffixes among the
prefixes and each of its prefixes among the suffixes, and each hit is one
ambiguity with its overlap length, so no pair of rules is searched again.
They come per rule in list order, so the queue receives the same
S-polynomials in the same order as a pass over every rule would give it,
and one whose ambiguity word exceeds the degree bound is never built.

Dimension counts irreducible words instead of listing them, on the
Ufnarovski graph: whether an irreducible word stays irreducible after one
more letter depends only on its last max|lhs| - 1 letters, so a count per
such suffix, advanced one letter at a time, gives the number of irreducible
words of each length. Words are listed only for a quotient basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from functools import cache
from itertools import chain
from math import lcm

from . import bialgebras, linalg
from .freealgebra import NCPoly, render_word, word_key

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
        return f"{render_word(self.lhs, names)} -> {self.tail.render(names)}"


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
    rule's place in list order, plus the sorted lhs lengths ever added, plus
    every proper prefix and every proper suffix of an lhs -> {rank: rule}.

    At each position of a word the index tries every lhs length; the leftmost
    position with a match wins, and among several matches there the lowest
    rank, as a scan of the rule list would pick. In an inter-reduced set no
    lhs is a factor of another, so at most one lhs matches at a position.
    """

    __slots__ = ("by_lhs", "lengths", "prefixes", "suffixes", "_next_rank")

    def __init__(self, rules=()):
        self.by_lhs = {}
        self.lengths = []
        self.prefixes = {}
        self.suffixes = {}
        self._next_rank = 0
        for r in rules:
            self.add(r)

    def add(self, rule):
        rank = self._next_rank
        self._next_rank += 1
        w = rule.lhs
        if w in self.by_lhs:  # a later duplicate never wins
            return
        self.by_lhs[w] = (rank, rule)
        if len(w) not in self.lengths:
            self.lengths = sorted(self.lengths + [len(w)])
        for L in range(1, len(w)):
            self.prefixes.setdefault(w[:L], {})[rank] = rule
            self.suffixes.setdefault(w[-L:], {})[rank] = rule

    def remove(self, rule):
        # a length left with no lhs costs find one dict miss per position
        w = rule.lhs
        rank, _ = self.by_lhs.pop(w)
        for L in range(1, len(w)):
            del self.prefixes[w[:L]][rank]
            del self.suffixes[w[-L:]][rank]

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

    def overlaps(self, new):
        """The ambiguities of the indexed rule new with the indexed rules, as
        (r1, r2, L): the last L letters of r1.lhs are the first L of r2.lhs,
        both proper. Per rule in rank order, those with new on the left come
        first, then those with new on the right, each by increasing L; a
        self-overlap of new comes once per L."""
        w = new.lhs
        found = {}  # rank -> (new on the left, new on the right)
        for L in range(1, len(w)):
            for rank, r in self.prefixes.get(w[-L:], {}).items():
                found.setdefault(rank, ([], []))[0].append((new, r, L))
            for rank, r in self.suffixes.get(w[:L], {}).items():
                if r is not new:
                    found.setdefault(rank, ([], []))[1].append((r, new, L))
        return [amb for rank in sorted(found) for group in found[rank] for amb in group]


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
    return poly._with(done)


def _word_images(rs):
    """(nf, delta): nf(w) is the normal form of the word w under rs, as its
    terms {word: scalar}, and delta(w) its reduced coproduct
    (nf (x) nf)(Delta(w)), kept as (ints, d), a map from word pairs to ints
    that stand for ints / d, with one positive int d: the square of the one
    denominator of its legs (Field.lift). Each is worked out once."""
    alphabet, field = rs.alphabet, rs.field
    nf = cache(lambda w: normal_form(NCPoly.word(alphabet, field, w), rs).terms)

    @cache
    def reduce_delta(w):
        # every key of Delta(w) has coefficient 1
        legs = [nf(u) for pair in NCPoly.word(alphabet, field, w).delta().terms for u in pair]
        ints, d = field.lift([list(leg.values()) for leg in legs])
        return linalg.int_sums(
            ((u1, u2), a * b)
            for left, right, a_row, b_row in zip(legs[::2], legs[1::2], ints[::2], ints[1::2])
            for u1, a in zip(left, a_row) for u2, b in zip(right, b_row)), d * d

    return nf, reduce_delta


def _s_polynomial(r1, r2, L):
    """The S-polynomial tail1 b - a tail2 of the ambiguity a t b, where
    r1.lhs = a t and r2.lhs = t b with |t| = L."""
    tail1, tail2 = r1.tail, r2.tail
    a, b = r1.lhs[:len(r1.lhs) - L], r2.lhs[L:]
    neg = tail1.field.neg
    return tail1._with(tail1.field.combine(
        [(t + b, c) for t, c in tail1.terms.items()]
        + [(a + t, neg(c)) for t, c in tail2.terms.items()]))


def complete(relations, max_degree=8, alphabet=None, field=None):
    """Inter-reduced rewriting system from the relations.

    Status is "complete" iff every overlap ambiguity resolved to zero and
    nothing (input relation, admitted rule, or ambiguity word) exceeded
    max_degree; otherwise "capped". Reaching the cap is never an exception;
    a negative max_degree is refused. The system takes the alphabet and
    field of the first relation; the ones passed are used only for an empty
    relation list, which cannot carry them, so a caller that holds a
    presentation passes its own.

    Relations of degree at most 2 whose quadratic parts span every quadratic
    word are completed directly (``_complete_by_table``), when max_degree is
    at least 3 and the table they define is associative; every other system
    goes through the overlap loop (``_complete_by_overlaps``). Both give the
    reduced deglex system of the ideal, which is unique, so the two routes
    return the same rules. Proof that the direct route is right: once every
    quadratic word xy is a leading word, its rule xy -> t(xy) has a tail in
    span{1, letters}, no lhs is a factor of another, and the only overlap
    ambiguities are the cubic words xyz, from xy -> t(xy) and yz -> t(yz),
    each within a cap of 3 or more. Reducing (xy)z gives t(xy) z, whose
    terms are the letter z and words k z of two letters, each the lhs of one
    more rule; so (xy)z reduces to the table product t(xy) . z in span{1,
    letters}, which is irreducible, and x(yz) to x . t(yz) likewise. The
    ambiguity resolves iff the two agree, which for all x, y, z is the
    associativity of the table (Bergman's diamond lemma, Adv. Math. 1978,
    Thm 1.2). With 1 adjoined as a two-sided unit, the table on span{1,
    letters} is associative iff it is on the letter triples, so the route
    hands it to the shared check ``bialgebras._associative``. A degree-1 or
    constant element in the span of the relations would be one more rule,
    of another shape, so the direct route refuses it.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    relations = [r for r in relations if not r.is_zero()]
    if not relations:
        return RewriteSystem(alphabet, field, [], "complete", max_degree)
    alphabet, field = relations[0].alphabet, relations[0].field
    # below 3 the cubic ambiguities exceed the cap: the loop reports them
    rules = _complete_by_table(relations) if max_degree >= 3 else None
    if rules is not None:
        return RewriteSystem(alphabet, field, rules, "complete", max_degree)
    return _complete_by_overlaps(relations, max_degree)


def _complete_by_table(relations):
    """The rules of a nonempty list of relations of degree at most 2 whose
    quadratic parts span every quadratic word and whose table on span{1,
    letters} is associative, sorted as complete() sorts them; None when any
    of these fails.

    The relations are row-reduced over deglex-descending words, each row
    against the rows already taken through a pivot index (lead word ->
    monic row); a row with a new lead of degree 1 or 0 ends the attempt.
    Then each row, in ascending lead order, trades its other quadratic
    words for the tails of their rows, which are already in span{1,
    letters}. The table x . y = t(xy) is lifted to ints over one
    denominator d (Field.lift) and laid out on the basis {1, letters}, with
    1 as its unit, for the one associativity check of the package
    (``bialgebras._associative``)."""
    alphabet, field = relations[0].alphabet, relations[0].field
    n = len(alphabet)
    if len(relations) < n * n or any(r.degree() > 2 for r in relations):
        return None
    mul, neg, inv = field.mul, field.neg, field.inv

    def add_multiple(row, c, other):  # row + c * other
        return field.combine(chain(row.items(), ((w, mul(c, a)) for w, a in other.items())))

    rows = {}
    for rel in relations:
        row = dict(rel.terms)
        while row:
            lead = max(row, key=word_key)
            pivot = rows.get(lead)
            if pivot is None:
                break
            row = add_multiple(row, neg(row[lead]), pivot)
        if not row:
            continue
        if len(lead) < 2:
            return None
        c = inv(row[lead])
        rows[lead] = {w: mul(c, a) for w, a in row.items()}
    if len(rows) < n * n:
        return None
    leads = sorted(rows, key=word_key)
    for lead in leads:  # each lower lead w is done: rows[w] is w - t(w)
        row = rows[lead]
        del row[lead]
        for w in [w for w in row if len(w) == 2]:
            rows[lead] = row = add_multiple(row, neg(row.pop(w)), rows[w])
    tails = [{t: neg(a) for t, a in rows[lead].items()} for lead in leads]
    ints, d = field.lift([list(tail.values()) for tail in tails])
    # the table on the basis {1, letters}: index 0 is 1 and index 1 + k the
    # letter k, so the unit rows are {i + j: d}
    table = [[{i + j: d} if not (i and j) else None for j in range(n + 1)] for i in range(n + 1)]
    for (x, y), tail, a_row in zip(leads, tails, ints):
        table[1 + x][1 + y] = {(1 + t[0] if t else 0): a for t, a in zip(tail, a_row)}
    if not bialgebras._associative(field, table):
        return None
    return [RewriteRule(lead, NCPoly._from_terms(alphabet, field, tail))
            for lead, tail in zip(leads, tails)]


def _complete_by_overlaps(relations, max_degree):
    """complete() on nonzero relations by the overlap loop: FIFO S-polynomials
    of every ambiguity within max_degree, with the rule set kept
    inter-reduced."""
    alphabet, field = relations[0].alphabet, relations[0].field
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
    top = (0, ())  # at or above every live lhs: the highest lhs admitted
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
        # a matched lhs, or one above a matched tail word, lies above new.lhs
        scan, top = word_key(new.lhs) < top, max(top, word_key(new.lhs))
        retired = [r for r in rules if _has_factor(r.lhs, new.lhs)] if scan else ()
        if retired:  # nearly always none: rebuild the list only then
            rules[:] = [r for r in rules if not _has_factor(r.lhs, new.lhs)]
            for r in retired:
                queue.append(r.poly())
                index.remove(r)
        rules.append(new)
        index.add(new)
        # every tail was irreducible before new came in, and the tail of new
        # is smaller than its lhs: only tails with the lhs as a factor change
        for r in rules if scan else ():
            if any(_has_factor(t, new.lhs) for t in r.tail.terms):
                r.tail = normal_form(r.tail, work)
        # the index lists every ambiguity of new with a live rule, itself
        # included, in the order of a pass over the rule list; one whose word
        # exceeds the bound caps the run and is never built
        for r1, r2, L in index.overlaps(new):
            if len(r1.lhs) + len(r2.lhs) - L > max_degree:
                capped = True
            else:
                queue.append(_s_polynomial(r1, r2, L))
    rules.sort(key=lambda r: word_key(r.lhs))
    return RewriteSystem(alphabet, field, rules, "capped" if capped else "complete", max_degree)


class _WordGraph:
    """Ufnarovski graph of the irreducible words of a rewriting system.

    A word is irreducible iff no lhs is a factor of it. Appending a letter to
    an irreducible word can only create a factor at its end, of length at
    most max|lhs|, so whether w g is irreducible depends only on g and on the
    last max|lhs| - 1 letters of w: that suffix is the state of w. step(s, g)
    is the state of w g, or None when w g is reducible; it is worked out once
    per (state, letter) with the suffix-in-lhs test.
    """

    def __init__(self, rs):
        self.lhs = set(rs.lhs_words())
        self.max_lhs = max((len(w) for w in self.lhs), default=1)
        self.letters = range(len(rs.alphabet))
        self._next = {}

    def step(self, state, g):
        key = state, g
        if key in self._next:
            return self._next[key]
        w = state + (g,)  # at most max|lhs| letters: test each suffix
        if any(w[i:] in self.lhs for i in range(len(w))):
            nxt = None
        else:
            nxt = w[1:] if len(w) == self.max_lhs else w
        self._next[key] = nxt
        return nxt

    def counts(self, max_len):
        """Irreducible words per length, up to max_len or the first empty
        length, counted per state: a vector over the states, one step per
        length; an empty lhs (unit ideal) leaves no word at all."""
        level = {} if () in self.lhs else {(): 1}
        out = [sum(level.values())]
        while level and len(out) <= max_len:
            nxt = {}
            for state, n in level.items():
                for g in self.letters:
                    t = self.step(state, g)
                    if t is not None:
                        nxt[t] = nxt.get(t, 0) + n
            out.append(sum(nxt.values()))
            level = nxt
        return out

    def words(self, max_len):
        """All irreducible words of length <= max_len, in deglex order."""
        level = [] if () in self.lhs else [((), ())]  # (word, state), deglex
        out = [w for w, _ in level]
        while level and len(level[0][0]) < max_len:
            level = [(w + (g,), t) for w, state in level for g in self.letters
                     for t in (self.step(state, g),) if t is not None]
            out += [w for w, _ in level]
        return out


def irreducible_words(rs, max_len):
    """All irreducible words of length <= max_len, in deglex order."""
    return _WordGraph(rs).words(max_len)


@dataclass
class DimensionReport:
    kind: str  # "finite" | "lower_bound"
    count: int
    hilbert_prefix: list
    word_length_cap: int | None = None

    def is_finite(self):
        return self.kind == "finite"


def dimension(rs, max_len=12):
    """Quotient dimension by counting irreducible words.

    A finite verdict needs a complete system plus an exhausted level: once a
    length has no irreducible words, no longer word can avoid reducible
    factors. Anything else is reported as a lower bound at the cap. A
    negative max_len is refused.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if rs.alphabet is None:  # complete() given no relations and no alphabet
        return DimensionReport("lower_bound", 1, [1], word_length_cap=max_len)
    counts = _WordGraph(rs).counts(max_len)
    total = sum(counts)
    if rs.status == "complete" and counts[-1] == 0:
        return DimensionReport("finite", total, counts)
    return DimensionReport("lower_bound", total, counts, word_length_cap=max_len)


def check_coideal(pres, rs, images=None):
    """Delta(r) with both tensor legs reduced must vanish for every relation.

    On a complete system this is exactly Delta(r) in I(x)T + T(x)I; with a
    capped system the verdict is only degree-bounded. (nf (x) nf) o Delta is
    linear, so r = sum_w r_w w reduces to sum_w r_w image(w), where the image
    of each word is worked out once (images: the caller's memo of them, from
    _word_images). Each relation's sum is taken in ints over one denominator
    and tested for zero on its own, never added to another relation first.
    """
    images = images or _word_images(rs)[1]
    for r in pres.relations:
        field = r.field
        (coeffs,), e = field.lift([list(r.terms.values())])
        parts = [images(w) for w in r.terms]
        den = lcm(*(d for _, d in parts))
        acc = linalg.int_sums((key, a * (den // d) * v)
                              for a, (ints, d) in zip(coeffs, parts) for key, v in ints.items())
        if any(field.lower([list(acc.values())], e * den)[0]):
            return False
    return True


def quotient_bialgebra(pres, rs, max_len=12):
    """Structure tables of T(C)/I on the irreducible-word basis.

    Needs a complete system of the relations of pres, a finite dimension and
    the coideal property (otherwise the comultiplication would not descend).

    On relations that ``frt`` built from R and left as built, the coideal
    verdict is ``pres.coideal_certificate()``: ``verify_delta_chi(R)``,
    decided in O(n^6) from the chi coefficients. Proof: the identity
    Delta(chi(i,j,k,l)) = sum_{a,b} chi(i,j,a,b) (x) c_ak c_bl + sum_p c_ip
    (x) chi(p,j,k,l) puts Delta(I) in I (x) T + T (x) I, for the ideal I of
    all chi, which the monic, deduplicated chi relations also span. The
    commutators of ``frt_commutative`` keep it so: Delta(c_rk c_sj - c_sj
    c_rk) = sum_{p,q} c_rp c_sq (x) [c_pk, c_qj] + [c_rp, c_sq] (x) c_qj
    c_pk. eps(I) = 0 is not checked here: the relations are the nonzero chi
    made monic, of counit 0 for every R (``frt.eps_chi_zero``), and
    commutators, of counit 0; and ``Presentation`` refuses a comatrix
    relation of nonzero counit when it is built. So both variants, with or
    without force, take the same verdict. Any other relations (a hand-built
    presentation, one read by ``from_json``, one whose relations were
    replaced or changed in place) are decided by ``check_coideal``,
    relation by relation.
    """
    if not rs.is_complete():
        raise NotFiniteDimensionalError("rewriting system is not complete")
    graph = _WordGraph(rs)
    if graph.counts(max_len)[-1]:
        raise NotFiniteDimensionalError(
            f"no empty irreducible level up to length {max_len}; dimension undecided"
        )
    nf, images = _word_images(rs)
    verdict = pres.coideal_certificate()
    if not (check_coideal(pres, rs, images) if verdict is None else verdict):
        raise ValueError("relation ideal is not a coideal; no quotient bialgebra")
    field, alphabet = rs.field, rs.alphabet
    words = graph.words(max_len)
    index = {w: k for k, w in enumerate(words)}

    def delta(w):  # the reduced coproduct of w, keyed by basis index pairs
        ints, d = images(w)
        return {(index[w1], index[w2]): c
                for (w1, w2), c in zip(ints, field.lower([list(ints.values())], d)[0]) if c}

    unit = [nf(()).get(w, field.zero) for w in words]
    mult = [[{index[w]: c for w, c in nf(wi + wj).items()} for wj in words] for wi in words]
    comult = [delta(w) for w in words]
    counit = [NCPoly.word(alphabet, field, w).eps() for w in words]
    labels = [render_word(w, alphabet.names) for w in words]
    return bialgebras.StructureBialgebra(field, len(words), labels, unit, mult, comult, counit,
                                         basis_words=words)


@dataclass
class EquivalenceReport:
    forward_annihilates: bool
    backward_annihilates: bool
    roundtrip_ok: bool
    undecided: bool
    degree_bounded: bool
    max_degree: int

    @property
    def equivalent(self):
        return (
            not self.undecided
            and self.forward_annihilates
            and self.backward_annihilates
            and self.roundtrip_ok
        )


def presentations_equivalent(p1, p2, forward, backward, max_degree=6):
    """Degree-bounded bidirectional equivalence under the given substitutions.

    forward maps each letter of p1's alphabet into p2's algebra, backward the
    other way. Both relation lists must map to normal form zero, and the two
    composites must fix every generator modulo the ideals.
    """
    rs1 = complete(p1.relations, max_degree, p1.alphabet, p1.field)
    rs2 = complete(p2.relations, max_degree, p2.alphabet, p2.field)
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
    roundtrip = True
    for p, there, back_again, rs in (p1, forward, backward, rs1), (p2, backward, forward, rs2):
        for k in range(len(p.alphabet)):
            g = NCPoly.letter(p.alphabet, p.field, k)
            back = there[k].substitute(back_again)
            if back.degree() > max_degree:
                undecided = True
                continue
            if normal_form(back, rs) != normal_form(g, rs):
                roundtrip = False
    return EquivalenceReport(
        forward_annihilates=fwd,
        backward_annihilates=bwd,
        roundtrip_ok=roundtrip,
        undecided=undecided,
        degree_bounded=(rs1.status == "capped" or rs2.status == "capped"),
        max_degree=max_degree,
    )
