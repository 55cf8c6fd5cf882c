import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hopfeq import bialgebras as B, frt, linalg, rewriting as RW, tensorops as T
from hopfeq.fields import QQ, parse_field
from hopfeq.fixtures import build_fixture
from hopfeq.freealgebra import NCPoly, comatrix_alphabet, free_alphabet, render_word, word_key

F2 = parse_field("fp:2")
F3 = parse_field("fp:3")
F5 = parse_field("fp:5")
A2 = comatrix_alphabet(2)


def gen(i, j, field=QQ, alphabet=A2):
    return NCPoly.generator(alphabet, field, i, j)


def rule_map(rs):
    return {r.lhs: r.tail for r in rs.rules}


# -- completion ----------------------------------------------------------------

def test_complete_single_idempotent_n1():
    A1 = comatrix_alphabet(1)
    c = NCPoly.generator(A1, QQ, 0, 0)
    rs = RW.complete([(c * c - c).monic()], 8)
    assert rs.status == "complete"
    assert rule_map(rs) == {(0, 0): c}
    assert RW.normal_form(c * c * c * c, rs) == c


def test_complete_rq0_rules():
    pres = frt.frt_presentation(B.r_q(Fraction(0), QQ))
    rs = RW.complete(pres.relations, 8)
    assert rs.status == "complete"
    assert rule_map(rs) == {
        (2,): NCPoly.zero(A2, QQ),           # c21 -> 0
        (3, 0): gen(0, 0),                   # c22 c11 -> c11
        (3, 1): NCPoly.zero(A2, QQ),         # c22 c12 -> 0
    }


def test_complete_char2_system():
    built = frt.build(B.char2_matrix(F2))
    rs, rep = built.system, built.dimension
    assert rs.status == "complete"
    assert len(rs.rules) == 16  # every degree-2 word is a leading term
    words = RW.irreducible_words(rs, 8)
    assert words == [(), (0,), (1,), (2,), (3,)]
    assert rep.is_finite() and rep.count == 5
    assert rep.hilbert_prefix == [1, 4, 0]
    # zy = c21*c12 rewrites to x + t = c11 + c22 (the paper's zy = x + t)
    assert RW.normal_form(gen(1, 0, F2) * gen(0, 1, F2), rs) \
        == gen(0, 0, F2) + gen(1, 1, F2)


def test_normal_form_of_rule_lhs_is_tail():
    pres = frt.frt_presentation(B.char2_matrix(F2))
    rs = RW.complete(pres.relations, 8)
    for r in rs.rules:
        assert RW.normal_form(NCPoly.word(A2, F2, r.lhs), rs) == r.tail


def test_normal_form_kills_all_relations():
    for R in (B.char2_matrix(F2), B.r_q(Fraction(0), QQ)):
        pres = frt.frt_presentation(R)
        rs = RW.complete(pres.relations, 8)
        for rel in pres.relations:
            assert RW.normal_form(rel, rs).is_zero()


def test_normal_form_idempotent_linear_multiplicative():
    pres = frt.frt_presentation(B.char2_matrix(F2))
    rs = RW.complete(pres.relations, 8)
    rng = random.Random(51)

    def rand_poly():
        p = NCPoly.zero(A2, F2)
        for _ in range(4):
            w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
            p = p + NCPoly(A2, F2, {w: F2.random(rng)})
        return p

    for _ in range(10):
        p, q = rand_poly(), rand_poly()
        np_, nq = RW.normal_form(p, rs), RW.normal_form(q, rs)
        assert RW.normal_form(np_, rs) == np_
        assert RW.normal_form(p + q, rs) == np_ + nq
        assert RW.normal_form(p * q, rs) == RW.normal_form(np_ * nq, rs)


def test_completion_independent_of_relation_order():
    rng = random.Random(52)
    for R in (B.char2_matrix(F2), B.r_q(Fraction(0), QQ)):
        pres = frt.frt_presentation(R)
        rs0 = RW.complete(pres.relations, 8)
        want = {(r.lhs, tuple(sorted(r.tail.terms.items()))) for r in rs0.rules}
        for _ in range(3):
            shuffled = pres.relations[:]
            rng.shuffle(shuffled)
            rs = RW.complete(shuffled, 8)
            got = {(r.lhs, tuple(sorted(r.tail.terms.items()))) for r in rs.rules}
            assert got == want


def test_capped_status_blocks_finite_verdict():
    pres = frt.frt_presentation(B.char2_matrix(F2))
    rs = RW.complete(pres.relations, max_degree=1)
    assert rs.status == "capped"
    rep = RW.dimension(rs, 8)
    assert rep.kind == "lower_bound"


def test_unit_ideal_collapses():
    one = NCPoly.one(A2, QQ)
    rs = RW.complete([gen(0, 0) - one, gen(0, 0)], 8)
    assert RW.normal_form(one, rs).is_zero()
    assert RW.irreducible_words(rs, 4) == []


# -- indexed reduction against the linear scan -------------------------------------

def oriented(relations):
    """One rule per relation, with no completion: not inter-reduced."""
    rules = []
    for r in relations:
        p = r.monic()
        lhs = p.leading_word()
        rules.append(RW.RewriteRule(lhs, NCPoly.word(p.alphabet, p.field, lhs) - p))
    return rules


def index_cases():
    """(name, rewriting system) pairs: three completed systems, plus rule
    lists in the middle of completion or not inter-reduced at all."""
    cases = []
    for fid, fd in (("char2", "fp:2"), ("takesaki_c3", "q"), ("r_q:0", "q")):
        pres = frt.frt_presentation(build_fixture(fid, parse_field(fd)))
        cases.append((fid, RW.complete(pres.relations, 8)))
    # capped at degree 3, r_q:1 leaves overlaps that do not resolve
    pres = frt.frt_presentation(build_fixture("r_q:1", QQ))
    cases.append(("r_q:1 capped at 3", RW.complete(pres.relations, 3)))
    pres = frt.frt_presentation(build_fixture("takesaki_c3", QQ))
    A, F = pres.relations[0].alphabet, QQ
    # the degree-2 relations, then some of them times a letter (lhs words with
    # a shorter lhs as a factor) and plus a letter (the same lhs words again)
    some = pres.relations[:12]
    longer = [r * NCPoly.letter(A, F, k % len(A)) for k, r in enumerate(some)]
    shifted = [r + NCPoly.letter(A, F, k % len(A)) for k, r in enumerate(some)]
    raw = oriented(pres.relations + longer + shifted)
    cases.append(("takesaki_c3 raw", RW.RewriteSystem(A, F, raw, "capped", 8)))
    cases.append(("takesaki_c3 raw reversed", RW.RewriteSystem(A, F, raw[::-1], "capped", 8)))
    return cases


def test_raw_rule_lists_are_not_inter_reduced():
    _, raw = index_cases()[-1]
    lhs = [r.lhs for r in raw.rules]
    assert len(set(lhs)) < len(lhs)
    assert any(len(a) < len(b) and any(b[i:i + len(a)] == a for i in range(len(b)))
               for a in lhs for b in lhs)


@pytest.mark.parametrize("k", range(6))
def test_indexed_normal_form_matches_linear_scan(k):
    name, rs = index_cases()[k]
    field, letters = rs.field, len(rs.alphabet)
    rules = [(r.lhs, r.tail.terms) for r in rs.rules]
    rng = random.Random(60 + k)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.randrange(letters) for _ in range(rng.randint(0, 6)))
            terms[w] = field.random(rng)
        p = NCPoly(rs.alphabet, field, terms)
        assert RW.normal_form(p, rs).terms == \
            oracles.linear_scan_normal_form(field, p.terms, rules), name


def pairwise_ambiguities(new, live):
    """(r1, r2, L) for every proper overlap of new with a live rule, by a
    scan of the rule list: per rule, new on the left, then new on the right,
    each by increasing L; new with itself once."""
    out = []
    for r in live:
        for r1, r2 in ((new, r), (r, new)) if r is not new else ((new, new),):
            u, v = r1.lhs, r2.lhs
            out += [(r1, r2, L) for L in range(1, min(len(u), len(v)))
                    if u[len(u) - L:] == v[:L]]
    return out


def by_identity(ambiguities):
    return [(id(r1), id(r2), L) for r1, r2, L in ambiguities]


@pytest.mark.parametrize("k", range(4))
def test_overlap_index_matches_pairwise_scan(k):
    # completion queues the S-polynomials of the ambiguities the index lists,
    # in that order: they must be those a scan of the live rule list finds,
    # in list order, after retirements too
    name, rs = index_cases()[k]
    index = RW._RuleIndex(rs.rules)
    rng = random.Random(70 + k)
    retired = {id(r) for r in rng.sample(rs.rules, len(rs.rules) // 3)}
    live = []
    for r in rs.rules:
        if id(r) in retired:
            index.remove(r)
        else:
            live.append(r)
    letters = len(rs.alphabet)
    # indexed rules find themselves; retired rules and fresh words do not
    news = rs.rules + [
        RW.RewriteRule(tuple(rng.randrange(letters) for _ in range(rng.randint(1, 6))), None)
        for _ in range(40)]
    for new in news:
        assert by_identity(index.overlaps(new)) == \
            by_identity(pairwise_ambiguities(new, live)), name


def test_completion_pairs_each_self_overlap_once(monkeypatch):
    # a new rule is in the index when its overlaps are looked up, so it finds
    # itself; (new, new, L) must be built once per self-overlap length L.
    # complete() takes the direct route on char2, so the loop is run itself
    self_pairs = {}  # id -> (rule, lengths), the rule kept so ids stay apart
    s_polynomial = RW._s_polynomial

    def recording(r1, r2, L):
        if r1 is r2:
            self_pairs.setdefault(id(r1), (r1, []))[1].append(L)
        return s_polynomial(r1, r2, L)

    monkeypatch.setattr(RW, "_s_polynomial", recording)
    rels, _ = frt.chi_relations(B.char2_matrix(F2))
    RW._complete_by_overlaps(rels, 8)
    assert self_pairs
    for r, lengths in self_pairs.values():
        w = r.lhs
        assert lengths == [L for L in range(1, len(w))
                           if w[len(w) - L:] == w[:L] and 2 * len(w) - L <= 8]


def test_completion_builds_one_s_polynomial_per_ambiguity_within_the_bound(monkeypatch):
    built = []
    s_polynomial = RW._s_polynomial

    def recording(r1, r2, L):
        built.append(len(r1.lhs) + len(r2.lhs) - L)
        return s_polynomial(r1, r2, L)

    monkeypatch.setattr(RW, "_s_polynomial", recording)
    # the 625 lhs of takesaki_c5 are all the words of two of its 25 letters,
    # so its ambiguities are the 25^3 words of three, one overlap each (the
    # pair search that the index replaced ran 30,625 times); complete()
    # takes the direct route here, so the loop is run itself
    pres = frt.frt_presentation(build_fixture("takesaki_c5", QQ))
    rs = RW._complete_by_overlaps(pres.relations, 8)
    assert rs.is_complete() and len(rs.rules) == 625 and len(built) == 25 ** 3
    # capped at 3, r_q:1 lists ambiguities over the bound too, and builds
    # only those within it
    listed = _counting(monkeypatch, RW._RuleIndex, "overlaps", keep=True)
    built.clear()
    pres = frt.frt_presentation(build_fixture("r_q:1", QQ))
    assert not RW._complete_by_overlaps(pres.relations, 3).is_complete()
    words = [len(r1.lhs) + len(r2.lhs) - L for found in listed for r1, r2, L in found]
    assert built == [d for d in words if d <= 3] and len(built) < len(words)


def later_stages(pres, rs):
    """pres, rs, and the dimension report and quotient (None unless finite)
    that ``frt.build`` takes from them at degree 8."""
    rep = RW.dimension(rs, 8)
    return pres, rs, rep, RW.quotient_bialgebra(pres, rs, 8) if rep.is_finite() else None


def pipeline_doc(pres, rs, rep, quotient):
    """Rule list, status, dimension report and quotient tables of B(R), from
    its presentation, their completion at degree 8, its dimension report and
    its quotient."""
    doc = {"rs": rs.to_json(),
           "dim": [rep.kind, rep.count, rep.hilbert_prefix, rep.word_length_cap]}
    if quotient is not None:
        tables = quotient.to_json()
        # the digests predate the basis_words key; the words must spell the labels
        words = tables.pop("basis_words")
        assert [render_word(w, pres.alphabet.names) for w in words] == tables["basis"]
        doc["tables"] = tables
    return doc


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_b_of_r_outputs_pinned_over_f2_hopf_solutions(f2_hopf_systems):
    # digest recorded with the linear-scan reduction, before the index, and
    # re-recorded once the zero matrix's B(R), the free algebra on 4 letters,
    # was counted on its own alphabet (its document alone changed)
    docs = [pipeline_doc(*later_stages(pres, rs)) for _, pres, rs in f2_hopf_systems]
    assert len(docs) == 147
    assert sum(d["rs"]["status"] == "complete" for d in docs) == 143
    assert docs[0]["dim"] == ["lower_bound", 87381, [4 ** d for d in range(9)], 8]
    assert digest(docs) == "c94ccc7b85df8917e711f5405c04b7bbf0f6ec26eaa0b1fb57b3fc7264eaa304"


@pytest.mark.parametrize("fid,fd,want", [
    ("char2", "fp:2", "2a42a6911fcd4ef324bdf499f0fd6d97fc55d67c2d49e46a6a3d28f83b62f9d9"),
    ("takesaki_c3", "q", "7e3a0f77e4e813920e9e758768c2899c9cd4d3e72e72822300548974ae1140a2"),
    ("takesaki_c4", "q", "4d897e8a8e9f224eea6e21b44f5a31f6ccc06e80651be359c0b2302d4bc269d1"),
    ("galois_c3", "fp:7", "0d3455add24924028b471267fbeae169b44523d3813e5a3fe4009100e7faec5e"),
    ("r_q:0", "q", "4bdd240129491514bbb03d933821018547c150ea3e910d9dfb29bd36e936f08e"),
    ("r_q_prime:1", "q", "2c9843467b383f28dcb2ef0c943aab73116cd45d2d2212d2131c01394c113696"),
    ("graded_c2", "q", "244d0407f2fda2ad25d8b29b54149a57a7b6133b42e97e71d6e03e8966754e83"),
    # capped at degree 8; recorded with all-pairs completion and listed words
    ("r_q:1", "q", "fde73c35f5556da40953d20ea9c2d308a7aebf59aad53ea8139d3bc27dd57297"),
])
def test_b_of_r_outputs_pinned_on_fixtures(fid, fd, want):
    # digests recorded with the linear-scan reduction, before the index
    built = frt.build(build_fixture(fid, parse_field(fd)))
    doc = pipeline_doc(built.presentation, built.system, built.dimension, built.quotient)
    assert digest(doc) == want


# -- overlap-indexed completion and counted dimension against the oracles ---------

ORACLE_LENGTHS = (0, 1, 3, 8)


def assert_matches_oracles(pres, rs=None):
    """complete and dimension agree with all-pairs completion and listed
    irreducible words on the relations of pres; returns the completion
    status. rs, when given, is the completion of those relations at degree
    8 on their alphabet and field."""
    args = pres.relations, 8, pres.alphabet, pres.field
    rs = RW.complete(*args) if rs is None else rs
    want = oracles.all_pairs_complete(*args)
    assert rs.to_json() == want.to_json()
    assert not rs.is_complete() or oracles.check_complete(rs, pres.relations)
    levels = oracles.irreducible_levels(want, max(ORACLE_LENGTHS))
    for max_len in ORACLE_LENGTHS:
        assert RW.dimension(rs, max_len) == oracles.listing_dimension(want, max_len, levels)
    return rs.status


@pytest.mark.parametrize("fid,fd", [
    ("identity:2", "q"), ("r_q:0", "q"), ("r_q:1", "q"), ("r_q:2", "fp:5"),
    ("r_q_prime:1", "q"), ("r_q_dblprime:1", "q"), ("char2", "fp:2"),
    ("classical_yb:1", "q"), ("graded_c2", "q"), ("takesaki_c3", "q"),
    ("takesaki_c4", "q"), ("galois_c3", "fp:7"),
])
def test_completion_and_dimension_match_oracles_on_fixtures(fid, fd):
    pres = frt.frt_presentation(build_fixture(fid, parse_field(fd)))
    assert_matches_oracles(pres)


def test_dimension_refuses_a_negative_word_length():
    rs = frt.build(build_fixture("takesaki_c2", QQ)).system
    assert RW.dimension(rs, 0) == RW.DimensionReport("lower_bound", 1, [1], 0)
    for rules in (rs, RW.complete([], 8)):  # with and without an alphabet
        with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
            RW.dimension(rules, -1)


def test_commutative_completion_matches_oracles():
    assert assert_matches_oracles(frt.frt_commutative(B.char2_matrix(F2))) \
        == "complete"


def test_completion_and_dimension_match_oracles_over_f2_hopf_solutions(f2_hopf_systems):
    statuses = [assert_matches_oracles(pres, rs) for _, pres, rs in f2_hopf_systems]
    assert len(statuses) == 147 and statuses.count("capped") == 4


def test_completion_and_dimension_match_oracles_over_f3_hopf_solutions(f3_hopf_systems):
    statuses = [assert_matches_oracles(pres, rs) for _, pres, rs in f3_hopf_systems]
    assert len(statuses) == 463 and statuses.count("capped") == 24


def test_completion_pinned_over_f3_hopf_solutions(f3_hopf_systems):
    # digest recorded before the index listed ambiguities itself
    docs = [rs.to_json() for _, _, rs in f3_hopf_systems]
    assert len(docs) == 463
    assert digest(docs) == "3633dd9889fdb38fc346315f01275887eec7643b812cd3f3f5ad52eddd8eeebd"


@pytest.mark.parametrize("fid,force", [
    ("takesaki_c5", False), ("crossed_s3", True), ("dense_q", False)])
def test_diamond_lemma_check_on_large_completions(fid, force, request):
    # too large for all-pairs completion: the finished system is checked on
    # its own, and each broken copy of it must be refused
    if fid == "crossed_s3":  # the session's build, read and not rebuilt
        built = request.getfixturevalue("crossed_s3_forced")
        rels, rs = built.presentation.relations, built.system
    else:
        R = dense_conjugate(*DENSE_CONJUGATES[0]) if fid == "dense_q" else build_fixture(fid, QQ)
        pres = frt.frt_presentation(R, force=force)
        rels = pres.relations
        rs = RW.complete(rels, 8, pres.alphabet, pres.field)
    assert rs.is_complete() and oracles.check_complete(rs, rels)
    A, F, rules = rs.alphabet, rs.field, rs.rules
    k = len(rules) // 2
    r = rules[k]

    def replaced(*new):
        return RW.RewriteSystem(A, F, rules[:k] + list(new) + rules[k + 1:], "complete", 8)

    unit = NCPoly.word(A, F, ())
    letter = next(p for p in (NCPoly.letter(A, F, g) for g in range(len(A)))
                  if not RW.normal_form(p, rs).is_zero())
    longer = RW.RewriteRule(r.lhs + (0,), RW.normal_form(r.tail * NCPoly.letter(A, F, 0), rs))
    kept = rules[:k] + rules[k + 1:]
    for broken, relations in [
        (replaced(), rels),  # one rule dropped
        (replaced(RW.RewriteRule(r.lhs, r.tail + unit)), rels),  # one tail perturbed
        (rs, rels + [letter]),  # a relation that does not reduce to zero
        # under the next three every word keeps its normal form under rs
        (replaced(r, RW.RewriteRule(r.lhs, r.tail + unit)), rels),  # two rules on one lhs
        (replaced(r, longer), rels),  # an lhs inside another lhs
        (replaced(RW.RewriteRule(r.lhs, r.tail + rules[0].poly())), rels),  # a reducible tail
        # one rule dropped from the rules and from the relations alike
        (RW.RewriteSystem(A, F, kept, "complete", 8), [q.poly() for q in kept]),
    ]:
        assert not oracles.check_complete(broken, relations)


def _counting(monkeypatch, owner, name, keep=False):
    """Count the calls of owner.name, which keeps working; with keep, the
    list holds what each call returned."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        out = fn(*args)
        calls.append(out if keep else None)
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_completion_scans_only_below_a_live_lhs(monkeypatch, f2_hopf_systems,
                                                f3_hopf_systems):
    # both rule scans run only when the new lhs lies below some live lhs:
    # never on the takesaki ladder, whose lhs come in increasing order
    scans = _counting(monkeypatch, RW, "_has_factor")
    for m in (3, 4, 5):
        pres = frt.frt_presentation(build_fixture(f"takesaki_c{m}", QQ))
        assert len(RW.complete(pres.relations, 8, pres.alphabet, pres.field).rules) == m ** 4
    assert not scans
    # where rules do retire, the result is the all-pairs oracle's
    retired = _counting(monkeypatch, RW._RuleIndex, "remove")
    retiring = 0
    for _, pres, _ in f2_hopf_systems + f3_hopf_systems:
        before = len(retired)
        rs = RW.complete(pres.relations, 8, pres.alphabet, pres.field)
        if len(retired) > before:
            retiring += 1
            want = oracles.all_pairs_complete(pres.relations, 8, pres.alphabet, pres.field)
            assert rs.to_json() == want.to_json()
    assert retiring == 32 + 118 and len(retired) == 97 + 368 and scans


# -- properties on random small relation sets --------------------------------------

AB = free_alphabet("a", "b")
ABC = free_alphabet("a", "b", "c")


def random_poly(data, field, alphabet, min_len, max_len, min_terms=0):
    words = st.lists(st.integers(0, len(alphabet) - 1),
                     min_size=min_len, max_size=max_len).map(tuple)
    terms = data.draw(st.dictionaries(words, st.integers(1, field.p - 1),
                                      min_size=min_terms, max_size=3))
    return NCPoly(alphabet, field, terms)


def random_relations(data):
    """Two to four relations over F_2 or F_3 on two or three letters, each
    with one to three terms of degree 1 to 3."""
    field = data.draw(st.sampled_from([F2, F3]), label="field")
    alphabet = data.draw(st.sampled_from([AB, ABC]), label="alphabet")
    count = data.draw(st.integers(2, 4), label="relations")
    return [random_poly(data, field, alphabet, 1, 3, min_terms=1) for _ in range(count)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_complete_result_independent_of_relation_order(data):
    relations = random_relations(data)
    shuffled = data.draw(st.permutations(relations), label="order")
    rs, rs2 = RW.complete(relations, 6), RW.complete(shuffled, 6)
    # a run that ends complete yields the unique reduced system of the ideal
    if rs.is_complete() and rs2.is_complete():
        assert rs.to_json() == rs2.to_json()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_normal_form_idempotent_and_linear(data):
    relations = random_relations(data)
    field, alphabet = relations[0].field, relations[0].alphabet
    rs = RW.complete(relations, 4)  # complete or capped: both must hold either way
    p, q = (random_poly(data, field, alphabet, 0, 5) for _ in range(2))
    c = data.draw(st.integers(0, field.p - 1), label="scalar")
    np_, nq = RW.normal_form(p, rs), RW.normal_form(q, rs)
    assert RW.normal_form(np_, rs) == np_
    assert RW.normal_form(p.scale(c) + q, rs) == np_.scale(c) + nq


# unital associative algebras with a basis {1, letters}: letter count -> the
# nonzero products of two letters, each in span{1, letters}
ASSOCIATIVE_TABLES = {
    2: [{(0, 0): {(0,): 1}, (1, 1): {(1,): 1}},  # k^3: two orthogonal idempotents
        {(0, 0): {(1,): 1}},  # k[t]/(t^3): t and t^2
        {(0, 0): {(0,): 1}, (0, 1): {(1,): 1}}],  # upper triangular: e11 and e12
    # M_2: e11, e12 and e21, with e21 e12 = e22 = 1 - e11
    3: [{(0, 0): {(0,): 1}, (0, 1): {(1,): 1}, (1, 2): {(0,): 1}, (2, 0): {(2,): 1},
         (2, 1): {(): 1, (0,): -1}}],
}
ROUTE_KINDS = ("associative", "table", "linear", "cubic", "partial")


def random_scalar(data, field):
    if field is QQ:
        return Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
    return data.draw(st.integers(0, field.p - 1))


def table_relations(data, field, alphabet, kind):
    """The relations x y - x . y of a table on span{1, letters}: an
    associative one after the letter change x -> x + h_x, or, for the kind
    "table", one of random products."""
    n, zero = len(alphabet), field.zero
    if kind == "table":
        table = {(x, y): {t: random_scalar(data, field) for t in [()] + [(k,) for k in range(n)]}
                 for x in range(n) for y in range(n)}
    elif n == 1:  # k[t]/(t^2 - a t - b)
        table = {(0, 0): {(0,): random_scalar(data, field), (): random_scalar(data, field)}}
    else:
        table = {key: {t: field.from_int(c) for t, c in v.items()}
                 for key, v in data.draw(st.sampled_from(ASSOCIATIVE_TABLES[n])).items()}
    h = [zero] * n if kind == "table" else [random_scalar(data, field) for _ in range(n)]
    relations = []
    for x in range(n):
        for y in range(n):
            # (b_x + h_x)(b_y + h_y) in the old letters b, then b_k = x_k - h_k
            v = field.combine(list(table.get((x, y), {}).items())
                              + [((x,), h[y]), ((y,), h[x]), ((), field.mul(h[x], h[y]))])
            unit = v.pop((), zero)
            for (k,), c in v.items():
                unit = field.sub(unit, field.mul(c, h[k]))
            terms = {(k,): field.neg(c) for (k,), c in v.items()}
            terms[()] = field.neg(unit)
            terms[(x, y)] = field.one
            relations.append(NCPoly(alphabet, field, terms))
    return relations


def route_relations(data, kind):
    """Relations of degree <= 2 on one to three letters over Q, F_2 or F_3
    whose quadratic parts span every quadratic word, each row then added to
    random multiples of the rows after it, in a random order. kind says
    what else holds: "associative" (a table from an associative algebra),
    "table" (random products, nearly always not associative), "linear" (an
    associative table and a degree-1 or constant relation), "cubic" (an
    associative table and a cubic relation) or "partial" (an associative
    table with one quadratic relation left out)."""
    field = data.draw(st.sampled_from([QQ, F2, F3]), label="field")
    # one letter has one quadratic relation: none is left out there
    alphabets = [AB, ABC] if kind == "partial" else [free_alphabet("a"), AB, ABC]
    alphabet = data.draw(st.sampled_from(alphabets), label="alphabet")
    relations = table_relations(data, field, alphabet, kind)
    n = len(alphabet)
    if kind == "linear":
        low = NCPoly(alphabet, field, {t: random_scalar(data, field)
                                       for t in [()] + [(k,) for k in range(n)]})
        relations.append(low or NCPoly.letter(alphabet, field, 0))
    elif kind == "cubic":
        cubic = tuple(data.draw(st.integers(0, n - 1)) for _ in range(3))
        relations.append(NCPoly.word(alphabet, field, cubic)
                         + NCPoly(alphabet, field, {(0,): random_scalar(data, field)}))
    elif kind == "partial":
        relations.pop(data.draw(st.integers(0, len(relations) - 1)))
    for a in range(len(relations)):
        for b in range(a + 1, len(relations)):
            relations[a] = relations[a] + relations[b].scale(random_scalar(data, field))
    return data.draw(st.permutations(relations), label="order")


@pytest.mark.parametrize("max_degree", [2, 3])
@pytest.mark.parametrize("kind", ROUTE_KINDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_complete_matches_the_overlap_loop_on_random_quadratic_tables(kind, max_degree, data):
    relations = route_relations(data, kind)
    rs, direct = complete_against_the_loop(relations, max_degree)
    if max_degree < 3 or kind in ("linear", "cubic", "partial"):
        assert not direct
    elif kind == "associative":
        assert direct
    assert not direct or rs.is_complete()


# -- irreducible words and dimension -----------------------------------------------

@pytest.mark.parametrize("max_len", [7, 40])
def test_b0_hilbert_prefix_matches_counting_formula(max_len):
    # B_0^2 rules: c21 -> 0, yx -> x, yz -> 0; irreducible words are w y^k
    # with w over {x, z}, so level d holds 2^(d+1) - 1 words: counted, not
    # listed, since 2^41 words would never fit
    pres = frt.frt_presentation(B.r_q(Fraction(0), QQ))
    rs = RW.complete(pres.relations, 8)
    rep = RW.dimension(rs, max_len)
    assert rep.kind == "lower_bound"
    assert rep.hilbert_prefix == [2 ** (d + 1) - 1 for d in range(max_len + 1)]
    assert rep.word_length_cap == max_len


def test_b2n1_family_dimensions():
    # exponent e in y^e = y gives dimension 2e + 1
    x, z, c21, y = gen(0, 0), gen(0, 1), gen(1, 0), gen(1, 1)
    for e, dim in ((2, 5), (3, 7), (4, 9)):
        ye = y
        for _ in range(e - 1):
            ye = ye * y
        rels = [x * x - x, x * z, z * x, z * z, z * y, ye - y,
                x * y - x, y * x - x, c21]
        pres = frt.Presentation(alphabet=A2, field=QQ,
                                relations=[r.monic() for r in rels])
        rs = RW.complete(pres.relations, 10)
        assert rs.status == "complete"
        rep = RW.dimension(rs, 10)
        assert rep.is_finite() and rep.count == dim
        quo = RW.quotient_bialgebra(pres, rs, 10)
        assert B.check_bialgebra_axioms(quo).all_ok
        assert not quo.is_cocommutative() and not quo.is_commutative()


def test_irreducible_words_are_deglex_sorted():
    pres = frt.frt_presentation(B.r_q(Fraction(0), QQ))
    rs = RW.complete(pres.relations, 8)
    words = RW.irreducible_words(rs, 4)
    assert words == sorted(words, key=word_key)


# -- quotient bialgebras -------------------------------------------------------------

def test_char2_quotient_tables_match_printed_basis_form():
    # the five-dimensional bialgebra on basis {1, x, y, z, t}
    quo = frt.build(B.char2_matrix(F2)).quotient
    assert quo.dim == 5
    assert B.check_bialgebra_axioms(quo).all_ok
    lbl = quo.basis_labels
    assert lbl == ["1", "c[1,1]", "c[1,2]", "c[2,1]", "c[2,2]"]
    ix = {name: k for k, name in enumerate(lbl)}
    one, x, y, z, t = (ix[k] for k in ("1", "c[1,1]", "c[1,2]", "c[2,1]", "c[2,2]"))

    def vec(*pairs):
        return dict(pairs)

    # x^2 = x, y^2 = z^2 = 0, t^2 = t, xy = y, yx = 0, xz = zx = z, xt = t,
    # tx = x, yz = 0, zy = x + t, yt = 0, ty = y, zt = tz = z
    assert quo.mult[x][x] == vec((x, 1))
    assert quo.mult[y][y] == vec()
    assert quo.mult[z][z] == vec()
    assert quo.mult[t][t] == vec((t, 1))
    assert quo.mult[x][y] == vec((y, 1))
    assert quo.mult[y][x] == vec()
    assert quo.mult[x][z] == vec((z, 1))
    assert quo.mult[z][x] == vec((z, 1))
    assert quo.mult[x][t] == vec((t, 1))
    assert quo.mult[t][x] == vec((x, 1))
    assert quo.mult[y][z] == vec()
    assert quo.mult[z][y] == vec((x, 1), (t, 1))
    assert quo.mult[y][t] == vec()
    assert quo.mult[t][y] == vec((y, 1))
    assert quo.mult[z][t] == vec((z, 1))
    assert quo.mult[t][z] == vec((z, 1))
    # comultiplicative matrix: Delta(x) = x(x)x + y(x)z etc.
    dx = quo.comult[x]
    assert dx[x, x] == 1 and dx[y, z] == 1
    assert sum(1 for u in range(5) for v in range(5) if dx.get((u, v), 0) != 0) == 2


def test_tk_quotient_tables():
    x, z, c21, y = gen(0, 0), gen(0, 1), gen(1, 0), gen(1, 1)
    rels = [x * x - x, x * z, z * x, z * z, c21, y - NCPoly.one(A2, QQ)]
    pres = frt.Presentation(alphabet=A2, field=QQ,
                            relations=[r.monic() for r in rels])
    rs = RW.complete(pres.relations, 8)
    quo = RW.quotient_bialgebra(pres, rs)
    assert quo.dim == 3
    assert quo.basis_labels == ["1", "c[1,1]", "c[1,2]"]
    report = B.check_bialgebra_axioms(quo)
    assert report.all_ok and report.antipode is None
    ix = {name: k for k, name in enumerate(quo.basis_labels)}
    one, xi, zi = ix["1"], ix["c[1,1]"], ix["c[1,2]"]
    # Delta(z) = x (x) z + z (x) 1
    dz = quo.comult[zi]
    assert dz[xi, zi] == QQ.one and dz[zi, one] == QQ.one
    assert sum(1 for u in range(3) for v in range(3) if dz.get((u, v), QQ.zero) != QQ.zero) == 2
    assert not quo.is_cocommutative() and quo.is_commutative()


def test_commutative_char2_quotient_dim3():
    built = frt.build(B.char2_matrix(F2), commutative=True)
    rep, quo = built.dimension, built.quotient
    assert rep.is_finite() and rep.count == 3
    assert quo.is_commutative()
    assert B.check_bialgebra_axioms(quo).all_ok


def test_quotient_refuses_infinite_dimension():
    pres = frt.frt_presentation(B.r_q(Fraction(0), QQ))
    rs = RW.complete(pres.relations, 8)
    with pytest.raises(RW.NotFiniteDimensionalError):
        RW.quotient_bialgebra(pres, rs)


def test_quotient_refuses_an_ideal_that_is_not_a_coideal():
    # c11 = c22 = 1 and every product of c12, c21 zero: complete, of finite
    # dimension 3, but Delta(c11 - 1) reduces to c12 (x) c21
    x, z, c21, y = gen(0, 0), gen(0, 1), gen(1, 0), gen(1, 1)
    one = NCPoly.one(A2, QQ)
    rels = [x - one, y - one, z * z, c21 * c21, z * c21, c21 * z]
    pres = frt.Presentation(alphabet=A2, field=QQ, relations=[r.monic() for r in rels])
    rs = RW.complete(pres.relations, 8)
    report = RW.dimension(rs, 8)
    assert rs.status == "complete" and report.is_finite() and report.count == 3
    assert not RW.check_coideal(pres, rs)
    assert not oracles.per_relation_coideal(pres, rs)
    with pytest.raises(ValueError, match="relation ideal is not a coideal") as refused:
        RW.quotient_bialgebra(pres, rs)
    assert type(refused.value) is ValueError


def test_quotient_passes_axioms_implies_dimension_finite():
    # dimension(finite d) then quotient passes all six axiom checks
    for builder, field in ((B.char2_matrix, F2),):
        built = frt.build(builder(field))
        assert built.dimension.is_finite()
        assert B.check_bialgebra_axioms(built.quotient).all_ok


# -- coideal check ---------------------------------------------------------------

def test_check_coideal_hand_reduced_counterexample():
    # Delta(c11 - 1) reduces to c12 (x) c21 under the rule c11 -> 1: not a coideal
    rel = gen(0, 0) - NCPoly.one(A2, QQ)
    rs = RW.complete([rel.monic()], 8)
    pres_like = type("P", (), {"relations": [rel.monic()]})()
    assert not RW.check_coideal(pres_like, rs)
    reduced = rel.delta().map_legs(lambda p: RW.normal_form(p, rs))
    assert reduced.terms == {((1,), (2,)): QQ.one}


def test_check_coideal_empty_relations():
    rs = RW.complete([], 8)
    pres_like = type("P", (), {"relations": []})()
    assert RW.check_coideal(pres_like, rs)


def test_check_coideal_zero_relations_without_alphabet():
    # complete() drops zero relations, so its system has no alphabet or field
    zero = NCPoly.zero(A2, QQ)
    assert RW.check_coideal(type("P", (), {"relations": [zero]})(), RW.complete([zero]))


# -- coideal check by linearity against the per-relation oracle ----------------

# conjugators u of takesaki_c3 and galois_c3, as in the benchmark's dense items
# (entries +-1, so the Q conjugate carries halves and quarters), and one with
# entries up to +-7, whose inverse has denominators 6, 46 and 69: the relation
# coefficients then carry denominators up to 6831
DENSE_CONJUGATES = [
    ("takesaki_c3", "q", ((1, 1, -1), (1, -1, 1), (-1, 1, 1))),
    ("takesaki_c3", "fp:7", ((1, -1, 1), (1, 1, 1), (1, 1, -1))),
    ("galois_c3", "fp:7", ((-1, 1, 1), (1, 1, 1), (1, -1, 1))),
    ("takesaki_c3", "q", ((2, -7, 5), (3, 1, -4), (-6, 5, 7))),
]


def dense_conjugate(fid, fd, u):
    field = parse_field(fd)
    endo = T.EndoV(3, field, [[field.from_int(x) for x in row] for row in u])
    return T.conjugate(build_fixture(fid, field), endo)


def coideal_verdict(pres, rs):
    """check_coideal on pres and rs, asserted equal to the oracle's."""
    got = RW.check_coideal(pres, rs)
    assert got == oracles.per_relation_coideal(pres, rs)
    return got


@pytest.mark.parametrize("fid,fd,force", [
    ("char2", "fp:2", False), ("takesaki_c2", "q", False), ("takesaki_c3", "q", False),
    ("takesaki_c4", "q", False), ("galois_c3", "fp:7", False), ("r_q:0", "q", False),
    ("r_q:1", "q", False), ("r_q_prime:1", "q", False), ("graded_c2", "q", False),
    ("identity:2", "q", False), ("classical_yb:2", "q", True),
])
def test_check_coideal_matches_oracle_on_fixtures(fid, fd, force):
    pres = frt.frt_presentation(build_fixture(fid, parse_field(fd)), force=force)
    rs = RW.complete(pres.relations, 8, pres.alphabet, pres.field)
    # the chi ideal is a coideal for every R (verify_delta_chi); r_q:1 is
    # capped, so its verdict is only degree-bounded, and it holds there too
    assert coideal_verdict(pres, rs)


@pytest.mark.parametrize("case", DENSE_CONJUGATES, ids=lambda c: f"{c[0]}@{c[1]}:{c[2][0]}")
def test_check_coideal_matches_oracle_on_dense_conjugates(case):
    pres = frt.frt_presentation(dense_conjugate(*case))
    rs = RW.complete(pres.relations, 8)
    assert rs.is_complete() and len(rs.rules) == 81
    assert coideal_verdict(pres, rs)


@pytest.mark.parametrize("fid,fd", [("char2", "fp:2"), ("takesaki_c2", "q"),
                                    ("graded_c2", "q"), ("r_q:0", "q")])
def test_check_coideal_matches_oracle_on_commutative_presentations(fid, fd):
    pres = frt.frt_commutative(build_fixture(fid, parse_field(fd)))
    rs = RW.complete(pres.relations, 8)
    assert coideal_verdict(pres, rs)


def test_check_coideal_matches_oracle_over_f2_hopf_solutions(f2_hopf_systems):
    statuses = []
    for _, pres, rs in f2_hopf_systems:
        assert coideal_verdict(pres, rs)
        statuses.append(rs.status)
    assert len(statuses) == 147 and statuses.count("capped") == 4


def perturbed(pres, rng):
    """pres with one relation changed by c (w - eps(w)) for a random word w of
    length 1 or 2 and a random nonzero scalar c; None when that cancels the
    relation. Subtracting eps(w) keeps every counit zero."""
    field, alphabet = pres.field, pres.alphabet
    rels = list(pres.relations)
    k = rng.randrange(len(rels))
    w = NCPoly.word(alphabet, field, [rng.randrange(len(alphabet))
                                      for _ in range(rng.randint(1, 2))])
    c = field.from_int(rng.randint(1, (field.characteristic or 7) - 1))
    rels[k] = rels[k] + (w - NCPoly.scalar(alphabet, field, w.eps())).scale(c)
    if rels[k].is_zero():
        return None
    return frt.Presentation(alphabet=alphabet, field=field, relations=rels)


def test_check_coideal_matches_oracle_on_single_relation_perturbations(f2_hopf_systems):
    # one relation among many is changed, the result completed (capped or
    # not) and decided: a verdict that is not decided relation by relation,
    # or that drops a term, shows up as a disagreement with the oracle
    rng = random.Random(9)
    bases = [pres for _, pres, _ in rng.sample(f2_hopf_systems, 40)]
    bases += [frt.frt_presentation(build_fixture(fid, parse_field(fd)))
              for fid, fd in [("galois_c3", "fp:7"), ("takesaki_c3", "fp:7"),
                              ("takesaki_c3", "q"), ("r_q:0", "q")] for _ in range(12)]
    verdicts = {}
    for pres in bases:
        if not pres.relations:
            continue
        pert = perturbed(pres, rng)
        if pert is None:
            continue
        rs = RW.complete(pert.relations, 6, pert.alphabet, pert.field)
        verdicts.setdefault(pert.field.descriptor, []).append(coideal_verdict(pert, rs))
    assert sorted(verdicts) == ["fp:2", "fp:7", "q"]
    assert all(False in v for v in verdicts.values())  # each field has a failure
    assert sum(v.count(False) for v in verdicts.values()) >= 20


def test_check_coideal_decides_each_relation_on_its_own():
    # two non-coideal relations whose reduced coproducts are exact negatives:
    # their sum reduces to zero, each alone does not
    pres = frt.frt_presentation(build_fixture("takesaki_c3", QQ))
    rs = RW.complete(pres.relations, 8)
    bad = gen(0, 0, alphabet=pres.alphabet) - NCPoly.one(pres.alphabet, QQ)
    stand_in = type("P", (), {"relations": pres.relations + [bad, pres.relations[0] - bad]})()
    assert not coideal_verdict(stand_in, rs)
    one_bad = type("P", (), {"relations": pres.relations + [bad]})()
    assert not coideal_verdict(one_bad, rs)
    assert coideal_verdict(pres, rs)
    # the same pair alone, under the system of the single relation
    rel = (gen(0, 0) - NCPoly.one(A2, QQ)).monic()
    rs1 = RW.complete([rel], 8)
    assert not coideal_verdict(type("P", (), {"relations": [rel, rel.scale(-QQ.one)]})(), rs1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_coideal_matches_oracle_on_random_relations(data):
    # Delta needs the comatrix alphabet: random relations on its four letters
    field = data.draw(st.sampled_from([F2, F3]), label="field")
    count = data.draw(st.integers(1, 4), label="relations")
    relations = [random_poly(data, field, A2, 1, 3, min_terms=1) for _ in range(count)]
    rs = RW.complete(relations, data.draw(st.sampled_from([3, 5]), label="max_degree"))
    coideal_verdict(type("P", (), {"relations": relations})(), rs)


ONCE_CASES = [build_fixture("takesaki_c3", QQ), dense_conjugate(*DENSE_CONJUGATES[0])]


def assert_quotient_reduces_each_word_once(pres, monkeypatch):
    rs = RW.complete(pres.relations, 8)
    reduced = []
    normal_form = RW.normal_form

    def recording(poly, system):
        reduced.extend(poly.terms)
        return normal_form(poly, system)

    monkeypatch.setattr(RW, "normal_form", recording)
    quo = RW.quotient_bialgebra(pres, rs)
    monkeypatch.undo()
    assert quo.dim == 10
    assert reduced and len(reduced) == len(set(reduced))


@pytest.mark.parametrize("R", ONCE_CASES, ids=["takesaki_c3", "dense_q"])
def test_quotient_reduces_each_word_once(R, monkeypatch):
    # one memo serves the mult table and the comult table
    assert_quotient_reduces_each_word_once(frt.frt_presentation(R), monkeypatch)


@pytest.mark.parametrize("R", ONCE_CASES, ids=["takesaki_c3", "dense_q"])
def test_quotient_reduces_each_word_once_on_the_general_path(R, monkeypatch):
    # read back from JSON the presentation has no certificate: the same memo
    # also serves its coideal check
    pres = frt.Presentation.from_json(frt.frt_presentation(R).to_json())
    assert pres.coideal_certificate() is None
    assert_quotient_reduces_each_word_once(pres, monkeypatch)


# -- the coideal certificate of a presentation frt built ---------------------------

CERTIFIED_KINDS = [
    ("identity:2", "q"), ("r_q:0", "q"), ("r_q:1", "q"), ("r_q_prime:1", "q"),
    ("r_q_dblprime:1", "q"), ("char2", "fp:2"), ("classical_yb:2", "q"), ("graded_c2", "q"),
    ("crossed_s3", "q"), ("takesaki_c3", "q"), ("galois_c3", "fp:7"),
]


def certified_verdict(pres, rs):
    """The certificate of pres, asserted equal to check_coideal and to the
    oracle (``coideal_verdict``)."""
    verdict = pres.coideal_certificate()
    assert verdict is coideal_verdict(pres, rs)
    return verdict


@pytest.mark.parametrize("build", [frt.frt_presentation, frt.frt_commutative],
                         ids=["chi", "commutative"])
@pytest.mark.parametrize("fid,fd", CERTIFIED_KINDS)
def test_coideal_certificate_agrees_on_every_fixture_kind(fid, fd, build, request):
    # under force, so crossed_s3 and classical_yb (no Hopf solutions) are
    # the frt --force presentations of both variants
    if (fid, build) == ("crossed_s3", frt.frt_presentation):  # the session's build
        built = request.getfixturevalue("crossed_s3_forced")
        pres, rs = built.presentation, built.system
    else:
        pres = build(build_fixture(fid, parse_field(fd)), force=True)
        rs = RW.complete(pres.relations, 8, pres.alphabet, pres.field)
    assert certified_verdict(pres, rs)


@pytest.mark.parametrize("case", DENSE_CONJUGATES[:3], ids=lambda c: f"{c[0]}@{c[1]}:{c[2][0]}")
def test_coideal_certificate_agrees_on_dense_conjugates(case):
    pres = frt.frt_presentation(dense_conjugate(*case))
    assert certified_verdict(pres, RW.complete(pres.relations, 8))


def test_coideal_certificate_agrees_over_f2_and_f3_hopf_solutions(
        f2_hopf_systems, f3_hopf_systems, f2_commutative_systems, f3_commutative_systems):
    systems = f2_hopf_systems + f3_hopf_systems + f2_commutative_systems + f3_commutative_systems
    assert len(systems) == 2 * (147 + 463)
    assert all(certified_verdict(pres, rs) for _, pres, rs in systems)


def refused(pres, rs):
    """Whether quotient_bialgebra refuses pres as not a coideal."""
    try:
        RW.quotient_bialgebra(pres, rs)
    except ValueError as exc:
        assert str(exc) == "relation ideal is not a coideal; no quotient bialgebra"
        return True
    return False


def test_quotient_of_an_frt_presentation_takes_the_certificate(monkeypatch):
    pres = frt.frt_presentation(B.char2_matrix(F2))
    rs = RW.complete(pres.relations, 8)
    monkeypatch.setattr(RW, "check_coideal", None)  # never called on it
    assert RW.quotient_bialgebra(pres, rs).dim == 5
    # the Delta identity decides: a false one refuses the quotient
    monkeypatch.setattr(frt, "verify_delta_chi", lambda R: False)
    assert pres.coideal_certificate() is False and refused(pres, rs)


def test_frt_presentation_refuses_a_chi_of_nonzero_counit(monkeypatch):
    # eps(chi) = 0 is checked where the presentation is built, so the
    # certificate need not decide it again: a chi family with a nonzero
    # counit is refused before any completion or quotient exists
    R = B.char2_matrix(F2)
    family = frt.chi(R)
    idx = next(k for k, p in sorted(family.items()) if p)
    family[idx] = family[idx] + NCPoly.word(A2, F2, (0,))  # eps(c11) = 1
    monkeypatch.setattr(frt, "chi", lambda R: dict(family))
    assert not frt.eps_chi_zero(R)
    for name in ("complete", "dimension", "quotient_bialgebra"):
        monkeypatch.setattr(RW, name, None)
    for build in (frt.frt_presentation, frt.frt_commutative, frt.build):
        with pytest.raises(ValueError, match="nonzero counit"):
            build(R)


def changed_presentations():
    """char2's frt presentation with its first relation r given the term
    c21 c12 (counit 0), which leaves the quotient complete, of dimension 4
    and not a coideal: the list item replaced, the polynomial changed in
    place, and a dataclasses.replace copy with the new list."""
    def fresh():
        pres = frt.frt_presentation(B.char2_matrix(F2))
        return pres, pres.relations[0] + NCPoly.word(pres.alphabet, F2, (2, 1))

    replaced, new = fresh()
    replaced.relations[0] = new
    in_place, new = fresh()
    in_place.relations[0].terms.update(new.terms)
    copied, new = fresh()
    copied = dataclasses.replace(copied, relations=[new] + copied.relations[1:])
    return [replaced, in_place, copied]


def test_only_frt_sets_a_presentation_source():
    pres = frt.frt_presentation(B.char2_matrix(F2))
    with pytest.raises(TypeError):
        frt.Presentation(pres.alphabet, F2, pres.relations, source=pres.source)
    copied = dataclasses.replace(pres)
    assert copied == pres and copied.coideal_certificate() is None
    assert pres.coideal_certificate() is True


def test_changed_frt_presentations_take_the_general_path():
    for pres in changed_presentations():
        rs = RW.complete(pres.relations, 8, pres.alphabet, pres.field)
        assert rs.is_complete() and RW.dimension(rs, 8).count == 4
        assert pres.coideal_certificate() is None
        assert not coideal_verdict(pres, rs)
        assert refused(pres, rs)


@pytest.mark.parametrize("fid,fd", [("char2", "fp:2"), ("takesaki_c3", "q"),
                                    ("galois_c3", "fp:7"), ("graded_c2", "q")])
def test_json_round_trip_takes_the_general_path(fid, fd, monkeypatch):
    pres = frt.frt_presentation(build_fixture(fid, parse_field(fd)))
    back = frt.Presentation.from_json(json.loads(json.dumps(pres.to_json())))
    rs = RW.complete(pres.relations, 8, pres.alphabet, pres.field)
    assert back == pres and back.coideal_certificate() is None
    calls = []
    check_coideal = RW.check_coideal
    monkeypatch.setattr(RW, "check_coideal", lambda *args: calls.append(1) or check_coideal(*args))
    assert RW.quotient_bialgebra(back, rs).to_json() == RW.quotient_bialgebra(pres, rs).to_json()
    assert calls == [1]


def test_empty_relations_count_words_on_the_given_alphabet():
    rs = RW.complete([], 8, A2, QQ)
    assert RW.dimension(rs, 3) == RW.DimensionReport("lower_bound", 85, [1, 4, 16, 64], 3)
    assert RW.irreducible_words(rs, 1) == [(), (0,), (1,), (2,), (3,)]
    # without an alphabet the letters are unknown: never a finite verdict
    assert RW.dimension(RW.complete([], 8), 3) == RW.DimensionReport("lower_bound", 1, [1], 3)


# -- ideal membership cross-validated by linear algebra ----------------------------

def test_normal_form_kernel_equals_ideal_span_at_low_degree():
    # complete system: NF(p) = 0 iff p in span{w * rule * w'} (degree <= 3)
    pres = frt.frt_presentation(B.r_q(Fraction(0), QQ))
    rs = RW.complete(pres.relations, 8)
    # all words of length <= 3
    words = [()]
    for d in range(1, 4):
        words += [w + (g,) for w in words if len(w) == d - 1 for g in range(4)]
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for rule in rs.rules:
        rpoly = rule.poly()
        deg = rpoly.degree()
        for a in words:
            for b in words:
                if len(a) + deg + len(b) > 3:
                    continue
                prod = NCPoly.word(A2, QQ, a) * rpoly * NCPoly.word(A2, QQ, b)
                row = [QQ.zero] * len(words)
                for w, c in prod.terms.items():
                    row[index[w]] = c
                rows.append(row)
    span_rank = linalg.rank(QQ, rows)
    irreducible = [w for w in words
                   if RW.normal_form(NCPoly.word(A2, QQ, w), rs).terms == {w: QQ.one}]
    assert span_rank == len(words) - len(irreducible)


# -- presentation equivalence -------------------------------------------------------

def test_equivalence_bq_at_q1():
    field = QQ
    q = Fraction(1)
    R = B.r_q(q, field)
    p1 = frt.frt_presentation(R)
    AB = free_alphabet("A", "B")
    a, b = NCPoly.letter(AB, field, 0), NCPoly.letter(AB, field, 1)
    p2 = frt.Presentation(alphabet=AB, field=field,
                          relations=[(a * a * b - a * b).monic()])
    forward = [(a * b).scale(field.inv(q)), b - a.scale(q), NCPoly.zero(AB, field), a]
    backward = [gen(1, 1), gen(0, 1) + gen(1, 1).scale(q)]
    rep = RW.presentations_equivalent(p1, p2, forward, backward, max_degree=6)
    assert rep.equivalent and not rep.undecided


def test_equivalence_detects_containment_only():
    # p2 strictly coarser: second relation of p1 missing in p2
    x = gen(0, 0)
    z = gen(0, 1)
    p1 = frt.Presentation(alphabet=A2, field=QQ,
                          relations=[(x * x - x).monic(), (z * z).monic()])
    p2 = frt.Presentation(alphabet=A2, field=QQ,
                          relations=[(x * x - x).monic()])
    ident = [NCPoly.letter(A2, QQ, k) for k in range(4)]
    rep = RW.presentations_equivalent(p2, p1, ident, ident, max_degree=6)
    assert rep.forward_annihilates and not rep.backward_annihilates
    assert not rep.equivalent


def test_equivalence_reports_undecided_on_degree_blowup():
    x = gen(0, 0)
    p1 = frt.Presentation(alphabet=A2, field=QQ, relations=[(x * x - x).monic()])
    big = x * x * x * x  # degree-4 image of each letter: substituted degree 8 > 6
    subst = [big, big, big, big]
    ident = [NCPoly.letter(A2, QQ, k) for k in range(4)]
    rep = RW.presentations_equivalent(p1, p1, subst, ident, max_degree=6)
    assert rep.undecided and not rep.equivalent


# -- the direct route of complete against the overlap loop --------------------------

ROUTE_FIXTURES = [
    ("identity:1", "q"), ("identity:2", "fp:5"), ("r_q:0", "q"), ("r_q:1", "q"), ("r_q:2", "fp:5"),
    ("r_q_prime:1", "q"), ("r_q_dblprime:1", "fp:3"), ("char2", "fp:2"), ("char2", "q"),
    ("classical_yb:2", "q"), ("graded_c2", "q"), ("crossed_s3", "q"), ("takesaki_c2", "q"),
    ("takesaki_c3", "q"), ("takesaki_c4", "q"), ("galois_c3", "fp:7"), ("galois_c3", "q"),
    ("galois_c4", "q"),
]
# plain refuses these: nothing to complete
NOT_HOPF = {("char2", "q"), ("classical_yb:2", "q"), ("crossed_s3", "q")}
# the chi relations of these span every quadratic word, with no degree-1
# element, and their table is associative; with the commutators of two or
# more letters the span holds a degree-1 element. char2 over Q and crossed_s3
# span every quadratic word too, and their tables are not associative
DIRECT_ROUTE = {("identity:1", "q"), ("identity:2", "fp:5"), ("char2", "fp:2"), ("graded_c2", "q"),
                ("takesaki_c2", "q"), ("takesaki_c3", "q"), ("takesaki_c4", "q"),
                ("galois_c3", "fp:7"), ("galois_c3", "q"), ("galois_c4", "q")}
# the commutative variant under force, as the census builds it, so that every
# fixture has commutators to complete
ROUTE_VARIANTS = {"plain": (frt.frt_presentation, False),
                  "commutative": (frt.frt_commutative, True),
                  "force": (frt.frt_presentation, True)}


def complete_against_the_loop(relations, max_degree):
    """complete on relations and whether it took the direct route, after
    checking that the overlap loop gives the same system and, where the
    direct route was taken, that the diamond-lemma oracle accepts it."""
    with mock.patch.object(RW, "_complete_by_overlaps", wraps=RW._complete_by_overlaps) as loop:
        rs = RW.complete(relations, max_degree)
    direct = not loop.called
    assert rs.to_json() == RW._complete_by_overlaps(relations, max_degree).to_json()
    assert not direct or oracles.check_complete(rs, relations)
    return rs, direct


@pytest.mark.parametrize("variant", ROUTE_VARIANTS)
@pytest.mark.parametrize("fid,fd", ROUTE_FIXTURES, ids=[f"{fid}@{fd}" for fid, fd in ROUTE_FIXTURES])
def test_complete_matches_the_overlap_loop_on_fixtures(fid, fd, variant, request):
    make, force = ROUTE_VARIANTS[variant]
    if (fid, variant) == ("crossed_s3", "force"):  # the session's build, read and not rebuilt
        built = request.getfixturevalue("crossed_s3_forced")
        relations = built.presentation.relations
        assert built.system.to_json() == RW._complete_by_overlaps(relations, 8).to_json()
        assert RW._complete_by_table(relations) is None
        return
    R = build_fixture(fid, parse_field(fd))
    if variant == "plain" and (fid, fd) in NOT_HOPF:
        with pytest.raises(frt.NotHopfSolutionError):
            make(R, force=force)
        return
    _, direct = complete_against_the_loop(make(R, force=force).relations, 8)
    assert direct == ((fid, fd) in DIRECT_ROUTE and (variant != "commutative" or fid == "identity:1"))


@pytest.mark.parametrize("variant", ["plain", "commutative"])
@pytest.mark.parametrize("max_degree", range(1, 9))
def test_complete_matches_the_overlap_loop_at_every_degree(max_degree, variant):
    make, force = ROUTE_VARIANTS[variant]
    pres = make(build_fixture("takesaki_c3", QQ), force=force)
    _, direct = complete_against_the_loop(pres.relations, max_degree)
    assert direct == (variant == "plain" and max_degree >= 3)


# the census systems whose chi relations span every quadratic word with no
# degree-1 element, and whose table is associative: 19 over F_2, 25 over F_3
CENSUS_DIRECT = {"f2_hopf_systems": 19, "f3_hopf_systems": 25,
                 "f2_commutative_systems": 0, "f3_commutative_systems": 0}


@pytest.mark.parametrize("name", CENSUS_DIRECT)
def test_complete_matches_the_overlap_loop_over_the_census(name, request):
    # every other system goes through the loop itself, and the census digests
    # pin those
    direct = 0
    for _, pres, rs in request.getfixturevalue(name):
        relations = pres.relations
        if relations and RW._complete_by_table(relations):
            direct += 1
            assert rs.to_json() == RW._complete_by_overlaps(relations, 8).to_json()
            assert oracles.check_complete(rs, relations)
    assert direct == CENSUS_DIRECT[name]


def refusing_loop(*args):
    raise AssertionError("the overlap loop ran")


def shifted_triangular():
    """a = e11 + 1/2 and b = e12 in the upper triangular 2x2 matrices: an
    associative table with unit terms and denominators, which chi relations
    never have (their tails have no constant term)."""
    a, b = (NCPoly.letter(AB, QQ, k) for k in range(2))
    return [a * a - a.scale(QQ.from_int(2)) + NCPoly.scalar(AB, QQ, Fraction(3, 4)),
            a * b - b.scale(Fraction(3, 2)), b * a - b.scale(Fraction(1, 2)), b * b]


DIRECT_CASES = {
    "takesaki_c5": lambda: frt.frt_presentation(build_fixture("takesaki_c5", QQ)).relations,
    **{f"{c[0]}@{c[1]}:{c[2][0]}": lambda c=c: frt.frt_presentation(dense_conjugate(*c)).relations
       for c in DENSE_CONJUGATES},
    "shifted_triangular": shifted_triangular,
}


@pytest.mark.parametrize("case", DIRECT_CASES)
def test_direct_route_completes_without_the_loop(case, monkeypatch):
    relations = DIRECT_CASES[case]()
    want = RW._complete_by_overlaps(relations, 8)
    monkeypatch.setattr(RW, "_complete_by_overlaps", refusing_loop)
    rs = RW.complete(relations, 8)
    assert rs.is_complete() and len(rs.rules) == len(rs.alphabet) ** 2
    assert rs.to_json() == want.to_json()


def linear_census_system(systems):
    """The first system whose relations span every quadratic word and a
    degree-1 element too, by rank: the quadratic parts have rank n^2, and
    the whole relations more."""
    for _, pres, rs in systems:
        field, relations = pres.field, pres.relations
        words = sorted({w for r in relations for w in r.terms}, key=word_key)
        ranks = [linalg.rank(field, [[r.terms.get(w, field.zero) for w in ws] for r in relations])
                 for ws in ([w for w in words if len(w) == 2], words)]
        if ranks[0] == len(pres.alphabet) ** 2 < ranks[1]:
            return pres, rs
    raise AssertionError("no census system spans a degree-1 element")


def idempotents_with_a_linear_relation():
    """a^2 = a, b^2 = b and ab = ba = 0 (the table of k^3, associative),
    and a = b: the span of the relations holds the degree-1 element a - b."""
    a, b = (NCPoly.letter(AB, QQ, k) for k in range(2))
    return [a * a - a, a * b, b * a, b * b - b, a - b]


def last_triple_table():
    """aa = ab = 0, ba = a and bb = a + b: associative on every letter triple
    but the last, (bb)b = a + b against b(bb) = 2a + b, so the check refuses
    only in the last row of its table."""
    a, b = (NCPoly.letter(AB, QQ, k) for k in range(2))
    return [a * a, a * b, b * a - a, b * b - a - b]


def unit_term_table():
    """aa = 1 and ab = ba = bb = 0: (aa)b = b through the unit term, against
    a(ab) = 0; read with no unit term, the table is associative."""
    a, b = (NCPoly.letter(AB, QQ, k) for k in range(2))
    return [a * a - NCPoly.scalar(AB, QQ, QQ.one), a * b, b * a, b * b]


def test_loop_completes_what_the_direct_route_refuses(f2_commutative_systems):
    pres, rs = linear_census_system(f2_commutative_systems)
    c3 = frt.frt_presentation(build_fixture("takesaki_c3", QQ))
    cubic = c3.relations + [NCPoly.word(c3.alphabet, QQ, (0, 1, 2))]
    for relations, max_degree, status in [
        (pres.relations, 8, rs.status),  # a census system with a degree-1 element
        (idempotents_with_a_linear_relation(), 8, "complete"),
        # full quadratic parts, and a table that is not associative
        (last_triple_table(), 8, "complete"),
        (unit_term_table(), 8, "complete"),
        (cubic, 8, "complete"),  # a cubic relation
        (c3.relations, 2, "capped"),  # a cap below the cubic ambiguities
        (frt.frt_presentation(B.char2_matrix(F2)).relations, 2, "capped"),
    ]:
        got, direct = complete_against_the_loop(relations, max_degree)
        assert not direct and got.status == status
        assert max_degree < 3 or RW._complete_by_table(relations) is None


def test_complete_refuses_a_negative_degree_cap():
    pres = frt.frt_presentation(B.char2_matrix(F2))
    assert RW.complete(pres.relations, 0).status == "capped"
    assert RW.complete([], 0).status == "complete"
    for relations in (pres.relations, []):
        with pytest.raises(ValueError, match="max_degree must be >= 0, got -1"):
            RW.complete(relations, -1)
    ident = [NCPoly.letter(A2, F2, k) for k in range(4)]
    with pytest.raises(ValueError, match="max_degree must be >= 0, got -2"):
        RW.presentations_equivalent(pres, pres, ident, ident, max_degree=-2)
