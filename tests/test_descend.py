"""Differential sweep of the letter-level descent against the Word-level oracle.

On every pseudo-solution the enumerator emits, descend must build the
same result as brute_descend, the library's former descent on Word
objects, and bounded_rank_certificate must equal brute_certificate on
every field, descent failures included.
"""
import dataclasses
import gc
import weakref

import pytest

from oracles import PairTable, brute_certificate, brute_descend, brute_pseudo_solutions
from test_enumerate import INSTANCES
from wordeq import (
    Alphabet,
    AlphabetMismatch,
    BudgetExceeded,
    CertificateRows,
    DescentFailed,
    EqClass,
    Equation,
    FiniteTable,
    Identity,
    InvalidPseudoSolution,
    MissingImage,
    MorphicPermutation,
    NotClassClosed,
    ProductLimitExceeded,
    PseudoSolution,
    RankCertificate,
    Reversal,
    Solution,
    Word,
    WordEqError,
    bounded_rank_certificate,
    check_pseudo_solution,
    descend,
    enumerate_pseudo_solutions,
    parse_equation,
    solution_rank,
)
from wordeq import equations

AB = Alphabet("ab")
ABC = Alphabet("abc")
# ab~ba without a~b: not cut-closed, so some pseudo-solutions fail to descend
NOT_CUT_CLOSED = PairTable(AB, [((0, 1), (1, 0))])


def view(descend_, e, psol):
    """What a caller sees of a descent: the result's parts, or the error and its message."""
    try:
        r = descend_(e, psol)
    except WordEqError as exc:
        return type(exc), str(exc)
    return repr(r.solution), r.class_alphabet.symbols, r.hull.basis_words, r.hull.classes, r.common


def assert_same_certificate(cert, expect):
    for f in dataclasses.fields(RankCertificate):
        assert getattr(cert, f.name) == getattr(expect, f.name), f.name


@pytest.mark.parametrize("name,e,rel,max_len", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_descend_and_certificate_match_oracle(name, e, rel, max_len):
    for psol in enumerate_pseudo_solutions(e, rel, max_len):
        assert view(descend, e, psol) == view(brute_descend, e, psol), repr(psol)
    cert = bounded_rank_certificate(e, rel, max_len)
    assert_same_certificate(cert, brute_certificate(e, rel, max_len))


def test_sweep_descends_nontrivial_hulls():
    ranks = set()
    for _, e, rel, max_len in INSTANCES:
        if rel.kind != "identity":
            ranks.update(bounded_rank_certificate(e, rel, max_len).pseudo_ranks)
    assert {0, 1, 2} <= ranks


@pytest.mark.parametrize("text,count", [("x y = y x", 8), ("x y z = z y x", 68)])
def test_descent_failures_match_oracle(text, count):
    e = parse_equation(text)
    cert = bounded_rank_certificate(e, NOT_CUT_CLOSED, 3)
    assert_same_certificate(cert, brute_certificate(e, NOT_CUT_CLOSED, 3))
    assert len(cert.descent_failures) == count
    for psol in cert.pseudo_solutions:
        assert view(descend, e, psol) == view(brute_descend, e, psol), repr(psol)


def test_first_descent_failure():
    e = parse_equation("x y = y x")
    cert = bounded_rank_certificate(e, NOT_CUT_CLOSED, 3)
    assert cert.descent_failures[0] == (
        "PseudoSolution(x->[a], y->[ab]): descended morphism does not solve x y = y x"
    )
    with pytest.raises(DescentFailed, match="^descended morphism does not solve x y = y x$"):
        descend(e, psol(NOT_CUT_CLOSED, x="a", y="ab"))


# the abstract's corollary holds for the morphic swap, where every
# pseudo-solution descends; reversal fails the cut condition, and x y = y x
# and x^2 y^2 = z^2 (periodic by Lyndon-Schützenberger) each have
# pseudo-solutions of pseudo-rank 2 that do not descend
@pytest.mark.parametrize(
    "text,rel,summary,first,common",
    [
        ("x y = y x", Reversal(AB), (66, 2, 1, 20),
         "PseudoSolution(x->[a], y->[ab]): descended morphism does not solve x y = y x", "aba"),
        ("x^2 y^2 = z^2", Reversal(AB), (33, 2, 1, 4),
         "PseudoSolution(x->[a], y->[ab], z->[aab]): descended morphism does not solve x x y y = z z",
         "aabaab"),
        ("x y = y x", MorphicPermutation.from_cycles(AB, "(a b)"), (34, 1, 1, 0), None, None),
        ("x^2 y^2 = z^2", MorphicPermutation.from_cycles(AB, "(a b)"), (25, 1, 1, 0), None, None),
    ],
    ids=["commute-reversal", "squares-reversal", "commute-swap", "squares-swap"],
)
def test_corollary_boundary(text, rel, summary, first, common):
    e = parse_equation(text)
    cert = bounded_rank_certificate(e, rel, 3)
    assert_same_certificate(cert, brute_certificate(e, rel, 3))
    assert (cert.pseudo_count, cert.max_pseudo_rank, cert.max_ordinary_rank,
            len(cert.descent_failures)) == summary
    if first is not None:
        assert cert.descent_failures[0] == first
        p = psol(rel, **dict(zip(e.unknowns.symbols, ("a", "ab", "aab"))))
        assert str(check_pseudo_solution(e, p).common) == common


def test_rank_failures_match_oracle():
    # aa~ba and ba~bb but not aa~bb: no equivalence, and the one instance
    # found where a descended solution solves but has the wrong rank
    rel = PairTable(AB, [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0, 0, 1), (0, 0, 0))])
    e = parse_equation("x y = y x")
    views = [view(descend, e, p) for p in brute_pseudo_solutions(e, rel, 3)]
    assert views == [view(brute_descend, e, p) for p in brute_pseudo_solutions(e, rel, 3)]
    errors = [v for v in views if isinstance(v[0], type)]
    assert errors.count((DescentFailed, "descended rank 1 differs from pseudo-rank 2")) == 5
    assert [v[0] for v in errors].count(NotClassClosed) == 4


def test_hull_that_cannot_close_ends_the_certificate():
    # aa~bb without a~b: the hull of the first pseudo-solution with a class
    # {aa, bb} cannot be class-closed, so no pseudo-rank exists for it
    rel = PairTable(AB, [((0, 0), (1, 1))])
    with pytest.raises(NotClassClosed):
        bounded_rank_certificate(parse_equation("x y = y x"), rel, 3)


def psol(rel, **reps):
    return PseudoSolution(rel, {x: EqClass.of(rel, rel.alphabet.word(w)) for x, w in reps.items()})


def clear_identity_hulls():
    equations._IDENTITY_HULLS.hull.cache_clear()
    equations._IDENTITY_HULLS.index.cache_clear()


def spy_hulls(monkeypatch):
    """The list of the hull caches that equations._hulls hands out from now on."""
    made = []
    hulls = equations._hulls
    monkeypatch.setattr(equations, "_hulls", lambda rel: made.append(hulls(rel)) or made[-1])
    return made


RELATIONS = {
    "permutation": lambda: MorphicPermutation.from_cycles(ABC, "(a b c)"),
    "table": lambda: FiniteTable(ABC, [((0,), (1,))]),
}
# each run drops what it returns; x = a, y = b, z = ab share abab under both relations
RUNS = {
    "bounded_rank_certificate": lambda e, rel: bounded_rank_certificate(e, rel, 3).pseudo_count,
    "CertificateRows": lambda e, rel: sum(1 for _ in CertificateRows(e, rel, 3)),
    "descend": lambda e, rel: descend(e, psol(rel, x="a", y="b", z="ab")).pseudo_rank(),
    "enumerate_pseudo_solutions": lambda e, rel: sum(1 for _ in enumerate_pseudo_solutions(e, rel, 3)),
}


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("kind", RELATIONS)
def test_no_cache_keeps_a_dropped_relation(kind, run):
    # hulls under a relation other than the identity are cached with their
    # certificate or descent, and a walk's memos with the walk, so nothing
    # holds the relation once they are gone
    rel = RELATIONS[kind]()
    assert RUNS[run](parse_equation("x y z = z y x"), rel) > 0
    ref = weakref.ref(rel)
    del rel
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("run", ["bounded_rank_certificate", "CertificateRows"])
def test_hull_that_cannot_close_is_built_once(run, monkeypatch):
    # the descent's NotClassClosed ends the certificate as raised: the hull
    # is not built a second time, nor a second error chained to the first
    calls = []
    hull_letters = equations.hull_letters
    monkeypatch.setattr(equations, "hull_letters", lambda rel, words: calls.append(words) or hull_letters(rel, words))
    with pytest.raises(NotClassClosed) as exc:
        RUNS[run](parse_equation("x y = y x"), PairTable(AB, [((0, 0), (1, 1))]))
    assert exc.value.__context__ is None
    assert calls and len(set(calls)) == len(calls)


def test_identity_hulls_are_shared_across_alphabets():
    # the ordinary ranks of x y = y x stop at its defect bound 1: the hulls of
    # {} and {a}, which a later certificate over another alphabet finds cached
    e = parse_equation("x y = y x")
    hull = equations._IDENTITY_HULLS.hull
    hull.cache_clear()
    CertificateRows(e, MorphicPermutation.from_cycles(AB, "(a b)"), 2)
    taken = hull.cache_info()
    assert (taken.hits, taken.misses) == (0, 2)
    CertificateRows(e, MorphicPermutation.from_cycles(ABC, "(a b c)"), 2)
    again = hull.cache_info()
    assert (again.hits, again.misses) == (2, 2)


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_refused_like_the_oracle(limit):
    # even a side of single words is over such a limit; every entry point
    # refuses it with the oracle's message before any side is read
    e, ident = parse_equation("x y = y x"), Identity(AB)
    p = psol(ident, x="a", y="a")
    runs = [
        lambda: descend(e, p, limit=limit),
        lambda: brute_descend(e, p, limit=limit),
        lambda: check_pseudo_solution(e, p, limit=limit),
        lambda: bounded_rank_certificate(e, ident, 2, limit=limit),
        lambda: brute_certificate(e, ident, 2, limit=limit),
    ]
    for run in runs:
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == f"product limit must be at least 1, got {limit}"


@pytest.mark.parametrize(
    "stop,error",
    # the budget runs out in the ordinary walk, the guard trips in the pseudo walk
    [({"budget": 20}, BudgetExceeded), ({"limit": 3}, ProductLimitExceeded)],
    ids=["budget", "guard"],
)
def test_certificate_ranks_nothing_before_its_stop(stop, error, monkeypatch):
    # both walks' stops are raised before any solution is ranked or descended:
    # neither the shared identity caches nor any cache of the certificate is asked
    clear_identity_hulls()
    made = spy_hulls(monkeypatch)
    swap = MorphicPermutation.from_cycles(AB, "(a b)")
    with pytest.raises(error):
        CertificateRows(parse_equation("x y z = z y x"), swap, 2, **stop)
    for hulls in [equations._IDENTITY_HULLS, *made]:
        for cache in hulls.hull, hulls.index:
            info = cache.cache_info()
            assert (info.hits, info.misses) == (0, 0)


# the defect bound: n - 1 for n unknowns, n when the two sides are one word
CAPPED = [
    ("x y = x y", MorphicPermutation.from_cycles(AB, "(a b)"), 2),
    ("x y z = z y x", MorphicPermutation.from_cycles(ABC, "(a b c)"), 2),
    ("x = x x", MorphicPermutation.from_cycles(AB, "(a b)"), 0),
]


@pytest.mark.parametrize("text,rel,cap", CAPPED, ids=[c[0] for c in CAPPED])
def test_ordinary_ranks_stop_at_the_defect_bound(text, rel, cap, monkeypatch):
    e = parse_equation(text)
    expect = brute_certificate(e, rel, 3)
    assert expect.max_ordinary_rank == cap  # the bound is reached, so the stop is taken
    # the first ordinary solution to reach it, in enumeration order
    ranks = [
        solution_rank(Solution({x: c.rep for x, c in p.images.items()}))
        for p in brute_pseudo_solutions(e, Identity(rel.alphabet), 3)
    ]
    first = ranks.index(cap)
    # _hull is called once per ranked solution while the rows are built;
    # the descents call it only when the rows are iterated
    calls = []
    hull = equations._hull
    monkeypatch.setattr(equations, "_hull", lambda *a: calls.append(a) or hull(*a))
    rows = CertificateRows(e, rel, 3)
    assert len(calls) == first + 1 <= len(ranks)
    assert (rows.ordinary_count, rows.max_ordinary_rank, rows.ordinary_witness) == (
        expect.ordinary_count, cap, expect.ordinary_witness)
    monkeypatch.undo()
    assert_same_certificate(bounded_rank_certificate(e, rel, 3), expect)


def test_hull_index_cache_bound_and_reps():
    swap = MorphicPermutation.from_cycles(AB, "(a b)")
    hulls = equations._hulls(swap)
    assert hulls.index.cache_info().maxsize == 256
    assert hulls.hull.cache_info().maxsize == 1 << 14
    reps, class_index, lengths, factored = hulls.index(((0,), (1,)))
    assert isinstance(reps, tuple)
    # a~b: one class, which both letters index
    assert (reps, class_index, lengths, factored) == (((0,),), {(0,): 0, (1,): 0}, [1], {})
    # a descent over that basis keeps its images' class-index words there:
    # x = [a], y = [ab] = {ab, ba}, whose members' hull is {a, b}; it solves
    # x y = y x with rank 1, so no failure is returned
    descent = equations._descent(parse_equation("x y = y x"), hulls, [(0,), (0, 1)])
    assert descent == (((0,), (1,)), ((0,),), [(0,), (0, 0)], None)
    assert factored == {(0,): (0,), (0, 1): (0, 0)}
    # x = [a], y = [ab] = {ab} under ab~ba without a~b: the images descend
    # to a and ab over the hull {a, b}, which do not commute
    failed = equations._descent(parse_equation("x y = y x"), equations._hulls(NOT_CUT_CLOSED), [(0,), (0, 1)])
    assert failed[3] == "descended morphism does not solve x y = y x"


@pytest.mark.parametrize("name,e,rel,max_len", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_cold_and_warm_hull_index_give_one_certificate(name, e, rel, max_len, monkeypatch):
    # each certificate's own index cache starts cold; the shared identity
    # caches are cold for the first certificate and warm for the second
    clear_identity_hulls()
    made = spy_hulls(monkeypatch)
    cold = bounded_rank_certificate(e, rel, max_len)
    assert made[0].index.cache_info().misses > 0 or not cold.pseudo_count
    warm = bounded_rank_certificate(e, rel, max_len)
    expect = brute_certificate(e, rel, max_len)
    assert_same_certificate(cold, expect)
    assert_same_certificate(warm, expect)


class TestErrors:
    # each error keeps the oracle's type and message
    swap = MorphicPermutation.from_cycles(AB, "(a b)")

    def same(self, error, e, p):
        got = view(descend, e, p)
        assert got == view(brute_descend, e, p)
        assert got[0] is error
        return got[1]

    def test_disjoint_sides(self):
        e = parse_equation("x y = y x")
        message = self.same(InvalidPseudoSolution, e, psol(Identity(AB), x="ab", y="a"))
        assert message == "side languages are disjoint for PseudoSolution(x->[ab], y->[a])"

    def test_missing_image_on_a_side(self):
        e = parse_equation("x y = y x")
        assert self.same(MissingImage, e, psol(self.swap, x="a")) == "no image for unknown y"

    def test_missing_image_of_an_unknown_on_no_side(self):
        xyz = Alphabet("xyz")
        e = Equation(xyz, xyz.word("xy"), xyz.word("yx"))
        assert self.same(MissingImage, e, psol(self.swap, x="a", y="b")) == "no image for unknown z"
        # the converse: the image of a name that is no unknown takes no part in the hull
        e = parse_equation("x y = y x")
        p = psol(MorphicPermutation.from_cycles(ABC, "(a b)"), x="a", y="a", z="c")
        assert check_pseudo_solution(e, p).valid
        assert view(descend, e, p) == view(brute_descend, e, p)
        result = descend(e, p)
        assert (repr(result.solution), result.pseudo_rank()) == ("Solution(x->[a], y->[a])", 1)

    @pytest.mark.parametrize(
        "text,error,message",
        [
            # the left side's first occurrence is over the guard before y is looked up
            ("x y = y x", ProductLimitExceeded, "product of 1 x 3 words exceeds limit 2"),
            ("y x = x y", MissingImage, "no image for unknown y"),
        ],
    )
    def test_sides_checked_in_occurrence_order(self, text, error, message):
        cycle = MorphicPermutation.from_cycles(ABC, "(a b c)")
        p = psol(cycle, x="a")
        got = view(lambda e, q: descend(e, q, limit=2), parse_equation(text), p)
        assert got == view(lambda e, q: brute_descend(e, q, limit=2), parse_equation(text), p)
        assert got == (error, message)

    def test_image_over_another_alphabet(self):
        e = parse_equation("x y = y x")
        foreign = EqClass(self.swap, Word(Alphabet("cd"), (0,)))
        p = PseudoSolution(self.swap, {"x": foreign, "y": EqClass.of(self.swap, AB.word("a"))})
        self.same(AlphabetMismatch, e, p)

    @pytest.mark.parametrize("decide", [check_pseudo_solution, descend])
    @pytest.mark.parametrize(
        "image",
        # letter 2 is out of range for the relation; letter 0 is in range, and the sides would meet
        [Alphabet("abc").word("c"), Alphabet("xyz").word("x")],
        ids=["letter_out_of_range", "letter_in_range"],
    )
    def test_every_image_checked_before_the_sides(self, decide, image):
        c = EqClass(self.swap, image)
        p = PseudoSolution(self.swap, {"x": c, "y": c})
        with pytest.raises(AlphabetMismatch, match="^word from a different alphabet than the relation$"):
            decide(parse_equation("x y = y x"), p)


@pytest.mark.parametrize(
    "text,common",
    [("x^1500 y = y x^1500", None), ("x^1500 y = x^1500 y", "c" * 1500 + "a")],
    ids=["disjoint", "same"],
)
def test_long_sides_decided_without_recursion(text, common):
    # 1501 occurrences a side, all but y's in a one-word class: the walk is 1501 classes deep
    e = parse_equation(text)
    p = psol(MorphicPermutation.from_cycles(ABC, "(a b)"), x="c", y="a")
    verdict = check_pseudo_solution(e, p)
    assert verdict.common == (common and ABC.word(common))
    assert hash(verdict) == hash(check_pseudo_solution(e, p))
    assert view(descend, e, p) == view(brute_descend, e, p)
