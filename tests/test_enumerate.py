"""Differential sweep of the depth-first enumerator against the brute-force oracle.

For every instance both enumerators must emit the same pseudo-solutions
in the same order, stop on the same budget with the same progress counts,
and trip the product guard at the same limit after the same emissions.
"""
import functools
import itertools
import math
import random
from pathlib import Path

import pytest

from oracles import brute_pseudo_solutions, brute_representatives
from wordeq import (
    DEFAULT_PRODUCT_LIMIT,
    Alphabet,
    BudgetExceeded,
    CertificateRows,
    EqClass,
    FiniteTable,
    Identity,
    MorphicPermutation,
    ProductLimitExceeded,
    PseudoSolution,
    check_pseudo_solution,
    close_pairs,
    enumerate_pseudo_solutions,
    parse_equation,
)
from wordeq import equations
from wordeq.cli import parse_config

ROOT = Path(__file__).resolve().parent.parent
AB = Alphabet("ab")
ABC = Alphabet("abc")


def config_instances():
    out = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        cfg = parse_config(str(path))
        if cfg.equation is None or cfg.max_len is None:
            continue
        for rel in (cfg.rel, Identity(cfg.alphabet)):
            out.append((f"{path.stem}/{rel.kind}", cfg.equation, rel, cfg.max_len))
    return out


def criterion_4_instances():
    out = []
    for size in (1, 2):
        alphabet = Alphabet("ab"[:size])
        for perm in itertools.permutations(range(size)):
            rel = MorphicPermutation(alphabet, perm)
            for text in ("x y = y x", "x x y = y x x"):
                out.append((f"{text}/{perm}", parse_equation(text), rel, 3))
    table = close_pairs(
        ABC,
        [
            (ABC.word("a"), ABC.word("c")),
            (ABC.word("ab"), ABC.word("cb")),
            (ABC.word("bc"), ABC.word("ba")),
            (ABC.word("abc"), ABC.word("cba")),
        ],
    )
    out.append(("x y z = z y x/table", parse_equation("x y z = z y x"), table, 3))
    return out


def seeded_equation(rng, unknowns, balanced):
    # every unknown occurs on the left; a balanced equation permutes the left side
    while True:
        lhs = list(unknowns) + [rng.choice(unknowns) for _ in range(rng.randint(0, 1))]
        rng.shuffle(lhs)
        if balanced:
            rhs = rng.sample(lhs, len(lhs))
            if rhs == lhs:
                continue
        else:
            rhs = [rng.choice(unknowns) for _ in range(rng.randint(1, 3))]
            if sorted(rhs) == sorted(lhs):
                continue
        return parse_equation(" ".join(lhs) + " = " + " ".join(rhs))


def seeded_table(rng, alphabet):
    words = [w for w in alphabet.words_up_to(2) if w.letters]
    pairs = []
    for _ in range(rng.randint(1, 2)):
        u = rng.choice(words)
        v = rng.choice([w for w in words if len(w) == len(u)])
        pairs.append((u, v))
    return close_pairs(alphabet, pairs)


def seeded_instances(seed=20, count=8):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        unknowns = "xyz" if i % 2 else "xy"
        alphabet = AB if unknowns == "xyz" else ABC
        e = seeded_equation(rng, unknowns, balanced=i % 4 < 2)
        perm = list(range(len(alphabet)))
        rng.shuffle(perm)
        if perm == sorted(perm):
            perm = perm[1:] + perm[:1]
        for rel in (Identity(alphabet), MorphicPermutation(alphabet, perm), seeded_table(rng, alphabet)):
            out.append((f"seed{seed}.{i}/{e}/{rel.kind}", e, rel, 3))
    return out


# bb~ba and bb~ab as given are not transitive; the table is their closure
CLOSED_TABLE = FiniteTable(AB, [((1, 1), (1, 0)), ((1, 1), (0, 1))])
INSTANCES = config_instances() + criterion_4_instances() + seeded_instances() + [
    ("x y = y x/closed bb~ba, bb~ab", parse_equation("x y = y x"), CLOSED_TABLE, 3),
    ("x y z = z y x/(a b c)", parse_equation("x y z = z y x"),
     MorphicPermutation.from_cycles(ABC, "(a b c)"), 3),
    # a segment can lie under two occurrences of one unknown, as x under x
    ("x x y = y x x/table a~b, ab~ba, aab~bba", parse_equation("x x y = y x x"),
     FiniteTable(AB, [((0,), (1,)), ((0, 1), (1, 0)), ((0, 0, 1), (1, 1, 0))]), 3),
    # one unknown: the walk has a single, empty prefix
    ("x x = x/identity", parse_equation("x x = x"), Identity(AB), 3),
    ("x x = x/(a b)", parse_equation("x x = x"), MorphicPermutation(AB, (1, 0)), 3),
    # four and five unknowns: the walk's stack grows past one level
    ("x y z w = w z y x/(a b)", parse_equation("x y z w = w z y x"), MorphicPermutation(AB, (1, 0)), 2),
    ("x y z w = y x w z/(a b c)", parse_equation("x y z w = y x w z"),
     MorphicPermutation.from_cycles(ABC, "(a b c)"), 2),
    ("v w x y z = z y x w v/identity", parse_equation("v w x y z = z y x w v"), Identity(AB), 2),
]


def outcome(enumerate_, e, rel, max_len, **kwargs):
    """Emitted reprs, then how the walk ended: None, budget counts, the guard
    message or the refusal of the limit."""
    seen = []
    try:
        for psol in enumerate_(e, rel, max_len, **kwargs):
            seen.append(repr(psol))
    except BudgetExceeded as exc:
        return seen, ("budget", exc.examined, exc.emitted)
    except ProductLimitExceeded as exc:
        return seen, ("guard", str(exc))
    except ValueError as exc:
        return seen, ("refused", str(exc))
    return seen, None


def largest_side_product(e, rel, max_len):
    """Largest product of class sizes over the sides of length-balanced assignments."""
    reps = brute_representatives(rel, max_len)
    sizes = [len(rel.class_letters(w.letters)) for w in reps]
    lens = [len(w) for w in reps]
    best = 0
    for a in itertools.product(range(len(reps)), repeat=len(e.unknowns)):
        if sum(lens[a[u]] for u in e.lhs.letters) == sum(lens[a[u]] for u in e.rhs.letters):
            for side in (e.lhs.letters, e.rhs.letters):
                best = max(best, math.prod(sizes[a[u]] for u in side))
    return best


def all_checked(e, rel, max_len, limit=DEFAULT_PRODUCT_LIMIT):
    """Whether every pseudo-solution the walk emits under limit passes
    check_pseudo_solution at that limit."""
    emitted = []
    try:
        for psol in enumerate_pseudo_solutions(e, rel, max_len, limit=limit):
            emitted.append(psol)
    except ProductLimitExceeded:  # the walk stops at its first side over the limit
        pass
    return all(check_pseudo_solution(e, psol, limit).valid for psol in emitted)


@pytest.mark.parametrize("name,e,rel,max_len", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_same_sequence_budget_and_guard(name, e, rel, max_len):
    expect = outcome(brute_pseudo_solutions, e, rel, max_len)
    assert outcome(enumerate_pseudo_solutions, e, rel, max_len) == expect
    assert expect[1] is None
    # bounded_rank_certificate descends without re-checking sides: it relies
    # on every emitted pseudo-solution having sides within the limit and a
    # common word, which the full check confirms here
    assert all_checked(e, rel, max_len)

    # the edges of the first two prefixes, and of the whole walk, which r ** n
    # completes; budgets below 1 examine nothing
    r, n = len(brute_representatives(rel, max_len)), len(e.unknowns)
    edges = {-1, 0, 1, 2, r - 1, r, r + 1, 2 * r - 1, 2 * r, 2 * r + 1, r ** n - 1, r ** n}
    for budget in sorted(edges):
        expect = outcome(brute_pseudo_solutions, e, rel, max_len, budget=budget)
        assert (expect[1] is None) == (budget >= r ** n)
        assert outcome(enumerate_pseudo_solutions, e, rel, max_len, budget=budget) == expect

    boundary = largest_side_product(e, rel, max_len)
    if boundary > 1:
        for limit in (boundary - 1, boundary):
            expect = outcome(brute_pseudo_solutions, e, rel, max_len, limit=limit)
            assert (expect[1] is not None) == (limit < boundary)
            assert outcome(enumerate_pseudo_solutions, e, rel, max_len, limit=limit) == expect
            assert all_checked(e, rel, max_len, limit)

    # no side fits under a limit below 1, which is refused before anything is emitted
    for limit in (0, -1):
        expect = outcome(brute_pseudo_solutions, e, rel, max_len, limit=limit)
        assert expect == ([], ("refused", f"product limit must be at least 1, got {limit}"))
        assert outcome(enumerate_pseudo_solutions, e, rel, max_len, limit=limit) == expect


def first_trip(e, rel, max_len, limit):
    """The number of the first assignment with a side over limit, counted from
    0: the oracle trips the guard exactly under the budgets above it."""
    lo, hi = 0, len(brute_representatives(rel, max_len)) ** len(e.unknowns)
    while lo < hi:
        mid = (lo + hi) // 2
        if outcome(brute_pseudo_solutions, e, rel, max_len, budget=mid, limit=limit)[1][0] == "guard":
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


GUARDED = [row for row in INSTANCES if largest_side_product(*row[1:]) > 1]


@pytest.mark.parametrize("name,e,rel,max_len", GUARDED, ids=[i[0] for i in GUARDED])
def test_budget_and_guard_together(name, e, rel, max_len):
    # the budget and the first assignment over the guard give one stop: the
    # budgets around that assignment's number end in one or the other
    limit = largest_side_product(e, rel, max_len) - 1
    trip = first_trip(e, rel, max_len, limit)
    for budget in range(trip - 2, trip + 2):
        expect = outcome(brute_pseudo_solutions, e, rel, max_len, budget=budget, limit=limit)
        assert expect[1][0] == ("guard" if budget > trip else "budget")
        assert outcome(enumerate_pseudo_solutions, e, rel, max_len, budget=budget, limit=limit) == expect


def test_budget_bounds_the_listed_vectors(monkeypatch):
    # every one of the 4^8 length vectors balances a palindrome; below budget
    # 10 only the last two unknowns can be nonempty, in 2 x 4 vectors
    listed = []
    cut_plans = equations._cut_plans

    def counted(*args):
        vectors = cut_plans(*args)
        listed.append(len(vectors))
        return vectors

    monkeypatch.setattr(equations, "_cut_plans", counted)
    xs = [f"x{i}" for i in range(8)]
    e = parse_equation(" ".join(xs) + " = " + " ".join(reversed(xs)))
    rel = MorphicPermutation(AB, (1, 0))
    expect = outcome(brute_pseudo_solutions, e, rel, 3, budget=10)
    assert expect[1] == ("budget", 10, 10)
    assert outcome(enumerate_pseudo_solutions, e, rel, 3, budget=10) == expect
    assert sum(listed) <= 16


def test_guard_trips_on_an_assignment_the_cuts_prune():
    # under b~c, x = [a] and y = [ab] = {ab, ac} is the first assignment with a
    # side over the limit; it is no pseudo-solution, and its pieces at the cut
    # after x, a against b or c, already differ
    e = parse_equation("x x = y")
    rel = FiniteTable(ABC, [((1,), (2,))])
    expect = outcome(brute_pseudo_solutions, e, rel, 2, limit=1)
    assert expect == (
        ["PseudoSolution(x->[ε], y->[ε])", "PseudoSolution(x->[a], y->[aa])"],
        ("guard", "product of 1 x 2 words exceeds limit 1"),
    )
    assert outcome(enumerate_pseudo_solutions, e, rel, 2, limit=1) == expect
    images = {"x": EqClass.of(rel, ABC.word("a")), "y": EqClass.of(rel, ABC.word("ab"))}
    assert not check_pseudo_solution(e, PseudoSolution(rel, images)).valid


def test_walk_stopped_by_the_guard_sets_up_no_stream(monkeypatch):
    # the pseudo walk trips the guard before it walks, and the ordinary walk
    # is not walked until then, so no vector's plan or stream is set up
    def merge(*streams):
        raise AssertionError("a walk merged its streams before the guard stopped it")

    monkeypatch.setattr(equations.heapq, "merge", merge)
    with pytest.raises(ProductLimitExceeded, match="^product of 2 x 2 words exceeds limit 3$"):
        CertificateRows(parse_equation("x y z = z y x"), MorphicPermutation(AB, (1, 0)), 2, limit=3)


def test_large_plan_lists_go_with_their_search(monkeypatch):
    # the 4^6 length vectors of a six-unknown palindrome up to length 3 pass
    # _CACHED_PLANS: both walks of the certificate share one listing, and no
    # plan list stays cached once the guard has stopped the search
    built = []

    def build(*args):
        built.append(args)
        return cut_plans.__wrapped__(*args)

    cut_plans = equations._cut_plans
    monkeypatch.setattr(equations, "_cut_plans", functools.lru_cache(maxsize=256)(build))
    xs = [f"x{i}" for i in range(6)]
    e = parse_equation(" ".join(xs) + " = " + " ".join(reversed(xs)))
    assert 4 ** len(xs) > equations._CACHED_PLANS
    with pytest.raises(ProductLimitExceeded):
        CertificateRows(e, MorphicPermutation(AB, (1, 0)), 3, limit=3)
    assert len(built) == 1
    assert equations._cut_plans.cache_info().currsize == 0


@pytest.mark.parametrize("rel", [Identity(AB), FiniteTable(AB, [])], ids=["identity", "empty_table"])
def test_one_member_classes_leave_no_leaf_to_check(rel, monkeypatch):
    # when every class is one word, the cuts pin each segment's two pieces
    # equal, so every leaf is a solution and the walk checks none of them
    e = parse_equation("x y z = z y x")
    expect = outcome(brute_pseudo_solutions, e, rel, 3)
    monkeypatch.setattr(equations, "_least_common", None)
    assert outcome(enumerate_pseudo_solutions, e, rel, 3) == expect


def test_sweep_covers_every_shape():
    kinds = {rel.kind for _, _, rel, _ in INSTANCES}
    assert kinds == {"identity", "permutation", "table"}
    balanced = [sorted(e.lhs.letters) == sorted(e.rhs.letters) for _, e, _, _ in INSTANCES]
    assert any(balanced) and not all(balanced)
    assert {len(e.unknowns) for _, e, _, _ in INSTANCES} >= {1, 2, 3, 4, 5}


def test_representatives_are_generated_lazily():
    # the eager walk would first build all ~1.8e19 words of length <= 40
    e = parse_equation("x y = y x")
    with pytest.raises(BudgetExceeded) as exc:
        list(enumerate_pseudo_solutions(e, Identity(ABC), 40, budget=3))
    assert (exc.value.examined, exc.value.emitted) == (3, 3)
