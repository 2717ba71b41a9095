import gc
import itertools
import weakref

import pytest

from wordeq import (
    Alphabet,
    AlphabetMismatch,
    EnumerationGuardExceeded,
    FiniteTable,
    MorphicPermutation,
    NotClassClosed,
    WordEqError,
    class_factorization,
    factorizations,
    free_hull,
    hull_oracle,
    is_code,
    is_in_monoid,
    minimal_generators,
    pseudo_free_hull,
    rank,
)
from wordeq.freeness import _is_code_cached
from wordeq.words import least_factorization

from oracles import PairTable, all_word_sets, brute_double_factorization, brute_factorizations, brute_is_code

AB = Alphabet("ab")
ABC = Alphabet("abc")


def words(alphabet, *texts):
    return [alphabet.word(t) for t in texts]


class TestIsCode:
    def test_code(self):
        assert is_code(words(AB, "ab", "aba")).is_code

    def test_not_code_with_witness(self):
        verdict = is_code(words(AB, "a", "ab", "ba"))
        assert not verdict.is_code
        assert str(verdict.witness) == "aba"
        assert [str(f) for f in verdict.factorization_a] == ["a", "ba"]
        assert [str(f) for f in verdict.factorization_b] == ["ab", "a"]

    def test_two_letter_code(self):
        assert is_code(words(ABC, "a", "bc")).is_code

    def test_witness_invariants(self):
        verdict = is_code(words(AB, "a", "ab", "ba"))
        fa, fb = verdict.factorization_a, verdict.factorization_b
        assert fa[0] != fb[0]
        for fs in (fa, fb):
            glued = sum((f.letters for f in fs), ())
            assert glued == verdict.witness.letters

    def test_empty_and_singleton(self):
        assert is_code([]).is_code
        assert is_code(words(AB, "abab")).is_code

    def test_epsilon_rejected(self):
        with pytest.raises(ValueError):
            is_code([AB.word("")])

    def test_uniform_length_sets_are_codes(self):
        assert is_code(words(AB, "aa", "ab", "ba", "bb")).is_code

    def test_witness_is_shortest(self):
        # powers of a: the witness needs several dangling-suffix rounds
        basis = words(AB, "aa", "aaa")
        verdict = is_code(basis)
        assert not verdict.is_code
        assert str(verdict.witness) == "aaaaa"
        assert verdict.witness == brute_double_factorization(basis, 10)

    def test_witness_is_shortest_on_mixed_set(self):
        basis = words(AB, "b", "ab", "ba")
        verdict = is_code(basis)
        assert not verdict.is_code
        assert verdict.witness == brute_double_factorization(basis, 10)
        assert str(verdict.witness) == "bab"


class TestMinimalGenerators:
    def test_drops_product(self):
        got = minimal_generators(words(AB, "a", "ab", "b"))
        assert sorted(str(w) for w in got) == ["a", "b"]

    def test_keeps_overlapping_pair(self):
        got = minimal_generators(words(AB, "ab", "aba"))
        assert sorted(str(w) for w in got) == ["ab", "aba"]

    def test_singleton(self):
        got = minimal_generators(words(AB, "a"))
        assert sorted(str(w) for w in got) == ["a"]

    def test_drops_epsilon(self):
        got = minimal_generators([AB.word(""), AB.word("a")])
        assert sorted(str(w) for w in got) == ["a"]

    def test_power_is_dropped(self):
        got = minimal_generators(words(AB, "a", "aaa"))
        assert sorted(str(w) for w in got) == ["a"]


class TestFreeHull:
    def test_classic_three_words(self):
        assert str(free_hull(words(ABC, "a", "bca", "abc"))) == "{a, bc}"

    def test_overlap_forces_letters(self):
        assert str(free_hull(words(AB, "a", "ab", "ba"))) == "{a, b}"

    def test_code_is_its_own_hull(self):
        assert str(free_hull(words(AB, "ab", "aba"))) == "{ab, aba}"

    def test_idempotent(self):
        first = free_hull(words(AB, "a", "ab", "ba"))
        assert free_hull(first.words) == first

    def test_contains_input(self):
        xs = words(AB, "aab", "ab", "abab")
        basis = free_hull(xs)
        for x in xs:
            assert is_in_monoid(x, basis.words)

    def test_degenerate(self):
        assert free_hull([]).words == ()
        assert free_hull([AB.word("")]).words == ()

    def test_rank_examples(self):
        assert rank(words(ABC, "a", "bca", "abc")) == 2
        assert rank(words(AB, "aa", "aaa")) == 1
        assert rank([]) == 0

    def test_hull_keeps_no_relation_alive(self):
        # hulls compute fresh, so nothing past a call holds its relation
        def hull_and_factor(rel):
            hull = pseudo_free_hull(rel, words(ABC, "ab", "cab", "ba"))
            class_factorization(hull, ABC.word("abcab"))
            return weakref.ref(rel)

        refs = [
            hull_and_factor(MorphicPermutation.from_cycles(ABC, "(a c)")),
            hull_and_factor(FiniteTable(ABC, [((0,), (2,))])),
        ]
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestAlphabetBoundary:
    @pytest.mark.parametrize("fn", [is_code, minimal_generators, free_hull])
    def test_mixed_alphabets_rejected(self, fn):
        with pytest.raises(AlphabetMismatch):
            fn([AB.word("a"), ABC.word("b")])
        with pytest.raises(AlphabetMismatch):
            fn([AB.word("ab"), ABC.word("ab")])

    @pytest.mark.parametrize("fn", [is_code, minimal_generators, free_hull])
    def test_equal_alphabets_accepted(self, fn):
        fn([AB.word("a"), Alphabet("ab").word("b")])


class TestHullOracle:
    def test_overlap(self):
        assert str(hull_oracle(words(AB, "a", "ab", "ba"))) == "{a, b}"

    def test_singleton(self):
        assert str(hull_oracle(words(AB, "ab"))) == "{ab}"

    def test_code(self):
        assert str(hull_oracle(words(AB, "ab", "aba"))) == "{ab, aba}"

    def test_guard(self):
        with pytest.raises(EnumerationGuardExceeded):
            hull_oracle(words(AB, "aabb", "abab", "baba"), max_factors=4)

    def test_empty(self):
        assert hull_oracle([]).words == ()


class TestSmallSweep:
    # the full-size suite runs in the acceptance module; this one keeps the
    # unit suite quick while exercising the same cross-checks
    SETS = list(all_word_sets(AB, 2, 3))

    def test_hull_matches_oracle(self):
        for xs in self.SETS:
            assert free_hull(xs) == hull_oracle(xs, max_factors=20), sorted(map(str, xs))

    def test_code_test_matches_brute_force(self):
        for xs in self.SETS:
            expect = brute_is_code(sorted(xs))
            assert is_code(xs).is_code == expect, sorted(map(str, xs))

    def test_defect_effect(self):
        for xs in self.SETS:
            if not is_code(xs).is_code:
                assert rank(xs) < len(xs), sorted(map(str, xs))

    def test_hull_contains_and_is_code(self):
        for xs in self.SETS:
            basis = free_hull(xs)
            assert is_code(basis.words).is_code
            for x in xs:
                assert is_in_monoid(x, basis.words)


def test_minimal_generators_against_brute_factorizations():
    # a word is dropped iff it is a product of the other words; all 4525
    # binary sets of at most three words of length at most four
    for xs in all_word_sets(AB, 3, 4):
        expect = {w for w in xs if not brute_factorizations(w, sorted(xs - {w}))}
        assert minimal_generators(xs) == expect, sorted(map(str, xs))


def test_least_factorization_is_first_factorization():
    # one walk over reachable positions against the full enumeration, for
    # every binary word up to length four over the free hulls of all 4525
    # binary sets (codes) and over the sets themselves (codes or not)
    targets = list(AB.words_up_to(4))
    for xs in all_word_sets(AB, 3, 4):
        for basis in (free_hull(xs).words, tuple(xs)):
            letters = sorted(b.letters for b in basis)
            for w in targets:
                facts = factorizations(w, basis)
                expect = tuple(b.letters for b in facts[0]) if facts else None
                assert least_factorization(w.letters, letters) == expect, (str(w), letters)


def test_hull_that_is_not_class_closed_raises_library_error():
    # aa~bb without a~b is not cut-closed; the hull of {a, aa} ends on the
    # code {a, bb}, whose word bb has aa = a·a in its class
    rel = PairTable(AB, [((0, 0), (1, 1))])
    with pytest.raises(NotClassClosed, match="basis not class-closed"):
        pseudo_free_hull(rel, words(AB, "a", "aa"))
    assert issubclass(NotClassClosed, WordEqError)


def test_code_cache_is_bounded_and_verdicts_survive_eviction():
    sets = [sorted(xs) for xs in all_word_sets(AB, 2, 3)]
    before = [is_code(xs).is_code for xs in sets]
    # 5,000 distinct pairs of words up to length 6 push every earlier entry out
    universe = [w for w in AB.words_up_to(6) if w.letters]
    for pair in itertools.islice(itertools.combinations(universe, 2), 5000):
        is_code(pair)
    info = _is_code_cached.cache_info()
    assert info.maxsize == 4096
    assert info.currsize <= 4096
    after = [is_code(xs).is_code for xs in sets]
    assert after == before == [brute_is_code(xs) for xs in sets]
