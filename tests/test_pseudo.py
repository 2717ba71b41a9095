import itertools
import random

import pytest

from wordeq import (
    Alphabet,
    AlphabetMismatch,
    Basis,
    ClassWord,
    EqClass,
    FiniteLanguage,
    Identity,
    MorphicPermutation,
    NotInMonoid,
    ProductLimitExceeded,
    PseudoFreeBasis,
    Word,
    close_pairs,
    class_factorization,
    free_hull,
    is_code,
    parse_relation,
    pseudo_free_hull,
    pseudo_rank,
)

from oracles import (
    all_word_sets,
    brute_class_factorization,
    brute_product_letters,
    brute_reachable,
    class_closure,
    class_factor_stability,
    factorization_is_morphism,
    product,
)

AB = Alphabet("ab")
ABC = Alphabet("abc")


def swap_ab():
    return MorphicPermutation.from_cycles(AB, "(a b)")


def three_letter_table():
    return close_pairs(
        ABC,
        [
            (ABC.word("a"), ABC.word("c")),
            (ABC.word("ab"), ABC.word("cb")),
            (ABC.word("bc"), ABC.word("ba")),
            (ABC.word("abc"), ABC.word("cba")),
        ],
    )


def random_table(rng):
    alphabet = Alphabet("abc"[: rng.randint(2, 3)])
    pairs = []
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, 3)
        u, v = (tuple(rng.randrange(len(alphabet)) for _ in range(n)) for _ in range(2))
        pairs.append((Word(alphabet, u), Word(alphabet, v)))
    return close_pairs(alphabet, pairs)


def class_closed_codes(rel, max_len):
    """Every code of words up to max_len that is a union of classes."""
    classes = sorted({rel.class_letters(w.letters) for w in rel.alphabet.words_up_to(max_len) if w})
    codes = []

    def grow(start, chosen):
        # supersets of a non-code are not codes, so only codes are extended
        for i in range(start, len(classes)):
            basis = chosen + [Word(rel.alphabet, t) for t in classes[i]]
            if is_code(basis).is_code:
                codes.append(basis)
                grow(i + 1, basis)

    grow(0, [])
    return codes


def strs(words):
    return sorted(str(w) for w in words)


class TestClassClosure:
    def test_swap(self):
        assert strs(class_closure(swap_ab(), [AB.word("ab")])) == ["ab", "ba"]

    def test_table(self):
        rel = three_letter_table()
        got = class_closure(rel, [ABC.word(t) for t in ("abc", "b", "a")])
        assert strs(got) == ["a", "abc", "b", "c", "cba"]

    def test_identity(self):
        assert strs(class_closure(Identity(AB), [AB.word("ab")])) == ["ab"]

    def test_fixpoint_after_one_pass(self):
        rel = swap_ab()
        once = class_closure(rel, [AB.word("aab"), AB.word("ba")])
        assert class_closure(rel, once) == once


class TestPseudoFreeHull:
    def test_table_instance(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        assert strs(hull.basis_words) == ["a", "b", "c"]
        assert [str(c) for c in hull.classes] == ["[a]", "[b]"]
        assert hull.pseudo_rank() == 2

    def test_swap_code_is_its_own_hull(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word("aba")])
        assert strs(hull.basis_words) == ["aba", "bab"]
        assert [str(c) for c in hull.classes] == ["[aba]"]

    def test_identity_reduces_to_free_hull(self):
        xs = [ABC.word(t) for t in ("a", "bca", "abc")]
        hull = pseudo_free_hull(Identity(ABC), xs)
        assert strs(hull.basis_words) == ["a", "bc"]
        assert [str(c) for c in hull.classes] == ["[a]", "[bc]"]

    def test_classes_in_shortlex_order(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word(t) for t in ("aab", "ab")])
        assert strs(hull.basis_words) == ["aab", "ab", "ba", "bba"]
        assert [str(c) for c in hull.classes] == ["[ab]", "[aab]"]

    def test_basis_is_class_closed_code(self):
        rels = [swap_ab(), three_letter_table(), Identity(AB)]
        sample = [
            [AB.word("ab"), AB.word("a")],
            [AB.word("aab")],
            [AB.word("ab"), AB.word("ba"), AB.word("b")],
        ]
        for rel in rels:
            for xs in sample:
                if rel.alphabet != xs[0].alphabet:
                    continue
                hull = pseudo_free_hull(rel, xs)
                assert is_code(hull.basis_words.words).is_code
                for b in hull.basis_words:
                    for member in rel.class_of(b):
                        assert member in hull.basis_words

    def test_empty_input(self):
        hull = pseudo_free_hull(swap_ab(), [])
        assert hull.basis_words.words == ()
        assert hull.pseudo_rank() == 0

    def test_identity_matches_free_hull_on_suite(self):
        identity = Identity(AB)
        for xs in all_word_sets(AB, 2, 3):
            hull = pseudo_free_hull(identity, xs)
            assert hull.basis_words == free_hull(xs)
            assert hull.pseudo_rank() == len(free_hull(xs))

    def test_closure_and_stability_interact(self):
        # classes force {ab, ba, aba, bab}, whose double factorization of
        # ababa then forces the single letters
        hull = pseudo_free_hull(swap_ab(), [AB.word("ab"), AB.word("aba")])
        assert strs(hull.basis_words) == ["a", "b"]
        assert hull.pseudo_rank() == 1

    def test_minimality_against_slice_oracle(self):
        # the hull monoid, cut at the longest input length, must equal the
        # intersection of every class-closed code covering the input: every
        # permutation of two and three letters, and seeded random tables
        relations = [
            (MorphicPermutation(alphabet, perm), max_len)
            for alphabet, max_len in ((AB, 3), (ABC, 2))
            for perm in itertools.permutations(range(len(alphabet)))
        ]
        rng = random.Random(1906)
        relations += [(random_table(rng), 2) for _ in range(10)]
        for rel, max_len in relations:
            slices = [brute_reachable(code, max_len) for code in class_closed_codes(rel, max_len)]
            for xs in all_word_sets(rel.alphabet, 2, max_len):
                n = max(len(w) for w in xs)
                covering = [s for s in slices if all(w.letters in s for w in xs)]
                expect = {t for t in set.intersection(*covering) if len(t) <= n}
                hull = pseudo_free_hull(rel, xs)
                assert brute_reachable(list(hull.basis_words), n) == expect, (
                    rel.describe(),
                    strs(xs),
                )

    def test_rejects_words_over_another_alphabet(self):
        with pytest.raises(AlphabetMismatch):
            pseudo_free_hull(swap_ab(), [ABC.word("c")])
        with pytest.raises(AlphabetMismatch):
            pseudo_free_hull(three_letter_table(), [ABC.word("a"), AB.word("b")])


class TestClassFactorization:
    def test_table_word(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        cw = class_factorization(hull, ABC.word("abcba"))
        assert [str(c) for c in cw] == ["[a]", "[b]", "[a]", "[b]", "[a]"]

    def test_epsilon(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word("aba")])
        assert len(class_factorization(hull, AB.word(""))) == 0

    def test_swap_two_blocks(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word("aba")])
        cw = class_factorization(hull, AB.word("ababab"))
        assert [str(c) for c in cw] == ["[aba]", "[aba]"]

    def test_outside_monoid(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word("aba")])
        with pytest.raises(NotInMonoid):
            class_factorization(hull, AB.word("abab"))

    def test_constant_on_classes(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        rel = hull.rel
        for w in ABC.words_up_to(3):
            for member in rel.class_of(w):
                assert class_factorization(hull, member) == class_factorization(hull, w)

    def test_unique_covering_sequence(self):
        # no other class sequence of the hull covers a monoid word
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        for w in ABC.words_up_to(3):
            cw = class_factorization(hull, w)
            covering = []
            for k in range(len(w) + 1):
                for seq in itertools.product(hull.classes, repeat=k):
                    langs = [set(c.language().words) for c in seq]
                    pieces = [()]
                    for lang in langs:
                        pieces = [p + x.letters for p in pieces for x in lang]
                    if w.letters in pieces:
                        covering.append(seq)
            assert covering == [tuple(cw.classes)]


    @pytest.mark.parametrize("text", ["permutation: (a b)", "table: a~b, ab~ba, aab~bba"])
    def test_against_brute_factorization(self, text):
        rel = parse_relation(AB, text)
        for xs in all_word_sets(AB, 3, 4):
            hull = pseudo_free_hull(rel, xs)
            for w in xs:
                assert class_factorization(hull, w) == brute_class_factorization(hull, w), strs(xs)

    @pytest.mark.parametrize("text", ["permutation: (a b)", "table: a~b, ab~ba, aab~bba"])
    def test_class_word_language_against_product_fold(self, text):
        # the language is the fold of the pairwise product over the classes,
        # and one under its size trips the guard with the fold's message
        rel = parse_relation(AB, text)
        class_words = {class_factorization(pseudo_free_hull(rel, xs), w)
                       for xs in all_word_sets(AB, 3, 4) for w in xs}
        assert len(class_words) > 20 and max(map(len, class_words)) > 2
        for cw in class_words:
            acc = {()}
            for c in cw:
                acc = brute_product_letters(acc, c.language().letters, 10**6)
            lang = cw.language()
            assert lang.alphabet == AB and lang.letters == tuple(sorted(acc)), cw
            limit = len(acc) - 1
            with pytest.raises(ProductLimitExceeded) as fold:
                folded = FiniteLanguage.unit(AB)
                for c in cw:
                    folded = product(folded, c.language(), limit=limit)
            with pytest.raises(ProductLimitExceeded) as got:
                cw.language(limit)
            assert str(got.value) == str(fold.value), cw
        # each class is read through its relation, which refuses another alphabet
        with pytest.raises(AlphabetMismatch):
            ClassWord((*cw, EqClass(rel, ABC.word("c")))).language()

    def test_hand_built_basis_without_classes(self):
        rel = swap_ab()
        hull = pseudo_free_hull(rel, [AB.word("aba")])
        bare = PseudoFreeBasis(rel, hull.basis_words, ())
        w = AB.word("ababab")
        assert class_factorization(bare, w) == class_factorization(hull, w)

    def test_error_order(self):
        rel = swap_ab()
        with pytest.raises(ValueError, match="empty word"):
            class_factorization(PseudoFreeBasis(rel, Basis((AB.word(""), AB.word("a"))), ()), AB.word("b"))
        hull = pseudo_free_hull(rel, [AB.word("ab")])
        with pytest.raises(NotInMonoid):
            class_factorization(hull, ABC.word("c"))
        with pytest.raises(AlphabetMismatch):
            class_factorization(hull, ABC.word("ba"))
        assert len(class_factorization(hull, ABC.word(""))) == 0


class TestObjectReuse:
    def test_factor_classes_are_hull_classes(self):
        for rel in (swap_ab(), parse_relation(AB, "table: a~b, ab~ba, aab~bba")):
            for xs in all_word_sets(AB, 2, 3):
                hull = pseudo_free_hull(rel, xs)
                for w in xs:
                    for c in class_factorization(hull, w).classes:
                        assert any(c is d for d in hull.classes)

    def test_class_reps_are_basis_words(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        for c in hull.classes:
            assert any(c.rep is b for b in hull.basis_words)

    def test_code_input_words_are_returned(self):
        xs = [AB.word(t) for t in ("aab", "ab", "ba", "bba")]
        for basis in (free_hull(xs), pseudo_free_hull(swap_ab(), xs).basis_words):
            assert sorted(map(id, basis)) == sorted(map(id, xs))


class TestMorphismAndStability:
    def test_morphism_on_table_hull(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        assert factorization_is_morphism(hull, ABC.word("ab"), ABC.word("cba"))

    def test_morphism_with_epsilon(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word("aba")])
        assert factorization_is_morphism(hull, AB.word(""), AB.word("abaaba"))

    def test_morphism_swap(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word("aba")])
        assert factorization_is_morphism(hull, AB.word("aba"), AB.word("bab"))

    def test_stability_table(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        assert class_factor_stability(hull, ABC.word("abc"))

    def test_stability_identity(self):
        hull = pseudo_free_hull(Identity(ABC), [ABC.word("a"), ABC.word("bc")])
        for w in ("a", "bc", "abc", "abca"):
            assert class_factor_stability(hull, ABC.word(w))

    def test_stability_outside_monoid(self):
        hull = pseudo_free_hull(swap_ab(), [AB.word("aba")])
        with pytest.raises(NotInMonoid):
            class_factor_stability(hull, AB.word("abab"))

    def test_stability_everywhere_on_hull(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        for w in ABC.words_up_to(3):
            assert class_factor_stability(hull, w)


class TestPseudoRank:
    def test_table(self):
        rel = three_letter_table()
        assert pseudo_rank(rel, [ABC.word(t) for t in ("abc", "b", "a")]) == 2

    def test_swap(self):
        assert pseudo_rank(swap_ab(), [AB.word("aa"), AB.word("a")]) == 1

    def test_identity(self):
        assert pseudo_rank(Identity(ABC), [ABC.word(t) for t in ("a", "bca", "abc")]) == 2

    def test_bounded_by_closure_rank(self):
        for rel in (swap_ab(), Identity(AB)):
            for xs in all_word_sets(AB, 2, 3):
                closed = class_closure(rel, xs)
                assert pseudo_rank(rel, xs) <= len(free_hull(closed))


class TestEqClassOrdering:
    def test_classes_sorted_by_representative(self):
        hull = pseudo_free_hull(three_letter_table(), [ABC.word(t) for t in ("abc", "b", "a")])
        reps = [c.rep.shortlex_key() for c in hull.classes]
        assert reps == sorted(reps)


class TestClassWordRelation:
    def test_classes_of_two_relations_raise(self):
        a, b = AB.word("a"), AB.word("b")
        swap = swap_ab()
        with pytest.raises(ValueError, match="different relations"):
            ClassWord((EqClass(swap, a), EqClass(swap_ab(), a)))
        with pytest.raises(ValueError, match="different relations"):
            ClassWord((EqClass(Identity(AB), b), EqClass(swap, a), EqClass(swap, a)))
        with pytest.raises(ValueError, match="different relations"):
            ClassWord((EqClass(Identity(AB), a), EqClass(Identity(ABC), ABC.word("a"))))

    def test_empty_class_word_has_no_language(self):
        with pytest.raises(ValueError, match="^empty class word has no alphabet to build"):
            ClassWord(()).language()

    def test_equal_relations_count_as_one(self):
        a, b = AB.word("a"), AB.word("b")
        cw = ClassWord((EqClass(Identity(AB), a), EqClass(Identity(Alphabet("ab")), b)))
        assert len(cw) == 2
        swap = swap_ab()
        assert len(ClassWord((EqClass(swap, a),) * 3) + ClassWord(())) == 3
