import hypothesis.strategies as st
import pytest
from hypothesis import given

from wordeq import (
    Alphabet,
    AlphabetMismatch,
    FiniteLanguage,
    ProductLimitExceeded,
    concat,
    factorizations,
    is_in_monoid,
    product,
    split,
)

from oracles import brute_factorizations, brute_reachable

AB = Alphabet("ab")
ABC = Alphabet("abc")


def lang(alphabet, *texts):
    return FiniteLanguage.of(alphabet, [alphabet.word(t) for t in texts])


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_rejects_whitespace_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(["a b"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet([])

    def test_declaration_order_drives_comparison(self):
        # order comes from declaration, not from symbol names
        backwards = Alphabet("ba")
        assert backwards.word("b") < backwards.word("a")

    def test_word_parsing_multichar_symbols(self):
        al = Alphabet(["up", "down"])
        w = al.word("up down up")
        assert len(w) == 3
        assert str(w) == "up down up"

    def test_epsilon_prints_as_epsilon(self):
        assert str(AB.epsilon()) == "ε"
        assert str(Alphabet(["up", "down"]).epsilon()) == "ε"

    def test_spell_matches_str(self):
        al = Alphabet(["up", "down"])
        assert al.spell((0, 1, 0)) == str(al.word("up down up")) == "up down up"
        assert AB.spell((0, 1, 1)) == "abb"
        assert AB.spell(()) == ""


class TestConcatSplit:
    def test_concat(self):
        assert str(concat(ABC.word("ab"), ABC.word("c"))) == "abc"

    def test_concat_unit(self):
        assert concat(ABC.word(""), ABC.word("abc")) == ABC.word("abc")

    def test_concat_longer(self):
        assert str(concat(AB.word("aaba"), AB.word("aba"))) == "aabaaba"

    def test_concat_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            concat(AB.word("a"), ABC.word("a"))

    def test_split(self):
        u, v = split(ABC.word("abcba"), 3)
        assert (str(u), str(v)) == ("abc", "ba")

    def test_split_at_zero(self):
        u, v = split(AB.word("ab"), 0)
        assert (u, str(v)) == (AB.word(""), "ab")

    def test_split_at_end(self):
        u, v = split(AB.word("aaba"), 4)
        assert (str(u), v) == ("aaba", AB.word(""))

    def test_split_out_of_range(self):
        with pytest.raises(ValueError):
            split(AB.word("ab"), 3)


class TestProduct:
    def test_binary_square(self):
        got = product(lang(AB, "a", "b"), lang(AB, "a", "b"))
        assert got == lang(AB, "aa", "ab", "ba", "bb")

    def test_three_factor_product(self):
        got = product(
            product(lang(ABC, "abc", "cba"), lang(ABC, "b")), lang(ABC, "a", "c")
        )
        assert got == lang(ABC, "abcba", "abcbc", "cbaba", "cbabc")

    def test_unit(self):
        assert product(lang(AB, ""), lang(AB, "ab")) == lang(AB, "ab")

    def test_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            product(lang(AB, "a"), lang(ABC, "a"))

    def test_guard(self):
        k = lang(AB, "a", "b", "aa")
        with pytest.raises(ProductLimitExceeded):
            product(k, k, limit=8)


class TestFiniteLanguage:
    def test_of_letters_rejects_letter_outside_alphabet(self):
        with pytest.raises(ValueError):
            FiniteLanguage.of_letters(AB, [(0, 2)])

    def test_of_letters_sorts_and_keeps_letters(self):
        got = FiniteLanguage.of_letters(AB, [(1,), (0, 1), (0,)])
        assert got.letters == ((0,), (0, 1), (1,))
        assert [str(w) for w in got] == ["a", "ab", "b"]

    def test_product_removes_duplicates(self):
        # a·bb and ab·b are the same word
        got = product(lang(AB, "a", "ab"), lang(AB, "b", "bb"))
        assert len(got) == 3
        assert [str(w) for w in got.words] == ["ab", "abb", "abbb"]

    def test_membership_agrees_with_words(self):
        langs = [lang(AB), lang(AB, ""), lang(AB, "a", "ab", "ba", "bab", "abba", "bbbb")]
        for k in langs:
            for w in AB.words_up_to(4):
                assert (w in k) == (w in k.words)
        assert ABC.word("a") not in lang(AB, "a")

    def test_length_and_membership_build_no_words(self):
        k = lang(AB, "a", "ab")
        assert len(k) == 2 and AB.word("ab") in k
        assert "words" not in vars(k)


class TestFactorizations:
    def test_two_ways(self):
        basis = [ABC.word(t) for t in ("a", "ab", "ba")]
        got = factorizations(ABC.word("aba"), basis)
        assert [[str(f) for f in fs] for fs in got] == [["a", "ba"], ["ab", "a"]]

    def test_letters_unique(self):
        got = factorizations(ABC.word("abcba"), [ABC.word(t) for t in "acb"])
        assert [[str(f) for f in fs] for fs in got] == [["a", "b", "c", "b", "a"]]

    def test_not_in_monoid(self):
        assert factorizations(AB.word("ba"), [AB.word("ab")]) == []

    def test_epsilon_target(self):
        assert factorizations(AB.word(""), [AB.word("ab")]) == [()]

    def test_epsilon_in_basis_rejected(self):
        with pytest.raises(ValueError):
            factorizations(AB.word("ab"), [AB.word(""), AB.word("ab")])

    def test_matches_brute_force(self):
        basis = [AB.word(t) for t in ("a", "ab", "bb", "aba")]
        for w in AB.words_up_to(6):
            got = factorizations(w, basis)
            expect = brute_factorizations(w, sorted(basis))
            assert sorted(tuple(str(f) for f in fs) for fs in got) == sorted(
                tuple(str(f) for f in fs) for fs in expect
            )
            # lexicographic in the factors' letters is lexicographic in
            # their indices into the sorted basis
            keys = [[f.letters for f in fs] for fs in got]
            assert keys == sorted(keys)

    def test_long_factorization_without_recursion(self):
        a = Alphabet("a")
        got = factorizations(a.word("a" * 1500), [a.word("a")])
        assert len(got) == 1 and len(got[0]) == 1500
        assert all(f == a.word("a") for f in got[0])


words_ab = st.builds(lambda s: AB.word(s), st.text(alphabet="ab", max_size=6))
langs_ab = st.builds(
    lambda ws: FiniteLanguage.of(AB, ws),
    st.lists(st.builds(lambda s: AB.word(s), st.text(alphabet="ab", max_size=3)), max_size=4),
)


@given(words_ab, st.data())
def test_split_concat_round_trip(w, data):
    i = data.draw(st.integers(min_value=0, max_value=len(w)))
    u, v = split(w, i)
    assert concat(u, v) == w


@given(langs_ab, langs_ab, langs_ab)
def test_product_associative(k, l, m):
    assert product(product(k, l), m) == product(k, product(l, m))


@given(langs_ab)
def test_product_unit_laws(k):
    unit = FiniteLanguage.unit(AB)
    assert product(unit, k) == k
    assert product(k, unit) == k


def test_factorizations_agree_with_reachability():
    basis = [AB.word(t) for t in ("aa", "ab", "aab")]
    reachable = brute_reachable(basis, 6)
    for w in AB.words_up_to(6):
        assert bool(factorizations(w, basis)) == (w.letters in reachable)
        assert is_in_monoid(w, basis) == (w.letters in reachable)
