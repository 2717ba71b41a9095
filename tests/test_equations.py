import itertools
import random

import pytest

from wordeq import (
    Alphabet,
    AlphabetMismatch,
    BudgetExceeded,
    EqClass,
    Equation,
    EquationSyntaxError,
    FiniteLanguage,
    Identity,
    InvalidPseudoSolution,
    MissingImage,
    MorphicPermutation,
    ProductLimitExceeded,
    PseudoSolution,
    Solution,
    Word,
    bounded_rank_certificate,
    check_pseudo_solution,
    check_solution,
    close_pairs,
    descend,
    enumerate_pseudo_solutions,
    is_in_monoid,
    parse_equation,
    solution_rank,
)
from wordeq.equations import _least_common, _side_words

from oracles import align_equivalent_sides, brute_product_letters, product

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


def length_one_swap():
    # a~b at length one; longer words only equivalent to themselves
    return close_pairs(AB, [(AB.word("a"), AB.word("b"))])


def psol(rel, e, **reps):
    alphabet = rel.alphabet
    return PseudoSolution(rel, {x: EqClass.of(rel, alphabet.word(t)) for x, t in reps.items()})


class TestParse:
    def test_commutation(self):
        e = parse_equation("x y = y x")
        assert e.unknowns.symbols == ("x", "y")
        assert str(e) == "x y = y x"

    def test_exponents(self):
        e = parse_equation("x^2 y^2 = z^4")
        assert e.occurrence_names() == (["x", "x", "y", "y"], ["z", "z", "z", "z"])

    def test_three_unknowns(self):
        e = parse_equation("x y z = z y x")
        assert e.occurrence_names() == (["x", "y", "z"], ["z", "y", "x"])

    def test_zero_exponent(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("x^0 y = y")

    def test_missing_equals(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("x y y x")

    def test_double_equals(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("x = y = x")

    def test_empty_side(self):
        with pytest.raises(EquationSyntaxError):
            parse_equation("= x y")

    @pytest.mark.parametrize("exponent", ["two", "²", "٣"], ids=["word", "superscript", "arabic_indic"])
    def test_bad_exponent(self, exponent):
        # ² and ٣ pass str.isdigit(); only ASCII digits are exponents
        with pytest.raises(EquationSyntaxError, match="bad exponent"):
            parse_equation(f"x^{exponent} y = y x")


class TestCheckSolution:
    def test_three_unknown_solution(self):
        e = parse_equation("x y = z x")
        phi = Solution({"x": ABC.word("a"), "y": ABC.word("bca"), "z": ABC.word("abc")})
        assert check_solution(e, phi)

    def test_non_solution(self):
        e = parse_equation("x y = y x")
        phi = Solution({"x": AB.word("ab"), "y": AB.word("a")})
        assert not check_solution(e, phi)

    def test_all_epsilon(self):
        e = parse_equation("x y = y x")
        phi = Solution({"x": AB.word(""), "y": AB.word("")})
        assert check_solution(e, phi)

    def test_missing_image(self):
        e = parse_equation("x y = y x")
        with pytest.raises(MissingImage):
            check_solution(e, Solution({"x": AB.word("a")}))

    def test_images_over_two_alphabets(self):
        # x = a over ab and y = x over xy are both letter 0, so the sides' letters agree
        e = parse_equation("x y = y x")
        phi = Solution({"x": AB.word("a"), "y": e.unknowns.word("x")})
        with pytest.raises(AlphabetMismatch):
            check_solution(e, phi)
        with pytest.raises(AlphabetMismatch):
            solution_rank(phi)


class TestSolutionRank:
    def test_rank_two(self):
        phi = Solution({"x": ABC.word("a"), "y": ABC.word("bca"), "z": ABC.word("abc")})
        assert solution_rank(phi) == 2

    def test_powers(self):
        phi = Solution({"x": AB.word("a"), "y": AB.word("aa")})
        assert solution_rank(phi) == 1

    def test_all_epsilon(self):
        phi = Solution({"x": AB.word(""), "y": AB.word("")})
        assert solution_rank(phi) == 0


class TestCheckPseudoSolution:
    def test_table_instance(self):
        e = parse_equation("x y z = z y x")
        verdict = check_pseudo_solution(e, psol(three_letter_table(), e, x="abc", y="b", z="a"))
        assert verdict.valid
        assert str(verdict.common) == "abcba"
        assert [str(w) for w in verdict.lhs_language] == ["abcba", "abcbc", "cbaba", "cbabc"]
        assert [str(w) for w in verdict.rhs_language] == ["ababc", "abcba", "cbabc", "cbcba"]

    def test_length_one_swap_valid(self):
        e = parse_equation("x y = y x")
        verdict = check_pseudo_solution(e, psol(length_one_swap(), e, x="a", y="b"))
        assert verdict.valid
        assert [str(w) for w in verdict.lhs_language] == ["aa", "ab", "ba", "bb"]
        assert verdict.lhs_language == verdict.rhs_language

    def test_length_one_swap_invalid(self):
        e = parse_equation("x y = y x")
        verdict = check_pseudo_solution(e, psol(length_one_swap(), e, x="ab", y="a"))
        assert not verdict.valid
        assert verdict.common is None
        assert [str(w) for w in verdict.lhs_language] == ["aba", "abb"]
        assert [str(w) for w in verdict.rhs_language] == ["aab", "bab"]

    def test_swap_powers(self):
        e = parse_equation("x y = y x")
        verdict = check_pseudo_solution(e, psol(swap_ab(), e, x="aa", y="a"))
        assert verdict.valid
        assert str(verdict.common) == "aaa"
        assert [str(w) for w in verdict.lhs_language] == ["aaa", "aab", "bba", "bbb"]
        assert [str(w) for w in verdict.rhs_language] == ["aaa", "abb", "baa", "bbb"]


class TestAlign:
    def test_swap_recut(self):
        e = parse_equation("x y = y x")
        rel = swap_ab()
        got = align_equivalent_sides(
            e, rel, [AB.word("aa"), AB.word("a"), AB.word("b"), AB.word("bb")]
        )
        assert [str(w) for w in got] == ["aa", "a", "a", "aa"]

    def test_identity_returns_input(self):
        e = parse_equation("x y = y x")
        rel = Identity(AB)
        side_words = [AB.word("a"), AB.word("a"), AB.word("a"), AB.word("a")]
        assert list(align_equivalent_sides(e, rel, side_words)) == side_words

    def test_swap_single_letters(self):
        e = parse_equation("x y = y x")
        rel = swap_ab()
        got = align_equivalent_sides(e, rel, [AB.word("a"), AB.word("b"), AB.word("b"), AB.word("a")])
        assert [str(w) for w in got] == ["a", "b", "a", "b"]

    def test_exact_output_properties(self):
        e = parse_equation("x y = y x")
        rel = swap_ab()
        got = align_equivalent_sides(
            e, rel, [AB.word("aa"), AB.word("a"), AB.word("b"), AB.word("bb")]
        )
        lhs = sum((w.letters for w in got[:2]), ())
        rhs = sum((w.letters for w in got[2:]), ())
        assert lhs == rhs

    def test_rejects_nonequivalent_same_unknown(self):
        e = parse_equation("x y = y x")
        rel = swap_ab()
        with pytest.raises(ValueError):
            align_equivalent_sides(
                e, rel, [AB.word("aa"), AB.word("a"), AB.word("a"), AB.word("ab")]
            )

    def test_rejects_nonequivalent_sides(self):
        e = parse_equation("x y = y x")
        rel = Identity(AB)
        with pytest.raises(ValueError):
            align_equivalent_sides(
                e, rel, [AB.word("a"), AB.word("b"), AB.word("b"), AB.word("a")]
            )

    def test_rejects_wrong_arity(self):
        e = parse_equation("x y = y x")
        with pytest.raises(ValueError):
            align_equivalent_sides(e, Identity(AB), [AB.word("a")])


class TestDescend:
    def test_table_instance(self):
        e = parse_equation("x y z = z y x")
        result = descend(e, psol(three_letter_table(), e, x="abc", y="b", z="a"))
        sol = result.solution
        assert str(sol["x"]) == "[a] [b] [a]"
        assert str(sol["y"]) == "[b]"
        assert str(sol["z"]) == "[a]"
        assert result.solution_rank() == 2
        assert result.pseudo_rank() == 2
        assert check_solution(e, sol)

    def test_commutation_length_one(self):
        e = parse_equation("x y = y x")
        result = descend(e, psol(length_one_swap(), e, x="a", y="b"))
        assert str(result.solution["x"]) == "[a]"
        assert str(result.solution["y"]) == "[a]"
        assert result.solution_rank() == 1

    def test_identity_lifts_ordinary_solution(self):
        e = parse_equation("x y = z x")
        rel = Identity(ABC)
        result = descend(e, psol(rel, e, x="a", y="bca", z="abc"))
        # letter-for-letter the same solution, letters renamed to classes
        assert str(result.solution["x"]) == "[a]"
        assert str(result.solution["y"]) == "[bc] [a]"
        assert result.solution_rank() == 2

    def test_invalid_pseudo_solution_rejected(self):
        e = parse_equation("x y = y x")
        with pytest.raises(InvalidPseudoSolution):
            descend(e, psol(length_one_swap(), e, x="ab", y="a"))

    def test_all_epsilon(self):
        e = parse_equation("x y = y x")
        result = descend(e, psol(swap_ab(), e, x="", y=""))
        assert result.pseudo_rank() == 0
        assert result.solution_rank() == 0


class TestClassNames:
    def test_colliding_names_get_basis_index(self):
        # [a b·c] and [a·b c] both print as a·b·c
        sigma = Alphabet(["a", "b·c", "a·b", "c"])
        e = parse_equation("x y = x y")
        rel = Identity(sigma)
        p = PseudoSolution(
            rel, {x: EqClass(rel, sigma.word(t)) for x, t in (("x", "a b·c"), ("y", "a·b c"))}
        )
        result = descend(e, p)
        assert result.class_alphabet.symbols == ("[a·b·c]#0", "[a·b·c]#1")
        assert result.solution_rank() == result.pseudo_rank() == 2

    def test_distinct_names_unchanged(self):
        sigma = Alphabet(["a", "b·c", "c"])
        rel = Identity(sigma)
        p = PseudoSolution(rel, {"x": EqClass(rel, sigma.word("a b·c")), "y": EqClass(rel, sigma.word("c"))})
        result = descend(parse_equation("x y = x y"), p)
        assert set(result.class_alphabet.symbols) == {"[a·b·c]", "[c]"}


class TestEnumerate:
    def test_swap_commutation_all_rank_one(self):
        e = parse_equation("x y = y x")
        rel = swap_ab()
        found = list(enumerate_pseudo_solutions(e, rel, 2))
        assert found
        for ps in found:
            assert descend(e, ps).pseudo_rank() <= 1

    def test_table_enumeration_contains_expected_witness(self):
        e = parse_equation("x y z = z y x")
        rel = three_letter_table()
        target = psol(rel, e, x="abc", y="b", z="a")
        assert any(ps == target for ps in enumerate_pseudo_solutions(e, rel, 3))

    def test_identity_max_len_zero(self):
        e = parse_equation("x y = y x")
        found = list(enumerate_pseudo_solutions(e, Identity(AB), 0))
        assert len(found) == 1
        assert all(len(c.rep) == 0 for c in found[0].images.values())

    def test_identity_emits_exactly_ordinary_solutions(self):
        e = parse_equation("x y = y x")
        identity = Identity(AB)
        found = {
            tuple(str(ps[x].rep) for x in "xy")
            for ps in enumerate_pseudo_solutions(e, identity, 2)
        }
        expect = set()
        for u in AB.words_up_to(2):
            for v in AB.words_up_to(2):
                if check_solution(e, Solution({"x": u, "y": v})):
                    expect.add((str(u), str(v)))
        assert found == expect

    def test_budget(self):
        e = parse_equation("x y = y x")
        with pytest.raises(BudgetExceeded) as exc:
            list(enumerate_pseudo_solutions(e, Identity(AB), 2, budget=5))
        assert exc.value.examined == 5

    def test_deterministic_order(self):
        e = parse_equation("x y = y x")
        rel = swap_ab()
        first = [repr(ps) for ps in enumerate_pseudo_solutions(e, rel, 2)]
        second = [repr(ps) for ps in enumerate_pseudo_solutions(e, rel, 2)]
        assert first == second


class TestCertificate:
    def test_commutation_swap(self):
        e = parse_equation("x y = y x")
        cert = bounded_rank_certificate(e, swap_ab(), 3)
        assert cert.max_pseudo_rank == 1
        assert cert.descent_ok

    def test_ordinary_witness(self):
        e = parse_equation("x y = z x")
        cert = bounded_rank_certificate(e, Identity(ABC), 3)
        assert cert.max_ordinary_rank == 2
        w = cert.ordinary_witness
        assert (str(w["x"]), str(w["y"]), str(w["z"])) == ("a", "ba", "ab")

    def test_table_instance(self):
        e = parse_equation("x y z = z y x")
        cert = bounded_rank_certificate(e, three_letter_table(), 3)
        assert cert.max_pseudo_rank == 2
        assert cert.descent_ok

    def test_identity_reports_coincide(self):
        e = parse_equation("x y = y x")
        cert = bounded_rank_certificate(e, Identity(AB), 2)
        assert cert.ordinary_count == cert.pseudo_count
        assert cert.max_ordinary_rank == cert.max_pseudo_rank


class TestDescentOnRandomTables:
    def test_descent_property_on_random_relations(self):
        import random

        from wordeq import pseudo_rank, verify_axioms

        rng = random.Random(4242)
        checked = 0
        for _ in range(25):
            size = rng.randint(2, 3)
            alphabet = Alphabet("abc"[:size])
            pairs = []
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(1, 2)
                u = Word(alphabet, tuple(rng.randrange(size) for _ in range(n)))
                v = Word(alphabet, tuple(rng.randrange(size) for _ in range(n)))
                pairs.append((u, v))
            rel = close_pairs(alphabet, pairs)
            assert verify_axioms(rel, 3) is None
            e = parse_equation(
                rng.choice(["x y = y x", "x y z = z y x", "x x y = y x x", "x y = z x"])
            )
            for ps in enumerate_pseudo_solutions(e, rel, 2):
                result = descend(e, ps)
                assert check_solution(e, result.solution)
                assert result.solution_rank() == pseudo_rank(rel, ps.union_members())
                checked += 1
        assert checked > 500


class TestReversalNegativeControl:
    def test_literal_identity_holds(self):
        x, y, z = AB.word("aabaaab"), AB.word("a"), AB.word("aaba")
        lhs = x + x + y + y
        rhs = z + z + z.reverse() + z.reverse()
        assert lhs == rhs
        assert len(lhs) == 16

    def test_no_palindromic_generator_pair(self):
        targets = [AB.word("aabaaab"), AB.word("a"), AB.word("aaba")]
        for n in range(1, 8):
            for t in AB.words_of_length(n):
                basis = [t] if t == t.reverse() else [t, t.reverse()]
                assert not all(is_in_monoid(w, basis) for w in targets)


class TestProductGuardBoundary:
    # every product step checks its own pair count against the guard: a
    # limit equal to the largest step passes, one below it raises

    def assert_boundary(self, run, pairs):
        run(pairs)
        with pytest.raises(ProductLimitExceeded):
            run(pairs - 1)

    def test_product(self):
        k = FiniteLanguage.of(AB, [AB.word(t) for t in ("a", "b", "aa")])
        self.assert_boundary(lambda limit: product(k, k, limit=limit), 9)

    def test_check_pseudo_solution(self):
        # x y with x = [ab], y = [a] under the swap: at most 2 x 2 pairs
        e, p = parse_equation("x y = y x"), psol(swap_ab(), None, x="ab", y="a")
        self.assert_boundary(lambda limit: check_pseudo_solution(e, p, limit=limit), 4)

    def test_descend(self):
        # x y with x = [ab], y = [a] under the swap: at most 2 x 2 pairs
        e, p = parse_equation("x y = y x"), psol(swap_ab(), None, x="ab", y="a")
        self.assert_boundary(lambda limit: descend(e, p, limit=limit), 4)

    def test_enumerate_pseudo_solutions(self):
        # the classes up to length 1 are {ε} and {a, b}: at most 2 x 2 pairs
        e = parse_equation("x y = y x")
        self.assert_boundary(
            lambda limit: list(enumerate_pseudo_solutions(e, swap_ab(), 1, limit=limit)), 4
        )


def random_class(rng, k, length=None):
    """1-4 sorted members of one length (0-3) over k letters; ε's class is {ε}."""
    n = rng.randint(0, 3) if length is None else length
    universe = list(itertools.product(range(k), repeat=n))
    return tuple(sorted(rng.sample(universe, min(len(universe), rng.randint(1, 4)))))


def random_sides(rng):
    """Two products of classes; half the time the second is cut from a word of the first."""
    k = rng.randint(1, 3)
    side = [random_class(rng, k) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        return side, [random_class(rng, k) for _ in range(rng.randint(0, 3))]
    word = tuple(itertools.chain.from_iterable(rng.choice(c) for c in side))
    other, pos = [], 0
    while pos < len(word) or rng.random() < 0.2:
        n = rng.randint(0, min(3, len(word) - pos))
        c = random_class(rng, k, n)
        other.append(tuple(sorted(set(c[:-1]) | {word[pos : pos + n]})))
        pos += n
    return side, other


def test_least_common_matches_set_intersection():
    # the one side-intersection primitive of the leaf test, the descent and check,
    # and the one ordered side product
    rng = random.Random(10)
    outcomes = set()
    for _ in range(20000):
        side, other = random_sides(rng)
        langs = []
        for classes in (side, other):
            lang = {()}
            for c in classes:
                lang = brute_product_letters(lang, c, 10**6)
            langs.append(lang)
        for classes, lang in zip((side, other), langs):
            # the side product read in order is the sorted set product
            assert [*_side_words(classes, lambda p: sum(p, ()))] == sorted(lang), classes
        common = langs[0] & langs[1]
        expect = min(common) if common else None
        assert _least_common(side, other) == expect, (side, other)
        assert _least_common(other, side) == expect, (side, other)
        lengths = [sum(len(c[0]) for c in classes) for classes in (side, other)]
        outcomes.add((expect is not None, lengths[0] == lengths[1], ((),) in side + other))
    # a common word, none at equal lengths and none at unequal ones, each with and without ε blocks
    cases = [(True, True), (False, True), (False, False)]
    assert outcomes == {(found, equal, eps) for found, equal in cases for eps in (True, False)}
