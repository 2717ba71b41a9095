import itertools
import random

import pytest

from wordeq import (
    Alphabet,
    AlphabetMismatch,
    Anticongruence,
    EnumerationGuardExceeded,
    EqClass,
    FiniteLanguage,
    FiniteTable,
    Identity,
    MorphicPermutation,
    Reversal,
    close_pairs,
    parse_relation,
    verify_axioms,
)

from oracles import brute_closed_pairs, brute_verify_axioms, orbit_equiv, product
from wordeq.anticongruence import CLASS_CACHE_SIZE

AB = Alphabet("ab")
ABC = Alphabet("abc")
ABCD = Alphabet("abcd")


class ClassTable(Anticongruence):
    """Classes read off a dict of letter tuples, which need not be an anticongruence."""

    def __init__(self, alphabet, classes):
        super().__init__(alphabet)
        self._members = {u: tuple(sorted(vs)) for u, vs in classes.items()}

    def class_letters(self, letters):
        return self._members.get(letters, (letters,))


class CountingSwap(MorphicPermutation):
    """The swap of a and b, counting class reads and refusing equiv."""

    def __init__(self, alphabet):
        super().__init__(alphabet, (1, 0))
        self.class_reads = 0

    def class_letters(self, letters):
        self.class_reads += 1
        return super().class_letters(letters)

    def equiv(self, u, v):
        raise AssertionError("equiv called")


class CountingReversal(Reversal):
    """Reversal, counting class reads and refusing equiv."""

    def __init__(self, alphabet):
        super().__init__(alphabet)
        self.class_reads = 0

    def class_letters(self, letters):
        self.class_reads += 1
        return super().class_letters(letters)

    def equiv(self, u, v):
        raise AssertionError("equiv called")


class Related(ClassTable):
    """The relation related(u, v) on the words up to max_len: the class of u lists
    the words v of that support with related(u, v), in any length or none."""

    def __init__(self, alphabet, related, max_len=3):
        support = list(alphabet.words_up_to(max_len))
        super().__init__(alphabet, {u.letters: [v.letters for v in support if related(u, v)] for u in support})


def pair_scan(pred):
    """A relation on binary words up to length 3: equality or pred."""
    return Related(AB, lambda u, v: u == v or pred(u, v))


def swap_ab(alphabet=AB):
    return MorphicPermutation.from_cycles(alphabet, "(a b)")


def table_example_one():
    # a~c, b~d and additionally aa~cc; nothing else at length 1
    return close_pairs(
        ABCD,
        [
            (ABCD.word("a"), ABCD.word("c")),
            (ABCD.word("b"), ABCD.word("d")),
            (ABCD.word("aa"), ABCD.word("cc")),
        ],
    )


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


class TestEquiv:
    def test_swap_orbit(self):
        rel = swap_ab()
        assert rel.equiv(AB.word("ab"), AB.word("ba"))

    def test_table_blocks_rearrangement(self):
        rel = table_example_one()
        assert not rel.equiv(ABCD.word("aacc"), ABCD.word("ccaa"))

    def test_table_blocks_cross_pair(self):
        rel = table_example_one()
        assert not rel.equiv(ABCD.word("ac"), ABCD.word("ba"))
        assert not rel.equiv(ABCD.word("ac"), ABCD.word("ca"))

    def test_equal_words_always_equivalent(self):
        for rel in (Identity(AB), swap_ab(), table_example_one()):
            w = rel.alphabet.word("ab")
            assert rel.equiv(w, w)

    def test_different_lengths_never_equivalent(self):
        rel = swap_ab()
        assert not rel.equiv(AB.word("a"), AB.word("ab"))

    @pytest.mark.parametrize("rel", [swap_ab(), Reversal(AB)], ids=["permutation", "reversal"])
    def test_words_over_another_alphabet_rejected(self, rel):
        xyz = Alphabet("xyz")
        with pytest.raises(AlphabetMismatch):
            rel.equiv(xyz.word("xy"), xyz.word("yx"))


class TestClassOf:
    def test_swap_class(self):
        rel = swap_ab()
        assert rel.class_of(AB.word("aba")) == FiniteLanguage.of(
            AB, [AB.word("aba"), AB.word("bab")]
        )

    def test_table_class(self):
        rel = three_letter_table()
        assert [str(w) for w in rel.class_of(ABC.word("abc"))] == ["abc", "cba"]

    def test_identity_class(self):
        rel = Identity(ABC)
        assert [str(w) for w in rel.class_of(ABC.word("abc"))] == ["abc"]

    def test_membership_and_uniform_length(self):
        rels = [Identity(AB), swap_ab(), MorphicPermutation.from_cycles(ABC, "(a b c)")]
        for rel in rels:
            for w in rel.alphabet.words_up_to(3):
                cls = rel.class_of(w)
                assert w in cls
                for u, v in itertools.combinations(cls, 2):
                    assert rel.equiv(u, v)
                    assert len(u) == len(v)

    def test_orbit_matches_direct_iteration(self):
        rel = MorphicPermutation.from_cycles(ABCD, "(a b)(c d)")
        for u in ABCD.words_up_to(3):
            for v in ABCD.words_up_to(3):
                assert rel.equiv(u, v) == orbit_equiv(rel, u, v)


class TestProductsOfClasses:
    def test_product_is_union_of_classes(self):
        # every word in [u]⊙[v] drags its entire class with it
        for rel in (swap_ab(), three_letter_table()):
            alphabet = rel.alphabet
            for u in alphabet.words_up_to(2):
                for v in alphabet.words_up_to(2):
                    prod = product(rel.class_of(u), rel.class_of(v))
                    members = {w.letters for w in prod}
                    for w in prod:
                        assert {x.letters for x in rel.class_of(w)} <= members

    def test_class_of_concat_inside_product(self):
        for rel in (swap_ab(), three_letter_table()):
            alphabet = rel.alphabet
            for u in alphabet.words_up_to(2):
                for v in alphabet.words_up_to(2):
                    prod = {w.letters for w in product(rel.class_of(u), rel.class_of(v))}
                    assert {x.letters for x in rel.class_of(u + v)} <= prod


class TestPermutationInput:
    def test_mapping_that_is_no_permutation_rejected(self):
        with pytest.raises(ValueError, match="^mapping is not a permutation of the alphabet indices$"):
            MorphicPermutation(AB, (0, 0))

    @pytest.mark.parametrize("text", ["(a b", "a b", "((a b))", "(a b)c"])
    def test_bad_cycle_notation_rejected(self, text):
        with pytest.raises(ValueError, match="^bad cycle notation: "):
            MorphicPermutation.from_cycles(ABC, text)

    def test_symbol_in_two_cycles_rejected(self):
        with pytest.raises(ValueError, match=r"^symbol appears in two cycles: \(b c\)$"):
            MorphicPermutation.from_cycles(ABC, "(a b)(b c)")


class TestClosePairs:
    def test_three_letter_closure(self):
        rel = three_letter_table()
        classes = {str(c.words[0]): [str(w) for w in c] for c in rel.nontrivial_classes()}
        assert classes == {
            "a": ["a", "c"],
            "ab": ["ab", "cb"],
            "ba": ["ba", "bc"],
            "abc": ["abc", "cba"],
        }

    def test_splits_do_not_leak(self):
        rel = table_example_one()
        # closure adds nothing beyond the generators here
        assert rel.equiv(ABCD.word("aa"), ABCD.word("cc"))
        assert not rel.equiv(ABCD.word("ca"), ABCD.word("ac"))

    def test_empty_pairs_is_identity(self):
        rel = close_pairs(AB, [])
        for u in AB.words_up_to(2):
            for v in AB.words_up_to(2):
                assert rel.equiv(u, v) == (u == v)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            close_pairs(AB, [(AB.word("a"), AB.word("ab"))])
        with pytest.raises(ValueError):
            FiniteTable(AB, [((0,), (0, 1))])

    def test_letters_outside_the_alphabet_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            FiniteTable(AB, [((2,), (0,))])

    def test_pair_over_another_alphabet_rejected(self):
        with pytest.raises(AlphabetMismatch, match="^pair over a different alphabet$"):
            close_pairs(AB, [(AB.word("a"), ABC.word("b"))])

    def test_table_is_closed_on_construction(self):
        # bb~ba and bb~ab are not transitive and not cut-closed as given
        rel = FiniteTable(AB, [((1, 1), (1, 0)), ((1, 1), (0, 1))])
        assert verify_axioms(rel, 4) is None
        assert rel.describe() == "table: a~b, ab~ba, ab~bb, ba~bb"

    def test_transitivity_closed(self):
        rel = close_pairs(
            ABC, [(ABC.word("a"), ABC.word("b")), (ABC.word("b"), ABC.word("c"))]
        )
        assert rel.equiv(ABC.word("a"), ABC.word("c"))

    def test_random_closures_are_lawful(self):
        import random

        from wordeq import Word

        rng = random.Random(777)
        for _ in range(50):
            size = rng.randint(2, 3)
            alphabet = Alphabet("abc"[:size])
            pairs = []
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 3)
                u = Word(alphabet, tuple(rng.randrange(size) for _ in range(n)))
                v = Word(alphabet, tuple(rng.randrange(size) for _ in range(n)))
                pairs.append((u, v))
            rel = close_pairs(alphabet, pairs)
            assert verify_axioms(rel, 4) is None
            assert rel.pairs == brute_closed_pairs((u.letters, v.letters) for u, v in pairs)
            for u, v in pairs:
                assert rel.equiv(u, v)


class TestVerifyAxioms:
    def test_swap_passes(self):
        assert verify_axioms(swap_ab(), 4) is None

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_length_below_one_rejected(self, max_len):
        with pytest.raises(ValueError, match="^max_len must be at least 1$"):
            verify_axioms(swap_ab(), max_len)

    def test_identity_passes(self):
        assert verify_axioms(Identity(ABC), 3) is None

    def test_tables_pass(self):
        assert verify_axioms(table_example_one(), 4) is None
        assert verify_axioms(three_letter_table(), 4) is None

    def test_reversal_fails_cut_condition(self):
        violation = verify_axioms(Reversal(ABC), 3)
        assert violation is not None
        assert violation.kind == "cut"
        # the returned witness is a genuine violation
        rel = Reversal(ABC)
        u, v, i = violation.u, violation.v, violation.cut
        assert rel.equiv(u, v)
        assert not (rel.equiv(u[:i], v[:i]) and rel.equiv(u[i:], v[i:]))

    def test_reversal_witness_is_deterministic(self):
        violation = verify_axioms(Reversal(ABC), 3)
        assert (str(violation.u), str(violation.v), violation.cut) == ("ab", "ba", 1)

    @pytest.mark.parametrize(
        "rel,expect",
        [
            (
                pair_scan(lambda u, v: {u.letters, v.letters} == {(0,), (0, 1)}),
                ("length", "a", "ab", None, None),
            ),
            (
                Related(AB, lambda u, v: u == v and u.letters != (1,)),
                ("reflexivity", "b", "b", None, None),
            ),
            (
                pair_scan(lambda u, v: (u.letters, v.letters) == ((0,), (1,))),
                ("symmetry", "a", "b", None, None),
            ),
            (
                # aa~ab and ab~bb, but not aa~bb
                pair_scan(lambda u, v: {u.letters, v.letters} in ({(0, 0), (0, 1)}, {(0, 1), (1, 1)})),
                ("transitivity", "aa", "bb", None, "ab"),
            ),
            (Reversal(ABC), ("cut", "ab", "ba", 1, None)),
        ],
        ids=["length", "reflexivity", "symmetry", "transitivity", "cut"],
    )
    def test_first_violation_of_each_kind(self, rel, expect):
        v = verify_axioms(rel, 3)
        assert (v.kind, str(v.u), str(v.v), v.cut, v.via and str(v.via)) == expect

    def test_one_pass_matches_former_check(self):
        # seeded relations on binary words up to length 3: random sets of
        # related pairs, across lengths on every third, symmetric on every
        # second, and a few words not related to themselves
        rng = random.Random(5)
        words = list(AB.words_up_to(3))
        kinds = set()
        for i in range(300):
            density = rng.choice([0.002, 0.01, 0.03])
            pairs = {
                (u.letters, v.letters)
                for u in words
                for v in words
                if (len(u) == len(v) or i % 3 == 0) and rng.random() < density
            }
            if i % 2:
                pairs |= {(b, a) for a, b in pairs}
            unrelated = {w.letters for w in words if rng.random() < 0.02}

            def equiv(u, v, pairs=pairs, unrelated=unrelated):
                return (u.letters, v.letters) in pairs or (u == v and u.letters not in unrelated)

            rel = Related(AB, equiv)
            got = verify_axioms(rel, 3)
            assert got == brute_verify_axioms(rel, 3)
            kinds.add(got and got.kind)
        assert kinds == {None, "length", "reflexivity", "symmetry", "transitivity", "cut"}

    def test_guard(self):
        # 4,095 binary words up to length 11 pass the guard of 2,000
        with pytest.raises(EnumerationGuardExceeded):
            verify_axioms(swap_ab(), 11)

    @pytest.mark.parametrize(
        "alphabet,max_len", [(Alphabet("a"), 10**9), (AB, 20000)], ids=["unary", "binary"]
    )
    def test_guard_stops_counting_once_passed(self, alphabet, max_len):
        # the full word count is 10^9 + 1 and 2^20001 - 1: neither is summed nor printed
        with pytest.raises(EnumerationGuardExceeded) as exc:
            verify_axioms(MorphicPermutation(alphabet, range(len(alphabet))), max_len)
        assert str(exc.value) == f"words up to length {max_len} exceed the guard of 2000"

    def test_broken_class_maps_match_pair_scan(self):
        # seeded class maps on binary words up to length 3, built like
        # oracles.PairTable: each starts as an equivalence (identity, swap
        # orbits or random blocks per length, rarely cut-closed) and may then
        # lose its own word, gain a partner in one direction only, chain
        # three words, gain a word of another length or one of length 4,
        # outside the support
        rng = random.Random(9)
        swap = swap_ab()
        strata = [[w.letters for w in AB.words_of_length(n)] for n in range(5)]
        support = [u for stratum in strata[:4] for u in stratum]
        kinds, outside = set(), 0
        for i in range(400):
            classes = {}
            for stratum in strata:
                if i % 3 == 0:
                    classes.update((u, {u}) for u in stratum)
                elif i % 3 == 1:
                    classes.update((u, set(swap.class_letters(u))) for u in stratum)
                else:
                    label = {u: rng.randrange(len(stratum)) for u in stratum}
                    classes.update((u, {v for v in stratum if label[v] == label[u]}) for u in stratum)
            for _ in range(rng.randrange(3)):
                u = rng.choice(strata[rng.randrange(1, 4)])
                defect = rng.randrange(5)
                if defect == 0:
                    classes[u].discard(u)
                elif defect == 1:
                    classes[u].add(rng.choice(strata[len(u)]))
                elif defect == 2:
                    v, w = (rng.choice(strata[len(u)]) for _ in range(2))
                    classes[u].add(v)
                    classes[v].update((u, w))
                    classes[w].add(v)
                elif defect == 3:
                    classes[u].add(rng.choice(support))
                else:
                    classes[u].add(rng.choice(strata[4]))
                    outside += 1
            rel = ClassTable(AB, classes)
            got = verify_axioms(rel, 3)
            assert got == brute_verify_axioms(rel, 3)
            kinds.add(got and got.kind)
        assert kinds == {None, "length", "reflexivity", "symmetry", "transitivity", "cut"}
        assert outside > 50

    def test_class_path_reads_each_class_once(self):
        rel = CountingSwap(AB)
        assert verify_axioms(rel, 4) is None
        assert rel.class_reads == sum(2**n for n in range(5))

    def test_reversal_takes_the_class_path(self):
        rel = CountingReversal(ABC)
        v = verify_axioms(rel, 3)
        assert (v.kind, str(v.u), str(v.v), v.cut) == ("cut", "ab", "ba", 1)
        assert rel.class_reads == 1 + 3 + 9 + 27

    def test_reversal_matches_pair_scan(self):
        # unary words are their own reversal, so no axiom fails
        assert verify_axioms(Reversal(Alphabet("a")), 12) is None
        for letters, max_len in (("ab", 7), ("abc", 4), ("abcd", 3)):
            rel = Reversal(Alphabet(letters))
            got = verify_axioms(rel, max_len)
            assert got is not None
            assert got == brute_verify_axioms(rel, max_len)

    def test_all_permutations_small_alphabets(self):
        for size in (1, 2, 3):
            alphabet = Alphabet("abc"[:size])
            for perm in itertools.permutations(range(size)):
                rel = MorphicPermutation(alphabet, perm)
                assert verify_axioms(rel, 4) is None


class TestEqClass:
    def test_canonical_representative(self):
        rel = swap_ab()
        assert EqClass.of(rel, AB.word("bab")) == EqClass.of(rel, AB.word("aba"))
        assert str(EqClass.of(rel, AB.word("bab")).rep) == "aba"

    def test_members(self):
        rel = three_letter_table()
        c = EqClass.of(rel, ABC.word("cba"))
        assert [str(w) for w in c.members()] == ["abc", "cba"]
        assert ABC.word("cba") in c
        assert len(c) == 2


class TestParseRelation:
    def test_identity(self):
        assert isinstance(parse_relation(AB, "identity"), Identity)

    def test_permutation(self):
        rel = parse_relation(ABC, "permutation: (a b)(c)")
        assert isinstance(rel, MorphicPermutation)
        assert rel.equiv(ABC.word("ab"), ABC.word("ba"))
        assert rel.equiv(ABC.word("c"), ABC.word("c"))

    def test_table(self):
        rel = parse_relation(ABC, "table: a~c, ab~cb, bc~ba, abc~cba")
        assert rel.equiv(ABC.word("abc"), ABC.word("cba"))

    def test_reversal_adapter(self):
        rel = parse_relation(AB, "reversal")
        assert isinstance(rel, Reversal)
        assert rel.kind == "reversal"

    def test_bad_syntax(self):
        with pytest.raises(ValueError):
            parse_relation(AB, "rotation: (a b)")
        with pytest.raises(ValueError):
            parse_relation(AB, "table: a~")
        with pytest.raises(ValueError):
            parse_relation(AB, "permutation: (a a)")


def test_orbit_cache_is_bounded():
    # 3^11 = 177,147 words of length 11 under (a b c), in orbits of three: the
    # cache would hold every word unbounded, and must empty itself instead
    rel = MorphicPermutation.from_cycles(ABC, "(a b c)")
    sizes = []
    for w in itertools.product(range(3), repeat=11):
        shifted = tuple((i + 1) % 3 for i in w)
        orbit = {w, shifted, tuple((i + 1) % 3 for i in shifted)}
        assert rel.class_letters(w) == tuple(sorted(orbit))
        sizes.append(len(rel._class_cache))
    assert max(sizes) <= CLASS_CACHE_SIZE
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was emptied at least once
    w = (0,) * 11
    assert rel.class_letters(w) is rel.class_letters(w)  # still a cache after emptying
