"""Acceptance suite: exact reproduction of the worked instances plus sweeps.

Each criterion is one test that prints a single PASS line when every
assertion in it holds; tolerances (exact values, time bounds, zero-failure
requirements) are pinned in the assertions themselves. Run with

    pytest tests/test_acceptance.py -v -s
"""
import itertools
import random
import time

import pytest

from wordeq import (
    Alphabet,
    EqClass,
    Identity,
    MorphicPermutation,
    PseudoSolution,
    Reversal,
    Word,
    bounded_rank_certificate,
    check_pseudo_solution,
    check_solution,
    close_pairs,
    descend,
    enumerate_pseudo_solutions,
    free_hull,
    hull_oracle,
    is_code,
    is_in_monoid,
    parse_equation,
    pseudo_rank,
    rank,
    verify_axioms,
)
from wordeq.cli import run_command

from oracles import align_equivalent_sides, all_word_sets, brute_double_factorization, image_members

AB = Alphabet("ab")
ABC = Alphabet("abc")
ABCD = Alphabet("abcd")

TABLE_CFG_TEXT = """\
alphabet: a b c
rel: table: a~c, ab~cb, bc~ba, abc~cba
equation: x y z = z y x
assign: x=abc y=b z=a
words: abc b a
max_len: 3
"""


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


def test_criterion_1_table_instance_reproduction(tmp_path):
    cfg = tmp_path / "table.cfg"
    cfg.write_text(TABLE_CFG_TEXT)
    started = time.perf_counter()

    check = run_command("check", str(cfg))
    assert check.data["valid"] is True
    assert check.data["common"] == "abcba"

    hull = run_command("hull", str(cfg))
    assert hull.data["classes"] == {"[a]": ["a", "c"], "[b]": ["b"]}
    assert hull.data["pseudo_rank"] == 2

    search = run_command("search", str(cfg), max_len=3)
    assert search.data["max_pseudo_rank"] == 2
    assert search.data["descent_property"] == "pass"

    rel = three_letter_table()
    e = parse_equation("x y z = z y x")
    psol = PseudoSolution(
        rel,
        {
            "x": EqClass.of(rel, ABC.word("abc")),
            "y": EqClass.of(rel, ABC.word("b")),
            "z": EqClass.of(rel, ABC.word("a")),
        },
    )
    result = descend(e, psol)
    assert str(result.solution["x"]) == "[a] [b] [a]"
    assert str(result.solution["y"]) == "[b]"
    assert str(result.solution["z"]) == "[a]"
    assert result.solution_rank() == 2

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - table instance reproduced exactly in {elapsed:.2f}s")


def test_criterion_2_commutation_examples():
    started = time.perf_counter()
    rel = close_pairs(AB, [(AB.word("a"), AB.word("b"))])
    e = parse_equation("x y = y x")

    phi1 = PseudoSolution(
        rel, {"x": EqClass.of(rel, AB.word("a")), "y": EqClass.of(rel, AB.word("b"))}
    )
    v1 = check_pseudo_solution(e, phi1)
    assert v1.valid
    assert [str(w) for w in v1.lhs_language] == ["aa", "ab", "ba", "bb"]
    assert v1.lhs_language == v1.rhs_language

    phi2 = PseudoSolution(
        rel, {"x": EqClass.of(rel, AB.word("ab")), "y": EqClass.of(rel, AB.word("a"))}
    )
    v2 = check_pseudo_solution(e, phi2)
    assert not v2.valid
    assert [str(w) for w in v2.lhs_language] == ["aba", "abb"]
    assert [str(w) for w in v2.rhs_language] == ["aab", "bab"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2: PASS - commutation side languages exact in {elapsed:.2f}s")


def test_criterion_3_classical_rank_example():
    xs = [ABC.word(t) for t in ("a", "bca", "abc")]
    assert [str(w) for w in free_hull(xs)] == ["a", "bc"]
    assert rank(xs) == 2
    print("\nACCEPTANCE 3: PASS - free hull {a, bc} with rank 2")


def test_criterion_4_descent_instance_suite():
    started = time.perf_counter()
    instances = []
    for size in (1, 2):
        alphabet = Alphabet("ab"[:size])
        for perm in itertools.permutations(range(size)):
            rel = MorphicPermutation(alphabet, perm)
            for eq_text in ("x y = y x", "x x y = y x x"):
                instances.append((parse_equation(eq_text), rel))
    instances.append((parse_equation("x y z = z y x"), three_letter_table()))

    checked = 0
    for e, rel in instances:
        for psol in enumerate_pseudo_solutions(e, rel, 3):
            result = descend(e, psol)
            assert check_solution(e, result.solution), (str(e), repr(psol))
            expected = pseudo_rank(rel, image_members(e, psol))
            assert result.solution_rank() == expected, (str(e), repr(psol))
            checked += 1

    elapsed = time.perf_counter() - started
    assert checked > 1500
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 4: PASS - descent property on {checked} pseudo-solutions "
        f"across {len(instances)} instances in {elapsed:.1f}s"
    )


def test_criterion_5_hull_oracle_equivalence():
    # the full sweep finishes well inside the five-minute allowance,
    # so no random subsample is needed
    started = time.perf_counter()
    mismatches = 0
    non_codes = 0
    total = 0
    for xs in all_word_sets(AB, 3, 4):
        total += 1
        if free_hull(xs) != hull_oracle(xs):
            mismatches += 1
        if not is_code(xs).is_code:
            non_codes += 1
            assert rank(xs) < len(xs), sorted(map(str, xs))
    assert mismatches == 0
    assert total == 4525
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 5: PASS - hull oracle agrees on all {total} instances, "
        f"defect effect on {non_codes} non-codes, {elapsed:.1f}s"
    )


def test_criterion_6_code_test_against_brute_force():
    verdict = is_code([AB.word("ab"), AB.word("aba")])
    assert verdict.is_code
    verdict = is_code([AB.word(t) for t in ("a", "ab", "ba")])
    assert not verdict.is_code
    assert str(verdict.witness) == "aba"

    # A search capped at twice the longest word misses the 8 suite instances
    # whose shortest double factorization is longer (e.g. {a, aba, bab} with
    # witness abababa); for those the independent search is deepened to the
    # claimed witness length and must confirm it exactly.
    disagreements = 0
    deepened = 0
    total = 0
    for xs in all_word_sets(AB, 3, 4):
        total += 1
        basis = sorted(xs)
        bound = 2 * max(len(w) for w in basis)
        brute_witness = brute_double_factorization(basis, bound)
        verdict = is_code(xs)
        if brute_witness is not None:
            if verdict.is_code or verdict.witness != brute_witness:
                disagreements += 1
        elif not verdict.is_code:
            deepened += 1
            deep = brute_double_factorization(basis, len(verdict.witness))
            if deep != verdict.witness:
                disagreements += 1
    assert disagreements == 0
    assert deepened == 8
    assert total == 4525
    print(
        f"\nACCEPTANCE 6: PASS - dangling-suffix test matches brute force on {total} "
        f"instances ({deepened} needed a search deeper than twice the longest word)"
    )


def test_criterion_7_anticongruence_axioms():
    for size in (1, 2, 3):
        alphabet = Alphabet("abc"[:size])
        for perm in itertools.permutations(range(size)):
            assert verify_axioms(MorphicPermutation(alphabet, perm), 4) is None

    table = close_pairs(
        ABCD,
        [
            (ABCD.word("a"), ABCD.word("c")),
            (ABCD.word("b"), ABCD.word("d")),
            (ABCD.word("aa"), ABCD.word("cc")),
        ],
    )
    assert not table.equiv(ABCD.word("aacc"), ABCD.word("ccaa"))
    assert not table.equiv(ABCD.word("ac"), ABCD.word("ba"))

    violation = verify_axioms(Reversal(ABC), 3)
    assert violation is not None and violation.kind == "cut"
    rel = Reversal(ABC)
    u, v, i = violation.u, violation.v, violation.cut
    assert rel.equiv(u, v)
    assert not (rel.equiv(u[:i], v[:i]) and rel.equiv(u[i:], v[i:]))
    print(
        "\nACCEPTANCE 7: PASS - 9 morphic permutations pass to length 4; "
        f"reversal fails the cut condition at ({u}, {v}, {i})"
    )


def test_criterion_8_reversal_negative_control():
    x, y, z = AB.word("aabaaab"), AB.word("a"), AB.word("aaba")
    lhs = x + x + y + y
    rhs = z + z + z.reverse() + z.reverse()
    assert lhs == rhs and len(lhs) == 16

    targets = [x, y, z]
    candidates = 0
    for n in range(1, 8):
        for t in AB.words_of_length(n):
            candidates += 1
            basis = [t] if t == t.reverse() else [t, t.reverse()]
            assert not all(is_in_monoid(w, basis) for w in targets), str(t)
    assert candidates == 254
    print(
        "\nACCEPTANCE 8: PASS - the 16-letter identity holds, yet no generator "
        f"pair {{t, reverse(t)}} with |t| <= 7 covers the images ({candidates} candidates)"
    )


def test_criterion_9_alignment_suite():
    rng = random.Random(90125)
    checked = 0
    for _ in range(1000):
        size = rng.randint(1, 3)
        alphabet = Alphabet("abc"[:size])
        perm = list(range(size))
        rng.shuffle(perm)
        rel = MorphicPermutation(alphabet, perm)
        order = rel.order()

        n_unknowns = rng.randint(1, 3)
        lhs_unknowns = [f"u{rng.randint(0, n_unknowns - 1)}" for _ in range(rng.randint(1, 4))]
        bases = {
            name: Word(alphabet, tuple(rng.randrange(size) for _ in range(rng.randint(0, 3))))
            for name in set(lhs_unknowns)
        }
        lhs_words = []
        for name in lhs_unknowns:
            w = bases[name]
            for _ in range(rng.randrange(order)):
                w = rel.apply(w)
            lhs_words.append(w)

        left = Word(alphabet, sum((w.letters for w in lhs_words), ()))
        shifted = left
        for _ in range(rng.randrange(order)):
            shifted = rel.apply(shifted)

        m = rng.randint(1, 4)
        cuts = sorted(rng.randint(0, len(left)) for _ in range(m - 1))
        bounds = [0] + cuts + [len(left)]
        rhs_words = [shifted[bounds[i] : bounds[i + 1]] for i in range(m)]
        rhs_unknowns = [f"v{i}" for i in range(m)]

        eq_text = " ".join(lhs_unknowns) + " = " + " ".join(rhs_unknowns)
        e = parse_equation(eq_text)
        side_words = lhs_words + rhs_words

        out = align_equivalent_sides(e, rel, side_words)

        new_left = sum((w.letters for w in out[: len(lhs_words)]), ())
        new_right = sum((w.letters for w in out[len(lhs_words) :]), ())
        assert new_left == new_right
        assert [len(w) for w in out] == [len(w) for w in side_words]
        names = lhs_unknowns + rhs_unknowns
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if names[i] == names[j]:
                    assert rel.equiv(out[i], out[j])
        for before, after in zip(side_words, out):
            assert rel.equiv(before, after)
        checked += 1

    assert checked == 1000
    print("\nACCEPTANCE 9: PASS - 1000 generated equivalent-side tuples re-cut exactly")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
