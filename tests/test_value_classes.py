"""The frozen value classes hold their fields in slots, with no instance
__dict__, and still survive pickle and deepcopy; the two classes with cached
properties keep their __dict__, which those properties write to."""
import copy
import dataclasses
import pickle

import pytest

from wordeq import (
    Alphabet,
    AxiomViolation,
    Basis,
    ClassWord,
    CodeVerdict,
    DescentResult,
    EqClass,
    Equation,
    FiniteLanguage,
    Identity,
    MorphicPermutation,
    PseudoFreeBasis,
    PseudoSolution,
    PseudoVerdict,
    RankCertificate,
    Reversal,
    Word,
    bounded_rank_certificate,
    check_pseudo_solution,
    class_factorization,
    descend,
    free_hull,
    is_code,
    parse_equation,
    pseudo_free_hull,
    verify_axioms,
)
from wordeq.cli import SideLanguage

AB = Alphabet("ab")
ABC = Alphabet("abc")


def samples():
    """One instance of each slotted class, built through the library."""
    rel = MorphicPermutation.from_cycles(ABC, "(a b c)")
    e = parse_equation("x y = y x")
    psol = PseudoSolution(rel, {"x": EqClass.of(rel, ABC.word("a")), "y": EqClass.of(rel, ABC.word("ab"))})
    hull = pseudo_free_hull(rel, [ABC.word("ab"), ABC.word("c")])
    return [
        AB,
        AB.word("ab"),
        EqClass.of(rel, ABC.word("b")),
        verify_axioms(Reversal(AB), 2),
        is_code([AB.word("a"), AB.word("ab"), AB.word("ba")]),
        free_hull([AB.word("ab"), AB.word("ba")]),
        class_factorization(hull, ABC.word("abc")),
        hull,
        e,
        descend(e, psol),
        bounded_rank_certificate(e, MorphicPermutation.from_cycles(AB, "(a b)"), 1),
        SideLanguage(AB, (((0,), (1,)),)),
    ]


def test_value_classes_have_no_instance_dict():
    kinds = (Alphabet, Word, EqClass, AxiomViolation, CodeVerdict, Basis, ClassWord,
             PseudoFreeBasis, Equation, DescentResult, RankCertificate, SideLanguage)
    objs = samples()
    assert [type(o) for o in objs] == list(kinds)
    for obj in objs:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, None)
        # Python 3.11's frozen __setattr__ tests against the class before slots were
        # added, so a new name is refused with TypeError rather than FrozenInstanceError
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1


def test_cached_properties_keep_their_dict():
    lang = FiniteLanguage.of(AB, [AB.word("ab"), AB.word("b")])
    assert [str(w) for w in lang.words] == ["ab", "b"]
    assert "words" in vars(lang)
    rel = Identity(AB)
    e = parse_equation("x y = y x")
    verdict = check_pseudo_solution(e, PseudoSolution(rel, {"x": EqClass(rel, AB.word("a")),
                                                            "y": EqClass(rel, AB.word("aa"))}))
    assert isinstance(verdict, PseudoVerdict)
    assert verdict.lhs_language.letters == ((0, 0, 0),)
    assert "lhs_language" in vars(verdict)


def round_trip_samples():
    # Identity compares by alphabet, so copies of its classes and hulls compare equal
    rel = Identity(ABC)
    hull = pseudo_free_hull(rel, [ABC.word(t) for t in ("ab", "cab", "ba")])
    verdict = is_code([AB.word("a"), AB.word("ab"), AB.word("ba")])
    assert not verdict.is_code and verdict.witness is not None
    return [
        ABC.word("abca"),
        EqClass.of(MorphicPermutation.from_cycles(AB, "(a b)"), AB.word("ba")),
        EqClass(rel, ABC.word("ab")),
        class_factorization(hull, ABC.word("abcab")),
        hull,
        verdict,
    ]


@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_round_trips_are_equal(how):
    for obj in round_trip_samples():
        back = pickle.loads(pickle.dumps(obj)) if how == "pickle" else copy.deepcopy(obj)
        assert type(back) is type(obj)
        if isinstance(obj, EqClass) and isinstance(obj.rel, MorphicPermutation):
            # a permutation compares by identity: its copy is another relation
            assert back.rep == obj.rep and back.rel.mapping == obj.rel.mapping
            assert back.language() == obj.language()
            continue
        assert back == obj
        assert hash(back) == hash(obj)
    verdict = round_trip_samples()[-1]
    back = pickle.loads(pickle.dumps(verdict))
    assert (back.witness, back.factorization_a, back.factorization_b) == (
        verdict.witness, verdict.factorization_a, verdict.factorization_b)


def text_and_order_cases():
    """(label, computed, expected) for the text and order methods of the value classes."""
    a, ab, b = AB.word("a"), AB.word("ab"), AB.word("b")
    swap = MorphicPermutation(AB, (1, 0))
    hull = pseudo_free_hull(Identity(ABC), [ABC.word("ab"), ABC.word("c")])
    return [
        ("Word[int]", ab[1], b),
        ("Word <=", (a <= ab, ab <= ab, b <= ab), (True, True, False)),
        ("Word repr", (repr(ab), repr(AB.word(""))), ("Word(ab)", "Word(ε)")),
        ("FiniteLanguage str", str(FiniteLanguage.of(AB, [b, AB.word(""), ab])), "{ε, ab, b}"),
        ("EqClass <", (EqClass(swap, b) < EqClass(swap, ab), EqClass(swap, ab) < EqClass(swap, b)),
         (True, False)),
        ("CodeVerdict bool", (bool(is_code([a, ab, AB.word("ba")])), bool(is_code([a, b]))), (False, True)),
        ("ClassWord str", (str(class_factorization(hull, ABC.word("abcab"))), str(ClassWord(()))),
         ("([ab], [c], [ab])", "()")),
        ("AxiomViolation cut", str(AxiomViolation("cut", ab, AB.word("ba"), cut=1)),
         "cut condition fails: ab ~ ba but pieces at cut 1 are not equivalent"),
        ("AxiomViolation transitivity", str(AxiomViolation("transitivity", AB.word("aa"), AB.word("bb"), via=ab)),
         "transitivity fails at (aa, ab, bb)"),
        ("AxiomViolation plain", str(AxiomViolation("symmetry", a, b)), "symmetry fails at (a, b)"),
    ]


TEXT_AND_ORDER = text_and_order_cases()


@pytest.mark.parametrize("got,expect", [c[1:] for c in TEXT_AND_ORDER], ids=[c[0] for c in TEXT_AND_ORDER])
def test_text_and_order(got, expect):
    assert got == expect
