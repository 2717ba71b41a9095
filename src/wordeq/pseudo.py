"""Class-closed free monoids: pseudo-free hulls, bases, and class factorization.

A monoid M is class-closed for a relation when it contains the whole
equivalence class of each of its elements. For a free class-closed monoid
the basis is itself a union of classes, and every element factors into a
unique sequence of basis classes; that sequence is the class factorization
computed here. The pseudo-free hull of a word set is the smallest
class-closed free monoid containing it, and the pseudo-rank counts the
classes of its basis. Under the identity relation it is the free hull.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .anticongruence import Anticongruence, EqClass
from .freeness import Basis, Letters, hull_letters
from .words import (
    DEFAULT_PRODUCT_LIMIT,
    FiniteLanguage,
    Word,
    WordEqError,
    _guard_error,
    _side_words,
    least_factorization,
    letters_over,
)


class NotInMonoid(WordEqError):
    """A word lies outside the monoid generated by the basis at hand."""


@dataclass(frozen=True, slots=True)
class ClassWord:
    """A word over the class alphabet: a finite sequence of equivalence classes."""

    classes: tuple[EqClass, ...]

    def __post_init__(self) -> None:
        # equal relations (two Identity objects over one alphabet) count as one
        if self.classes:
            rel = self.classes[0].rel
            for c in self.classes:
                if c.rel is not rel and c.rel != rel:
                    raise ValueError("classes from different relations in one class word")

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[EqClass]:
        return iter(self.classes)

    def __add__(self, other: ClassWord) -> ClassWord:
        return ClassWord(self.classes + other.classes)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.classes) + ")" if self.classes else "()"

    def language(self, limit: int = DEFAULT_PRODUCT_LIMIT) -> FiniteLanguage:
        """The set product c1 ⊙ c2 ⊙ ... ⊙ cm of the classes, after checking
        that it has at most limit words."""
        if not self.classes:
            raise ValueError("empty class word has no alphabet to build {ε} over")
        members = [c.language().letters for c in self.classes]
        if math.prod(map(len, members)) > limit:
            raise _guard_error([*map(len, members)], limit)
        return FiniteLanguage(self.classes[0].rep.alphabet, tuple(_side_words(members)))


@dataclass(frozen=True, slots=True)
class PseudoFreeBasis:
    """Free basis of a class-closed free monoid, together with its class set.

    basis_words is a code closed under the relation's classes; classes
    holds one EqClass per basis class, sorted by representative.
    """

    rel: Anticongruence
    basis_words: Basis
    classes: tuple[EqClass, ...]

    @classmethod
    def of_letters(
        cls, rel: Anticongruence, basis: Iterable[Letters], reps: Iterable[Letters],
        given: Mapping[Letters, Word] = {},
    ) -> PseudoFreeBasis:
        """The basis from its letter tuples and its class representatives (class_reps):
        one Word per basis word b, given[b] where letters_over gave one, which is also the
        rep of its class (the basis is class-closed, so a class's least member is in it)."""
        words = {b: given[b] if b in given else Word(rel.alphabet, b) for b in basis}
        return cls(rel, Basis(tuple(words.values())), tuple(EqClass(rel, words[r]) for r in reps))

    def pseudo_rank(self) -> int:
        return len(self.classes)


def pseudo_free_hull(rel: Anticongruence, words: Iterable[Word]) -> PseudoFreeBasis:
    """Basis and classes of the smallest class-closed free monoid containing words.

    The basis comes from freeness.hull_letters, which free_hull also runs.
    """
    _, given = letters_over(words, rel.alphabet)
    given.pop((), None)
    basis = hull_letters(rel, given)
    return PseudoFreeBasis.of_letters(rel, basis, class_reps(rel, basis), given)


def class_reps(rel: Anticongruence, words: Iterable[Letters]) -> list[Letters]:
    """The least member of each class the words fall into, in shortlex order."""
    return sorted({rel.class_letters(w)[0] for w in words}, key=lambda t: (len(t), t))


def class_factorization(pfb: PseudoFreeBasis, w: Word) -> ClassWord:
    """The unique class sequence whose product contains w.

    Factorizes w over the basis (unique, the basis is a code) and maps each
    factor to its class in pfb.classes. Raises AlphabetMismatch for a word over
    another alphabet, ε included, then NotInMonoid outside the monoid.
    """
    rel = pfb.rel
    rel._check(w)
    if not w.letters:
        return ClassWord(())
    basis = {b.letters for b in pfb.basis_words}
    if () in basis:
        raise ValueError("empty word not allowed in a factorization basis")
    factors = least_factorization(w.letters, basis)
    if factors is None:
        raise NotInMonoid(f"{w} is not in the monoid of {pfb.basis_words}")
    by_rep = {c.rep.letters: c for c in pfb.classes if c.rel == rel}
    out = []
    for b in factors:
        r = rel.class_letters(b)[0]  # a hand-built basis may lack its class
        out.append(by_rep[r] if r in by_rep else EqClass(rel, Word(rel.alphabet, r)))
    return ClassWord(tuple(out))


def pseudo_rank(rel: Anticongruence, words: Iterable[Word]) -> int:
    """Number of classes in the pseudo-free basis of the hull of words."""
    return pseudo_free_hull(rel, words).pseudo_rank()
