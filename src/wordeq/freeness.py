"""Free-monoid machinery: code testing, minimal generators, hulls and rank.

is_code runs the Sardinas-Patterson dangling-suffix procedure, extended to
reconstruct the shortest doubly-factorizable word when the test fails.
hull_letters, the one hull engine, interleaves the classical stability
reduction with class closure; the free hull is its run under Identity.
hull_oracle is an independent brute-force cross-check that intersects the
monoids of all covering codes drawn from the factor universe.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Optional

from .anticongruence import Anticongruence, Identity
from .words import (
    EnumerationGuardExceeded,
    Word,
    WordEqError,
    is_in_monoid,
    letters_over,
    reachable_suffixes,
)

Letters = tuple[int, ...]


class NotClassClosed(WordEqError):
    """The hull fixpoint ended on a basis that is not a union of classes.

    A relation that is not an anticongruence, such as an Anticongruence
    subclass whose classes are not cut-closed, can cause this.
    """


@dataclass(frozen=True, slots=True)
class CodeVerdict:
    """Outcome of a code test.

    When the set is not a code, witness is the shortest (then
    lexicographically least) word with two factorizations, and the two
    factor sequences differ in their first factor.
    """

    is_code: bool
    witness: Optional[Word] = None
    factorization_a: Optional[tuple[Word, ...]] = None
    factorization_b: Optional[tuple[Word, ...]] = None

    def __bool__(self) -> bool:
        return self.is_code


@dataclass(frozen=True, slots=True)
class Basis:
    """Duplicate-free set of nonempty words that is a code and a minimal generating set."""

    words: tuple[Word, ...]

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def __str__(self) -> str:
        return "{" + ", ".join(str(w) for w in self.words) + "}"


def is_code(words: Iterable[Word]) -> CodeVerdict:
    """Decide whether the set freely generates its monoid (Sardinas-Patterson)."""
    alphabet, letters = letters_over(words)
    if () in letters:
        raise ValueError("the empty word is not allowed here")
    found = _is_code_cached(tuple(sorted(letters)))
    if found is None:
        return CodeVerdict(True)
    witness, *factorizations = found
    fa, fb = (tuple(Word(alphabet, f) for f in fs) for fs in factorizations)
    return CodeVerdict(False, Word(alphabet, witness), fa, fb)


# hits come from recent hulls, so 4,096 entries keep nearly all of them;
# a larger cache mostly holds word sets that are never asked again
@lru_cache(maxsize=1 << 12)
def _is_code_cached(bs: tuple[Letters, ...]) -> Optional[tuple[Letters, tuple, tuple]]:
    """None for a code, else the witness and its two factor sequences, as letter
    tuples. The words come as their sorted tuple, about a third of a frozenset's size."""
    if len(bs) <= 1:
        return None
    words = set(bs)

    # Dijkstra over dangling suffixes. A state is the overhang by which one
    # factorization runs ahead of the other; the priority (length, prefix)
    # makes the first completion the shortest, lexicographically least
    # doubly-factorizable word.
    heap: list[tuple[int, Letters, int, Letters, tuple, tuple]] = []
    tick = itertools.count()
    for b in bs:
        for c in bs:
            if b != c and len(b) < len(c) and c[: len(b)] == b:
                z = c[len(b) :]
                heapq.heappush(heap, (len(c), c, next(tick), z, (b,), (c,)))
    seen: set[Letters] = set()
    while heap:
        cost, longer, _, z, short_fs, long_fs = heapq.heappop(heap)
        if z in words:
            fa, fb = short_fs + (z,), long_fs
            if fa[0] > fb[0]:
                fa, fb = fb, fa
            return longer, fa, fb
        if z in seen:
            continue
        seen.add(z)
        nz = len(z)
        for u in bs:
            if len(u) < nz and z[: len(u)] == u:
                heapq.heappush(
                    heap, (cost, longer, next(tick), z[len(u) :], short_fs + (u,), long_fs)
                )
            elif len(u) > nz and u[:nz] == z:
                tail = u[nz:]
                heapq.heappush(
                    heap,
                    (cost + len(tail), longer + tail, next(tick), tail, long_fs, short_fs + (u,)),
                )
    return None


def minimal_generators(words: Iterable[Word]) -> frozenset[Word]:
    """Drop every word expressible as a product of two or more of the others.

    ε is dropped outright; the result generates the same monoid.
    """
    _, given = letters_over(words)
    given.pop((), None)
    return frozenset(map(given.__getitem__, _minimal_letters(given)))


def _minimal_letters(pool: Collection[Letters]) -> list[Letters]:
    """Sorted members of pool that are not products of other members: one pass in length
    order, testing w against the kept members shorter than w, which generate the rest."""
    shorter: set[Letters] = set()  # the kept members shorter than w
    lengths: list[int] = []  # their lengths, ascending
    same: list[Letters] = []  # the kept members as long as w
    for w in sorted(pool, key=len):
        if same and len(same[0]) < len(w):
            shorter.update(same)
            lengths.append(len(same[0]))
            same = []
        if not shorter or reachable_suffixes(w, shorter, lengths)[0] is None:
            same.append(w)
    shorter.update(same)
    return sorted(shorter)


def hull_letters(rel: Anticongruence, words: Collection[Letters]) -> tuple[Letters, ...]:
    """Sorted basis of the smallest free monoid containing words with a basis closed
    under rel's classes (under Identity, the free hull).

    While the class-closed minimal generators are not a code, the overhang
    z of the witness's first factors (shorter·z = longer) lies in every
    free monoid containing them and is adjoined. No forced word is longer
    than the longest input, so the loop converges. Raises NotClassClosed
    when the final basis misses a class member of one of its words.
    """
    forced = set(words)
    while True:
        forced = {m for w in forced for m in rel.class_letters(w)}
        basis = _minimal_letters(forced)
        found = _is_code_cached(tuple(basis))
        if found is None:
            break
        a, b = found[1][0], found[2][0]
        shorter, longer = (a, b) if len(a) < len(b) else (b, a)
        forced.add(longer[len(shorter) :])
    members = set(basis)
    for b in basis:
        if not members.issuperset(rel.class_letters(b)):
            raise NotClassClosed(f"basis not class-closed at {b}")
    return tuple(basis)


def free_hull(words: Iterable[Word]) -> Basis:
    """Basis of the smallest free monoid containing the given words.

    This is the pseudo-free hull under the identity relation.
    """
    alphabet, given = letters_over(words)
    given.pop((), None)
    if not given:
        return Basis(())
    basis = hull_letters(Identity(alphabet), given)
    return Basis(tuple(given[b] if b in given else Word(alphabet, b) for b in basis))


def rank(words: Iterable[Word]) -> int:
    """Size of the free hull basis."""
    return len(free_hull(words))


def _all_factors(words: Iterable[Word]) -> list[Word]:
    out = set()
    for w in words:
        ls = w.letters
        for i in range(len(ls)):
            for j in range(i + 1, len(ls) + 1):
                out.add(ls[i:j])
    alphabet = next(iter(words)).alphabet
    return [Word(alphabet, ls) for ls in sorted(out, key=lambda t: (len(t), t))]


def _monoid_slice(basis: list[Word], max_len: int) -> frozenset[tuple[int, ...]]:
    """All letter tuples of length <= max_len in the monoid generated by basis."""
    frontier = [()]
    seen = {()}
    while frontier:
        nxt = []
        for w in frontier:
            for b in basis:
                cand = w + b.letters
                if len(cand) <= max_len and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return frozenset(seen)


def hull_oracle(words: Iterable[Word], max_factors: int = 16) -> Basis:
    """Brute-force free hull for validation.

    Enumerates codes inside the factor universe of the input that generate
    a monoid containing it, intersects their monoids on the slice of
    lengths up to the longest input word, and reads the basis off as the
    minimal generators of the intersection. Supersets of a covering code
    are skipped: their monoids only grow, so they cannot shrink the
    intersection; supersets of a non-code are skipped because they are not
    codes either.
    """
    xs = sorted({w for w in words if w.letters})
    if not xs:
        return Basis(())
    alphabet = xs[0].alphabet
    factors = _all_factors(xs)
    if len(factors) > max_factors:
        raise EnumerationGuardExceeded(
            f"factor universe of size {len(factors)} exceeds oracle guard {max_factors}"
        )
    max_len = max(len(x) for x in xs)

    def covers(basis: list[Word]) -> bool:
        return all(is_in_monoid(x, basis) for x in xs)

    slices: list[frozenset[tuple[int, ...]]] = []

    def search(i: int, chosen: list[Word]) -> None:
        if not covers(chosen + factors[i:]):
            return
        if i == len(factors):
            return
        kept = factors[i]
        chosen.append(kept)
        if is_code(chosen).is_code:
            if covers(chosen):
                slices.append(_monoid_slice(chosen, max_len))
            else:
                search(i + 1, chosen)
        chosen.pop()
        search(i + 1, chosen)

    search(0, [])
    assert slices, "the single letters of the input always form a covering code"
    inter = frozenset.intersection(*slices)

    members = inter - {()}
    basis = []
    for t in sorted(members):
        if not any(t[:k] in members and t[k:] in members for k in range(1, len(t))):
            basis.append(Word(alphabet, t))
    return Basis(tuple(sorted(basis)))
