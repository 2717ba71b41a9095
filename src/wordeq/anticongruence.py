"""Length-preserving equivalences on words that split along every cut.

An anticongruence is an equivalence on Σ* such that equivalent words have
equal length, and whenever u·v is equivalent to u'·v' with |u| = |u'|, the
pieces u, u' and v, v' are equivalent as well. Three kinds are supported:
plain equality, orbits of a morphic permutation, and finite pair tables
closed under cutting. Reversal has classes like theirs but fails the cut
condition: it is the negative control for the axioms and the descent.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .words import (
    Alphabet,
    AlphabetMismatch,
    EnumerationGuardExceeded,
    FiniteLanguage,
    Word,
)

DEFAULT_WORD_GUARD = 2_000
# entries of a MorphicPermutation's orbit cache; it is emptied before it
# would pass this, so a long run over many words holds a bounded cache
CLASS_CACHE_SIZE = 1 << 16


class Anticongruence:
    """Base interface: a relation defines class_letters; equiv and class materialization read it."""

    kind = "abstract"

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def equiv(self, u: Word, v: Word) -> bool:
        self._check(u, v)
        return v.letters in self.class_letters(u.letters)

    def class_letters(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Sorted letter tuples of the full class of a word, as raw tuples."""
        raise NotImplementedError

    def class_of(self, u: Word) -> FiniteLanguage:
        """The full equivalence class [u] as a language; always finite here."""
        self._check(u)
        return FiniteLanguage.of_letters(self.alphabet, self.class_letters(u.letters))

    def canonical(self, u: Word) -> Word:
        """Lexicographically least member of [u]."""
        self._check(u)
        return Word(self.alphabet, self.class_letters(u.letters)[0])

    def _check(self, *words: Word) -> None:
        for w in words:
            if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
                raise AlphabetMismatch("word from a different alphabet than the relation")

    def describe(self) -> str:
        return self.kind


class Identity(Anticongruence):
    """Equality of words, the trivial anticongruence."""

    kind = "identity"

    # equal alphabets give equal relations, for EqClass equality, the
    # certificate's reuse test and hits in the hull cache in equations
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Identity) and other.alphabet == self.alphabet

    def __hash__(self) -> int:
        return hash(self.alphabet)

    def class_letters(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return (letters,)


class MorphicPermutation(Anticongruence):
    """Orbit equivalence of the letterwise extension of an alphabet permutation.

    u ~ v iff v = f^i(u) for some i >= 0; classes are orbits and class sizes
    divide the lcm of the cycle lengths of the letters involved.
    """

    kind = "permutation"

    def __init__(self, alphabet: Alphabet, mapping: Iterable[int]):
        super().__init__(alphabet)
        m = tuple(mapping)
        if sorted(m) != list(range(len(alphabet))):
            raise ValueError("mapping is not a permutation of the alphabet indices")
        self.mapping = m
        self._class_cache: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    @classmethod
    def from_cycles(cls, alphabet: Alphabet, text: str) -> MorphicPermutation:
        """Parse cycle notation like "(a b)(c)"; fixed points may be omitted."""
        mapping = list(range(len(alphabet)))
        body = text.strip()
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)*", body):
            raise ValueError(f"bad cycle notation: {text!r}")
        seen: set[int] = set()
        for cyc in re.findall(r"\(([^()]*)\)", body):
            idxs = [alphabet.index(s) for s in cyc.split()]
            if len(set(idxs)) != len(idxs):
                raise ValueError(f"repeated symbol inside cycle ({cyc})")
            if seen.intersection(idxs):
                raise ValueError(f"symbol appears in two cycles: ({cyc})")
            seen.update(idxs)
            for pos, i in enumerate(idxs):
                mapping[i] = idxs[(pos + 1) % len(idxs)]
        return cls(alphabet, mapping)

    def cycles(self) -> list[list[int]]:
        out, done = [], set()
        for start in range(len(self.mapping)):
            if start in done:
                continue
            cyc = [start]
            done.add(start)
            nxt = self.mapping[start]
            while nxt != start:
                cyc.append(nxt)
                done.add(nxt)
                nxt = self.mapping[nxt]
            out.append(cyc)
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def apply_letters(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        m = self.mapping
        return tuple(m[i] for i in letters)

    def apply(self, w: Word) -> Word:
        self._check(w)
        return Word(self.alphabet, self.apply_letters(w.letters))

    def class_letters(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        cached = self._class_cache.get(letters)
        if cached is not None:
            return cached
        orbit = {letters}
        cur = self.apply_letters(letters)
        while cur != letters:
            orbit.add(cur)
            cur = self.apply_letters(cur)
        members = tuple(sorted(orbit))
        if len(self._class_cache) + len(members) > CLASS_CACHE_SIZE:
            self._class_cache.clear()
        for m in members:
            self._class_cache[m] = members
        return members

    def describe(self) -> str:
        syms = self.alphabet.symbols
        parts = ["(" + " ".join(syms[i] for i in c) + ")" for c in self.cycles()]
        return "permutation: " + "".join(parts)


class FiniteTable(Anticongruence):
    """Smallest anticongruence containing finitely many length-matched pairs.

    Outside the closure of the pairs, words are equivalent only to
    themselves. pairs holds every nontrivial pair of the closure.
    """

    kind = "table"

    def __init__(self, alphabet: Alphabet, pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]):
        super().__init__(alphabet)
        # An anticongruence relates the factors at equal positions of
        # related words, and cutting a chain of such factor pairs cuts each
        # link, so the closure is the equivalence these factor pairs span.
        parent: dict[tuple[int, ...], tuple[int, ...]] = {}

        def find(x: tuple[int, ...]) -> tuple[int, ...]:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            u, v = Word(alphabet, a), Word(alphabet, b)  # rejects letters outside the alphabet
            if len(a) != len(b):
                raise ValueError(f"length-mismatched pair ({u}, {v})")
            for i in range(len(a)):
                for j in range(i + 1, len(a) + 1):
                    if a[i:j] != b[i:j]:
                        parent[find(b[i:j])] = find(a[i:j])
        classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for x in parent:
            classes.setdefault(find(x), []).append(x)
        self._members: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        closed: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for group in classes.values():
            members = tuple(sorted(group))
            self._members.update(dict.fromkeys(members, members))
            closed.update(itertools.combinations(members, 2))
        self.pairs = frozenset(closed)

    def class_letters(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return self._members.get(letters, (letters,))

    def nontrivial_classes(self) -> list[FiniteLanguage]:
        """The classes with more than one member, sorted by least member."""
        reps = sorted({members[0] for members in self._members.values()})
        return [FiniteLanguage.of_letters(self.alphabet, self._members[r]) for r in reps]

    def describe(self) -> str:
        shown = sorted(self.pairs)
        alpha = self.alphabet
        return "table: " + ", ".join(
            f"{Word(alpha, a)}~{Word(alpha, b)}" for a, b in shown
        )


class Reversal(Anticongruence):
    """u ~ v iff v is u or u reversed.

    Its classes are {w, w reversed}, but it fails the cut condition on any
    alphabet of two or more letters (ab ~ ba, yet a and b are unrelated),
    so hulls, descent and certificates over it need not behave.
    """

    kind = "reversal"

    def class_letters(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted({letters, letters[::-1]}))


def close_pairs(alphabet: Alphabet, pairs: Iterable[tuple[Word, Word]]) -> FiniteTable:
    """FiniteTable of the given pairs of words, which must be over alphabet."""
    letters = []
    for u, v in pairs:
        if u.alphabet != alphabet or v.alphabet != alphabet:
            raise AlphabetMismatch("pair over a different alphabet")
        letters.append((u.letters, v.letters))
    return FiniteTable(alphabet, letters)


@dataclass(frozen=True, slots=True)
class EqClass:
    """An equivalence class, stored as relation handle plus canonical representative.

    The representative is the lexicographically least member; classes under
    the same relation are equal iff their representatives are. All members
    share the representative's length.
    """

    rel: Anticongruence
    rep: Word

    @classmethod
    def of(cls, rel: Anticongruence, w: Word) -> EqClass:
        return cls(rel, rel.canonical(w))

    def language(self) -> FiniteLanguage:
        return self.rel.class_of(self.rep)

    def members(self) -> tuple[Word, ...]:
        return self.language().words

    def __len__(self) -> int:
        return len(self.rel.class_letters(self.rep.letters))

    def __contains__(self, w: Word) -> bool:
        return w.letters in self.rel.class_letters(self.rep.letters)

    def __lt__(self, other: EqClass) -> bool:
        return self.rep.shortlex_key() < other.rep.shortlex_key()

    def __str__(self) -> str:
        return f"[{self.rep}]"


@dataclass(frozen=True, slots=True)
class AxiomViolation:
    """First failure found by verify_axioms, with the witnessing words.

    kind is one of reflexivity, symmetry, length, transitivity, cut.
    For cut violations the pair (u, v) is equivalent but its pieces at
    position cut are not; for transitivity, via is the middle word.
    """

    kind: str
    u: Word
    v: Word
    cut: Optional[int] = None
    via: Optional[Word] = None

    def __str__(self) -> str:
        if self.kind == "cut":
            return f"cut condition fails: {self.u} ~ {self.v} but pieces at cut {self.cut} are not equivalent"
        if self.kind == "transitivity":
            return f"transitivity fails at ({self.u}, {self.via}, {self.v})"
        return f"{self.kind} fails at ({self.u}, {self.v})"


def verify_axioms(rel: Anticongruence, max_len: int) -> Optional[AxiomViolation]:
    """Exhaustively check the anticongruence axioms on words up to max_len,
    reading each word's class once; EnumerationGuardExceeded when those
    words are more than DEFAULT_WORD_GUARD.

    Scans strata in increasing length with lexicographic tie order, so the
    returned first violation is deterministic. None means every check
    passed on the bounded support.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    alphabet = rel.alphabet
    k = len(alphabet)
    # add the strata up one at a time and stop once past the guard: the
    # full count can be too large to compute or to print
    totals = itertools.accumulate(k**n for n in range(max_len + 1))
    if any(total > DEFAULT_WORD_GUARD for total in totals):
        raise EnumerationGuardExceeded(
            f"words up to length {max_len} exceed the guard of {DEFAULT_WORD_GUARD}"
        )

    support = [u for n in range(max_len + 1) for u in itertools.product(range(k), repeat=n)]
    word = functools.partial(Word, alphabet)
    # equiv(u, v) is v in class_letters(u), so one class read per word finds
    # every related word; members outside the support are dropped
    rank = {u: i for i, u in enumerate(support)}
    related = {
        u: [support[i] for i in sorted({rank[v] for v in rel.class_letters(u) if v in rank})]
        for u in support
    }

    for u, vs in related.items():
        for v in vs:
            if len(v) != len(u):
                return AxiomViolation("length", word(u), word(v))

    classes = {u: frozenset(vs) for u, vs in related.items()}
    for _, stratum in itertools.groupby(related, len):
        stratum = list(stratum)
        for u in stratum:
            if u not in classes[u]:
                return AxiomViolation("reflexivity", word(u), word(u))
        for u in stratum:
            for v in related[u]:
                if u not in classes[v]:
                    return AxiomViolation("symmetry", word(u), word(v))
        for u in stratum:
            for v in related[u]:
                if classes[v] != classes[u]:
                    w = min(classes[v].symmetric_difference(classes[u]))
                    return AxiomViolation("transitivity", word(u), word(w), via=word(v))
        for u in stratum:
            for v in related[u]:
                if v <= u:
                    continue
                for i in range(1, len(u)):
                    if not (v[:i] in classes[u[:i]] and v[i:] in classes[u[i:]]):
                        return AxiomViolation("cut", word(u), word(v), cut=i)
    return None


def parse_relation(alphabet: Alphabet, text: str) -> Anticongruence:
    """Parse the relation syntax used in CLI configs.

    Accepted forms: "identity"; "permutation: (a b)(c)" in cycle notation;
    "table: a~c, ab~cb" as comma-separated generator pairs; "reversal"
    (not an anticongruence).
    """
    body = text.strip()
    if body == "identity":
        return Identity(alphabet)
    if body == "reversal":
        return Reversal(alphabet)
    if body.startswith("permutation:"):
        return MorphicPermutation.from_cycles(alphabet, body[len("permutation:") :])
    if body.startswith("table:"):
        pairs = []
        pair_text = body[len("table:") :].strip()
        if pair_text:
            for chunk in pair_text.split(","):
                halves = chunk.split("~")
                if len(halves) != 2:
                    raise ValueError(f"bad table pair: {chunk.strip()!r}")
                pairs.append((alphabet.word(halves[0].strip()), alphabet.word(halves[1].strip())))
        return close_pairs(alphabet, pairs)
    raise ValueError(f"unknown relation syntax: {text!r}")
