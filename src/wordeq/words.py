"""Alphabets, words, and finite languages under elementwise concatenation.

Words store dense symbol indices into their alphabet; the alphabet's
declaration order fixes the lexicographic order used everywhere else.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Iterable, Iterator, Optional, Sequence

DEFAULT_PRODUCT_LIMIT = 1_000_000


class WordEqError(Exception):
    """Base class for errors raised by this library."""


class AlphabetMismatch(WordEqError):
    """Operands belong to different alphabets."""


class ProductLimitExceeded(WordEqError):
    """A language product would exceed the configured size limit."""


class EnumerationGuardExceeded(WordEqError):
    """An exhaustive sweep would enumerate more items than allowed."""


@dataclass(frozen=True, slots=True)
class Alphabet:
    """Ordered finite set of distinct symbol names.

    Declaration order defines symbol indices and thereby the lexicographic
    order of words; symbol names play no role in comparisons.
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    sep: str = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet needs at least one symbol")
        for s in syms:
            if not s or any(c.isspace() for c in s):
                raise ValueError(f"bad symbol name: {s!r}")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(syms)})
        # single-character symbols are written side by side, longer ones spaced
        object.__setattr__(self, "sep", "" if all(len(s) == 1 for s in syms) else " ")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def word(self, text: str | Sequence[str] = "") -> Word:
        """Build a word from a string (single-character symbols) or a symbol sequence.

        A string is split into characters when every alphabet symbol is a
        single character, otherwise on whitespace.
        """
        if isinstance(text, str):
            if all(len(s) == 1 for s in self.symbols):
                parts: Sequence[str] = [c for c in text if not c.isspace()]
            else:
                parts = text.split()
        else:
            parts = text
        return Word(self, tuple(self.index(p) for p in parts))

    def spell(self, letters: Sequence[int]) -> str:
        """The symbols of letters as str(Word) writes them; "" for the empty word."""
        return self.sep.join(map(self.symbols.__getitem__, letters))

    def words_of_length(self, n: int) -> Iterator[Word]:
        """All words of length n in lexicographic order."""
        for letters in itertools.product(range(len(self.symbols)), repeat=n):
            yield Word(self, letters)

    def words_up_to(self, max_len: int) -> Iterator[Word]:
        """All words of length 0..max_len in shortlex order."""
        for n in range(max_len + 1):
            yield from self.words_of_length(n)


@dataclass(frozen=True, slots=True)
class Word:
    """Finite sequence of symbol indices over an alphabet; () is the empty word."""

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.alphabet)
        for i in self.letters:
            if not 0 <= i < k:
                raise ValueError(f"letter index {i} out of range for alphabet of size {k}")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __getitem__(self, item: int | slice) -> Word:
        if isinstance(item, slice):
            return Word(self.alphabet, self.letters[item])
        return Word(self.alphabet, (self.letters[item],))

    def __add__(self, other: Word) -> Word:
        _require_same_alphabet(self, other)
        return Word(self.alphabet, self.letters + other.letters)

    def __lt__(self, other: Word) -> bool:
        _require_same_alphabet(self, other)
        return self.letters < other.letters

    def __le__(self, other: Word) -> bool:
        _require_same_alphabet(self, other)
        return self.letters <= other.letters

    def __str__(self) -> str:
        return self.alphabet.spell(self.letters) if self.letters else "ε"

    def __repr__(self) -> str:
        return f"Word({self})"

    def reverse(self) -> Word:
        return Word(self.alphabet, self.letters[::-1])

    def shortlex_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)


def _require_same_alphabet(u: Word | FiniteLanguage, v: Word | FiniteLanguage) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch(f"mixed alphabets: {u.alphabet.symbols} vs {v.alphabet.symbols}")


@dataclass(frozen=True)
class FiniteLanguage:
    """Duplicate-free, lexicographically sorted set of words over one alphabet.

    The sorted tuple of letter tuples is the canonical form; two languages
    are equal iff their canonical forms are. Word objects are built on
    first use of words (or iteration), never for counting or membership.
    """

    alphabet: Alphabet
    letters: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, alphabet: Alphabet, words: Iterable[Word] = ()) -> FiniteLanguage:
        return cls.of_letters(alphabet, letters_over(words, alphabet)[1])

    @classmethod
    def of_letters(cls, alphabet: Alphabet, letters: Iterable[tuple[int, ...]]) -> FiniteLanguage:
        """The language of distinct letter tuples over alphabet."""
        ls, k = tuple(sorted(letters)), len(alphabet)
        bad = set(itertools.chain.from_iterable(ls)).difference(range(k))
        if bad:
            raise ValueError(f"letter index {min(bad)} out of range for alphabet of size {k}")
        return cls(alphabet, ls)

    @classmethod
    def unit(cls, alphabet: Alphabet) -> FiniteLanguage:
        """The language {ε}, the unit of the product."""
        return cls(alphabet, ((),))

    @functools.cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(Word(self.alphabet, ls) for ls in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        if not isinstance(w, Word) or w.alphabet != self.alphabet:
            return False
        i = bisect.bisect_left(self.letters, w.letters)
        return i < len(self.letters) and self.letters[i] == w.letters

    def __str__(self) -> str:
        return "{" + ", ".join(self.alphabet.spell(ls) or "ε" for ls in self.letters) + "}"


def _guard_error(sizes: list[int], limit: int) -> ProductLimitExceeded:
    """The error of a side product over limit, at its first step over limit:
    the words of the classes so far times the next class's size."""
    acc = 1
    for s in sizes:
        if acc * s > limit:
            break
        acc *= s
    return ProductLimitExceeded(f"product of {acc} x {s} words exceeds limit {limit}")


def _join(parts: Iterable[tuple]) -> tuple:
    """The concatenation of tuples, in time linear in the total length: each part
    extends one list in place, from which the tuple is sized exactly."""
    return tuple(functools.reduce(list.__iadd__, parts, []))


SIDE_BLOCK = 4096  # most words in a block of a side's product, unless its last class alone has more


def _side_blocks(
    classes: Sequence[Sequence], size: int, join: Callable[[tuple], Any]
) -> tuple[Iterator, list]:
    """A side's product of classes split in two: the joined head prefixes, in
    the order of itertools.product over the leading classes, and the list of
    joined tail words over the rest, so that the side's words are p + t for
    each prefix p and, within it, each tail word t.

    The tail is the longest suffix of classes whose product has at most size
    words, and it always holds the last class; it is read once, in order.
    Given each class's members sorted and of one length, as class_letters
    gives them, the words come sorted and distinct: two tuples of members
    first differ in one class, and there the two members start at the same
    position and differ within their common length. So a side language is
    read in order, a block of one prefix at a time, without ever being held
    whole. The members may also be stand-ins such as spelled pieces, as
    long as their order is kept.
    """
    cut = max(len(classes) - 1, 0)
    count = len(classes[-1]) if classes else 1
    while cut and count * len(classes[cut - 1]) <= size:
        cut -= 1
        count *= len(classes[cut])
    tail = [*map(join, itertools.product(*classes[cut:]))]
    return map(join, itertools.product(*classes[:cut])), tail


def _side_words(classes: Sequence[Sequence]) -> Iterator:
    """The words of a side, one member of each class concatenated, one at a
    time in sorted order; see _side_blocks."""
    prefixes, tail = _side_blocks(classes, SIDE_BLOCK, _join)
    return (p + t for p in prefixes for t in tail)


def reachable_suffixes(
    target: tuple[int, ...], basis: Collection[tuple[int, ...]], lengths: Optional[Sequence[int]] = None
) -> list[Optional[int]]:
    """ends[i] is the end of the shortest basis word (a nonempty tuple) at i after
    which the rest of target is a product of basis words, or None when target[i:]
    is none; ends[len(target)] is len(target). The slices of target of each basis
    length are looked up in basis, a set or a dict keyed by the words or else made
    a set; lengths, if given, are those lengths in ascending order."""
    words = basis if isinstance(basis, (set, frozenset, dict)) else set(basis)
    if lengths is None:
        lengths = sorted({len(b) for b in words})
    n = len(target)
    ends: list[Optional[int]] = [None] * n + [n]
    for i in range(n - 1, -1, -1):
        for k in lengths:
            j = i + k
            if j > n:
                break
            if ends[j] is not None and target[i:j] in words:
                ends[i] = j
                break
    return ends


def least_factorization(
    target: tuple[int, ...], basis: Collection[tuple[int, ...]], lengths: Optional[Sequence[int]] = None
) -> Optional[tuple[tuple[int, ...], ...]]:
    """The factorization of target that comes first by factor index into the
    sorted basis (nonempty tuples), or None outside the monoid; basis and
    lengths as for reachable_suffixes.

    The factors that match at one position are prefixes of one another, so
    the least by index is the shortest after which the rest is a product:
    the factors reachable_suffixes chose, followed from position 0. Over a
    code this is the only factorization.
    """
    ends = reachable_suffixes(target, basis, lengths)
    if ends[0] is None:
        return None
    pos, out = 0, []
    while pos < len(target):
        out.append(target[pos : ends[pos]])
        pos = ends[pos]
    return tuple(out)


def is_in_monoid(w: Word, basis: Iterable[Word]) -> bool:
    """Membership of w in the monoid generated by basis (reachability check)."""
    return reachable_suffixes(w.letters, {b.letters for b in basis if b.letters})[0] is not None


def letters_over(
    words: Iterable[Word], alphabet: Optional[Alphabet] = None
) -> tuple[Optional[Alphabet], dict[tuple[int, ...], Word]]:
    """The alphabet of all the words (the given one, else the first word's)
    and the first given Word for each of their letter tuples, keyed by that
    tuple; AlphabetMismatch when some word lies elsewhere."""
    out: dict[tuple[int, ...], Word] = {}
    for w in words:
        if alphabet is None:
            alphabet = w.alphabet
        elif w.alphabet is not alphabet and w.alphabet != alphabet:
            raise AlphabetMismatch(f"mixed alphabets: {alphabet.symbols} vs {w.alphabet.symbols}")
        out.setdefault(w.letters, w)
    return alphabet, out
