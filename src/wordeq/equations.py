"""Word equations, their solutions and pseudo-solutions, and the rank descent.

A pseudo-solution assigns an equivalence class to each unknown so that the
two sides, evaluated as set products of classes, share a word. descend
turns any valid pseudo-solution into an ordinary solution over the class
alphabet of its pseudo-free hull whose rank equals the pseudo-rank; the
bounded certificate checks that instance property across an exhaustive
enumeration.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .anticongruence import Anticongruence, EqClass, Identity
from .freeness import Letters, hull_letters, rank
from .pseudo import PseudoFreeBasis, class_reps
from .words import (
    DEFAULT_PRODUCT_LIMIT,
    Alphabet,
    FiniteLanguage,
    ProductLimitExceeded,
    Word,
    WordEqError,
    _guard_error,
    _join,
    _side_words,
    least_factorization,
    letters_over,
)


class EquationSyntaxError(WordEqError):
    """Equation text does not match the grammar."""


class MissingImage(WordEqError):
    """An unknown of the equation has no assigned image."""


class InvalidPseudoSolution(WordEqError):
    """The side languages of a candidate pseudo-solution do not intersect."""


class DescentFailed(WordEqError):
    """The descended morphism violates a property it is guaranteed to have."""


class BudgetExceeded(WordEqError):
    """Enumeration ran out of its assignment budget."""

    def __init__(self, message: str, examined: int, emitted: int):
        super().__init__(message)
        self.examined = examined
        self.emitted = emitted


@dataclass(frozen=True, slots=True)
class Equation:
    """A pair of sides over an alphabet of unknowns."""

    unknowns: Alphabet
    lhs: Word
    rhs: Word

    def __post_init__(self) -> None:
        if self.lhs.alphabet != self.unknowns or self.rhs.alphabet != self.unknowns:
            raise ValueError("equation sides must be words over the unknowns alphabet")

    def __str__(self) -> str:
        syms = self.unknowns.symbols
        left = " ".join(syms[i] for i in self.lhs.letters)
        right = " ".join(syms[i] for i in self.rhs.letters)
        return f"{left} = {right}"

    def occurrence_names(self) -> tuple[list[str], list[str]]:
        syms = self.unknowns.symbols
        return (
            [syms[i] for i in self.lhs.letters],
            [syms[i] for i in self.rhs.letters],
        )


def parse_equation(text: str) -> Equation:
    """Parse "x y = y x" style equation text.

    Tokens are whitespace separated; an unknown may carry a positive
    exponent of ASCII digits as in x^2, expanded to repeated occurrences.
    A side may expand to at most DEFAULT_PRODUCT_LIMIT occurrences.
    The unknowns alphabet lists unknowns in order of first occurrence.
    """
    tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
    eq_positions = [i for i, (tok, _) in enumerate(tokens) if tok == "="]
    if len(eq_positions) != 1:
        raise EquationSyntaxError(f"expected exactly one '=' in {text!r}")
    cut = eq_positions[0]
    if cut == 0 or cut == len(tokens) - 1:
        raise EquationSyntaxError("both sides of the equation must be non-empty")

    names: list[str] = []

    def expand(side_tokens: list[tuple[str, int]]) -> list[str]:
        occs: list[str] = []
        for tok, pos in side_tokens:
            if "^" in tok:
                base, _, exp_text = tok.partition("^")
                if not base:
                    raise EquationSyntaxError(f"missing unknown before '^' at column {pos}")
                if not re.fullmatch(r"[0-9]+", exp_text):  # str.isdigit() admits ² and ٣
                    raise EquationSyntaxError(f"bad exponent {exp_text!r} at column {pos}")
                digits = exp_text.lstrip("0")
                if not digits:
                    raise EquationSyntaxError(f"zero exponent at column {pos}")
                # more digits than the bound has is over it; int() is not
                # asked, as it refuses past 4,300 digits
                too_many = len(digits) > len(str(DEFAULT_PRODUCT_LIMIT))
                exp = DEFAULT_PRODUCT_LIMIT + 1 if too_many else int(digits)
            else:
                base, exp = tok, 1
            if "=" in base:
                raise EquationSyntaxError(f"malformed token {tok!r} at column {pos}")
            if len(occs) + exp > DEFAULT_PRODUCT_LIMIT:
                raise EquationSyntaxError(
                    f"side expands past {DEFAULT_PRODUCT_LIMIT} occurrences at column {pos}"
                )
            if base not in names:
                names.append(base)
            occs.extend([base] * exp)
        return occs

    lhs_names = expand(tokens[:cut])
    rhs_names = expand(tokens[cut + 1 :])
    theta = Alphabet(names)
    return Equation(theta, theta.word(lhs_names), theta.word(rhs_names))


class Solution:
    """Assignment of a word image to each unknown; wants substituted sides equal."""

    def __init__(self, images: Mapping[str, Word]):
        self.images = dict(images)

    def __getitem__(self, name: str) -> Word:
        return self.images[name]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Solution) and self.images == other.images

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}->{w}" for x, w in sorted(self.images.items()))
        return f"Solution({inner})"


class PseudoSolution:
    """Assignment of an equivalence class to each unknown, all under one relation."""

    def __init__(self, rel: Anticongruence, images: Mapping[str, EqClass]):
        self.rel = rel
        self.images = dict(images)
        for c in self.images.values():
            if c.rel is not rel:
                raise ValueError("image class from a different relation")

    def __getitem__(self, name: str) -> EqClass:
        return self.images[name]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PseudoSolution)
            and self.rel is other.rel
            and self.images == other.images
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}->{c}" for x, c in sorted(self.images.items()))
        return f"PseudoSolution({inner})"


def check_solution(e: Equation, phi: Solution) -> bool:
    """Whether substituting the images makes the two sides the same word;
    images over two alphabets raise AlphabetMismatch, as solution_rank does."""
    letters_over(phi.images.values())
    for name in e.unknowns.symbols:
        if name not in phi.images:
            raise MissingImage(f"no image for unknown {name}")
    images = [phi.images[name].letters for name in e.unknowns.symbols]
    return _join(map(images.__getitem__, e.lhs.letters)) == _join(map(images.__getitem__, e.rhs.letters))


def solution_rank(phi: Solution) -> int:
    """Rank of the image set, the size of its free hull basis."""
    return rank(phi.images.values())


@dataclass(frozen=True)
class PseudoVerdict:
    """check_pseudo_solution outcome: the sides' least common word and each side's
    sorted class members per occurrence, from which its language is built when read."""

    common: Optional[Word]
    alphabet: Alphabet
    lhs_classes: tuple[tuple[Letters, ...], ...]
    rhs_classes: tuple[tuple[Letters, ...], ...]

    @property
    def valid(self) -> bool:
        return self.common is not None

    @functools.cached_property
    def lhs_language(self) -> FiniteLanguage:
        return FiniteLanguage(self.alphabet, tuple(_side_words(self.lhs_classes)))

    @functools.cached_property
    def rhs_language(self) -> FiniteLanguage:
        return FiniteLanguage(self.alphabet, tuple(_side_words(self.rhs_classes)))


def _require_limit(limit: int) -> None:
    """The product limit rule: below 1 no side fits, so such a limit is
    rejected before any work, the same way by every function that takes one."""
    if limit < 1:
        raise ValueError(f"product limit must be at least 1, got {limit}")


def _least_common(
    side: Sequence[tuple[Letters, ...]], other: Sequence[tuple[Letters, ...]]
) -> Optional[Letters]:
    """The least word in both products of classes, None when they share no word.

    A class is given as its sorted members, all of one length. The side
    with the smaller product of class sizes is walked depth first, its
    members in order, and a partial word is dropped as soon as its piece
    under a block of the other side lies outside that block's class. So
    the first word to clear every cut is the least common one, and the walk
    holds one partial word and one place in each class. Callers check the
    product guard first.
    """
    p_side, p_other = math.prod(map(len, side)), math.prod(map(len, other))
    if p_other < p_side:
        side, other, p_other = other, side, p_side
    if p_other == 1:  # one word on each side
        word = _join(c[0] for c in side)
        return word if word == _join(c[0] for c in other) else None
    stops = [*itertools.accumulate((len(c[0]) for c in side), initial=0)]
    ends = [*itertools.accumulate((len(c[0]) for c in other), initial=0)]
    if stops[-1] != ends[-1]:
        return None
    # first[i]: the first block of other to end after stops[i], so blocks
    # first[i] to first[i + 1] - 1 are those that end within class i
    first = [bisect.bisect_right(ends, s) - 1 for s in stops]
    word: list[int] = []  # word[: stops[i]] cleared the cuts of classes 0..i-1
    untried = [iter(side[0])]  # untried[i]: the members of class i not yet tried
    while untried:
        i = len(untried) - 1
        for v in untried[i]:
            del word[stops[i] :]
            word += v
            for j in range(first[i], first[i + 1]):
                if tuple(word[ends[j] : ends[j + 1]]) not in other[j]:
                    break
            else:  # on to the next class
                if i + 1 == len(side):
                    return tuple(word)
                untried.append(iter(side[i + 1]))
                break
        else:  # class i is spent: back to the previous class
            untried.pop()
    return None


def _side_classes(
    side: Word, unknowns: Alphabet, psol: PseudoSolution, limit: int
) -> tuple[tuple[Letters, ...], ...]:
    """The sorted class members of each occurrence on a side, in order. The
    first occurrence with no image, or that takes the product of class sizes
    over limit, raises MissingImage or _guard_error's ProductLimitExceeded."""
    syms, images, class_letters = unknowns.symbols, psol.images, psol.rel.class_letters
    out: list[tuple[Letters, ...]] = []
    acc = 1
    for i in side.letters:
        c = images.get(syms[i])
        if c is None:
            raise MissingImage(f"no image for unknown {syms[i]}")
        m = class_letters(c.rep.letters)
        out.append(m)
        acc *= len(m)
        if acc > limit:
            raise _guard_error([len(m) for m in out], limit)
    return tuple(out)


def check_pseudo_solution(
    e: Equation, psol: PseudoSolution, limit: int = DEFAULT_PRODUCT_LIMIT
) -> PseudoVerdict:
    """Whether the two sides share a word: a limit below 1 raises ValueError,
    an image over another alphabet AlphabetMismatch, then the left side's
    classes, the right side's and their least common word are read."""
    _require_limit(limit)
    rel = psol.rel
    rel._check(*(c.rep for c in psol.images.values()))
    lhs = _side_classes(e.lhs, e.unknowns, psol, limit)
    rhs = _side_classes(e.rhs, e.unknowns, psol, limit)
    common = _least_common(lhs, rhs)
    return PseudoVerdict(None if common is None else Word(rel.alphabet, common), rel.alphabet, lhs, rhs)


@dataclass(frozen=True, slots=True)
class DescentResult:
    """Ordinary solution over the class alphabet produced from a pseudo-solution."""

    class_alphabet: Alphabet
    solution: Solution
    hull: PseudoFreeBasis
    common: Word

    def pseudo_rank(self) -> int:
        return self.hull.pseudo_rank()

    def solution_rank(self) -> int:
        return solution_rank(self.solution)


def _class_symbols(classes: Sequence[EqClass]) -> list[str]:
    """One symbol per class, [rep]; colliding names get their basis index appended."""
    names = []
    for c in classes:
        syms = c.rep.alphabet.symbols
        sep = "·" if c.rep.alphabet.sep else ""
        names.append("[" + sep.join(syms[i] for i in c.rep.letters) + "]")
    if len(set(names)) < len(names):
        # multi-character symbols can join to the same name, as a, b·c and a·b, c
        repeated = {n for n in names if names.count(n) > 1}
        names = [f"{n}#{i}" if n in repeated else n for i, n in enumerate(names)]
    return names


class _Hulls(NamedTuple):
    """One relation's hull cache, keyed by sorted letter tuples, and its
    class-index cache (_class_index), keyed by hull bases."""

    rel: Anticongruence
    hull: Callable[[tuple[Letters, ...]], tuple[Letters, ...]]
    index: Callable[[tuple[Letters, ...]], tuple]


def _new_hulls(rel: Anticongruence) -> _Hulls:
    # descents and certificate ranks repeat hulls and their indexes within a
    # run, so the last 16,384 hulls and 256 indexes are kept
    return _Hulls(
        rel,
        functools.lru_cache(maxsize=1 << 14)(functools.partial(hull_letters, rel)),
        functools.lru_cache(maxsize=256)(functools.partial(_class_index, rel)),
    )


def _hulls(rel: Anticongruence) -> _Hulls:
    """rel's hull caches: for an identity the process-wide pair, else a new
    pair that goes with its caller, so no finished relation stays cached."""
    return _IDENTITY_HULLS if isinstance(rel, Identity) else _new_hulls(rel)


def _hull(hulls: _Hulls, words: set[Letters]) -> tuple[Letters, ...]:
    """The cached hull of words, keyed by their sorted tuple: a frozenset of a
    few words takes 216 bytes, the tuple about a third of that."""
    return hulls.hull(tuple(sorted(words)))


def _class_index(
    rel: Anticongruence, basis: tuple[Letters, ...]
) -> tuple[tuple[Letters, ...], dict[Letters, int], list[int], dict[Letters, tuple[int, ...]]]:
    """A hull basis's class representatives, the class index of each basis word,
    the basis word lengths, and an empty map that _descent fills with the
    class-index word of each image it factors over the basis."""
    reps = tuple(class_reps(rel, basis))
    rep_index = {r: i for i, r in enumerate(reps)}
    class_index = {b: rep_index[rel.class_letters(b)[0]] for b in basis}
    return reps, class_index, sorted({len(b) for b in basis}), {}


# An identity's hull reads only letter tuples, so one pair of caches, keyed by
# them alone, serves the identity over every alphabet: the ordinary ranks, the
# class-index ranks and the descents under an identity hit it across runs.
_IDENTITY_HULLS = _new_hulls(Identity(Alphabet(("[·]",))))


def _descent(
    e: Equation, hulls: _Hulls, images: Sequence[Letters]
) -> tuple[tuple[Letters, ...], tuple[Letters, ...], list[tuple[int, ...]], Optional[str]]:
    """descend's letter work on the unknowns' images (representatives, in unknown order)
    whose sides share a word, under hulls.rel: the hull basis, its class representatives
    and each image as class indices, the last two read from the hull's cached index,
    and the failure: None, or why the class-index words do not solve e or their rank
    is not the pseudo-rank. Every image factors: the basis generates its class members.
    A hull that cannot be class-closed raises NotClassClosed."""
    members = {m for w in images for m in hulls.rel.class_letters(w)}
    members.discard(())
    basis = _hull(hulls, members)
    reps, class_index, lengths, factored = hulls.index(basis)
    out = []
    for w in images:
        found = factored.get(w)
        if found is None:
            found = factored[w] = tuple(class_index[b] for b in least_factorization(w, class_index, lengths))
        out.append(found)
    if _join(map(out.__getitem__, e.lhs.letters)) != _join(map(out.__getitem__, e.rhs.letters)):
        return basis, reps, out, f"descended morphism does not solve {e}"
    r = len(_hull(_IDENTITY_HULLS, {w for w in out if w}))
    failure = None if r == len(reps) else f"descended rank {r} differs from pseudo-rank {len(reps)}"
    return basis, reps, out, failure


def descend(
    e: Equation, psol: PseudoSolution, limit: int = DEFAULT_PRODUCT_LIMIT
) -> DescentResult:
    """Turn a valid pseudo-solution into an ordinary solution over class names.

    Takes the pseudo-free hull of the unknowns' image class members, factorizes each
    image representative over its basis (one walk, the basis is a code),
    and reads the factors' classes as letters of the hull's class
    alphabet. check_pseudo_solution decides first, with its errors, and
    disjoint sides raise InvalidPseudoSolution; DescentFailed is raised
    unless the result solves the equation and its rank equals the number
    of hull classes. The work runs on letter tuples; Word, EqClass and
    Alphabet objects are built only for the result.
    """
    verdict = check_pseudo_solution(e, psol, limit)
    if not verdict.valid:
        raise InvalidPseudoSolution(f"side languages are disjoint for {psol!r}")
    syms = e.unknowns.symbols
    for name in syms:  # one on neither side escapes check_pseudo_solution
        if name not in psol.images:
            raise MissingImage(f"no image for unknown {name}")
    basis, reps, images, failure = _descent(e, _hulls(psol.rel), [psol.images[x].rep.letters for x in syms])
    if failure is not None:
        raise DescentFailed(failure)
    hull = PseudoFreeBasis.of_letters(psol.rel, basis, reps)
    if hull.classes:
        class_alphabet = Alphabet(_class_symbols(hull.classes))
    else:
        class_alphabet = Alphabet(("[·]",))  # all images ε; one unused symbol
    alpha = Solution({x: Word(class_alphabet, w) for x, w in zip(syms, images)})
    return DescentResult(class_alphabet, alpha, hull, verdict.common)


def _representatives(
    rel: Anticongruence, max_len: int, budget: Optional[int]
) -> tuple[list[Letters], list[tuple[Letters, ...]]]:
    """Shortlex canonical representatives of rel up to max_len and their sorted class members.

    Stops after budget + 1 classes: with that many the budget already runs
    out among the assignments that differ from the first one only in the
    last unknown, and no assignment past them is examined.
    """
    k = len(rel.alphabet)
    words: list[Letters] = []
    members: list[tuple[Letters, ...]] = []
    for n in range(max_len + 1):
        for w in itertools.product(range(k), repeat=n):
            m = rel.class_letters(w)
            if m[0] == w:
                words.append(w)
                members.append(m)
                if budget is not None and len(words) > budget:
                    return words, members
    return words, members


Window = tuple[int, int]  # a piece [a, b) of an occurrence


@functools.lru_cache(maxsize=256)
def _cut_plans(lhs: Letters, rhs: Letters, domains: tuple[tuple[int, ...], ...]) -> tuple:
    """Each vector of unknown lengths, unknown u's drawn from the sorted
    domains[u], that balances the sides lhs and rhs, in lexicographic order,
    with its cuts.

    The occurrence boundaries of both sides cut the word into segments, and
    each segment lies under one occurrence on each side. Per unknown, the
    cuts hold the pairs of its own windows that lie under one segment, and
    a (window, earlier unknown, its window) for each segment it shares with
    an earlier unknown. Cached because both phases of a certificate without
    a budget walk the same vectors, and runs repeat small plans; a budget
    gives each phase its own domains, so budgeted phases may not share an
    entry. _plans keeps the large lists out of the cache.
    """
    n = len(domains)
    out = []
    for vec in itertools.product(*domains):
        ends_l = [*itertools.accumulate(map(vec.__getitem__, lhs), initial=0)]
        ends_r = [*itertools.accumulate(map(vec.__getitem__, rhs), initial=0)]
        end = ends_l[-1]
        if end != ends_r[-1]:
            continue
        cuts: list[tuple[dict, dict]] = [({}, {}) for _ in range(n)]
        i = j = a = 0
        while a < end:
            while ends_l[i + 1] <= a:  # skip the occurrences of length 0
                i += 1
            while ends_r[j + 1] <= a:
                j += 1
            b = min(ends_l[i + 1], ends_r[j + 1])
            u, wu = lhs[i], (a - ends_l[i], b - ends_l[i])
            v, wv = rhs[j], (a - ends_r[j], b - ends_r[j])
            if (u, wu) > (v, wv):
                u, wu, v, wv = v, wv, u, wu
            if u != v:
                cuts[v][1][wv, u, wu] = None
            elif wu != wv:
                cuts[u][0][wu, wv] = None
            a = b
        out.append((vec, tuple((tuple(own), tuple(shared)) for own, shared in cuts)))
    return tuple(out)


_CACHED_PLANS = 1 << 10  # most vectors a plan list may hold to enter _cut_plans's cache


def _plans(lhs: Letters, rhs: Letters, domains: tuple[tuple[int, ...], ...], own: dict) -> tuple:
    """_cut_plans of domains. A list that may hold more than _CACHED_PLANS
    vectors is kept in own, keyed by domains, instead of the process-wide
    cache: the two walks of one certificate still build it once, and it
    goes with their search."""
    if math.prod(map(len, domains)) <= _CACHED_PLANS:
        return _cut_plans(lhs, rhs, domains)
    found = own.get(domains)
    if found is None:
        found = own[domains] = _cut_plans.__wrapped__(lhs, rhs, domains)
    return found


def enumerate_pseudo_solutions(
    e: Equation,
    rel: Anticongruence,
    max_len: int,
    budget: Optional[int] = None,
    limit: int = DEFAULT_PRODUCT_LIMIT,
) -> Iterator[PseudoSolution]:
    """All valid pseudo-solutions with representatives up to max_len.

    Assignments run in lexicographic order over the shortlex canonical
    representatives, one class per representative, unknowns in declaration
    order. The walk takes one vector of unknown lengths that balances the
    two sides at a time and cuts both sides at their occurrence boundaries
    (_cut_plans). A word in both side products has one piece on each
    segment between cuts, and that piece is a piece of a class member of
    both of the segment's owners. So once both owners are assigned, the
    classes of their members' pieces must meet; under an anticongruence
    the pieces of one class's members lie in one class. Each unknown's
    candidates are read from an index of the representatives of its length
    keyed by those piece classes, and every leaf is decided exactly by
    _least_common, unless every class has one member: then the piece
    classes are the pieces, each segment's two pieces are equal once both
    owners are assigned, and every leaf is a solution, so none is checked
    again. The walk keeps one iterator of untried candidates per
    unknown on a stack, and the solutions of all vectors are merged in
    lexicographic order.

    The assignment of indices t is number Σ t_u·R^(n−1−u), counted from 0,
    where R is the number of representatives. One stop, fixed before the
    walk, holds for every vector: budget, or the first length-balanced
    assignment with a side whose product of class sizes is over limit if
    that comes first, whether or not the cuts prune it. The budget counts
    the assignments skipped for their lengths too, and an unknown takes
    only the lengths whose first representative keeps it below budget.
    Only the assignments below the stop are tested; the trip then raises
    ProductLimitExceeded, and a spent budget BudgetExceeded with progress
    counts. Word and EqClass objects are built only for emitted solutions.
    A limit below 1 raises ValueError on the first next(), before any
    representative is built.
    """
    _require_limit(limit)
    walk = _walk(e, rel, max_len, budget, limit, {})
    emitted = 0
    for found in walk.found:
        emitted += 1
        yield walk.solution(found)
    if walk.trip is not None:
        raise walk.trip
    if walk.spent is not None:
        raise walk.spent(emitted)


class _Walk(NamedTuple):
    """A pseudo walk whose stop is fixed before it walks: found yields each
    solution's indices into reps, the representatives' letter tuples, in
    order, and solution builds a PseudoSolution from them. trip is the
    guard error that ends the walk when the guard stops it first, and
    spent(emitted) the BudgetExceeded that ends it when the budget does."""

    found: Iterator[tuple[int, ...]]
    reps: list[Letters]
    solution: Callable[[tuple[int, ...]], PseudoSolution]
    trip: Optional[ProductLimitExceeded]
    spent: Optional[Callable[[int], BudgetExceeded]]


def _unstopped(walk: _Walk) -> _Walk:
    """walk, unless a stop ends it: a guard trip raises at once, a spent
    budget once the walk has counted what it would emit."""
    if walk.trip is not None:
        raise walk.trip
    if walk.spent is not None:
        raise walk.spent(sum(1 for _ in walk.found))
    return walk


def _walk(
    e: Equation, rel: Anticongruence, max_len: int, budget: Optional[int], limit: int, plans: dict
) -> _Walk:
    """enumerate_pseudo_solutions's set-up and walk, for a limit of at least 1;
    plans keeps the plan lists too large for _cut_plans's cache (_plans)."""
    names = e.unknowns.symbols
    n = len(names)
    lhs, rhs = e.lhs.letters, e.rhs.letters
    words, members = _representatives(rel, max_len, budget)
    if not words:  # max_len < 0: no representatives
        return _Walk(iter(()), words, PseudoSolution, None, None)
    n_reps = len(words)
    sizes = [len(m) for m in members]
    exact = max(sizes) == 1  # the cuts alone decide each leaf (see the docstring)
    spans: dict[int, list[int]] = {}  # length -> its representatives, in order
    for i, w in enumerate(words):
        spans.setdefault(len(w), []).append(i)
    top = {length: max(sizes[x] for x in span) for length, span in spans.items()}
    weights = [n_reps ** (n - 1 - u) for u in range(n)]
    total = n_reps**n
    bound = total if budget is None else max(min(budget, total), 0)
    counts = [(lhs.count(u), rhs.count(u)) for u in range(n)]
    guarded = max(top.values()) ** max(len(lhs), len(rhs)) > limit
    piece_rows: dict[Window, list] = {}

    def piece_classes(x: int, w: Window) -> tuple[Letters, ...]:
        # the classes (least members) of the pieces at w of the members of x's class
        row = piece_rows.get(w)
        if row is None:
            row = piece_rows[w] = [None] * n_reps
        found = row[x]
        if found is None:
            a, b = w
            found = row[x] = tuple({rel.class_letters(m[a:b])[0] for m in members[x]})
        return found

    @functools.cache
    def index(length: int, w: Window) -> dict[Letters, list[int]]:
        # the representatives of length, in order, under each class of their pieces at w
        found: dict[Letters, list[int]] = {}
        for x in spans[length]:
            for k in piece_classes(x, w):
                found.setdefault(k, []).append(x)
        return found

    @functools.cache
    def step(length: int, own: tuple, shared: tuple) -> tuple:
        # an unknown's representatives, the set of those whose own windows
        # meet (None when it has none) and its (index, earlier unknown, window)
        span = spans[length]
        fit = None
        if own:
            fit = {x for x in span if all(
                set(piece_classes(x, w1)).intersection(piece_classes(x, w2)) for w1, w2 in own)}
        return span, fit, [(index(length, w), u, wu) for w, u, wu in shared]

    def trip(vec: tuple[int, ...]) -> Optional[tuple[int, list[int]]]:
        # the number and indices of the first assignment of lengths vec with a
        # side over the guard, if any. rest[d] holds the largest side products
        # of the unknowns from d on, so some completion of a prefix goes over
        # the guard exactly when it does with rest, and the least index that
        # still allows one is the first assignment's at every depth
        rest = [(1, 1)] * (n + 1)
        for d in reversed(range(n)):
            (c_l, c_r), m = counts[d], top[vec[d]]
            rest[d] = (rest[d + 1][0] * m**c_l, rest[d + 1][1] * m**c_r)
        if max(rest[0]) <= limit:
            return None
        number, t, p_l, p_r = 0, [], 1, 1
        for d in range(n):
            (c_l, c_r), (r_l, r_r) = counts[d], rest[d + 1]
            for x in spans[vec[d]]:
                q_l, q_r = p_l * sizes[x] ** c_l, p_r * sizes[x] ** c_r
                if q_l * r_l > limit or q_r * r_r > limit:
                    break
            number, p_l, p_r = number + x * weights[d], q_l, q_r
            t.append(x)
        return number, t

    def solutions(plan: list, stop: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        # (number, indices) of a vector's pseudo-solutions numbered below stop,
        # in order. untried[d] holds unknown d's candidates not yet tried,
        # at[d] the number of indices before d
        t, at = [0] * n, [0] * (n + 1)

        def candidates(d: int) -> Iterator[int]:
            span, fit, shared = plan[d]
            cands = span
            for table, u, wu in shared:
                ks = piece_classes(t[u], wu)
                if len(ks) == 1:
                    found = table.get(ks[0], ())
                else:
                    found = sorted(set().union(*(table.get(k, ()) for k in ks)))
                if cands is not span:
                    keep = set(found)
                    found = [x for x in cands if x in keep]
                cands = found
            if fit is not None:
                cands = [x for x in cands if x in fit]
            if cands and at[d] + cands[-1] * weights[d] >= stop:
                cands = cands[: bisect.bisect_left(cands, -(-(stop - at[d]) // weights[d]))]
            return iter(cands)

        untried = [candidates(0)]
        while untried:
            d = len(untried) - 1
            for x in untried[d]:
                t[d], at[d + 1] = x, at[d] + x * weights[d]
                if d + 1 < n:  # on to the next unknown
                    untried.append(candidates(d + 1))
                    break
                if exact or _least_common([members[t[u]] for u in lhs], [members[t[u]] for u in rhs]) is not None:
                    yield at[n], tuple(t)
            else:  # unknown d is spent: back to the previous one
                untried.pop()

    # every assignment giving u length k is numbered at least spans[k][0] * weights[u]
    domains = tuple(tuple(k for k in sorted(spans) if spans[k][0] * weights[u] < bound) for u in range(n))
    vectors = _plans(lhs, rhs, domains, plans)
    first = min((found for vec, _ in vectors if guarded and (found := trip(vec))), default=None)
    stop = bound if first is None else min(first[0], bound)

    def walked() -> Iterator[tuple[int, ...]]:
        # set up on the first next(), so a walk that a stop ends first sets up no stream
        streams = [solutions([step(k, *cut) for k, cut in zip(vec, cuts)], stop) for vec, cuts in vectors]
        # no two assignments share a number, so the merge never compares indices
        for _, t in heapq.merge(*streams):
            yield t

    @functools.cache
    def eq_class(i: int) -> EqClass:
        return EqClass(rel, Word(rel.alphabet, words[i]))

    def solution(found: tuple[int, ...]) -> PseudoSolution:
        return PseudoSolution(rel, {name: eq_class(i) for name, i in zip(names, found)})

    tripped = spent = None
    if stop < bound:
        t = first[1]
        side = lhs if math.prod(sizes[t[u]] for u in lhs) > limit else rhs
        tripped = _guard_error([sizes[t[u]] for u in side], limit)
    elif bound < total:
        spent = functools.partial(BudgetExceeded, f"assignment budget {budget} exceeded", bound)
    return _Walk(walked(), words, solution, tripped, spent)


@dataclass(frozen=True, slots=True)
class RankCertificate:
    """Bounded-search report: rank maxima with witnesses, plus the descent check.

    Maxima are lower bounds for the true equation ranks at the stated
    length bound, never claims of exact rank. descent_failures is empty
    exactly when every found pseudo-solution descends to a solution whose
    rank equals its pseudo-rank.
    """

    max_len: int
    ordinary_count: int
    max_ordinary_rank: int
    ordinary_witness: Optional[Solution]
    pseudo_count: int
    max_pseudo_rank: int
    pseudo_witness: Optional[PseudoSolution]
    pseudo_solutions: tuple[PseudoSolution, ...]
    pseudo_ranks: tuple[int, ...]
    descent_failures: tuple[str, ...]

    @property
    def descent_ok(self) -> bool:
        return not self.descent_failures


_WALK_AHEAD = 256  # most solutions a certificate's walk finds before it descends them


class CertificateRows:
    """A bounded rank certificate's rows, (pseudo-solution, pseudo-rank) in
    enumeration order, streamed once, with running tallies.

    Ordinary solutions are enumerated under the identity relation on
    rel's alphabet; pseudo-solutions under rel, by the same walk when rel
    is that identity. The search decides how it ends before anything is
    ranked: both walks fix their stops before they walk, and _unstopped
    raises the ordinary walk's stop (unless the pseudo walk is that walk),
    then the pseudo walk's. A guard trip raises ProductLimitExceeded at
    once; a spent budget walks only to count what it would emit, then
    raises BudgetExceeded. Only then are the ordinary solutions ranked,
    all before the first row, on the walk's letter tuples, until one
    reaches the defect bound: n − 1 for n unknowns, n when the two sides
    are one word. No solution ranks above it, so the rest are only counted.
    Every row has sides within limit that share a word, so it descends
    without that check or result objects (_descent): a failure is recorded
    with the pseudo-rank, and a hull that cannot be class-closed raises
    NotClassClosed, as descend does. The maxima are lower
    bounds of the true ranks; the witnesses are the first solutions
    attaining them in enumeration order. The tallies are final once the
    rows have ended. A limit below 1 raises ValueError.
    """

    __slots__ = (
        "ordinary_count", "max_ordinary_rank", "ordinary_witness", "pseudo_count",
        "max_pseudo_rank", "pseudo_witness", "descent_failures", "_rows",
    )

    def __init__(
        self,
        e: Equation,
        rel: Anticongruence,
        max_len: int,
        budget: Optional[int] = None,
        limit: int = DEFAULT_PRODUCT_LIMIT,
    ):
        _require_limit(limit)
        self.ordinary_count = self.max_ordinary_rank = 0
        self.ordinary_witness: Optional[Solution] = None
        self.pseudo_count = self.max_pseudo_rank = 0
        self.pseudo_witness: Optional[PseudoSolution] = None
        self.descent_failures: list[str] = []
        identity = Identity(rel.alphabet)
        # under the identity the pseudo phase would repeat the ordinary walk, and
        # an identity walk stops only for a spent budget: its classes have one member
        reuse = rel == identity
        plans: dict = {}  # the plan lists too large for _cut_plans's cache, shared by both walks
        ordinary = None if reuse else _unstopped(_walk(e, identity, max_len, budget, limit, plans))
        walk = _unstopped(_walk(e, rel, max_len, budget, limit, plans))
        if ordinary is not None:
            reps = ordinary.reps
            # the defect bound: n distinct nonempty images of rank n form a
            # code, which solves only an equation whose sides are one word
            cap = len(e.unknowns) - (e.lhs != e.rhs)
            for t in ordinary.found:
                if self.ordinary_witness is not None and self.max_ordinary_rank >= cap:
                    self.ordinary_count += 1 + sum(1 for _ in ordinary.found)
                    break
                # solution_rank of the representatives, on their letter tuples
                self._ordinary(ordinary, t, len(_hull(_IDENTITY_HULLS, {reps[i] for i in t} - {()})))
        # the hulls under rel go with the rows; identity hulls are shared
        self._rows = self._stream(e, _hulls(rel), walk, reuse)

    def __iter__(self) -> Iterator[tuple[PseudoSolution, int]]:
        return self._rows

    def _ordinary(self, walk: _Walk, t: tuple[int, ...], r: int) -> None:
        self.ordinary_count += 1
        if self.ordinary_witness is None or r > self.max_ordinary_rank:
            self.max_ordinary_rank = r
            self.ordinary_witness = Solution({x: c.rep for x, c in walk.solution(t).images.items()})

    def _stream(
        self, e: Equation, hulls: _Hulls, walk: _Walk, reuse: bool
    ) -> Iterator[tuple[PseudoSolution, int]]:
        # the walk runs ahead by up to _WALK_AHEAD solutions, which are then
        # descended in turn: a walk step between every two descents is slower
        for ahead in iter(lambda: [*itertools.islice(walk.found, _WALK_AHEAD)], []):
            for t in ahead:
                psol = walk.solution(t)
                _, reps, _, failure = _descent(e, hulls, [walk.reps[i] for i in t])
                if failure is not None:
                    self.descent_failures.append(f"{psol!r}: {failure}")
                pr = len(reps)
                if reuse:
                    # under the identity each class is its representative, so
                    # the pseudo-rank is the rank of the representatives
                    self._ordinary(walk, t, pr)
                self.pseudo_count += 1
                if self.pseudo_witness is None or pr > self.max_pseudo_rank:
                    self.max_pseudo_rank = pr
                    self.pseudo_witness = psol
                yield psol, pr


def bounded_rank_certificate(
    e: Equation,
    rel: Anticongruence,
    max_len: int,
    budget: Optional[int] = None,
    limit: int = DEFAULT_PRODUCT_LIMIT,
) -> RankCertificate:
    """Exhaustive bounded search for ordinary and pseudo rank lower bounds:
    the rows of CertificateRows and its final tallies."""
    rows = CertificateRows(e, rel, max_len, budget=budget, limit=limit)
    solutions: list[PseudoSolution] = []
    ranks: list[int] = []
    for psol, pr in rows:
        solutions.append(psol)
        ranks.append(pr)
    return RankCertificate(
        max_len=max_len,
        ordinary_count=rows.ordinary_count,
        max_ordinary_rank=rows.max_ordinary_rank,
        ordinary_witness=rows.ordinary_witness,
        pseudo_count=rows.pseudo_count,
        max_pseudo_rank=rows.max_pseudo_rank,
        pseudo_witness=rows.pseudo_witness,
        pseudo_solutions=tuple(solutions),
        pseudo_ranks=tuple(ranks),
        descent_failures=tuple(rows.descent_failures),
    )

