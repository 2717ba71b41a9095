"""Word equations, their solutions and pseudo-solutions, and the rank descent.

A pseudo-solution assigns an equivalence class to each unknown so that the
two sides, evaluated as set products of classes, share a word. descend
turns any valid pseudo-solution into an ordinary solution over the class
alphabet of its pseudo-free hull whose rank equals the pseudo-rank; the
bounded certificate checks that instance property across an exhaustive
enumeration.
"""
from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .anticongruence import Anticongruence, EqClass, Identity
from .freeness import rank
from .pseudo import PseudoFreeBasis, class_factorization, pseudo_free_hull
from .words import (
    DEFAULT_PRODUCT_LIMIT,
    Alphabet,
    FiniteLanguage,
    Word,
    WordEqError,
    product_letters,
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


@dataclass(frozen=True)
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
    exponent as in x^2, which is expanded to repeated occurrences. The
    unknowns alphabet lists unknowns in order of first occurrence.
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
                if not exp_text.isdigit():
                    raise EquationSyntaxError(f"bad exponent {exp_text!r} at column {pos}")
                exp = int(exp_text)
                if exp == 0:
                    raise EquationSyntaxError(f"zero exponent at column {pos}")
            else:
                base, exp = tok, 1
            if "=" in base:
                raise EquationSyntaxError(f"malformed token {tok!r} at column {pos}")
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

    def union_members(self) -> frozenset[Word]:
        """All class members of all images, the word set whose hull is taken."""
        out: set[Word] = set()
        for c in self.images.values():
            out.update(c.members())
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PseudoSolution)
            and self.rel is other.rel
            and self.images == other.images
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}->{c}" for x, c in sorted(self.images.items()))
        return f"PseudoSolution({inner})"


def _substitute(side: Word, unknowns: Alphabet, images: Mapping[str, Word]) -> tuple[int, ...]:
    syms = unknowns.symbols
    letters: tuple[int, ...] = ()
    for i in side.letters:
        name = syms[i]
        if name not in images:
            raise MissingImage(f"no image for unknown {name}")
        letters += images[name].letters
    return letters


def check_solution(e: Equation, phi: Solution) -> bool:
    """Whether substituting the images makes the two sides the same word."""
    for name in e.unknowns.symbols:
        if name not in phi.images:
            raise MissingImage(f"no image for unknown {name}")
    return _substitute(e.lhs, e.unknowns, phi.images) == _substitute(
        e.rhs, e.unknowns, phi.images
    )


def solution_rank(phi: Solution) -> int:
    """Rank of the image set, the size of its free hull basis."""
    return rank(phi.images.values())


@dataclass(frozen=True)
class PseudoVerdict:
    """check_pseudo_solution outcome: the side languages and their least common word."""

    valid: bool
    common: Optional[Word]
    lhs_language: FiniteLanguage
    rhs_language: FiniteLanguage


def _side_letters(side: Word, unknowns: Alphabet, psol: PseudoSolution, limit: int) -> set[tuple]:
    syms = unknowns.symbols
    acc: set[tuple[int, ...]] = {()}
    for i in side.letters:
        name = syms[i]
        if name not in psol.images:
            raise MissingImage(f"no image for unknown {name}")
        acc = product_letters(acc, psol.rel.class_letters(psol.images[name].rep.letters), limit)
    return acc


def check_pseudo_solution(
    e: Equation, psol: PseudoSolution, limit: int = DEFAULT_PRODUCT_LIMIT
) -> PseudoVerdict:
    """Materialize both side languages and look for a shared word."""
    lhs = _side_letters(e.lhs, e.unknowns, psol, limit)
    rhs = _side_letters(e.rhs, e.unknowns, psol, limit)
    alphabet = psol.rel.alphabet
    common = lhs & rhs
    return PseudoVerdict(
        bool(common),
        Word(alphabet, min(common)) if common else None,
        FiniteLanguage.of_letters(alphabet, lhs),
        FiniteLanguage.of_letters(alphabet, rhs),
    )


def align_equivalent_sides(
    e: Equation, rel: Anticongruence, side_words: Sequence[Word]
) -> tuple[Word, ...]:
    """Re-cut equivalent sides into exactly equal ones.

    Takes one word per occurrence (left side first), requires same-unknown
    occurrences to be equivalent and the two concatenated sides to be
    equivalent, and returns the per-occurrence words with the right side
    re-cut from the left side's concatenation at the original lengths.
    """
    lhs_names, rhs_names = e.occurrence_names()
    n_l, n_r = len(lhs_names), len(rhs_names)
    if len(side_words) != n_l + n_r:
        raise ValueError(f"expected {n_l + n_r} occurrence words, got {len(side_words)}")
    if not side_words:
        return ()
    alphabet = side_words[0].alphabet
    all_names = lhs_names + rhs_names
    same_unknown_pairs = [
        (i, j)
        for i in range(len(all_names))
        for j in range(i + 1, len(all_names))
        if all_names[i] == all_names[j]
    ]
    for i, j in same_unknown_pairs:
        if not rel.equiv(side_words[i], side_words[j]):
            raise ValueError(
                f"occurrences {i} and {j} of {all_names[i]} carry non-equivalent words"
            )
    left = Word(alphabet, sum((w.letters for w in side_words[:n_l]), ()))
    right = Word(alphabet, sum((w.letters for w in side_words[n_l:]), ()))
    if len(left) != len(right) or not rel.equiv(left, right):
        raise ValueError("concatenated sides are not equivalent")

    out = list(side_words[:n_l])
    pos = 0
    for w in side_words[n_l:]:
        out.append(left[pos : pos + len(w)])
        pos += len(w)

    for i, j in same_unknown_pairs:
        if not rel.equiv(out[i], out[j]):
            raise WordEqError(
                "re-cut broke a same-unknown equivalence; "
                "the relation does not satisfy the cutting condition"
            )
    return tuple(out)


@dataclass(frozen=True)
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


def _class_symbol(c: EqClass) -> str:
    syms = c.rep.alphabet.symbols
    if all(len(s) == 1 for s in syms):
        body = "".join(syms[i] for i in c.rep.letters)
    else:
        body = "·".join(syms[i] for i in c.rep.letters)
    return f"[{body}]"


def descend(
    e: Equation, psol: PseudoSolution, limit: int = DEFAULT_PRODUCT_LIMIT
) -> DescentResult:
    """Turn a valid pseudo-solution into an ordinary solution over class names.

    Builds the pseudo-free hull of all image class members, factorizes each
    image representative into basis classes, and reads those sequences as
    words over the hull's class alphabet. The result is checked to solve
    the equation and to have rank equal to the number of hull classes.
    """
    verdict = check_pseudo_solution(e, psol, limit=limit)
    if not verdict.valid:
        raise InvalidPseudoSolution(f"side languages are disjoint for {psol!r}")
    hull = pseudo_free_hull(psol.rel, psol.union_members())
    if hull.classes:
        class_alphabet = Alphabet(_class_symbol(c) for c in hull.classes)
    else:
        class_alphabet = Alphabet(("[·]",))  # all images ε; one unused symbol
    index = {c: i for i, c in enumerate(hull.classes)}
    images = {}
    for name in e.unknowns.symbols:
        if name not in psol.images:
            raise MissingImage(f"no image for unknown {name}")
        cw = class_factorization(hull, psol.images[name].rep)
        images[name] = Word(class_alphabet, tuple(index[c] for c in cw))
    alpha = Solution(images)
    if not check_solution(e, alpha):
        raise DescentFailed(f"descended morphism does not solve {e}")
    if solution_rank(alpha) != len(hull.classes):
        raise DescentFailed(
            f"descended rank {solution_rank(alpha)} differs from pseudo-rank {len(hull.classes)}"
        )
    return DescentResult(class_alphabet, alpha, hull, verdict.common)


def canonical_representatives(rel: Anticongruence, max_len: int) -> list[Word]:
    """Shortlex list of the least member of every class with representatives up to max_len."""
    out = []
    for w in rel.alphabet.words_up_to(max_len):
        if rel.class_letters(w.letters)[0] == w.letters:
            out.append(w)
    return out


def enumerate_pseudo_solutions(
    e: Equation,
    rel: Anticongruence,
    max_len: int,
    budget: Optional[int] = None,
    limit: int = DEFAULT_PRODUCT_LIMIT,
) -> Iterator[PseudoSolution]:
    """All valid pseudo-solutions with representatives up to max_len.

    Assignments run in lexicographic order over shortlex candidate lists,
    one class per canonical representative, and are pruned by total side
    length before any product is materialized. budget caps the number of
    assignments examined; exceeding it raises BudgetExceeded with progress
    counts.
    """
    names = e.unknowns.symbols
    reps = canonical_representatives(rel, max_len)
    classes = [EqClass(rel, w) for w in reps]
    langs = [rel.class_letters(w.letters) for w in reps]
    lens = [len(w) for w in reps]
    name_pos = {n: i for i, n in enumerate(names)}
    lhs_names, rhs_names = e.occurrence_names()
    lhs_occ = [name_pos[n] for n in lhs_names]
    rhs_occ = [name_pos[n] for n in rhs_names]
    # equal occurrence multisets make the side lengths agree for every assignment
    balanced = sorted(lhs_occ) == sorted(rhs_occ)

    def occ_key(occ: list[int]):
        if not occ:
            return lambda a: ()
        if len(occ) == 1:
            i = occ[0]
            return lambda a: (a[i],)
        return operator.itemgetter(*occ)

    lhs_key = occ_key(lhs_occ)
    rhs_key = occ_key(rhs_occ)

    singletons = all(len(members) == 1 for members in langs)
    if singletons:
        # identity-like relation: side products are single words
        single = [members[0] for members in langs]
        word_memo: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}

        def side_word(cids: tuple[int, ...]) -> tuple[int, ...]:
            cached = word_memo.get(cids)
            if cached is None:
                cached = side_word(cids[:-1]) + single[cids[-1]]
                word_memo[cids] = cached
            return cached

    else:
        memo: dict[tuple[int, ...], set[tuple[int, ...]]] = {(): {()}}

        def side_language(cids: tuple[int, ...]) -> set[tuple[int, ...]]:
            cached = memo.get(cids)
            if cached is None:
                cached = product_letters(side_language(cids[:-1]), langs[cids[-1]], limit)
                memo[cids] = cached
            return cached

    examined = 0
    emitted = 0
    for assignment in itertools.product(range(len(reps)), repeat=len(names)):
        examined += 1
        if budget is not None and examined > budget:
            raise BudgetExceeded(f"assignment budget {budget} exceeded", examined - 1, emitted)
        if not balanced and sum(lens[assignment[i]] for i in lhs_occ) != sum(
            lens[assignment[i]] for i in rhs_occ
        ):
            continue
        if singletons:
            if side_word(lhs_key(assignment)) != side_word(rhs_key(assignment)):
                continue
        elif side_language(lhs_key(assignment)).isdisjoint(side_language(rhs_key(assignment))):
            continue
        emitted += 1
        yield PseudoSolution(rel, {n: classes[assignment[i]] for i, n in enumerate(names)})


@dataclass(frozen=True)
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


def bounded_rank_certificate(
    e: Equation,
    sigma: Alphabet,
    rel: Anticongruence,
    max_len: int,
    budget: Optional[int] = None,
    limit: int = DEFAULT_PRODUCT_LIMIT,
) -> RankCertificate:
    """Exhaustive bounded search for ordinary and pseudo rank lower bounds.

    Ordinary solutions are enumerated under the identity relation on
    sigma; pseudo-solutions under rel. For every pseudo-solution found,
    the descent is run and its rank equality recorded. The maxima are
    lower bounds of the true ranks; the witnesses are the first solutions
    attaining them in enumeration order.
    """
    identity = Identity(sigma)
    ordinary_count = 0
    max_ordinary = -1
    ordinary_witness: Optional[Solution] = None
    for psol in enumerate_pseudo_solutions(e, identity, max_len, budget=budget, limit=limit):
        sol = Solution({x: c.rep for x, c in psol.images.items()})
        ordinary_count += 1
        r = solution_rank(sol)
        if r > max_ordinary:
            max_ordinary = r
            ordinary_witness = sol

    pseudo_count = 0
    max_pseudo = -1
    pseudo_witness: Optional[PseudoSolution] = None
    solutions: list[PseudoSolution] = []
    ranks: list[int] = []
    failures: list[str] = []
    for psol in enumerate_pseudo_solutions(e, rel, max_len, budget=budget, limit=limit):
        pseudo_count += 1
        solutions.append(psol)
        try:
            result = descend(e, psol, limit=limit)
            pr = result.pseudo_rank()
            if result.solution_rank() != pr:
                failures.append(
                    f"{psol!r}: solution rank {result.solution_rank()} != pseudo-rank {pr}"
                )
        except WordEqError as exc:
            failures.append(f"{psol!r}: {exc}")
            pr = pseudo_free_hull(rel, psol.union_members()).pseudo_rank()
        ranks.append(pr)
        if pr > max_pseudo:
            max_pseudo = pr
            pseudo_witness = psol

    return RankCertificate(
        max_len=max_len,
        ordinary_count=ordinary_count,
        max_ordinary_rank=max(max_ordinary, 0),
        ordinary_witness=ordinary_witness,
        pseudo_count=pseudo_count,
        max_pseudo_rank=max(max_pseudo, 0),
        pseudo_witness=pseudo_witness,
        pseudo_solutions=tuple(solutions),
        pseudo_ranks=tuple(ranks),
        descent_failures=tuple(failures),
    )


def elementary_transform(
    e: Equation, shorter: str, longer: str, rename: bool = False
) -> Equation:
    """One step of length-guess rewriting.

    With rename=False the longer unknown is replaced by shorter·longer
    throughout and the now-common leading shorter is cancelled from both
    sides. With rename=True the longer unknown is simply renamed to the
    shorter one, covering the equal-length guess.
    """
    if shorter == longer:
        raise ValueError("shorter and longer must be distinct unknowns")
    s_idx = e.unknowns.index(shorter)
    l_idx = e.unknowns.index(longer)
    if not e.lhs.letters or not e.rhs.letters:
        raise ValueError("both sides must be non-empty")
    heads = {e.lhs.letters[0], e.rhs.letters[0]}
    if heads != {s_idx, l_idx}:
        raise ValueError(f"sides must start with {shorter} and {longer} in some order, got {e}")

    sub = {l_idx: (s_idx,) if rename else (s_idx, l_idx)}

    def rewrite(side: Word) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for i in side.letters:
            out += sub.get(i, (i,))
        return out

    new_lhs = rewrite(e.lhs)
    new_rhs = rewrite(e.rhs)
    if not rename:
        assert new_lhs[0] == s_idx and new_rhs[0] == s_idx
        new_lhs = new_lhs[1:]
        new_rhs = new_rhs[1:]
    return Equation(e.unknowns, Word(e.unknowns, new_lhs), Word(e.unknowns, new_rhs))
