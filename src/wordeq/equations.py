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
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .anticongruence import Anticongruence, EqClass, Identity
from .freeness import Basis, Letters, hull_letters, rank
from .pseudo import NotInMonoid, PseudoFreeBasis, class_reps
from .words import (
    DEFAULT_PRODUCT_LIMIT,
    Alphabet,
    FiniteLanguage,
    ProductLimitExceeded,
    Word,
    WordEqError,
    least_factorization,
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


def _side_letters(
    side: Word, unknowns: Alphabet, psol: PseudoSolution, limit: int
) -> list[Letters]:
    # class members are sorted and of one length, so each product stays sorted and distinct
    syms = unknowns.symbols
    acc: list[Letters] = [()]
    for i in side.letters:
        name = syms[i]
        if name not in psol.images:
            raise MissingImage(f"no image for unknown {name}")
        acc = product_letters(acc, psol.rel.class_letters(psol.images[name].rep.letters), limit)
    return acc


def _sides(
    e: Equation, psol: PseudoSolution, limit: int
) -> tuple[list[Letters], list[Letters], Optional[Letters]]:
    """Both sorted side languages and the least word they share, None when they are disjoint."""
    lhs = _side_letters(e.lhs, e.unknowns, psol, limit)
    rhs = _side_letters(e.rhs, e.unknowns, psol, limit)
    right = set(rhs)
    return lhs, rhs, next((w for w in lhs if w in right), None)


def check_pseudo_solution(
    e: Equation, psol: PseudoSolution, limit: int = DEFAULT_PRODUCT_LIMIT
) -> PseudoVerdict:
    """Materialize both side languages and look for a shared word."""
    lhs, rhs, common = _sides(e, psol, limit)
    alphabet = psol.rel.alphabet
    return PseudoVerdict(
        common is not None,
        None if common is None else Word(alphabet, common),
        FiniteLanguage(alphabet, tuple(lhs)),
        FiniteLanguage(alphabet, tuple(rhs)),
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


def _class_symbols(classes: Sequence[EqClass]) -> list[str]:
    """One symbol per class, [rep]; colliding names get their basis index appended."""
    names = []
    for c in classes:
        syms = c.rep.alphabet.symbols
        sep = "" if all(len(s) == 1 for s in syms) else "·"
        names.append("[" + sep.join(syms[i] for i in c.rep.letters) + "]")
    if len(set(names)) < len(names):
        # multi-character symbols can join to the same name, as a, b·c and a·b, c
        repeated = {n for n in names if names.count(n) > 1}
        names = [f"{n}#{i}" if n in repeated else n for i, n in enumerate(names)]
    return names


# hull_letters under an identity reads nothing but the letter tuples, so this
# one relation ranks the class-index words of every descent
_CLASS_INDEX_IDENTITY = Identity(Alphabet(("[·]",)))


def _hull_basis(psol: PseudoSolution) -> tuple[Letters, ...]:
    """hull_letters of all class members of all images (PseudoSolution.union_members)."""
    rel = psol.rel
    members: set[Letters] = set()
    for c in psol.images.values():
        rel._check(c.rep)
        members.update(rel.class_letters(c.rep.letters))
    members.discard(())
    return hull_letters(rel, frozenset(members))


def _descent(
    e: Equation, psol: PseudoSolution, limit: int
) -> tuple[Letters, tuple[Letters, ...], list[Letters], dict[str, tuple[int, ...]]]:
    """descend on letter tuples: the least word both sides share, the hull
    basis, its class representatives and each unknown's image as class indices."""
    common = _sides(e, psol, limit)[2]
    if common is None:
        raise InvalidPseudoSolution(f"side languages are disjoint for {psol!r}")
    rel = psol.rel
    basis = _hull_basis(psol)
    reps = class_reps(rel, basis)
    rep_index = {r: i for i, r in enumerate(reps)}
    class_index = {b: rep_index[rel.class_letters(b)[0]] for b in basis}
    syms = e.unknowns.symbols
    images = {}
    for name in syms:
        if name not in psol.images:
            raise MissingImage(f"no image for unknown {name}")
        rep = psol.images[name].rep
        factors = least_factorization(rep.letters, basis)
        if factors is None:
            words = Basis(tuple(Word(rel.alphabet, b) for b in basis))
            raise NotInMonoid(f"{rep} is not in the monoid of {words}")
        images[name] = tuple(class_index[b] for b in factors)
    lhs = sum((images[syms[i]] for i in e.lhs.letters), ())
    rhs = sum((images[syms[i]] for i in e.rhs.letters), ())
    if lhs != rhs:
        raise DescentFailed(f"descended morphism does not solve {e}")
    r = len(hull_letters(_CLASS_INDEX_IDENTITY, frozenset(w for w in images.values() if w)))
    if r != len(reps):
        raise DescentFailed(f"descended rank {r} differs from pseudo-rank {len(reps)}")
    return common, basis, reps, images


def descend(
    e: Equation, psol: PseudoSolution, limit: int = DEFAULT_PRODUCT_LIMIT
) -> DescentResult:
    """Turn a valid pseudo-solution into an ordinary solution over class names.

    Takes the pseudo-free hull of all image class members, factorizes each
    image representative over its basis (one walk, the basis is a code),
    and reads the factors' classes as letters of the hull's class
    alphabet. Raises InvalidPseudoSolution for disjoint sides, and
    DescentFailed unless the result solves the equation and its rank
    equals the number of hull classes. The work runs on letter tuples;
    Word, EqClass and Alphabet objects are built only for the result.
    """
    common, basis, reps, images = _descent(e, psol, limit)
    hull = PseudoFreeBasis.of_letters(psol.rel, basis, reps)
    if hull.classes:
        class_alphabet = Alphabet(_class_symbols(hull.classes))
    else:
        class_alphabet = Alphabet(("[·]",))  # all images ε; one unused symbol
    alpha = Solution({x: Word(class_alphabet, w) for x, w in images.items()})
    return DescentResult(class_alphabet, alpha, hull, Word(psol.rel.alphabet, common))


def _representatives(
    rel: Anticongruence, max_len: int, budget: Optional[int]
) -> tuple[list[Letters], list[tuple[Letters, ...]]]:
    """Shortlex canonical representatives of rel up to max_len and their sorted class members.

    Stops after budget + 1 classes: with that many the budget already runs
    out inside the first prefix of the walk, which examines no class past it.
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


def _filler(segments: list[tuple[int, ...]]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """w -> segments[0] w segments[1] w ... segments[-1]."""
    if len(segments) == 2:
        return lambda w, a=segments[0], b=segments[1]: a + w + b

    def fill(w: tuple[int, ...]) -> tuple[int, ...]:
        out = segments[0]
        for s in segments[1:]:
            out = out + w + s
        return out

    return fill


def _guard_error(sizes: list[int], limit: int) -> ProductLimitExceeded:
    """The error product_letters raises on the first step of a side product over limit."""
    acc = 1
    for s in sizes:
        if acc * s > limit:
            break
        acc *= s
    return ProductLimitExceeded(f"product of {acc} x {s} words exceeds limit {limit}")


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
    order. The walk fixes all unknowns but the last and then only tries
    the representatives of the one length that balances the two sides;
    each of those leaves is decided by comparing words when all its
    classes are singletons, else by building one side and testing its
    words block by block against the classes of the other. Before a side
    is built, the product of its class sizes is compared with limit
    (ProductLimitExceeded). budget caps the number of assignments examined
    in lexicographic order, the ones skipped for their length included:
    the leaf prefix + (j,) is assignment rank·R + j, counted from 0, where
    rank is the prefix's position in product order and R the number of
    representatives, so a leaf is tested only when rank·R + j < budget.
    Exceeding the budget raises BudgetExceeded with progress counts. Word
    and EqClass objects are built only for emitted solutions.
    """
    names = e.unknowns.symbols
    last = len(names) - 1
    lhs, rhs = e.lhs.letters, e.rhs.letters
    n_lhs, n_rhs = lhs.count(last), rhs.count(last)
    words, members = _representatives(rel, max_len, budget)
    lens = [len(w) for w in words]
    sizes = [len(m) for m in members]
    index = {m: i for i, ms in enumerate(members) for m in ms}
    n_reps = len(words)
    classes: dict[int, EqClass] = {}
    emitted = 0

    def class_of(i: int) -> EqClass:
        c = classes.get(i)
        if c is None:
            c = classes[i] = EqClass(rel, Word(rel.alphabet, words[i]))
        return c

    def segments(side: tuple[int, ...], prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = [()]
        for u in side:
            if u == last:
                out.append(())
            else:
                out[-1] += words[prefix[u]]
        return out

    def decide(side: list[int], other: list[int]) -> bool:
        # build side's product left to right (solved checked it against limit), dropping a
        # word as soon as one of other's blocks lies inside it and is not in that block's class
        blocks, pos = [], 0
        for c in other:
            if lens[c]:
                blocks.append((pos, pos + lens[c], c))
                pos += lens[c]
        built, pos, k = [()], 0, 0
        for c in side:
            built = product_letters(built, members[c], limit)
            pos += lens[c]
            while k < len(blocks) and blocks[k][1] <= pos:
                a, b, d = blocks[k]
                built = [u for u in built if index.get(u[a:b]) == d]
                k += 1
            if not built:
                return False
        return True

    def solved(prefix: tuple[int, ...], js: range) -> Iterator[int]:
        # the j in js that make prefix + (j,) a pseudo-solution, guards checked in order
        fixed_l = math.prod(sizes[prefix[u]] for u in lhs if u != last)
        fixed_r = math.prod(sizes[prefix[u]] for u in rhs if u != last)

        def general(j: int) -> bool:
            side_l = [j if u == last else prefix[u] for u in lhs]
            side_r = [j if u == last else prefix[u] for u in rhs]
            p_l, p_r = fixed_l * sizes[j] ** n_lhs, fixed_r * sizes[j] ** n_rhs
            for p, side in ((p_l, side_l), (p_r, side_r)):
                if p > limit and p > 1:
                    raise _guard_error([sizes[c] for c in side], limit)
            return decide(side_l, side_r) if p_l <= p_r else decide(side_r, side_l)

        if fixed_l == fixed_r == 1:
            fill_l, fill_r = _filler(segments(lhs, prefix)), _filler(segments(rhs, prefix))
            return (
                j for j in js
                if (fill_l(words[j]) == fill_r(words[j]) if sizes[j] == 1 else general(j))
            )
        return filter(general, js)

    if not words:
        return  # max_len < 0: no representatives
    for rank, prefix in enumerate(itertools.product(range(n_reps), repeat=last)):
        gap = sum(lens[prefix[u]] for u in rhs if u != last)
        gap -= sum(lens[prefix[u]] for u in lhs if u != last)
        # the lengths of the last unknown that balance the two sides, as [lo_len, hi_len)
        if n_lhs == n_rhs:
            lo_len, hi_len = (0, max_len + 1) if gap == 0 else (0, 0)
        else:
            length, rest = divmod(gap, n_lhs - n_rhs)
            lo_len, hi_len = (0, 0) if rest else (length, length + 1)
        left = n_reps if budget is None else budget - rank * n_reps  # leaves within budget
        lo, hi = bisect.bisect_left(lens, lo_len), bisect.bisect_left(lens, hi_len)
        for j in solved(prefix, range(lo, min(hi, left))):
            emitted += 1
            yield PseudoSolution(rel, {n: class_of(i) for n, i in zip(names, prefix + (j,))})
        if left < n_reps:
            raise BudgetExceeded(f"assignment budget {budget} exceeded", max(budget, 0), emitted)


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
    sigma; pseudo-solutions under rel, by the same walk when rel is that
    identity. For every pseudo-solution found, the descent is run on
    letter tuples (descend without its result objects) and a failure is
    recorded with the pseudo-rank read off the hull. The maxima are lower
    bounds of the true ranks; the witnesses are the first solutions
    attaining them in enumeration order.
    """
    identity = Identity(sigma)
    # under the identity on sigma the pseudo phase would repeat the ordinary walk
    reuse = rel == identity
    ordinary = enumerate_pseudo_solutions(
        e, rel if reuse else identity, max_len, budget=budget, limit=limit
    )
    if reuse:
        ordinary = list(ordinary)
    ordinary_count = 0
    max_ordinary = -1
    ordinary_witness: Optional[Solution] = None
    for psol in ordinary:
        ordinary_count += 1
        # solution_rank of the representatives, on their letter tuples
        reps = frozenset(c.rep.letters for c in psol.images.values() if c.rep)
        r = len(hull_letters(identity, reps))
        if r > max_ordinary:
            max_ordinary = r
            ordinary_witness = Solution({x: c.rep for x, c in psol.images.items()})

    pseudo_count = 0
    max_pseudo = -1
    pseudo_witness: Optional[PseudoSolution] = None
    solutions: list[PseudoSolution] = []
    ranks: list[int] = []
    failures: list[str] = []
    pseudo = (
        ordinary if reuse else enumerate_pseudo_solutions(e, rel, max_len, budget=budget, limit=limit)
    )
    for psol in pseudo:
        pseudo_count += 1
        solutions.append(psol)
        try:
            # _descent raises DescentFailed when the two ranks differ
            pr = len(_descent(e, psol, limit)[2])
        except WordEqError as exc:
            failures.append(f"{psol!r}: {exc}")
            pr = len(class_reps(rel, _hull_basis(psol)))
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
