"""Independent brute-force oracles the library is checked against.

Everything here enumerates exhaustively and stays deliberately naive:
no dangling suffixes, no stability reductions, no memoized products. The
exceptions are former library code kept unchanged as references:
brute_pseudo_solutions (the enumerator, memo included) for the
depth-first walk, brute_descend with brute_certificate (the descent
on Word objects) for the letter-level descent, and brute_closed_pairs
(the cut-and-transitive fixpoint) for the FiniteTable closure, and
brute_verify_axioms for the one-pass axiom check. brute_product_letters
and brute_side_letters are the former set products, so the side-language
checks share no code with the sorted list products they check.
brute_check_report renders a check report whole, the way the CLI did
before it streamed side languages, and brute_search_report a search
report, the way it did before it streamed certificate rows.
PairTable is a test double for relations that are not anticongruences.

Former library functions that only tests called are kept here unchanged:
factorizations (every factorization, the reference for
least_factorization and brute_class_factorization, with a reachability
pass of its own), product (the
pairwise set product), class_closure, the lemma checks
factorization_is_morphism and class_factor_stability, and
align_equivalent_sides (side re-cutting for equivalent sides).
"""
from __future__ import annotations

import itertools
import json
import operator
from typing import Iterable, Optional, Sequence

from wordeq import (
    DEFAULT_PRODUCT_LIMIT,
    Alphabet,
    Anticongruence,
    AxiomViolation,
    BudgetExceeded,
    ClassWord,
    DescentFailed,
    DescentResult,
    EqClass,
    Equation,
    FiniteLanguage,
    Identity,
    InvalidPseudoSolution,
    MissingImage,
    MorphicPermutation,
    NotInMonoid,
    ProductLimitExceeded,
    PseudoFreeBasis,
    PseudoSolution,
    RankCertificate,
    Solution,
    Word,
    WordEqError,
    check_pseudo_solution,
    check_solution,
    class_factorization,
    pseudo_free_hull,
    solution_rank,
)
from wordeq.cli import HUMAN_TABLE_ROWS, JobConfig, parse_config
from wordeq.equations import _class_symbols
from wordeq.words import _join, _require_same_alphabet


# -- former library functions, unchanged


def product(
    k: FiniteLanguage, l: FiniteLanguage, limit: int = DEFAULT_PRODUCT_LIMIT
) -> FiniteLanguage:
    """Elementwise concatenation {u·v | u in K, v in L}, canonicalized, after
    checking len(K)*len(L) <= limit."""
    _require_same_alphabet(k, l)
    if len(k) * len(l) > limit:
        raise ProductLimitExceeded(f"product of {len(k)} x {len(l)} words exceeds limit {limit}")
    # operands of mixed lengths can give one word twice, as a·ab = aa·b
    return FiniteLanguage.of_letters(k.alphabet, {u + v for u in k.letters for v in l.letters})


def factorizations(w: Word, basis: Iterable[Word]) -> list[tuple[Word, ...]]:
    """All ways to write w as a product of basis words.

    Results are ordered lexicographically by the index sequence of factors
    into the sorted basis. Empty list means w is outside the generated
    monoid; factorizing ε yields the single empty sequence.
    """
    bs = sorted({b.letters for b in basis})
    if () in bs:
        raise ValueError("empty word not allowed in a factorization basis")
    target = w.letters
    n = len(target)
    # reach[i]: target[i:] is a product of basis words, by its own backward
    # pass, so this oracle shares no code with the routine it checks
    reach = [False] * n + [True]
    for i in range(n - 1, -1, -1):
        reach[i] = any(reach[i + len(b)] and target[i : i + len(b)] == b for b in bs if i + len(b) <= n)
    # depth first on an explicit stack, the sorted basis in order at each
    # position; only reachable positions are entered, so every branch ends
    # in a result
    out: list[tuple[Word, ...]] = [()] if n == 0 else []
    factors: list[Word] = []  # the factors of target[:pos]
    pos = 0
    untried = [iter(bs)] if reach[0] else []  # untried[i]: basis words not yet tried as factor i
    while untried:
        for b in untried[-1]:
            j = pos + len(b)
            if j <= n and reach[j] and target[pos:j] == b:
                factors.append(Word(w.alphabet, b))
                pos = j
                if pos == n:
                    out.append(tuple(factors))
                untried.append(iter(bs))
                break
        else:  # factor i is spent: back to factor i - 1
            untried.pop()
            if factors:
                pos -= len(factors.pop())
    return out


def class_closure(rel: Anticongruence, words: Iterable[Word]) -> frozenset[Word]:
    """The input together with every class member of each input word.

    One pass reaches the fixpoint: members of a class all have the same
    class.
    """
    out: set[Word] = set()
    for w in words:
        out.update(Word(w.alphabet, ls) for ls in rel.class_letters(w.letters))
    return frozenset(out)


def factorization_is_morphism(pfb: PseudoFreeBasis, u: Word, v: Word) -> bool:
    """Whether the class factorization of u·v is the two factorizations joined."""
    return class_factorization(pfb, u + v) == class_factorization(pfb, u) + class_factorization(pfb, v)


def class_factor_stability(pfb: PseudoFreeBasis, w: Word) -> bool:
    """Whether the whole class of w sits inside the product of w's class sequence."""
    cw = class_factorization(pfb, w)
    if not cw.classes:
        return True
    lang = cw.language()
    for ls in pfb.rel.class_letters(w.letters):
        other = Word(w.alphabet, ls)
        if other not in lang or class_factorization(pfb, other) != cw:
            return False
    return True


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
    left = Word(alphabet, _join(w.letters for w in side_words[:n_l]))
    right = Word(alphabet, _join(w.letters for w in side_words[n_l:]))
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


# -- oracles


def brute_require_limit(limit: int) -> None:
    """The product limit rule: a limit below 1 is refused before any work."""
    if limit < 1:
        raise ValueError(f"product limit must be at least 1, got {limit}")


def brute_product_letters(a, b, limit: int) -> set[tuple[int, ...]]:
    """{u+v | u in a, v in b} as a set, with the library's guard test and message
    (the library's former product_letters)."""
    if len(a) * len(b) > limit:
        raise ProductLimitExceeded(f"product of {len(a)} x {len(b)} words exceeds limit {limit}")
    return {u + v for u in a for v in b}


def brute_side_letters(side: Word, unknowns: Alphabet, psol, limit: int) -> set[tuple[int, ...]]:
    """One side's product of image classes as a set (the library's former _side_letters)."""
    syms = unknowns.symbols
    acc: set[tuple[int, ...]] = {()}
    for i in side.letters:
        name = syms[i]
        if name not in psol.images:
            raise MissingImage(f"no image for unknown {name}")
        members = psol.rel.class_letters(psol.images[name].rep.letters)
        acc = brute_product_letters(acc, members, limit)
    return acc


def brute_factorizations(w: Word, basis: list[Word]) -> list[tuple[Word, ...]]:
    """All factor tuples by plain enumeration of factor sequences."""
    if not w.letters:
        return [()]
    shortest = min(len(b) for b in basis) if basis else 1
    out = []
    for k in range(1, len(w) // max(shortest, 1) + 1):
        for combo in itertools.product(basis, repeat=k):
            letters = sum((b.letters for b in combo), ())
            if letters == w.letters:
                out.append(combo)
    return out


def brute_reachable(basis: list[Word], max_len: int) -> set[tuple[int, ...]]:
    """Letter tuples of every monoid element up to max_len, by breadth-first growth."""
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for t in frontier:
            for b in basis:
                cand = t + b.letters
                if len(cand) <= max_len and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def brute_double_factorization(basis: list[Word], max_len: int) -> Word | None:
    """Shortest (then lex least) word with two distinct factor sequences, or None.

    Counts factorization sequences of every product up to max_len with a
    forward dynamic program over reachable words.
    """
    counts: dict[tuple[int, ...], int] = {(): 1}
    frontier: dict[tuple[int, ...], int] = {(): 1}
    while frontier:
        nxt: dict[tuple[int, ...], int] = {}
        for t, c in frontier.items():
            for b in basis:
                cand = t + b.letters
                if len(cand) <= max_len:
                    nxt[cand] = nxt.get(cand, 0) + c
        for t, c in nxt.items():
            counts[t] = counts.get(t, 0) + c
        frontier = nxt
    doubles = [t for t, c in counts.items() if t and c >= 2]
    if not doubles:
        return None
    best = min(doubles, key=lambda t: (len(t), t))
    return Word(basis[0].alphabet, best)


def brute_is_code(basis: list[Word], max_len: int | None = None) -> bool:
    if not basis:
        return True
    if max_len is None:
        max_len = 2 * max(len(b) for b in basis)
    return brute_double_factorization(basis, max_len) is None


def orbit_equiv(perm: MorphicPermutation, u: Word, v: Word) -> bool:
    """v = f^i(u) for some i below the permutation order, by direct iteration."""
    if len(u) != len(v):
        return False
    cur = u
    for _ in range(perm.order()):
        if cur.letters == v.letters:
            return True
        cur = perm.apply(cur)
    return cur.letters == v.letters


class PairTable(Anticongruence):
    """Classes read off the given pairs, with no closure.

    A test double for relations that are not anticongruences: a word's
    class is the word and its partners in the pairs, so a pair list that
    is not transitive or not cut-closed stays that way.
    """

    def __init__(self, alphabet, pairs):
        super().__init__(alphabet)
        members: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        for a, b in pairs:
            if a != b:
                members.setdefault(a, {a}).add(b)
                members.setdefault(b, {b}).add(a)
        self._members = {w: tuple(sorted(s)) for w, s in members.items()}

    def class_letters(self, letters):
        return self._members.get(letters, (letters,))


def brute_closed_pairs(pairs) -> frozenset:
    """Nontrivial pairs of the smallest anticongruence containing the letter pairs.

    The former close_pairs fixpoint: split every pair at every cut, close
    each length stratum transitively, and repeat until nothing changes.
    """
    table = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    while True:
        new = set()
        for a, b in table:
            for i in range(1, len(a)):
                for pa, pb in ((a[:i], b[:i]), (a[i:], b[i:])):
                    if pa != pb:
                        new.add((min(pa, pb), max(pa, pb)))
        parent: dict[tuple[int, ...], tuple[int, ...]] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in table | new:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for x in parent:
            groups.setdefault(find(x), []).append(x)
        closed = {p for g in groups.values() for p in itertools.combinations(sorted(g), 2)}
        if closed == table:
            return frozenset(table)
        table = closed


def brute_verify_axioms(rel, max_len):
    """The former verify_axioms (guard left out): equiv on every pair and every piece, stratum by stratum."""
    strata = [list(rel.alphabet.words_of_length(n)) for n in range(max_len + 1)]
    all_words = [w for stratum in strata for w in stratum]
    for u in all_words:
        for v in all_words:
            if len(u) != len(v) and rel.equiv(u, v):
                return AxiomViolation("length", u, v)
    for stratum in strata:
        classes = {w: frozenset(v for v in stratum if rel.equiv(w, v)) for w in stratum}
        for u in stratum:
            if u not in classes[u]:
                return AxiomViolation("reflexivity", u, u)
        for u in stratum:
            for v in sorted(classes[u]):
                if u not in classes[v]:
                    return AxiomViolation("symmetry", u, v)
        for u in stratum:
            for v in sorted(classes[u]):
                if classes[v] != classes[u]:
                    w = min(classes[v].symmetric_difference(classes[u]))
                    return AxiomViolation("transitivity", u, w, via=v)
        for u in stratum:
            for v in sorted(classes[u]):
                if v.letters <= u.letters:
                    continue
                for i in range(1, len(u)):
                    if not (rel.equiv(u[:i], v[:i]) and rel.equiv(u[i:], v[i:])):
                        return AxiomViolation("cut", u, v, cut=i)
    return None


def all_word_sets(alphabet: Alphabet, max_words: int, max_len: int):
    """Every set of at most max_words nonempty words of length <= max_len."""
    universe = [w for w in alphabet.words_up_to(max_len) if w.letters]
    for size in range(1, max_words + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


def brute_representatives(rel, max_len: int) -> list[Word]:
    """Shortlex list of the least member of every class, from all words up to max_len."""
    out = []
    for w in rel.alphabet.words_up_to(max_len):
        if rel.class_letters(w.letters)[0] == w.letters:
            out.append(w)
    return out


def brute_pseudo_solutions(e, rel, max_len, budget=None, limit=DEFAULT_PRODUCT_LIMIT):
    """All valid pseudo-solutions, walking every assignment in itertools.product order.

    Side languages are memoized per prefix of class indices; budget counts
    every assignment, the ones pruned by side length included.
    """
    brute_require_limit(limit)
    names = e.unknowns.symbols
    reps = brute_representatives(rel, max_len)
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
                cached = brute_product_letters(side_language(cids[:-1]), langs[cids[-1]], limit)
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


def brute_class_factorization(pfb, w: Word) -> ClassWord:
    """The first of all factorizations of w over the basis, mapped to classes."""
    if not w.letters:
        return ClassWord(())
    facts = factorizations(w, pfb.basis_words.words)
    if not facts:
        raise NotInMonoid(f"{w} is not in the monoid of {pfb.basis_words}")
    return ClassWord(tuple(EqClass.of(pfb.rel, b) for b in facts[0]))


def image_members(e, psol) -> frozenset[Word]:
    """The class members of the images of e's unknowns."""
    return frozenset(w for name in e.unknowns.symbols for w in psol.images[name].members())


def brute_descend(e, psol, limit=DEFAULT_PRODUCT_LIMIT) -> DescentResult:
    """The library's former descend, on Word objects: hull of the members of
    the unknowns' images, brute_class_factorization of each image, a fresh
    class alphabet, and the solution and rank checks through check_solution
    and solution_rank."""
    brute_require_limit(limit)
    common = brute_side_letters(e.lhs, e.unknowns, psol, limit) & brute_side_letters(
        e.rhs, e.unknowns, psol, limit
    )
    if not common:
        raise InvalidPseudoSolution(f"side languages are disjoint for {psol!r}")
    for name in e.unknowns.symbols:
        if name not in psol.images:
            raise MissingImage(f"no image for unknown {name}")
    hull = pseudo_free_hull(psol.rel, image_members(e, psol))
    if hull.classes:
        class_alphabet = Alphabet(_class_symbols(hull.classes))
    else:
        class_alphabet = Alphabet(("[·]",))  # all images ε; one unused symbol
    index = {c: i for i, c in enumerate(hull.classes)}
    images = {}
    for name in e.unknowns.symbols:
        cw = brute_class_factorization(hull, psol.images[name].rep)
        images[name] = Word(class_alphabet, tuple(index[c] for c in cw))
    alpha = Solution(images)
    if not check_solution(e, alpha):
        raise DescentFailed(f"descended morphism does not solve {e}")
    if solution_rank(alpha) != len(hull.classes):
        raise DescentFailed(
            f"descended rank {solution_rank(alpha)} differs from pseudo-rank {len(hull.classes)}"
        )
    return DescentResult(class_alphabet, alpha, hull, Word(psol.rel.alphabet, min(common)))


def brute_certificate(e, rel, max_len, limit=DEFAULT_PRODUCT_LIMIT, budget=None) -> RankCertificate:
    """The library's former bounded_rank_certificate over brute_pseudo_solutions,
    ranking each ordinary solution with solution_rank and descending each
    pseudo-solution with brute_descend. A spent budget or a guard trip
    raises after the phase it ends, ordinary first, as brute_pseudo_solutions does."""
    ordinary_count = 0
    max_ordinary = -1
    ordinary_witness: Optional[Solution] = None
    for psol in brute_pseudo_solutions(e, Identity(rel.alphabet), max_len, budget=budget, limit=limit):
        sol = Solution({x: c.rep for x, c in psol.images.items()})
        ordinary_count += 1
        r = solution_rank(sol)
        if r > max_ordinary:
            max_ordinary = r
            ordinary_witness = sol

    max_pseudo = -1
    pseudo_witness = None
    solutions, ranks, failures = [], [], []
    for psol in brute_pseudo_solutions(e, rel, max_len, budget=budget, limit=limit):
        solutions.append(psol)
        try:
            pr = brute_descend(e, psol, limit=limit).pseudo_rank()
        except WordEqError as exc:
            failures.append(f"{psol!r}: {exc}")
            pr = pseudo_free_hull(rel, image_members(e, psol)).pseudo_rank()
        ranks.append(pr)
        if pr > max_pseudo:
            max_pseudo = pr
            pseudo_witness = psol

    return RankCertificate(
        max_len=max_len,
        ordinary_count=ordinary_count,
        max_ordinary_rank=max(max_ordinary, 0),
        ordinary_witness=ordinary_witness,
        pseudo_count=len(solutions),
        max_pseudo_rank=max(max_pseudo, 0),
        pseudo_witness=pseudo_witness,
        pseudo_solutions=tuple(solutions),
        pseudo_ranks=tuple(ranks),
        descent_failures=tuple(failures),
    )


def brute_check_report(path: str, machine: bool) -> tuple[int, str]:
    """The exit code and stdout of `wordeq check` on the config at path, built
    whole: both side languages materialized by check_pseudo_solution, each
    word spelled on its own by Alphabet.spell, and one json.dumps (machine)
    or the human layout (lists in braces, ε for the empty word, - for none)."""
    cfg = parse_config(path)
    rel = cfg.rel if cfg.rel is not None else Identity(cfg.alphabet)
    e = cfg.equation
    psol = PseudoSolution(rel, {x: EqClass.of(rel, w) for x, w in cfg.assign.items()})
    verdict = check_pseudo_solution(e, psol, limit=cfg.product_guard)
    spell = rel.alphabet.spell
    data = {
        "command": "check",
        "alphabet": list(cfg.alphabet.symbols),
        "relation": cfg.rel_text,
        "equation": cfg.equation_text,
        "assign": {x: spell(psol.images[x].rep.letters) for x in e.unknowns.symbols},
        "valid": verdict.valid,
        "common": None if verdict.common is None else spell(verdict.common.letters),
        "lhs_language": [spell(w) for w in verdict.lhs_language.letters],
        "rhs_language": [spell(w) for w in verdict.rhs_language.letters],
    }
    if machine:
        text = json.dumps(data, ensure_ascii=True)
    else:
        def scalar(v) -> str:
            return "ε" if v == "" else "-" if v is None else str(v)

        lines = []
        for key, value in data.items():
            if isinstance(value, list):
                value = "{" + ", ".join(map(scalar, value)) + "}"
            elif isinstance(value, dict):
                value = ", ".join(f"{x}={scalar(w)}" for x, w in value.items())
            else:
                value = scalar(value)
            lines.append(f"{key}: {value}")
        text = "\n".join(lines)
    return (0 if verdict.valid else 1), text + "\n"


def brute_search_report(cfg: JobConfig, machine: bool) -> tuple[int, str, Optional[str]]:
    """The exit code, stdout and stderr message of `wordeq search` on cfg,
    built whole: brute_certificate first (a spent budget makes the budget
    report, a guard trip exit 3 with its message and no report), then
    every row, then one json.dumps (machine) or the human layout, which
    lists the row count and the first HUMAN_TABLE_ROWS rows. The message
    is None for a report, whose stderr holds only its timing."""
    rel = cfg.rel if cfg.rel is not None else Identity(cfg.alphabet)
    e = cfg.equation
    spell = rel.alphabet.spell
    order = e.unknowns.symbols
    data = {
        "command": "search",
        "alphabet": list(cfg.alphabet.symbols),
        "relation": cfg.rel_text,
        "equation": cfg.equation_text,
        "max_len": cfg.max_len,
        "budget": cfg.budget,
    }
    try:
        cert = brute_certificate(e, rel, cfg.max_len, cfg.product_guard, cfg.budget)
    except BudgetExceeded as exc:
        data.update(budget_exhausted=True, assignments_examined=exc.examined,
                    solutions_found_before_exhaustion=exc.emitted)
        code = 3
    except ProductLimitExceeded as exc:
        return 3, "", f"budget exhausted: {exc}\n"
    else:
        def assign(images) -> dict:
            return {x: spell(images[x].letters if isinstance(images[x], Word) else images[x].rep.letters)
                    for x in order}

        data.update(
            budget_exhausted=False,
            pseudo_solutions=[{"assign": assign(p.images), "pseudo_rank": r}
                              for p, r in zip(cert.pseudo_solutions, cert.pseudo_ranks)],
            pseudo_count=cert.pseudo_count,
            max_pseudo_rank=cert.max_pseudo_rank,
            pseudo_witness=None if cert.pseudo_witness is None else assign(cert.pseudo_witness.images),
            ordinary_count=cert.ordinary_count,
            max_ordinary_rank=cert.max_ordinary_rank,
            ordinary_witness=None if cert.ordinary_witness is None else assign(cert.ordinary_witness.images),
            descent_property="fail" if cert.descent_failures else "pass",
            descent_failures=list(cert.descent_failures),
        )
        code = 1 if cert.descent_failures else 0
    if machine:
        return code, json.dumps(data, ensure_ascii=True) + "\n", None

    def scalar(v) -> str:
        if isinstance(v, dict):
            return "{" + ", ".join(f"{k}={scalar(x)}" for k, x in v.items()) + "}"
        if isinstance(v, list):
            return "{" + ", ".join(map(scalar, v)) + "}"
        return "ε" if v == "" else "-" if v is None else str(v)

    lines = []
    for key, value in data.items():
        if key == "pseudo_solutions" and value:
            lines.append(f"{key}: ({len(value)} entries)")
            for row in value[:HUMAN_TABLE_ROWS]:
                lines.append(f"  - assign={scalar(row['assign'])}, pseudo_rank={row['pseudo_rank']}")
            if len(value) > HUMAN_TABLE_ROWS:
                lines.append(f"  ... and {len(value) - HUMAN_TABLE_ROWS} more")
        elif isinstance(value, dict):
            lines.append(f"{key}: " + ", ".join(f"{x}={scalar(w)}" for x, w in value.items()))
        else:
            lines.append(f"{key}: {scalar(value)}")
    return code, "\n".join(lines) + "\n", None
