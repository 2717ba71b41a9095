"""Workload items for the wordeq benchmark: generation, execution and checks.

Every workload is a list of items run one at a time. Seeded items come
from a pool per stratum that is built from the fixed POOL_SEED; the run
seed picks which pool items run and in which order. The outcome of every
pool item is recorded in expected/<workload>.txt (see record.py), so the
outputs of any seed are checked against the program as it was recorded.

This module imports no part of wordeq at module level: generation is
independent of the program, and only the runners and checks use it.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
WORKLOADS = ("search", "hull", "check", "axioms")
POOL_SEED = 20190626
POOL_FACTOR = 1.2  # pool size per stratum over the per-seed count

# hull workload relations per alphabet: (permutation cycles, cut-closed table pairs);
# a binary alphabet has no 3-cycle, so binary sets use the swap
HULL_RELATIONS = {
    "ab": ("(a b)", "a~b, ab~ba, aab~bba"),
    "abc": ("(a b c)", "a~c, ab~cb, bc~ba, abc~cba"),
}


@dataclass(frozen=True)
class Item:
    """One unit of work: a CLI config, or a word set for the library calls.

    known_defect names an outcome that is wrong but documented: the item
    then counts as failed without making the run incorrect.
    """

    key: str
    command: str = ""  # CLI command; "" for a library (hull) item
    config: str = ""  # config file text
    args: tuple[str, ...] = ()
    alphabet: str = ""  # hull item alphabet letters
    words: tuple[tuple[int, ...], ...] = ()  # hull item words as letter tuples
    known_defect: str = ""

    def fingerprint(self) -> str:
        return "\x1f".join((self.key, self.command, self.config, " ".join(self.args),
                            self.alphabet, repr(self.words)))


# ---------------------------------------------------------------------------
# generation


def _word(rng: random.Random, letters: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _equation(rng: random.Random, unknowns: str, lo: int, hi: int) -> str:
    """Sides of lo..hi occurrences using every unknown, balanced three times in five."""
    while True:
        lhs = [rng.choice(unknowns) for _ in range(rng.randint(lo, hi))]
        if rng.random() < 0.6:
            rhs = lhs[:]
            rng.shuffle(rhs)
        else:
            rhs = [rng.choice(unknowns) for _ in range(rng.randint(lo, hi))]
        if set(lhs) | set(rhs) == set(unknowns) and lhs != rhs:
            return " ".join(lhs) + " = " + " ".join(rhs)


def _permutation(rng: random.Random, letters: str) -> str:
    """Cycle notation of a random non-identity permutation of the letters."""
    while True:
        images = list(letters)
        rng.shuffle(images)
        if images != list(letters):
            break
    mapping = dict(zip(letters, images))
    cycles, done = [], set()
    for start in letters:
        if start in done:
            continue
        cyc = [start]
        done.add(start)
        while mapping[cyc[-1]] != start:
            cyc.append(mapping[cyc[-1]])
            done.add(cyc[-1])
        if len(cyc) > 1:
            cycles.append("(" + " ".join(cyc) + ")")
    return "".join(cycles)


def _table(rng: random.Random, letters: str, pairs: int, max_word: int) -> str:
    """Generator pairs of equal-length distinct words; close_pairs closes them."""
    out = []
    while len(out) < pairs:
        n = rng.randint(1, max_word)
        u, v = _word(rng, letters, n, n), _word(rng, letters, n, n)
        if u != v:
            out.append(f"{u}~{v}")
    return ", ".join(out)


def _config(letters: str, rel: str = "", **keys: object) -> str:
    lines = ["alphabet: " + " ".join(letters)]
    if rel:
        lines.append("rel: " + rel)
    lines += [f"{k}: {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _search_item(rng: random.Random, kind: str, unknowns: str, letters: str, max_len: int) -> str:
    lo, hi = (1, 3) if len(unknowns) == 2 else (2, 3)
    rel = {
        "identity": "identity",
        "perm": "permutation: " + _permutation(rng, letters),
        "table": "table: " + _table(rng, letters, rng.randint(1, 3), 3),
    }[kind]
    return _config(letters, rel, equation=_equation(rng, unknowns, lo, hi), max_len=max_len)


def _search_strata(count: int):
    """One stratum per relation kind, unknown count, alphabet and max_len.

    Enumeration work grows with the number of class representatives to
    the power of the number of unknowns, so items within one stratum cost
    about the same and every seed draws the same mix of costs.
    """
    shapes = [("xy", "ab", 3), ("xy", "ab", 4), ("xy", "abc", 2), ("xy", "abc", 3),
              ("xyz", "ab", 2), ("xyz", "ab", 3), ("xyz", "abc", 2)]
    return tuple(
        (f"{kind}-{unknowns}-{letters}-{max_len}", count,
         lambda rng, k=kind, u=unknowns, a=letters, m=max_len: _search_item(rng, k, u, a, m))
        for kind in ("identity", "perm", "table")
        for unknowns, letters, max_len in shapes
    )


# (stratum, per-seed count, generator) for the seeded search items
SEARCH_STRATA = _search_strata(12)


def _search_fixed(root: Path) -> list[Item]:
    committed = (root / "configs" / "xyz_zyx_table.cfg").read_text(encoding="utf-8")
    return [
        Item("fixed/xyz_zyx_table", "search", committed, ("--max-len", "3")),
        Item("fixed/binary_table_5", "search",
             _config("ab", "table: a~b, ab~ba, aab~bba", equation="x y z = z y x", max_len=5)),
        # error paths: the correct outcome is exit 2 (config error) or 3 (guard/budget)
        Item("error/max_len_minus", "search",
             _config("abc", equation="x y = y x", max_len="--3"), known_defect="traceback:ValueError"),
        Item("error/product_guard", "search",
             _config("abc", "permutation: (a b c)", equation="x y z = z y x", max_len=2,
                     product_guard=2)),
        Item("error/budget_1", "search", _config("abc", equation="x y = y x", max_len=11),
             ("--budget", "1")),
    ]


def _orbit_size(word: str, cycle_len: dict[str, int]) -> int:
    return math.lcm(*(cycle_len[c] for c in set(word)))


# permutation shapes of order <= 6 by alphabet size, as cycle lengths
CHECK_SHAPES = {
    2: ((2,),),
    3: ((3,), (2, 1)),
    4: ((4,), (2, 2), (3, 1)),
    5: ((5,), (3, 2), (2, 2, 1)),
    6: ((6,), (3, 3), (3, 2, 1)),
}
CHECK_FORMS = ("x y = y x", "x^{k} y = y x^{k}", "x y^{k} = y^{k} x", "x^{k} y^{m} = y^{m} x^{k}")


def _check_item(rng: random.Random, lo: int, hi: int, valid: bool) -> str:
    """A pseudo-solution check whose side languages have lo..hi words each.

    Valid items assign y a permuted power of x's word, so both sides hold
    the same power of x. Invalid ones start x and y in different cycles:
    the left side begins with x and the right with y, so no word is shared.
    """
    while True:
        n = rng.randint(2, 6)
        letters = list("abcdef"[:n])
        rng.shuffle(letters)
        cycles, perm, cycle_len, pos = [], {}, {}, 0
        for size in rng.choice(CHECK_SHAPES[n]):
            cyc = letters[pos : pos + size]
            pos += size
            cycles.append("(" + " ".join(cyc) + ")")
            perm.update(zip(cyc, cyc[1:] + cyc[:1]))
            cycle_len.update({c: size for c in cyc})
        alpha = "abcdef"[:n]
        x = _word(rng, alpha, 1, 3)
        if valid:
            y = x * rng.randint(1, 2)
            for _ in range(rng.randrange(6)):
                y = "".join(perm[c] for c in y)
        else:
            y = _word(rng, alpha, 1, 3)
            if y[0] in _cycle_of(x[0], perm):
                continue
        form = rng.choice(CHECK_FORMS).format(k=rng.randint(2, 4), m=rng.randint(2, 3))
        occ = _occurrences(form)
        size = _orbit_size(x, cycle_len) ** occ["x"] * _orbit_size(y, cycle_len) ** occ["y"]
        if lo <= size <= hi:
            return _config(alpha, "permutation: " + "".join(cycles), equation=form,
                           assign=f"x={x} y={y}")


def _cycle_of(c: str, perm: dict[str, str]) -> set[str]:
    out, cur = {c}, perm[c]
    while cur != c:
        out.add(cur)
        cur = perm[cur]
    return out


def _occurrences(form: str) -> dict[str, int]:
    """Occurrences per unknown on the left side (both sides carry the same)."""
    counts = {"x": 0, "y": 0}
    for tok in form.split("=")[0].split():
        name, _, exp = tok.partition("^")
        counts[name] += int(exp or 1)
    return counts


# (stratum, per-seed count, generator). About one item in twenty of a pass lies
# beyond item_p95_ms; the large band is sized so that this rank falls in its
# middle, not at the edge between two bands, which keeps the percentile steady.
CHECK_STRATA = (
    ("small_valid", 60, lambda rng: _check_item(rng, 100, 400, True)),
    ("small_invalid", 60, lambda rng: _check_item(rng, 100, 400, False)),
    ("medium_valid", 36, lambda rng: _check_item(rng, 400, 2000, True)),
    ("medium_invalid", 36, lambda rng: _check_item(rng, 400, 2000, False)),
    ("large_valid", 18, lambda rng: _check_item(rng, 4000, 8000, True)),
    ("large_invalid", 4, lambda rng: _check_item(rng, 4000, 8000, False)),
)


def _check_fixed(root: Path) -> list[Item]:
    return [
        Item("fixed/x6y_6cycle", "check",
             _config("abcdef", "permutation: (a b c d e f)", equation="x^6 y = y x^6",
                     assign="x=abc y=a")),
        Item("error/max_len_minus", "check",
             _config("abc", "permutation: (a b c)", equation="x y = y x", assign="x=a y=b",
                     max_len="--3"), known_defect="traceback:ValueError"),
        Item("error/product_guard", "check",
             _config("abcd", "permutation: (a b c d)", equation="x^3 y = y x^3",
                     assign="x=ab y=a", product_guard=100)),
    ]


def _axioms_item(rng: random.Random, kind: str, min_words: int, max_words: int) -> str:
    """verify-rel over 2..4 letters at a max_len >= 3 sweeping min_words..max_words words."""
    while True:
        n = rng.randint(2, 4)
        letters = "".join(rng.sample("abcdefgh", n))
        lengths = [m for m in range(3, 12)
                   if min_words <= sum(n**i for i in range(m + 1)) <= max_words]
        if lengths:
            break
    max_len = rng.choice(lengths)
    rel = {
        "perm": lambda: "permutation: " + _permutation(rng, letters),
        "table": lambda: "table: " + _table(rng, letters, rng.randint(1, 3), min(max_len + 1, 5)),
        "reversal": lambda: "reversal",
    }[kind]()
    return _config(letters, rel, max_len=max_len)


# (stratum, per-seed count, generator). About one item in twenty of a pass lies
# beyond item_p95_ms; the large band is sized so that this rank falls in its
# middle, not at the edge between two bands, which keeps the percentile steady.
AXIOMS_STRATA = (
    ("perm", 80, lambda rng: _axioms_item(rng, "perm", 0, 160)),
    ("table", 80, lambda rng: _axioms_item(rng, "table", 0, 160)),
    ("reversal", 30, lambda rng: _axioms_item(rng, "reversal", 0, 160)),
    ("perm_large", 9, lambda rng: _axioms_item(rng, "perm", 300, 400)),
    ("table_large", 9, lambda rng: _axioms_item(rng, "table", 300, 400)),
)


def _axioms_fixed(root: Path) -> list[Item]:
    return [Item("fixed/3cycle_6", "verify-rel", _config("abc", "permutation: (a b c)", max_len=6))]


def binary_sets() -> list[tuple[tuple[int, ...], ...]]:
    """All 4525 sets of at most three nonempty binary words of length <= 4."""
    universe = [w for n in range(1, 5) for w in itertools.product(range(2), repeat=n)]
    return [c for k in (1, 2, 3) for c in itertools.combinations(universe, k)]


def _ternary_set(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """2..5 ternary words of length <= 8; half are products over a small generator pool."""
    n = rng.randint(2, 5)
    if rng.random() < 0.5:
        ws = {tuple(rng.randrange(3) for _ in range(rng.randint(1, 8))) for _ in range(n)}
    else:
        gens = [tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(2, 3))]
        ws = set()
        for _ in range(n):
            w: tuple[int, ...] = ()
            for _ in range(rng.randint(1, 4)):
                w += rng.choice(gens)
            ws.add(w[:8])
    return tuple(sorted(ws))


HULL_TERNARY_COUNT = 20000 - 4525


def _cli_pool(command: str, strata, fixed: list[Item]) -> dict[str, list[Item]]:
    rng = random.Random(POOL_SEED)
    by_stratum: dict[str, list[Item]] = {}
    seen = {it.config for it in fixed}
    for name, count, gen in strata:
        items = []
        while len(items) < round(count * POOL_FACTOR):
            config = gen(rng)
            if config not in seen:
                seen.add(config)
                items.append(Item(f"{name}/{len(items)}", command, config))
        by_stratum[name] = items
    return by_stratum


def _hull_pool() -> tuple[list[Item], dict[str, list[Item]]]:
    fixed = [Item(f"binary/{i}", alphabet="ab", words=ws) for i, ws in enumerate(binary_sets())]
    rng = random.Random(POOL_SEED)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    ternary = []
    while len(ternary) < round(HULL_TERNARY_COUNT * POOL_FACTOR):
        ws = _ternary_set(rng)
        if ws not in seen:
            seen.add(ws)
            ternary.append(Item(f"ternary/{len(ternary)}", alphabet="abc", words=ws))
    return fixed, {"ternary": ternary}


CLI_WORKLOADS = {
    "search": ("search", SEARCH_STRATA, _search_fixed),
    "check": ("check", CHECK_STRATA, _check_fixed),
    "axioms": ("verify-rel", AXIOMS_STRATA, _axioms_fixed),
}


def pool(workload: str, root: Path) -> tuple[list[Item], dict[str, list[Item]], dict[str, int]]:
    """(fixed items, seeded pool per stratum, per-seed count per stratum)."""
    if workload == "hull":
        fixed, by_stratum = _hull_pool()
        return fixed, by_stratum, {"ternary": HULL_TERNARY_COUNT}
    if workload not in CLI_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    command, strata, fixed_fn = CLI_WORKLOADS[workload]
    fixed = fixed_fn(root)
    return fixed, _cli_pool(command, strata, fixed), {name: count for name, count, _ in strata}


def pool_items(workload: str, root: Path) -> list[Item]:
    """Every item the workload can run, in the order expected/<workload>.txt records them."""
    fixed, by_stratum, _ = pool(workload, root)
    return _flatten(fixed, by_stratum)


def _flatten(fixed: list[Item], by_stratum: dict[str, list[Item]]) -> list[Item]:
    return fixed + [it for members in by_stratum.values() for it in members]


def draw(workload: str, seed: int, root: Path) -> tuple[list[Item], dict[str, tuple[str, str, str]]]:
    """The items one run executes for this seed, in order, and the recorded outcomes.

    Fixed items run first, in their listed order; seeded items follow in
    an order shuffled by the seed.
    """
    fixed, by_stratum, counts = pool(workload, root)
    expected = load_expected(workload, _flatten(fixed, by_stratum))
    cost = {key: int(row[2]) for key, row in expected.items()}
    rng = random.Random(seed)
    chosen = []
    for name, members in by_stratum.items():
        # one item from each of count runs of the pool ranked by recorded cost, so
        # that every seed draws the same mix of light and heavy items and the
        # tail that sets item_p95_ms holds the same number of heavy items
        ranked = sorted(members, key=lambda it: (cost[it.key], it.key))
        cuts = [round(i * len(ranked) / counts[name]) for i in range(counts[name] + 1)]
        chosen += [rng.choice(ranked[a:b]) for a, b in zip(cuts, cuts[1:])]
    rng.shuffle(chosen)
    # fixed items first: the heavy ones then meet the same heap in every run
    return fixed + chosen, expected


def pool_fingerprint(items: list[Item]) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.fingerprint().encode())
        h.update(b"\x1e")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# expected outcomes


def load_expected(workload: str, items: list[Item]) -> dict[str, tuple[str, str, str]]:
    """Recorded (outcome, digest, cost in microseconds) per key of the pool items.

    Raises if the pool has drifted from the one recorded.
    """
    lines = (EXPECTED_DIR / f"{workload}.txt").read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split(), lines[1:]
    if header != ["fingerprint", pool_fingerprint(items)] or len(rows) != len(items):
        raise RuntimeError(f"expected/{workload}.txt does not match the generated pool; rerun record.py")
    return {it.key: tuple(row.split()) for it, row in zip(items, rows)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


# ---------------------------------------------------------------------------
# execution (imports wordeq)


class Runner:
    """Turns items into ready-to-run form and runs them against wordeq."""

    def __init__(self, workdir: Path):
        import wordeq
        import wordeq.cli

        self.wq = wordeq
        self.cli = wordeq.cli
        self.workdir = workdir
        self.paths: dict[str, str] = {}
        self.hull_inputs: dict[str, tuple] = {}
        self.relations: dict[str, tuple] = {}

    def prepare(self, items: list[Item]) -> None:
        """Write config files and build Word sets and relations (set-up work)."""
        wq = self.wq
        for letters, (cycles, table) in HULL_RELATIONS.items():
            alpha = wq.Alphabet(letters)
            self.relations[letters] = (
                alpha,
                wq.MorphicPermutation.from_cycles(alpha, cycles),
                wq.parse_relation(alpha, "table: " + table),
            )
        for i, it in enumerate(items):
            if it.command:
                path = self.workdir / f"{i}.cfg"
                path.write_text(it.config, encoding="utf-8")
                self.paths[it.key] = str(path)
            else:
                alpha = self.relations[it.alphabet][0]
                self.hull_inputs[it.key] = tuple(wq.Word(alpha, ls) for ls in it.words)

    def run(self, it: Item):
        """Run one item; the return value is turned into an outcome by finish()."""
        if not it.command:
            return self._run_hull(it)
        out, err = io.StringIO(), io.StringIO()
        path = self.paths[it.key]
        rc = self.cli.main([it.command, "--config", path, *it.args, "--machine"], out=out, err=err)
        extra = ""
        if it.command == "check" and rc == 0:
            extra = self._descend(path)
        return rc, out.getvalue(), extra

    def _descend(self, path: str) -> str:
        wq = self.wq
        cfg = self.cli.parse_config(path)
        rel = cfg.rel
        psol = wq.PseudoSolution(rel, {x: wq.EqClass.of(rel, w) for x, w in cfg.assign.items()})
        result = wq.descend(cfg.equation, psol, limit=cfg.product_guard)
        return f"{result.solution!r} rank={result.pseudo_rank()}"

    def _run_hull(self, it: Item):
        wq = self.wq
        ws = self.hull_inputs[it.key]
        _, perm, table = self.relations[it.alphabet]
        verdict = wq.is_code(ws)
        free = wq.free_hull(ws)
        hulls = [wq.pseudo_free_hull(rel, ws) for rel in (perm, table)]
        facts = [[wq.class_factorization(h, w) for w in ws] for h in hulls]
        return verdict, free, hulls, facts

    def finish(self, it: Item, raw) -> tuple[str, str]:
        """(outcome, digest) of a completed item; the outcome is the exit code for CLI items."""
        if it.command:
            rc, out, extra = raw
            outcome, text = str(rc), out + "\n" + extra
        else:
            verdict, free, hulls, facts = raw
            outcome, text = "0", "|".join([
                str(int(verdict.is_code)),
                _letters(free.words),
                *(_letters(h.basis_words.words) for h in hulls),
                *(";".join(_letters(c.rep for c in cw.classes) for cw in row) for row in facts),
            ])
        return outcome, digest(text)

    def semantic_errors(self, it: Item, raw) -> list[str]:
        """Invariants checked outside the timed region, independent of the recording."""
        if not it.command:
            return self._hull_errors(it, raw)
        rc, out, _ = raw
        if it.command == "search" and rc in (0, 1):
            if json.loads(out).get("descent_property") != "pass":
                return [f"{it.key}: descent_property is not pass"]
        return []

    def _hull_errors(self, it: Item, raw) -> list[str]:
        verdict, free, hulls, facts = raw
        ws = [w.letters for w in self.hull_inputs[it.key]]
        errors = []
        if verdict.is_code != sp_is_code(ws):
            errors.append(f"{it.key}: is_code verdict disagrees with Sardinas-Patterson")
        _, perm, table = self.relations[it.alphabet]
        for name, rel, basis in (("free", None, free.words),
                                 ("perm", perm, hulls[0].basis_words.words),
                                 ("table", table, hulls[1].basis_words.words)):
            bs = {b.letters for b in basis}
            if not sp_is_code(bs):
                errors.append(f"{it.key}: {name} basis is not a code")
            if not all(in_monoid(w, bs) for w in ws):
                errors.append(f"{it.key}: {name} basis does not cover the inputs")
            if rel is not None and not all(set(rel.class_letters(b)) <= bs for b in bs):
                errors.append(f"{it.key}: {name} basis is not class-closed")
        for rel, row in zip((perm, table), facts):
            for w, cw in zip(ws, row):
                if not in_class_product(w, [c.rep.letters for c in cw.classes], rel):
                    errors.append(f"{it.key}: class factorization of {w} misses the word")
        return errors


def judge(runner: Runner, items: list[Item], raws: list, expected: dict[str, tuple[str, str]],
          invariants: bool) -> tuple[int, list[str]]:
    """(failed items, mismatch messages) for one pass.

    raws holds each item's return value from Runner.run, or a string
    such as "timeout" or "traceback:ValueError" when it did not return.
    An item fails when its outcome differs from the recorded one or an
    invariant breaks; it is a mismatch too unless the outcome is the
    item's known defect. Hull invariants are checked only if asked.
    """
    failed, errors = 0, []
    for it, raw in zip(items, raws):
        if isinstance(raw, str):
            outcome, problems = (raw, "-"), []
        else:
            outcome = runner.finish(it, raw)
            problems = runner.semantic_errors(it, raw) if it.command or invariants else []
        want = expected[it.key][:2]
        if outcome == want and not problems:
            continue
        failed += 1
        if it.known_defect and outcome[0] == it.known_defect:
            continue
        errors.append(f"{it.key}: outcome {outcome}, expected {want}")
        errors.extend(problems)
    return failed, errors


def _letters(words) -> str:
    return ",".join("".join(map(str, w.letters)) for w in words)


def sp_is_code(words) -> bool:
    """Sardinas-Patterson test on letter tuples, written apart from wordeq."""
    xs = set(words)

    def residuals(a_set, b_set):
        return {b[len(a):] for a in a_set for b in b_set if b[: len(a)] == a and len(b) >= len(a)}

    u = residuals(xs, xs) - {()}
    seen = set()
    while u:
        if () in u:
            return False
        key = frozenset(u)
        if key in seen:
            return True
        seen.add(key)
        u = residuals(xs, u) | residuals(u, xs)
    return True


def in_monoid(w: tuple[int, ...], basis: set[tuple[int, ...]]) -> bool:
    reach = [True] + [False] * len(w)
    for i in range(len(w)):
        if reach[i]:
            for b in basis:
                if w[i : i + len(b)] == b:
                    reach[i + len(b)] = True
    return reach[len(w)]


def in_class_product(w: tuple[int, ...], reps: list[tuple[int, ...]], rel) -> bool:
    """Whether w cuts into pieces lying in the classes of reps, in order."""
    pos = 0
    for rep in reps:
        piece = w[pos : pos + len(rep)]
        if rel.class_letters(piece)[0] != rep:
            return False
        pos += len(rep)
    return pos == len(w)
