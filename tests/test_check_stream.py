"""Differential sweep of the streamed `check` report against one built whole.

`wordeq check` decides with the least common word and writes each side
language a chunk at a time straight to stdout; oracles.brute_check_report
materializes both sides through check_pseudo_solution and spells every
word on its own. The two must agree byte for byte in --machine and human
mode, over seeded configs with multi-character, non-ASCII and
JSON-escaped symbols, ε images, invalid verdicts, sides that span
several chunks and product guards that stop the check with the same
message. The x^6 y = y x^6 run pins the memory that streaming
saves: its two sides hold 279,936 words each. The x^6 y = x^6 y run
pins the memory of the decision, whose two sides agree on every word,
and the x^999999 y = x^999999 y run its memory on long sides.
A reader that closes the pipe early, and sides of 1,000,000 occurrences,
end in the report's exit code too. Every piece the writer yields holds 1
to SPELL_CHUNK words, whatever the shape of the side's classes.
"""
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import brute_check_report, brute_side_letters
from wordeq import Alphabet, EqClass, Identity, ProductLimitExceeded, PseudoSolution, check_pseudo_solution
from wordeq import cli, words

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
X6Y = HERE / "x6y_6cycle.cfg"
X6Y_SAME = HERE / "x6y_same.cfg"

ALPHABETS = [
    ("a", "b", "c"),
    ("a1", "b1", "c1"),  # multi-character symbols, spelled with spaces
    ("α", "β", "𝔞"),  # non-ASCII, one outside the BMP
    ('"', "\\", "\x01"),  # symbols JSON must escape
    ('q"', "b\\", "é"),  # both, spelled with spaces
]
EQUATIONS = ["x y = y x", "x y z = z y x", "x^2 y = y x^2", "x y = y", "x x y = y x x"]


def seeded_config(rng):
    symbols = rng.choice(ALPHABETS)
    a, b, c = symbols
    rel = rng.choice(["identity", f"permutation: ({a} {b} {c})", f"permutation: ({a} {b})",
                      f"table: {a}~{b}"])
    equation = rng.choice(EQUATIONS)
    single = all(len(s) == 1 for s in symbols)
    assign = []
    for x in "xyz"[: 3 if "z" in equation else 2]:
        # an image is a word of single-character symbols, or one symbol, or ε
        n = rng.choice([0, 1, 1, 2, 3] if single else [0, 1, 1])
        assign.append(f"{x}=" + "".join(rng.choice(symbols) for _ in range(n)))
    guard = f"product_guard: {rng.randint(1, 12)}\n" if rng.random() < 0.25 else ""
    return (f"alphabet: {' '.join(symbols)}\nrel: {rel}\nequation: {equation}\n"
            f"assign: {' '.join(assign)}\n{guard}")


def run_check(path, machine):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["check", "--config", path] + (["--machine"] if machine else []),
                    out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def expected_check(path, machine):
    """brute_check_report's exit code and stdout, or exit 3 and the guard
    message, which names the first side over the guard, left side first."""
    try:
        return (*brute_check_report(path, machine), None)
    except ProductLimitExceeded as exc:
        return cli.EXIT_BUDGET, "", f"budget exhausted: {exc}\n"


def test_streamed_report_matches_whole_report(tmp_path, monkeypatch):
    rng = random.Random(11)
    texts = [seeded_config(rng) for _ in range(150)]
    texts += [
        # one side of 4^7 = 16,384 words spans four chunks of the shipped size
        "alphabet: a b c d\nrel: permutation: (a b c d)\n"
        "equation: x^6 y = y x^6\nassign: x=ab y=a\n",
        # both sides over the guard, x y at 2 x 3 words and y x at 3 x 2
        "alphabet: a b c d e\nrel: permutation: (a b)(c d e)\nequation: x y = y x\n"
        "assign: x=a y=c\nproduct_guard: 5\n",
    ]
    seen = set()
    for i, text in enumerate(texts):
        path = tmp_path / f"{i}.cfg"
        path.write_text(text, encoding="utf-8")
        chunk = rng.choice([1, 2, 3, 7, cli.SPELL_CHUNK]) if i < 150 else cli.SPELL_CHUNK
        monkeypatch.setattr(cli, "SPELL_CHUNK", chunk)
        for machine in (True, False):
            code, out, err = run_check(str(path), machine)
            expect = expected_check(str(path), machine)
            assert (code, out) == expect[:2], text
            assert expect[2] is None or err == expect[2], text
        seen.add(("guard", code == cli.EXIT_BUDGET))
        if code == cli.EXIT_BUDGET:
            continue
        # the materialized sides are the former set products, in order
        cfg = cli.parse_config(str(path))
        rel = cfg.rel if cfg.rel is not None else Identity(cfg.alphabet)
        psol = PseudoSolution(rel, {x: EqClass.of(rel, w) for x, w in cfg.assign.items()})
        verdict = check_pseudo_solution(cfg.equation, psol)
        assert "lhs_language" not in vars(verdict)  # built only when read
        sides = [brute_side_letters(side, cfg.equation.unknowns, psol, 10**6)
                 for side in (cfg.equation.lhs, cfg.equation.rhs)]
        assert verdict.lhs_language.letters == tuple(sorted(sides[0]))
        assert verdict.rhs_language.letters == tuple(sorted(sides[1]))
        seen.add(("valid", verdict.valid))
        seen.add(("chunks", max(map(len, sides)) > chunk))
        seen.add(("ε image", any(not w for w in cfg.assign.values())))
        seen.add(("escaped", any(s in cfg.alphabet.symbols for s in ('"', 'q"'))))
        seen.add(("spaced", cfg.alphabet.sep == " "))
    kinds = ("valid", "chunks", "ε image", "escaped", "spaced", "guard")
    assert seen == {(kind, flag) for kind in kinds for flag in (True, False)}


def test_side_spells_each_distinct_class_once(monkeypatch):
    # 10,000 occurrences of {a, b}: each member is spelled once as the first
    # class and once after it, not once per occurrence
    spelled = []
    spell = Alphabet.spell
    monkeypatch.setattr(Alphabet, "spell", lambda self, letters: spelled.append(letters) or spell(self, letters))
    side = cli.SideLanguage(Alphabet("ab"), (((0,), (1,)),) * 10_000)
    for machine in (True, False):
        spelled.clear()
        first = next(side.chunks(machine))
        assert len(spelled) == 4
        words = json.loads(f"[{first}]") if machine else first.split(", ")
        assert len(words) == cli.SPELL_CHUNK
        assert words[0] == "a" * 10_000
        assert words[1] == "a" * 9_999 + "b"
        assert words[-1] == "a" * (10_000 - 12) + "b" * 12


# plain, spaced, JSON-escaped, and spaced and escaped symbols; none holds
# ", ", so a human piece splits back into its words
CHUNK_ALPHABETS = [("a", "b", "c"), ("a1", "b1", "c1"), ('"', "\\", "\x01"), ('q"', "b\\", "é")]


def random_chunk_side(rng, chunk):
    """Sorted classes of one member length each, in one of four shapes: mixed,
    a class larger than the chunk, a big class in front of single-member
    classes, or ε only."""
    shape = rng.choice(["mixed", "over chunk", "big first", "ε only"])
    if shape == "ε only":
        return shape, [((),)] * rng.randint(0, 3)
    if shape == "over chunk":  # the fewest words of one length past the chunk
        n = next(n for n in range(1, 10) if 3**n > chunk)
        big = tuple(itertools.product(range(3), repeat=n))
        return shape, [random_class(rng, 1)] * rng.randint(0, 2) + [big]
    if shape == "big first":
        return shape, [tuple(itertools.product(range(3), repeat=2))] + [
            random_class(rng, 1, 1) for _ in range(rng.randint(1, 4))]
    classes = [random_class(rng, rng.choice([0, 1, 1, 2])) for _ in range(rng.randint(1, 5))]
    return shape, classes


def random_class(rng, n, size=None):
    """A sorted class of size distinct members of length n over 3 letters."""
    pool = list(itertools.product(range(3), repeat=n))
    return tuple(sorted(rng.sample(pool, size or rng.randint(1, len(pool)))))


def test_chunks_hold_at_most_spell_chunk_words(monkeypatch):
    # every piece the writer yields holds 1 to SPELL_CHUNK words, and the
    # pieces in order are the sorted set product spelled word by word
    rng = random.Random(21)
    # 9^4 = 6,561 words at the shipped size: blocks of 729 words, 5 to a piece
    cases = [(4096, "mixed", [tuple(itertools.product(range(3), repeat=2))] * 4)]
    for chunk in (rng.choice([1, 2, 3, 7, 4096]) for _ in range(400)):
        cases.append((chunk, *random_chunk_side(rng, chunk)))
    seen = set()
    for chunk, shape, classes in cases:
        monkeypatch.setattr(cli, "SPELL_CHUNK", chunk)
        alphabet = Alphabet(rng.choice(CHUNK_ALPHABETS))
        expect = sorted({sum(t, ()) for t in itertools.product(*classes)})
        side = cli.SideLanguage(alphabet, tuple(classes))
        for machine in (True, False):
            out = list(side.chunks(machine))
            assert out[1::2] == [", "] * (len(out) // 2), classes
            pieces = out[::2]
            if machine:
                spelled = [json.dumps(alphabet.spell(w)) for w in expect]
                counts = [len(json.loads(f"[{p}]")) for p in pieces]
            else:
                spelled = [alphabet.spell(w) or "ε" for w in expect]
                counts = [len(p.split(", ")) for p in pieces]
            assert all(1 <= n <= chunk for n in counts), (chunk, classes, counts)
            assert "".join(out) == ", ".join(spelled), (chunk, classes)
        seen.add(shape)
        seen.add(("pieces", len(pieces) > 1))
        seen.add(("spaced", alphabet.sep == " "))
        seen.add(("escaped", '"' in alphabet.symbols[0]))
    assert seen == {"mixed", "over chunk", "big first", "ε only"} | {
        (kind, flag) for kind in ("pieces", "spaced", "escaped") for flag in (True, False)}


def test_side_words_cross_block_boundaries(monkeypatch):
    # the letter-tuple reader is the sorted set product, whether a side fits
    # one block or takes several
    rng = random.Random(22)
    for _ in range(300):
        monkeypatch.setattr(words, "SIDE_BLOCK", rng.choice([1, 2, 3, 7]))
        classes = random_chunk_side(rng, words.SIDE_BLOCK)[1]
        expect = sorted({sum(t, ()) for t in itertools.product(*classes)})
        assert [*words._side_words(classes)] == expect, (words.SIDE_BLOCK, classes)
        # the tail is the longest suffix of at most SIDE_BLOCK words, or the last class
        sizes = [math.prod(len(c) for c in classes[j:]) for j in range(len(classes))]
        longest = max([n for n in sizes if n <= words.SIDE_BLOCK] + sizes[-1:] + [1])
        tail = words._side_blocks(classes, words.SIDE_BLOCK, words._join)[1]
        assert len(tail) == longest, (words.SIDE_BLOCK, classes)
    monkeypatch.undo()
    classes = [tuple(itertools.product(range(3), repeat=2))] * 4  # 6,561 words
    prefixes, tail = words._side_blocks(classes, words.SIDE_BLOCK, words._join)
    assert (len(list(prefixes)), len(tail)) == (9, 729)
    expect = sorted({sum(t, ()) for t in itertools.product(*classes)})
    assert [*words._side_words(classes)] == expect


def child_env():
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


# Linux carries a process's peak RSS across fork and exec, so a child of the
# test process would report at least the test process's own peak; a fresh
# interpreter in between starts the CLI and reports its children's peak
PEAK_OF_CHILD = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize(
    "config,bound_mb",
    [(X6Y, 60), (X6Y_SAME, 60), (HERE / "x1m_y_swap.cfg", 300)],
    ids=["x6y_6cycle", "x6y_same", "x1m_y_swap"],
)
def test_large_check_report_streams_in_bounded_memory(config, bound_mb):
    # built whole, the two 279,936-word sides of the x6y reports peak at ~170 MB;
    # on x6y_same every word of a side survives every cut of the other. The
    # 1,000,000 occurrences of each side of x1m_y_swap peak at ~240 MB, most
    # of it the decision's per-occurrence offsets (~360 MB with a list of
    # cut blocks per class)
    cli_run = [sys.executable, "-m", "wordeq.cli", "check", "--config", str(config), "--machine"]
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_CHILD, *cli_run],
                          capture_output=True, text=True, env=child_env(), check=True)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == cli.EXIT_PASS
    assert peak_kib < bound_mb * 1024


@pytest.mark.skipif(os.name != "posix", reason="a closed pipe raises BrokenPipeError on POSIX")
def test_reader_that_stops_early_ends_the_run_cleanly():
    # the report has 2 x 279,936 words; the reader takes 50 bytes and leaves
    cli_run = [sys.executable, "-m", "wordeq.cli", "check", "--config", str(X6Y), "--machine"]
    proc = subprocess.Popen(cli_run, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_PASS, err
    assert head.startswith(b'{"command": "check"')
    assert "Traceback" not in err and "Exception ignored" not in err, err


LONG_SIDES = """
from wordeq import Alphabet, EqClass, Identity, PseudoSolution, Solution, parse_equation
from wordeq import check_pseudo_solution, check_solution, descend
e = parse_equation("x^1000000 = x^1000000")
rel = Identity(Alphabet("ab"))
a = rel.alphabet.word("a")
psol = PseudoSolution(rel, {"x": EqClass.of(rel, a)})
lhs = check_pseudo_solution(e, psol).lhs_language
print(check_solution(e, Solution({"x": a})), len(lhs), lhs.letters == ((0,) * 10**6,),
      descend(e, psol).pseudo_rank())
"""


def test_long_sides_are_joined_in_linear_time():
    # each side joins 1,000,000 occurrences, the most parse_equation takes;
    # a join quadratic in the occurrences runs for hours here
    n = 10**6
    config = HERE / "x1m_same.cfg"
    cli_run = [sys.executable, "-m", "wordeq.cli", "check", "--config", str(config), "--machine"]
    proc = subprocess.run(cli_run, capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == cli.EXIT_PASS, proc.stderr
    word = "a" * n
    expect = {"command": "check", "alphabet": ["a", "b"], "relation": "identity",
              "equation": f"x^{n} = x^{n}", "assign": {"x": "a"}, "valid": True,
              "common": word, "lhs_language": [word], "rhs_language": [word]}
    assert proc.stdout == json.dumps(expect) + "\n"
    proc = subprocess.run([sys.executable, "-c", LONG_SIDES], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "1", "True", "1"]


def test_long_sides_with_a_two_member_class_are_checked_in_linear_time():
    # each side has 999,999 occurrences of {a} and one of {b, c}; a walk that
    # copies its partial word at every class runs for hours here
    n = 999_999
    config = HERE / "x1m_y_swap.cfg"
    cli_run = [sys.executable, "-m", "wordeq.cli", "check", "--config", str(config), "--machine"]
    proc = subprocess.run(cli_run, capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == cli.EXIT_PASS, proc.stderr
    side = ["a" * n + "b", "a" * n + "c"]
    expect = {"command": "check", "alphabet": ["a", "b", "c"], "relation": "permutation: (b c)",
              "equation": f"x^{n} y = x^{n} y", "assign": {"x": "a", "y": "b"}, "valid": True,
              "common": side[0], "lhs_language": side, "rhs_language": side}
    assert proc.stdout == json.dumps(expect) + "\n"
