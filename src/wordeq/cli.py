"""Command-line front end: flat-file configs, deterministic reports.

Commands: hull, check, search, verify-rel. Each reads a line-oriented
config (key: value), takes --max-len/--budget overrides, and emits either
a human-readable report or, with --machine, a single JSON object. Reports
are byte-identical across runs of the same config; timing goes to stderr.

Exit status: 0 pass/valid, 1 fail/invalid, 2 configuration errors and
bad command lines, 3 budget or guard exhaustion.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, NoReturn, Optional, Sequence, TextIO

from .anticongruence import (
    Anticongruence,
    EqClass,
    Identity,
    Reversal,
    parse_relation,
    verify_axioms,
)
from .equations import (
    BudgetExceeded,
    CertificateRows,
    Equation,
    PseudoSolution,
    check_pseudo_solution,
    parse_equation,
)
from .freeness import Letters, rank
from .pseudo import pseudo_free_hull
from .words import (
    DEFAULT_PRODUCT_LIMIT,
    SIDE_BLOCK,
    Alphabet,
    EnumerationGuardExceeded,
    ProductLimitExceeded,
    Word,
    WordEqError,
    _side_blocks,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

HUMAN_TABLE_ROWS = 50
SPELL_CHUNK = SIDE_BLOCK  # most side-language words or search rows per write, which bounds a report's peak memory


class ConfigError(WordEqError):
    """Malformed or incomplete job configuration."""


@dataclass
class JobConfig:
    """Parsed flat config: declarations shared by all commands."""

    path: str
    alphabet: Optional[Alphabet] = None
    rel: Optional[Anticongruence] = None
    rel_text: str = "identity"
    equation: Optional[Equation] = None
    equation_text: str = ""
    assign: dict[str, Word] = field(default_factory=dict)
    words: Optional[list[Word]] = None
    max_len: Optional[int] = None
    budget: Optional[int] = None
    product_guard: int = DEFAULT_PRODUCT_LIMIT


def _parse_integer(key: str, text: str) -> int:
    """The integer rule for config values and flags: -?[0-9]+, then the range
    (max_len non-negative, budget and product_guard positive)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer, got {text!r}")
    value = int(text)
    if value < 0 or (key != "max_len" and value == 0):
        raise ValueError("must be non-negative" if key == "max_len" else "must be positive")
    return value


def parse_config(path: str) -> JobConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    entries: list[tuple[int, str, str]] = []
    seen: dict[str, int] = {}
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{no}: expected 'key: value', got {line!r}")
        if key in seen:
            raise ConfigError(f"{path}:{no}: duplicate key {key!r} (first at line {seen[key]})")
        seen[key] = no
        entries.append((no, key, value.strip()))

    cfg = JobConfig(path=path)
    known = {"alphabet", "rel", "equation", "assign", "words", "max_len", "budget", "product_guard"}
    by_key = {key: (no, value) for no, key, value in entries}
    for no, key, _ in entries:
        if key not in known:
            raise ConfigError(f"{path}:{no}: unknown key {key!r}")

    def fail(key: str, exc: Exception) -> ConfigError:
        no = by_key[key][0]
        return ConfigError(f"{path}:{no}: bad {key}: {exc}")

    if "alphabet" in by_key:
        try:
            cfg.alphabet = Alphabet(by_key["alphabet"][1].split())
        except ValueError as exc:
            raise fail("alphabet", exc) from exc

    for key in ("max_len", "budget", "product_guard"):
        if key in by_key:
            try:
                setattr(cfg, key, _parse_integer(key, by_key[key][1]))
            except ValueError as exc:
                raise fail(key, exc) from exc

    if "rel" in by_key:
        if cfg.alphabet is None:
            raise ConfigError(f"{path}:{by_key['rel'][0]}: rel needs an alphabet declared first")
        try:
            cfg.rel = parse_relation(cfg.alphabet, by_key["rel"][1])
            cfg.rel_text = by_key["rel"][1]
        except ValueError as exc:
            raise fail("rel", exc) from exc

    if "equation" in by_key:
        try:
            cfg.equation = parse_equation(by_key["equation"][1])
            cfg.equation_text = by_key["equation"][1]
        except WordEqError as exc:
            raise fail("equation", exc) from exc

    if "assign" in by_key:
        if cfg.alphabet is None:
            raise ConfigError(f"{path}:{by_key['assign'][0]}: assign needs an alphabet declared first")
        for chunk in by_key["assign"][1].split():
            name, sep, image = chunk.partition("=")
            if not sep or not name:
                raise fail("assign", ValueError(f"expected name=word, got {chunk!r}"))
            try:
                cfg.assign[name] = cfg.alphabet.word(image)
            except ValueError as exc:
                raise fail("assign", exc) from exc

    if "words" in by_key:
        if cfg.alphabet is None:
            raise ConfigError(f"{path}:{by_key['words'][0]}: words needs an alphabet declared first")
        cfg.words = []
        for text in by_key["words"][1].split():
            try:
                cfg.words.append(cfg.alphabet.word(text))
            except ValueError as exc:
                raise fail("words", exc) from exc

    return cfg


def _require(cfg: JobConfig, **fields: bool) -> None:
    for name, needed in fields.items():
        if needed and getattr(cfg, name) is None:
            raise ConfigError(f"{cfg.path}: missing required key {name!r}")


def _anticongruence(cfg: JobConfig) -> Anticongruence:
    rel = cfg.rel if cfg.rel is not None else Identity(cfg.alphabet)
    if isinstance(rel, Reversal):
        raise ConfigError(
            f"{cfg.path}: relation {rel.describe()!r} is not an anticongruence "
            "(it fails the cut condition); it can only be used with verify-rel"
        )
    return rel


def _mword(w: Word) -> str:
    return w.alphabet.spell(w.letters)


def _massign_class(images: dict[str, EqClass], order: tuple[str, ...]) -> dict[str, str]:
    return {x: _mword(images[x].rep) for x in order if x in images}


@dataclass(frozen=True, slots=True)
class SideLanguage:
    """A report's side language, held as the sorted members of its
    occurrences' classes and spelled only while the report is written."""

    alphabet: Alphabet
    classes: Sequence[tuple[Letters, ...]]

    def chunks(self, machine: bool) -> Iterator[str]:
        """The spelled words in order, 1 to SPELL_CHUNK to a piece, separated
        by ", ": JSON strings if machine, else bare words with ε for the empty one.

        Each member of each distinct class is spelled (and JSON-escaped,
        which works symbol by symbol) once, after the symbol separator
        unless its class comes first, and a word concatenates its members'
        pieces. The class of ε adds nothing to a word, so it is left out of
        the product. The product is read a block at a time (see
        words._side_blocks): the block of a head prefix p is written as
        p + (glue + p).join(tail), one C-level join, and a piece holds as
        many whole blocks as fit in SPELL_CHUNK words, or a SPELL_CHUNK
        slice of one block when the tail alone is larger.
        """
        spell, sep = self.alphabet.spell, self.alphabet.sep
        quote = (lambda text: json.dumps(text)[1:-1]) if machine else str
        classes = [c for c in self.classes if c != ((),)]
        spelled: dict[tuple, tuple[str, ...]] = {}  # (class, comes first) -> its pieces
        pieces = []
        for i, c in enumerate(classes):
            key = (c, not i)
            if key not in spelled:
                spelled[key] = tuple((sep if i else "") + quote(spell(m)) for m in c)
            pieces.append(spelled[key])
        prefixes, tail = _side_blocks(pieces, SPELL_CHUNK, "".join)
        glue = '", "' if machine else ", "
        slices = [tail[i : i + SPELL_CHUNK] for i in range(0, len(tail), SPELL_CHUNK)]
        per_piece = max(SPELL_CHUNK // len(tail), 1)  # prefixes per piece
        first = True
        for batch in iter(lambda: [*itertools.islice(prefixes, per_piece)], []):
            for block in slices:
                text = glue.join([p + (glue + p).join(block) for p in batch])
                if not first:
                    yield ", "
                first = False
                yield f'"{text}"' if machine else text or "ε"

    def pieces(self, key: str, machine: bool) -> Iterator[str]:
        yield "[" if machine else f"{key}: {{"
        yield from self.chunks(machine)
        yield "]" if machine else "}"


@dataclass(frozen=True, slots=True)
class SearchRows:
    """search's pseudo_solutions, read from the certificate rows while the
    report is written, once."""

    rows: CertificateRows
    order: tuple[str, ...]

    def pieces(self, key: str, machine: bool) -> Iterator[str]:
        """The JSON list, one str.join of 1 to SPELL_CHUNK rows a piece, the
        pieces separated by ", " (machine); else the row count and the first
        HUMAN_TABLE_ROWS rows, which are all the rows it keeps."""
        if self.rows.pseudo_count:
            raise RuntimeError("the rows of a search report are written once")
        if not machine:
            shown = [*itertools.islice(self.rows, HUMAN_TABLE_ROWS)]
            count = len(shown) + sum(1 for _ in self.rows)
            if not count:
                yield f"{key}: {{}}"
                return
            yield f"{key}: ({count} entries)"
            for psol, pr in shown:
                yield f"\n  - assign={_human_scalar(_massign_class(psol.images, self.order))}, pseudo_rank={pr}"
            if count > len(shown):
                yield f"\n  ... and {count - len(shown)} more"
            return
        # each row as json.dumps writes it, each class's representative spelled and escaped once
        names = [(x, json.dumps(x) + ": ") for x in self.order]
        quoted: dict[Letters, str] = {}

        def text(row: tuple[PseudoSolution, int]) -> str:
            images, parts = row[0].images, []
            for x, name in names:
                rep = images[x].rep
                q = quoted.get(rep.letters)
                if q is None:
                    q = quoted[rep.letters] = json.dumps(_mword(rep))
                parts.append(name + q)
            return f'{{"assign": {{{", ".join(parts)}}}, "pseudo_rank": {row[1]}}}'

        texts = map(text, self.rows)
        yield "["
        for i, block in enumerate(iter(lambda: [*itertools.islice(texts, SPELL_CHUNK)], [])):
            if i:
                yield ", "
            yield ", ".join(block)
        yield "]"


_SEARCH_TALLIES = (
    "pseudo_count", "max_pseudo_rank", "pseudo_witness", "ordinary_count",
    "max_ordinary_rank", "ordinary_witness", "descent_property", "descent_failures",
)


class SearchData(Mapping):
    """search's report document: the head keys, the streamed pseudo_solutions,
    then the certificate's tallies, read once the rows have ended. Reading a
    tally before the rows are written drains them unwritten."""

    def __init__(self, head: dict, rows: CertificateRows, order: tuple[str, ...]):
        self._head = {**head, "pseudo_solutions": SearchRows(rows, order)}
        self._rows, self._order = rows, order
        self._tallies: Optional[dict] = None

    def __iter__(self) -> Iterator[str]:
        return itertools.chain(self._head, _SEARCH_TALLIES)

    def __len__(self) -> int:
        return len(self._head) + len(_SEARCH_TALLIES)

    def __getitem__(self, key: str):
        if key in self._head:
            return self._head[key]
        if key not in _SEARCH_TALLIES:
            raise KeyError(key)
        if self._tallies is None:
            rows, order = self._rows, self._order
            for _ in rows:  # the rows not written
                pass
            self._tallies = {
                "pseudo_count": rows.pseudo_count,
                "max_pseudo_rank": rows.max_pseudo_rank,
                "pseudo_witness": (
                    _massign_class(rows.pseudo_witness.images, order)
                    if rows.pseudo_witness is not None
                    else None
                ),
                "ordinary_count": rows.ordinary_count,
                "max_ordinary_rank": rows.max_ordinary_rank,
                "ordinary_witness": (
                    {x: _mword(rows.ordinary_witness[x]) for x in order}
                    if rows.ordinary_witness is not None
                    else None
                ),
                "descent_property": "fail" if rows.descent_failures else "pass",
                "descent_failures": list(rows.descent_failures),
            }
        return self._tallies[key]


@dataclass
class Report:
    """Command outcome: an ordered key/value document plus an exit code.

    data must stay deterministically ordered and JSON-serializable, except
    that a top-level value may be a SideLanguage or SearchRows, which
    write() streams a piece at a time. outcome is the exit code, or, when
    the code is known only once a streamed value has ended, a function
    that reads it from data. The elapsed time is carried separately so
    that emitted reports stay byte-identical across runs.
    """

    data: Mapping
    outcome: int | Callable[[], int]
    elapsed_ms: float = 0.0

    @property
    def exit_code(self) -> int:
        return self.outcome() if callable(self.outcome) else self.outcome

    def machine_text(self) -> str:
        return "".join(self._pieces(machine=True))

    def human_text(self) -> str:
        return "".join(self._pieces(machine=False))

    def write(self, out: TextIO, machine: bool) -> None:
        """Write the text and a newline to out, a piece at a time."""
        out.writelines(self._pieces(machine))
        out.write("\n")

    def _pieces(self, machine: bool) -> Iterator[str]:
        # one per top-level key, joined the way json.dumps joins a dict, or one
        # human line per key; no value nests deeper than the hull's classes
        for i, (key, value) in enumerate(self.data.items()):
            if machine:
                yield (", " if i else "{") + json.dumps(key) + ": "
            elif i:
                yield "\n"
            if isinstance(value, (SideLanguage, SearchRows)):
                yield from value.pieces(key, machine)
            elif machine:
                yield json.dumps(value, ensure_ascii=True)
            elif not isinstance(value, dict):
                yield f"{key}: {_human_scalar(value)}"
            elif value and not any(isinstance(v, (dict, list)) for v in value.values()):
                yield f"{key}: " + ", ".join(f"{k}={_human_scalar(v)}" for k, v in value.items())
            else:
                yield f"{key}:" + "".join(f"\n  {k}: {_human_scalar(v)}" for k, v in value.items())
        if machine:
            yield "}"


def _human_scalar(v: object) -> str:
    if v == "" or v is None:
        return "ε" if v == "" else "-"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}={_human_scalar(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "{" + ", ".join(_human_scalar(x) for x in v) + "}"
    return str(v)


def cmd_hull(cfg: JobConfig) -> Report:
    _require(cfg, alphabet=True, words=True)
    rel = _anticongruence(cfg)
    words = cfg.words or []
    hull = pseudo_free_hull(rel, words)
    ordinary = rank(words)
    data = {
        "command": "hull",
        "alphabet": list(cfg.alphabet.symbols),
        "relation": cfg.rel_text,
        "words": [_mword(w) for w in sorted(set(words))],
        "basis": [_mword(w) for w in hull.basis_words],
        "classes": {
            str(c): list(map(rel.alphabet.spell, c.language().letters)) for c in hull.classes
        },
        "rank": ordinary,
        "pseudo_rank": hull.pseudo_rank(),
    }
    return Report(data, EXIT_PASS)


def cmd_check(cfg: JobConfig) -> Report:
    _require(cfg, alphabet=True, equation=True)
    rel = _anticongruence(cfg)
    e = cfg.equation
    missing = [x for x in e.unknowns.symbols if x not in cfg.assign]
    if missing:
        raise ConfigError(f"{cfg.path}: assign misses unknowns: {', '.join(missing)}")
    psol = PseudoSolution(rel, {x: EqClass.of(rel, w) for x, w in cfg.assign.items()})
    verdict = check_pseudo_solution(e, psol, cfg.product_guard)
    data = {
        "command": "check",
        "alphabet": list(cfg.alphabet.symbols),
        "relation": cfg.rel_text,
        "equation": cfg.equation_text,
        "assign": _massign_class(psol.images, e.unknowns.symbols),
        "valid": verdict.valid,
        "common": None if verdict.common is None else _mword(verdict.common),
        "lhs_language": SideLanguage(rel.alphabet, verdict.lhs_classes),
        "rhs_language": SideLanguage(rel.alphabet, verdict.rhs_classes),
    }
    return Report(data, EXIT_PASS if verdict.valid else EXIT_FAIL)


def cmd_search(cfg: JobConfig) -> Report:
    _require(cfg, alphabet=True, equation=True, max_len=True)
    rel = _anticongruence(cfg)
    e = cfg.equation
    head = {
        "command": "search",
        "alphabet": list(cfg.alphabet.symbols),
        "relation": cfg.rel_text,
        "equation": cfg.equation_text,
        "max_len": cfg.max_len,
        "budget": cfg.budget,
    }
    try:
        rows = CertificateRows(e, rel, cfg.max_len, budget=cfg.budget, limit=cfg.product_guard)
    except BudgetExceeded as exc:
        data = {
            **head,
            "budget_exhausted": True,
            "assignments_examined": exc.examined,
            "solutions_found_before_exhaustion": exc.emitted,
        }
        return Report(data, EXIT_BUDGET)
    data = SearchData({**head, "budget_exhausted": False}, rows, e.unknowns.symbols)
    return Report(data, lambda: EXIT_PASS if data["descent_property"] == "pass" else EXIT_FAIL)


def cmd_verify_rel(cfg: JobConfig) -> Report:
    _require(cfg, alphabet=True, max_len=True)
    if cfg.max_len < 1:
        raise ConfigError(f"{cfg.path}: verify-rel needs max_len >= 1")
    rel = cfg.rel if cfg.rel is not None else Identity(cfg.alphabet)
    violation = verify_axioms(rel, cfg.max_len)
    data = {
        "command": "verify-rel",
        "alphabet": list(cfg.alphabet.symbols),
        "relation": cfg.rel_text,
        "max_len": cfg.max_len,
        "verdict": "pass" if violation is None else "counterexample",
    }
    if violation is not None:
        data["counterexample"] = {
            "kind": violation.kind,
            "u": _mword(violation.u),
            "v": _mword(violation.v),
            "cut": violation.cut,
            "via": _mword(violation.via) if violation.via is not None else None,
        }
    return Report(data, EXIT_PASS if violation is None else EXIT_FAIL)


COMMANDS = {
    "hull": cmd_hull,
    "check": cmd_check,
    "search": cmd_search,
    "verify-rel": cmd_verify_rel,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigError on a bad command line instead of exiting; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="wordeq",
        description="Word equations over anticongruences: hulls, ranks, pseudo-solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a flat key: value config file")
        p.add_argument("--max-len", default=None, help="override max_len")
        p.add_argument("--budget", default=None, help="override budget")
        p.add_argument("--machine", action="store_true", help="emit one JSON object")
    return parser


_PARSER = build_parser()  # parse_args leaves it unchanged, so every main call shares it


def run_command(
    command: str,
    config_path: str,
    max_len: Optional[int | str] = None,
    budget: Optional[int | str] = None,
) -> Report:
    """Parse the config, apply overrides, and run one command.

    The overrides follow the config's integer rule, whether given as flag
    text or as int.
    """
    cfg = parse_config(config_path)
    for key, override in (("max_len", max_len), ("budget", budget)):
        if override is not None:
            try:
                setattr(cfg, key, _parse_integer(key, str(override)))
            except ValueError as exc:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"{config_path}: bad {flag}: {exc}") from exc
    started = time.perf_counter()
    report = COMMANDS[command](cfg)
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return report


def main(
    argv: Optional[list[str]] = None,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _PARSER.parse_args(argv)
        report = run_command(args.command, args.config, args.max_len, args.budget)
    except ConfigError as exc:
        print(f"config error: {exc}", file=err)
        return EXIT_CONFIG
    except (EnumerationGuardExceeded, ProductLimitExceeded, BudgetExceeded) as exc:
        print(f"budget exhausted: {exc}", file=err)
        return EXIT_BUDGET
    except WordEqError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CONFIG
    started = time.perf_counter()
    try:
        report.write(out, args.machine)
        out.flush()
    except BrokenPipeError:
        # the reader left early; os.devnull spares the exit flush its closed pipe (signal docs)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), out.fileno())
    report.elapsed_ms += (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms: {report.elapsed_ms:.1f}", file=err)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
