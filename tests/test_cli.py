import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wordeq import Alphabet
from wordeq.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    ConfigError,
    SideLanguage,
    main,
    parse_config,
    run_command,
)

SRC = Path(__file__).resolve().parent.parent / "src"

TABLE_CFG = """\
# three-unknown instance over the cut-closed table relation
alphabet: a b c
rel: table: a~c, ab~cb, bc~ba, abc~cba
equation: x y z = z y x
assign: x=abc y=b z=a
words: abc b a
max_len: 3
"""

IDENTITY_HULL_CFG = """\
alphabet: a b c
rel: identity
words: a bca abc
"""

COMMUTE_CFG = """\
alphabet: a b
rel: table: a~b
equation: x y = y x
assign: x={x} y={y}
max_len: 2
"""


def write(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParseConfig:
    def test_full_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, TABLE_CFG))
        assert cfg.alphabet.symbols == ("a", "b", "c")
        assert cfg.max_len == 3
        assert [str(w) for w in cfg.words] == ["abc", "b", "a"]
        assert str(cfg.equation) == "x y z = z y x"

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r":2: unknown key"):
            parse_config(write(tmp_path, "alphabet: a b\nrelation: identity\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, "alphabet: a b\nalphabet: a\n"))

    def test_rel_without_alphabet(self, tmp_path):
        with pytest.raises(ConfigError, match="alphabet"):
            parse_config(write(tmp_path, "rel: identity\n"))

    def test_words_without_alphabet(self, tmp_path):
        cfg = write(tmp_path, "words: ab b\n")
        with pytest.raises(ConfigError, match=r":1: words needs an alphabet declared first$"):
            parse_config(cfg)
        code, out, err = run(["hull", "--config", cfg, "--machine"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert "words needs an alphabet declared first" in err and "Traceback" not in err

    def test_bad_word(self, tmp_path):
        with pytest.raises(ConfigError, match="words"):
            parse_config(write(tmp_path, "alphabet: a b\nwords: abz\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="max_len"):
            parse_config(write(tmp_path, "alphabet: a b\nmax_len: soon\n"))

    @pytest.mark.parametrize("key", ["max_len", "budget", "product_guard"])
    @pytest.mark.parametrize("text", ["--3", "²", "3.0"])
    def test_malformed_integer_is_config_error(self, tmp_path, key, text):
        cfg = write(tmp_path, f"alphabet: a b\nrel: identity\nequation: x y = y x\n{key}: {text}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)
        code, out, err = run(["search", "--config", cfg, "--machine"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("alphabet: a b\nequation: ^2 x = x\n", ":2: bad equation: missing unknown before '^' at column 0"),
            ("alphabet: a b\nequation: x=y = z\n", ":2: bad equation: malformed token 'x=y' at column 0"),
            ("alphabet: a b c\nrel: table: a~b~c\n", ":2: bad rel: bad table pair: 'a~b~c'"),
            ("assign: x=a\n", ":1: assign needs an alphabet declared first"),
            ("alphabet: a b\nassign: x=z\n", ":2: bad assign: symbol 'z' not in alphabet ('a', 'b')"),
        ],
        ids=["bare exponent", "equals in token", "table pair", "assign without alphabet", "assign off alphabet"],
    )
    def test_bad_line_is_config_error(self, tmp_path, text, message):
        cfg = write(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            parse_config(cfg)
        code, out, err = run(["check", "--config", cfg])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: ") and message in err and "Traceback" not in err

    def test_non_ascii_exponent_is_config_error(self, tmp_path):
        # ² passes str.isdigit() but not int()
        cfg = write(tmp_path, COMMUTE_CFG.format(x="a", y="b").replace("x y =", "x^² y ="))
        proc = subprocess.run(
            [sys.executable, "-m", "wordeq.cli", "check", "--config", cfg],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
        assert proc.stderr.startswith("config error: ") and "bad exponent" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_exponent_is_config_error(self, tmp_path):
        # one occurrence past the side bound, read even by verify-rel
        cfg = write(tmp_path, "alphabet: a b\nequation: x^1000001 = x\nmax_len: 1\n")
        code, out, err = run(["verify-rel", "--config", cfg])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: ")
        assert "bad equation: side expands past 1000000 occurrences at column 0" in err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="address-space limits differ")
    def test_huge_exponent_refused_before_expanding(self, tmp_path):
        # 10^11 occurrences cannot fit in the child's 1 GiB of address space
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        cfg = write(tmp_path, "alphabet: a b\nequation: x^100000000000 = x\nmax_len: 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wordeq.cli", "verify-rel", "--config", cfg],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=cap,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, ""), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")


class TestHull:
    def test_table_hull(self, tmp_path):
        code, out, _ = run(["hull", "--config", write(tmp_path, TABLE_CFG), "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["basis"] == ["a", "b", "c"]
        assert data["classes"] == {"[a]": ["a", "c"], "[b]": ["b"]}
        assert data["rank"] == 3
        assert data["pseudo_rank"] == 2

    def test_identity_hull(self, tmp_path):
        code, out, _ = run(["hull", "--config", write(tmp_path, IDENTITY_HULL_CFG), "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["basis"] == ["a", "bc"]
        assert data["rank"] == 2
        assert data["pseudo_rank"] == 2

    def test_empty_word_list(self, tmp_path):
        cfg = write(tmp_path, "alphabet: a b\nrel: identity\nwords:\n")
        code, out, _ = run(["hull", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["basis"] == []
        assert data["rank"] == 0

    def test_missing_words_key(self, tmp_path):
        code, _, err = run(["hull", "--config", write(tmp_path, "alphabet: a b\n")])
        assert code == EXIT_CONFIG
        assert "words" in err


class TestCheck:
    def test_valid(self, tmp_path):
        code, out, _ = run(["check", "--config", write(tmp_path, TABLE_CFG), "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["valid"] is True
        assert data["common"] == "abcba"

    def test_invalid(self, tmp_path):
        cfg = write(tmp_path, COMMUTE_CFG.format(x="ab", y="a"))
        code, out, _ = run(["check", "--config", cfg, "--machine"])
        assert code == EXIT_FAIL
        data = json.loads(out)
        assert data["valid"] is False
        assert data["lhs_language"] == ["aba", "abb"]
        assert data["rhs_language"] == ["aab", "bab"]

    def test_identity_check(self, tmp_path):
        cfg = write(
            tmp_path,
            "alphabet: a b c\nrel: identity\nequation: x y = z x\nassign: x=a y=bca z=abc\n",
        )
        code, out, _ = run(["check", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        assert json.loads(out)["valid"] is True

    def test_multichar_symbols_spelled_with_spaces(self, tmp_path):
        cfg = write(
            tmp_path,
            "alphabet: a1 b1\nrel: permutation: (a1 b1)\n"
            "equation: x y = y x\nassign: x=a1 y=b1\n",
        )
        code, out, _ = run(["check", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["assign"] == {"x": "a1", "y": "a1"}
        assert data["common"] == "a1 a1"
        words = ["a1 a1", "a1 b1", "b1 a1", "b1 b1"]
        assert data["lhs_language"] == data["rhs_language"] == words

    def test_all_empty_images_spell_epsilon(self, tmp_path):
        cfg = write(tmp_path, COMMUTE_CFG.format(x="", y=""))
        code, out, _ = run(["check", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        assert '"lhs_language": [""]' in out

    @pytest.mark.parametrize(
        "symbols, words",
        [
            ("ab", [[(0, 1), (1, 0), (1, 1)]]),
            ("ab", [[(0, 1), (1, 0)], [()], [(0,), (1,)]]),  # ε and unequal lengths between
            (("a1", "b1"), [[(0,), (1,)], [()], [(1,)]]),  # multi-character symbols
            ("αβγ", [[(0, 2, 1), (2, 1, 0)], [(1,)]]),  # non-ASCII symbols
            ("abc", [[(0,), (1,), (2,)]] * 8),  # several chunks
            ("ab", [[()]]),
            ("ab", [[()], [()]]),
        ],
    )
    def test_bulk_spelling_matches_per_word(self, symbols, words):
        # words holds a side's classes; the writer spells their product chunk
        # by chunk, and must match the sorted product spelled word by word
        alphabet = Alphabet(symbols)
        side = SideLanguage(alphabet, [tuple(c) for c in words])
        product = sorted({sum(p, ()) for p in itertools.product(*words)})
        spelled = [alphabet.spell(w) for w in product]
        assert json.loads("[" + "".join(side.chunks(machine=True)) + "]") == spelled
        assert "".join(side.chunks(machine=False)) == ", ".join(w or "ε" for w in spelled)

    def test_missing_assignment(self, tmp_path):
        cfg = write(tmp_path, "alphabet: a b\nrel: identity\nequation: x y = y x\nassign: x=a\n")
        code, _, err = run(["check", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "y" in err

    def test_reversal_rejected_outside_verify(self, tmp_path):
        cfg = write(
            tmp_path, "alphabet: a b\nrel: reversal\nequation: x y = y x\nassign: x=a y=a\n"
        )
        code, _, err = run(["check", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "verify-rel" in err


class TestSearch:
    def test_commutation_search(self, tmp_path):
        cfg = write(tmp_path, COMMUTE_CFG.format(x="a", y="b"))
        code, out, _ = run(["search", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["descent_property"] == "pass"
        assert data["max_pseudo_rank"] == 1
        assert data["pseudo_count"] == len(data["pseudo_solutions"])

    def test_table_search(self, tmp_path):
        code, out, _ = run(["search", "--config", write(tmp_path, TABLE_CFG), "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["max_pseudo_rank"] == 2
        assert {"assign": {"x": "abc", "y": "b", "z": "a"}, "pseudo_rank": 2} in data[
            "pseudo_solutions"
        ]

    def test_budget_exhaustion(self, tmp_path):
        cfg = write(tmp_path, TABLE_CFG + "budget: 10\n", name="budget.cfg")
        code, out, _ = run(["search", "--config", cfg, "--machine"])
        assert code == EXIT_BUDGET
        data = json.loads(out)
        assert data["budget_exhausted"] is True
        assert data["assignments_examined"] == 10

    def test_budget_stops_before_representatives_are_built(self, tmp_path):
        # ~1.8e19 words have length <= 40; the walk generates only those it examines
        cfg = write(tmp_path, "alphabet: a b c\nequation: x y = y x\nmax_len: 40\n")
        code, out, _ = run(["search", "--config", cfg, "--machine", "--budget", "1"])
        assert code == EXIT_BUDGET
        data = json.loads(out)
        assert (data["assignments_examined"], data["solutions_found_before_exhaustion"]) == (1, 1)

    def test_many_unknowns_end_in_a_report(self, tmp_path):
        # the walk keeps one iterator per unknown on a stack, not one Python frame
        xs = [f"x{i}" for i in range(1200)]
        equation = " ".join(xs) + " = " + " ".join(reversed(xs))
        cfg = write(tmp_path, f"alphabet: a b\nrel: permutation: (a b)\nequation: {equation}\nmax_len: 0\n")
        code, out, _ = run(["search", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        assert json.loads(out)["descent_property"] == "pass"
        # under a budget only the length vectors below it are listed, not 4^1200
        code, out, _ = run(["search", "--config", cfg, "--machine", "--max-len", "3", "--budget", "10"])
        assert code == EXIT_BUDGET
        data = json.loads(out)
        assert (data["assignments_examined"], data["solutions_found_before_exhaustion"]) == (10, 10)

    def test_colliding_class_names_end_in_a_report(self, tmp_path):
        # a, b·c and a·b, c join to the same class name [a·b·c]
        cfg = write(
            tmp_path, "alphabet: a b·c a·b c\nequation: x y z = z y x\nmax_len: 2\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "wordeq.cli", "search", "--config", cfg, "--machine"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode in (EXIT_PASS, EXIT_FAIL), proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["descent_property"] == "pass"

    def test_max_len_override(self, tmp_path):
        cfg = write(tmp_path, COMMUTE_CFG.format(x="a", y="b"))
        code, out, _ = run(["search", "--config", cfg, "--machine", "--max-len", "1"])
        assert code == EXIT_PASS
        assert json.loads(out)["max_len"] == 1

    def test_missing_max_len(self, tmp_path):
        cfg = write(tmp_path, "alphabet: a b\nrel: identity\nequation: x y = y x\n")
        code, _, err = run(["search", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "max_len" in err

    @pytest.mark.parametrize("flag", ["--max-len", "--budget"])
    @pytest.mark.parametrize("text", ["1_0", "+2", " 2", "٢", "2.0", "", "-1"])
    def test_malformed_integer_flag_is_config_error(self, tmp_path, flag, text):
        # the config's integer rule: 1_0 and ٢ would pass int()
        cfg = write(tmp_path, COMMUTE_CFG.format(x="a", y="b"))
        code, out, err = run(["search", "--config", cfg, "--machine", f"{flag}={text}"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"bad {flag}" in err

    def test_flags_do_not_carry_over_between_calls(self, tmp_path):
        cfg = write(tmp_path, COMMUTE_CFG.format(x="a", y="b"))
        code, out, _ = run(["search", "--config", cfg, "--machine", "--budget", "1"])
        assert code == EXIT_BUDGET
        assert json.loads(out)["budget"] == 1
        code, out, _ = run(["search", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        assert json.loads(out)["budget"] is None

    def test_zero_budget_flag_is_config_error(self, tmp_path):
        cfg = write(tmp_path, COMMUTE_CFG.format(x="a", y="b"))
        code, out, err = run(["search", "--config", cfg, "--budget", "0"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert "bad --budget: must be positive" in err

    def test_identity_search_is_ordinary(self, tmp_path):
        cfg = write(
            tmp_path, "alphabet: a b\nrel: identity\nequation: x y = y x\nmax_len: 2\n"
        )
        code, out, _ = run(["search", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["pseudo_count"] == data["ordinary_count"]
        assert data["max_pseudo_rank"] == data["max_ordinary_rank"] == 1
        assert all(row["pseudo_rank"] <= 1 for row in data["pseudo_solutions"])

    def test_verify_rel_zero_max_len_rejected(self, tmp_path):
        cfg = write(tmp_path, "alphabet: a b\nrel: identity\nmax_len: 0\n")
        code, _, err = run(["verify-rel", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "max_len" in err


class TestVerifyRel:
    def test_permutation_passes(self, tmp_path):
        cfg = write(tmp_path, "alphabet: a b\nrel: permutation: (a b)\nmax_len: 4\n")
        code, out, _ = run(["verify-rel", "--config", cfg, "--machine"])
        assert code == EXIT_PASS
        assert json.loads(out)["verdict"] == "pass"

    def test_identity_passes(self, tmp_path):
        cfg = write(tmp_path, "alphabet: a b c\nrel: identity\nmax_len: 3\n")
        code, out, _ = run(["verify-rel", "--config", cfg, "--machine"])
        assert code == EXIT_PASS

    def test_reversal_counterexample(self, tmp_path):
        cfg = write(tmp_path, "alphabet: a b c\nrel: reversal\nmax_len: 3\n")
        code, out, _ = run(["verify-rel", "--config", cfg, "--machine"])
        assert code == EXIT_FAIL
        data = json.loads(out)
        assert data["verdict"] == "counterexample"
        assert data["counterexample"]["kind"] == "cut"
        assert data["counterexample"]["u"] == "ab"
        assert data["counterexample"]["v"] == "ba"
        assert data["counterexample"]["cut"] == 1

    def test_oversized_max_len_hits_the_word_guard(self, tmp_path):
        # 2^20001 words: the guard stops counting long before the sum has 4300 digits
        cfg = write(tmp_path, "alphabet: a b\nrel: permutation: (a b)\nmax_len: 20000\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wordeq.cli", "verify-rel", "--config", cfg, "--machine"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert proc.returncode == EXIT_BUDGET, proc.stderr
        assert proc.stderr.startswith("budget exhausted:")
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        path = write(tmp_path, TABLE_CFG)
        for command in ("hull", "check", "search"):
            first = run([command, "--config", path, "--machine"])
            second = run([command, "--config", path, "--machine"])
            assert first[1] == second[1]
            assert first[0] == second[0]

    def test_human_reports_byte_identical(self, tmp_path):
        path = write(tmp_path, TABLE_CFG)
        assert run(["search", "--config", path])[1] == run(["search", "--config", path])[1]

    def test_timing_kept_out_of_stdout(self, tmp_path):
        path = write(tmp_path, IDENTITY_HULL_CFG)
        _, out, err = run(["hull", "--config", path])
        assert "elapsed_ms" not in out
        assert "elapsed_ms" in err


class TestRunCommand:
    def test_report_carries_elapsed(self, tmp_path):
        report = run_command("hull", write(tmp_path, IDENTITY_HULL_CFG))
        assert report.elapsed_ms >= 0.0
        assert report.data["command"] == "hull"

    def test_human_rendering_mentions_classes(self, tmp_path):
        report = run_command("hull", write(tmp_path, TABLE_CFG))
        text = report.human_text()
        assert "pseudo_rank: 2" in text
        assert "[a]" in text


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["search", "--config", "swap_search.cfg", "--max-len"],
             "wordeq search: argument --max-len: expected one argument"),
            (["frob", "--config", "swap_search.cfg"], "wordeq: argument command: invalid choice: 'frob'"),
            ([], "wordeq: the following arguments are required: command"),
        ],
        ids=["missing flag value", "unknown command", "no command"],
    )
    def test_bad_command_line_is_config_error(self, argv, message, capsys):
        # argparse's message goes to err; nothing exits or writes to sys.stderr
        code, out, err = run(argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"config error: {message}")
        assert capsys.readouterr() == ("", "")
