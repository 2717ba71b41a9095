"""Fuzz the CLI with configs assembled from valid and broken fragments.

Every command and flag combination must end in a report or a defined exit
code (0 pass, 1 fail, 2 configuration error, 3 budget or guard), never in
an exception or a traceback. max_len stays at most 3, so every run is
small.
"""
import io
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from wordeq.cli import COMMANDS, main

SRC = Path(__file__).resolve().parent.parent / "src"
EXIT_CODES = {0, 1, 2, 3}

# alphabet -> the valid fragments over it; the equations' unknowns are all in x y z
FAMILIES = {
    "a b": {
        "rel": ["identity", "permutation: (a b)", "table: a~b", "table: ab~ba"],
        "assign": ["x=a y=b z=ab", "x=ab y=ba z=b", "x= y=a z=bb"],
        "words": ["a ab ba", "ab ba", "a b", "aab"],
    },
    "a b c": {
        "rel": ["identity", "permutation: (a b c)", "permutation: (a b)",
                "table: a~c, ab~cb, bc~ba, abc~cba"],
        "assign": ["x=abc y=b z=a", "x=a y=bc z=ca"],
        "words": ["abc b a", "a bca abc"],
    },
    "a1 b1": {
        "rel": ["identity", "permutation: (a1 b1)", "table: a1~b1", "table: a1 b1~b1 a1"],
        "assign": ["x=a1 y=b1 z=a1", "x=b1 y=b1 z="],
        "words": ["a1 b1"],
    },
    "a b·c a·b c": {
        "rel": ["identity", "permutation: (a c)"],
        "assign": ["x=a y=b·c z=a·b"],
        "words": ["a b·c a·b c"],
    },
}
VALID = {
    "equation": ["x y = y x", "x y z = z y x", "x^2 y = y x^2", "x = y", "x y = y"],
    "max_len": ["0", "1", "2", "3", "03"],
    "budget": ["1", "3", "50", "1000"],
    "product_guard": ["1", "4", "100", "1000000"],
}
BROKEN = {
    "alphabet": ["a a", ""],
    "rel": ["permutation: (a a)", "permutation: (a b", "permutation: (q)", "table: a~bb",
            "table: a~z", "table: a", "table:", "reversal", "frob"],
    "equation": ["x = = y", "x^0 = y", "= x", "x^ = y", "x", "x^-1 = y", "x^" + "9" * 5000 + " = x"],
    "assign": ["x", "=a", "x=q y=a z=a", "x=a"],
    "words": ["q", "", "a a"],
    "max_len": ["-1", "x", "+1", ""],
    "budget": ["0", "-2", "1e3", ""],
    "product_guard": ["0", "-1", "many"],
}
JUNK = ["# comment", "no colon here", "frob: 1", ": value", "max_len: 2"]
FLAGS = {
    "--max-len": (["0", "1", "2", "3"], ["-1", "x", " 2", ""]),
    "--budget": (["1", "3", "50"], ["0", "-1", "b"]),
}


def fragment(draw, valid: list[str], broken: list[str]):
    """Mostly a valid value, sometimes a broken one or none at all."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return None
    return draw(st.sampled_from(broken if kind == 1 else valid))


@st.composite
def configs(draw) -> str:
    alphabet = draw(st.sampled_from(sorted(FAMILIES)))
    valid = {"alphabet": [alphabet], **FAMILIES[alphabet], **VALID}
    lines = []
    for key, broken in BROKEN.items():
        value = fragment(draw, valid[key], broken)
        if value is not None:
            lines.append(f"{key}: {value}")
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(JUNK)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def argvs(draw) -> list[str]:
    argv = [draw(st.sampled_from(sorted(COMMANDS)))]
    for flag, (valid, broken) in FLAGS.items():
        if draw(st.booleans()):
            value = fragment(draw, valid, broken)
            argv += [flag] if value is None else [flag, value]
    if draw(st.booleans()):
        argv.append("--machine")
    return argv


def config_path(tmp_path_factory, text: str) -> str:
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs(), argvs())
def test_main_returns_an_exit_code(tmp_path_factory, text, argv):
    path = config_path(tmp_path_factory, text)
    out, err = io.StringIO(), io.StringIO()
    code = main([argv[0], "--config", path, *argv[1:]], out=out, err=err)
    assert code in EXIT_CODES
    if code in (0, 1):
        assert out.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith(("config error: ", "error: "))


@settings(max_examples=5, deadline=None)
@given(configs(), argvs())
def test_subprocess_never_prints_a_traceback(tmp_path_factory, text, argv):
    path = config_path(tmp_path_factory, text)
    proc = subprocess.run(
        [sys.executable, "-m", "wordeq.cli", argv[0], "--config", path, *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode in EXIT_CODES, proc.stderr
    assert "Traceback" not in proc.stderr
