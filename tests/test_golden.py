"""Byte-for-byte regression check of the --machine reports on the shipped configs.

tests/golden/<cfg>.<command>.txt holds the exit code on its first line
and the exact --machine stdout after it, for every configs/*.cfg and
every CLI command. Rewrite them with `python tests/test_golden.py` only
when a report is meant to change.
"""
import io
from pathlib import Path

import pytest

from wordeq.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = [(cfg, command) for cfg in sorted((ROOT / "configs").glob("*.cfg")) for command in COMMANDS]


def render(cfg: Path, command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = main([command, "--config", str(cfg), "--machine"], out=out, err=err)
    return f"{code}\n{out.getvalue()}"


def golden_path(cfg: Path, command: str) -> Path:
    return GOLDEN / f"{cfg.stem}.{command}.txt"


@pytest.mark.parametrize("cfg,command", CASES, ids=[f"{c.stem}.{m}" for c, m in CASES])
def test_machine_report_matches_golden(cfg, command):
    assert render(cfg, command) == golden_path(cfg, command).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for cfg, command in CASES:
        golden_path(cfg, command).write_text(render(cfg, command), encoding="utf-8")
