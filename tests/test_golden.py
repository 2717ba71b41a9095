"""Byte-for-byte regression check of the reports on the shipped configs.

tests/golden/<name>.txt holds the exit code on its first line and the
exact --machine stdout after it, and tests/golden/<name>.human.txt the
same for the human report. <name> is <cfg>.<command> for every
configs/*.cfg and every CLI command, plus the extra runs listed in
EXTRA. Rewrite both with `python tests/test_golden.py` only when a
report is meant to change.
"""
import io
from pathlib import Path

import pytest

from wordeq.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ROOT / "configs"
# budget exhaustion pins the assignment counting rule: every assignment in
# lexicographic order counts as examined, the length-pruned ones included
EXTRA = [
    ("xyz_zyx_table.search_budget",
     ["search", "--config", str(CONFIGS / "xyz_zyx_table.cfg"), "--budget", "10"]),
]
CASES = [
    (f"{cfg.stem}.{command}", [command, "--config", str(cfg)])
    for cfg in sorted(CONFIGS.glob("*.cfg"))
    for command in COMMANDS
] + EXTRA


def render(argv: list[str], machine: bool = True) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = main(argv + ["--machine"] * machine, out=out, err=err)
    return f"{code}\n{out.getvalue()}"


def golden_path(name: str, machine: bool = True) -> Path:
    return GOLDEN / f"{name}.txt" if machine else GOLDEN / f"{name}.human.txt"


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_machine_report_matches_golden(name, argv):
    assert render(argv) == golden_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_human_report_matches_golden(name, argv):
    expect = golden_path(name, machine=False).read_text(encoding="utf-8")
    assert render(argv, machine=False) == expect


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        for machine in (True, False):
            golden_path(name, machine).write_text(render(argv, machine), encoding="utf-8")
