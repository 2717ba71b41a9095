"""Byte-for-byte regression check of the --machine reports on the shipped configs.

tests/golden/<name>.txt holds the exit code on its first line and the
exact --machine stdout after it. <name> is <cfg>.<command> for every
configs/*.cfg and every CLI command, plus the extra runs listed in
EXTRA. Rewrite them with `python tests/test_golden.py` only when a
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


def render(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = main(argv + ["--machine"], out=out, err=err)
    return f"{code}\n{out.getvalue()}"


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_machine_report_matches_golden(name, argv):
    assert render(argv) == golden_path(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        golden_path(name).write_text(render(argv), encoding="utf-8")
