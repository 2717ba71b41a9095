"""Differential sweep of the streamed `search` report against one built whole.

`wordeq search` decides how the search ends before it writes a row, then
writes each row of the certificate as the walk finds and descends it;
oracles.brute_search_report materializes the certificate through
brute_certificate and renders the report in one piece. The two must agree
byte for byte in --machine and human mode, with the same exit code and
budget message, on every test_enumerate.INSTANCES row, on budget and
guard exits, on descent failures, around the human table's row limit and
at several block sizes. A `max_len` 4 search pins the memory that
streaming saves, and a reader that closes the pipe early still gets the
report's exit code.
"""
import io
import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import PairTable, brute_search_report
from test_check_stream import PEAK_OF_CHILD, child_env
from test_enumerate import INSTANCES, largest_side_product
from wordeq import Alphabet, Identity, MorphicPermutation, parse_equation
from wordeq import cli

ROOT = Path(__file__).resolve().parent.parent
TABLE_CFG = ROOT / "configs" / "xyz_zyx_table.cfg"
AB = Alphabet("ab")


def job(e, rel, max_len, budget=None, limit=None):
    """A search config for rel, built without a file so that any relation object fits."""
    cfg = cli.JobConfig(path="<sweep>", alphabet=rel.alphabet, rel=rel, rel_text=rel.describe(),
                        equation=e, equation_text=str(e), max_len=max_len, budget=budget)
    if limit is not None:
        cfg.product_guard = limit
    return cfg


def run_search(monkeypatch, cfg, machine):
    """cli.main on cfg: its exit code, stdout and stderr."""
    monkeypatch.setattr(cli, "parse_config", lambda path: cfg)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["search", "--config", cfg.path] + (["--machine"] if machine else []), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def row_pieces(cfg):
    """The pieces the rows of cfg's --machine report are written in, between its [ and ]."""
    pieces = list(cli.cmd_search(cfg).data["pseudo_solutions"].pieces("pseudo_solutions", True))
    assert (pieces[0], pieces[-1]) == ("[", "]")
    return pieces[1:-1]


def edge_cases():
    """Searches that end in a budget or guard exit, fail their descent, or
    have 0, 1, 50 or 51 rows (the human table shows HUMAN_TABLE_ROWS = 50)."""
    swap = MorphicPermutation(AB, (1, 0))
    commute, triple = parse_equation("x y = y x"), parse_equation("x y z = z y x")
    letters = string.ascii_letters
    return [
        # the ordinary walk spends the budget before the pseudo walk starts
        ("ordinary budget", job(triple, swap, 2, budget=20)),
        # under the identity one walk serves both phases
        ("identity budget", job(commute, Identity(AB), 3, budget=40)),
        ("identity, budget left", job(commute, Identity(AB), 2, budget=49)),
        # only the pseudo walk can trip the guard: identity classes have one member
        ("pseudo guard", job(triple, swap, 2, limit=3)),
        ("pseudo guard, budget left", job(triple, swap, 2, budget=343, limit=3)),
        # ab~ba without a~b is not cut-closed, so some rows do not descend
        ("descent failures", job(commute, PairTable(AB, [((0, 1), (1, 0))]), 3)),
        ("0 rows", job(commute, swap, -1)),
        ("1 row", job(commute, swap, 0)),
        # x = y has one row per representative: ε and each letter at max_len 1
        ("50 rows", job(parse_equation("x = y"), Identity(Alphabet(letters[:49])), 1)),
        ("51 rows", job(parse_equation("x = y"), Identity(Alphabet(letters[:50])), 1)),
    ]


def test_streamed_search_report_matches_whole_report(monkeypatch):
    rng = random.Random(12)
    cases = edge_cases() + [(name, job(e, rel, max_len)) for name, e, rel, max_len in INSTANCES]
    # the guard just under the largest side product stops the pseudo walk
    for name, e, rel, max_len in INSTANCES[::4]:
        largest = largest_side_product(e, rel, max_len)
        if largest > 1:
            cases.append((f"{name}/guarded", job(e, rel, max_len, limit=largest - 1)))
    seen = set()
    for i, (name, cfg) in enumerate(cases):
        chunk = (1, 2, 3, 4096)[i % 4] if i < 12 else rng.choice([1, 2, 3, 7, 4096])
        monkeypatch.setattr(cli, "SPELL_CHUNK", chunk)
        for machine in (True, False):
            code, out, err = run_search(monkeypatch, cfg, machine)
            expect_code, expect_out, message = brute_search_report(cfg, machine)
            assert (code, out) == (expect_code, expect_out), name
            if message is None:
                assert err.startswith("elapsed_ms: ") and err.count("\n") == 1, name
            else:
                assert err == message, name
            if machine:
                data = json.loads(out) if out else {}
        seen.add(("exit", code))
        seen.add(("chunk", chunk))
        if code == cli.EXIT_BUDGET:
            seen.add(("budget report", bool(out)))
            continue
        count = len(data["pseudo_solutions"])
        seen.add(("rows", count))
        seen.add(("identity", cfg.rel == Identity(cfg.alphabet)))
        # every piece holds 1 to SPELL_CHUNK whole rows
        pieces = row_pieces(cfg)
        assert pieces[1::2] == [", "] * (len(pieces) // 2), name
        sizes = [len(json.loads(f"[{p}]")) for p in pieces[::2]]
        assert all(1 <= n <= chunk for n in sizes) and sum(sizes) == count, (name, chunk, sizes)
    assert {("exit", code) for code in (0, 1, 3)} <= seen
    assert {("budget report", True), ("budget report", False)} <= seen
    assert {("rows", n) for n in (0, 1, 50, 51)} | {("chunk", n) for n in (1, 2, 3, 4096)} <= seen
    assert {("identity", True), ("identity", False)} <= seen


def test_tallies_read_before_the_rows_drain_them():
    # reading a tally first walks the rest of the rows unwritten, and the
    # rows cannot then be written
    cfg = job(parse_equation("x y = y x"), MorphicPermutation(AB, (1, 0)), 3)
    report = cli.cmd_search(cfg)
    assert (report.data["pseudo_count"], report.exit_code) == (34, cli.EXIT_PASS)
    with pytest.raises(RuntimeError, match="written once"):
        report.machine_text()


def test_search_data_is_a_mapping_of_head_and_tallies():
    data = cli.cmd_search(job(parse_equation("x y = y x"), MorphicPermutation(AB, (1, 0)), 1)).data
    assert len(data) == len(list(data)) == len(set(data))
    assert {"pseudo_solutions", "pseudo_count", "descent_property"} <= set(data)
    with pytest.raises(KeyError):
        data["no_such_key"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_search_report_streams_in_bounded_memory():
    # built whole, the 14,563 rows of this report peaked at ~39.5 MB; streamed, ~27 MB
    cli_run = [sys.executable, "-m", "wordeq.cli", "search", "--config", str(TABLE_CFG),
               "--max-len", "4", "--machine"]
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_CHILD, *cli_run],
                          capture_output=True, text=True, env=child_env(), check=True)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == cli.EXIT_PASS
    assert peak_kib < 34 * 1024


@pytest.mark.skipif(os.name != "posix", reason="a closed pipe raises BrokenPipeError on POSIX")
def test_reader_that_stops_early_gets_the_search_exit_code():
    # the report has 1,011,601 bytes; the reader takes 100 and leaves while
    # the walk is still finding rows, which it then walks to the end unwritten
    cli_run = [sys.executable, "-m", "wordeq.cli", "search", "--config", str(TABLE_CFG),
               "--max-len", "4", "--machine"]
    proc = subprocess.Popen(cli_run, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_PASS, err
    assert head.startswith(b'{"command": "search"')
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.startswith("elapsed_ms: "), err
