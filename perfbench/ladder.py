"""The ROADMAP baseline ladder, run once and not gated: python3 perfbench/ladder.py

Each row runs in a fresh process: search on the committed table config
at max_len 3 and 4 and on the swap config at 3 and 5, and verify_axioms
on the 3-cycle at max_len 6. A row records its wall time, the process's
peak RSS and the exit code; a row that outlives ROW_TIMEOUT_S is recorded
as a timeout. Writes baseline/ladder.json next to this file.
"""
from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROW_TIMEOUT_S = 120.0
ROWS = [
    ("search", "configs/xyz_zyx_table.cfg", 3),
    ("search", "configs/xyz_zyx_table.cfg", 4),
    ("search", "configs/swap_search.cfg", 3),
    ("search", "configs/swap_search.cfg", 5),
    ("verify_axioms", "permutation: (a b c)", 6),
]


def row(kind: str, target: str, max_len: int) -> None:
    """Run one row in this process and print its measurements as JSON."""
    import wordeq
    import wordeq.cli

    started = time.perf_counter()
    if kind == "search":
        code = wordeq.cli.main(["search", "--config", str(ROOT / target), "--max-len", str(max_len),
                                "--machine"], out=io.StringIO(), err=io.StringIO())
    else:
        alpha = wordeq.Alphabet("abc")
        code = 0 if wordeq.verify_axioms(wordeq.parse_relation(alpha, target), max_len) is None else 1
    elapsed = time.perf_counter() - started
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"wall_s": elapsed, "peak_rss_mb": peak, "exit": code}))


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import metadata

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    rows = []
    for kind, target, max_len in ROWS:
        entry = {"row": kind, "input": target, "max_len": max_len}
        try:
            proc = subprocess.run([sys.executable, __file__, "--row", kind, target, str(max_len)],
                                  env=env, capture_output=True, text=True, timeout=ROW_TIMEOUT_S,
                                  check=True)
            entry.update(json.loads(proc.stdout.splitlines()[-1]))
        except subprocess.TimeoutExpired:
            entry["timeout_s"] = ROW_TIMEOUT_S
        rows.append(entry)
        print(json.dumps(entry), flush=True)
    meta = metadata("ladder", 0)
    del meta["workload"], meta["seed"]
    out = HERE / "baseline" / "ladder.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--row"]:
        row(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
