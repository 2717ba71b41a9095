"""Record the expected outcome of every pool item: python3 perfbench/record.py [workload ...]

Runs each item of each workload's pool once against the wordeq in src/
and writes expected/<workload>.txt: a fingerprint of the pool, then one
"<exit code> <output digest> <cost in microseconds>" line per item in pool
order. The costs only rank pool items when a seed draws them. Items with
a known defect get the correct outcome, a config error (exit 2, no
report), instead of the one observed. Recording stops on any invariant violation
or unexpected traceback, so only checked outputs are written.

Rerun only when the program's outputs are meant to change, and say so.
"""
from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(workload: str) -> Path:
    from workloads import EXPECTED_DIR, Runner, digest, pool_fingerprint, pool_items

    items = pool_items(workload, ROOT)
    lines = [f"fingerprint {pool_fingerprint(items)}"]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runner = Runner(Path(tmp))
        runner.prepare(items)
        for it in items:
            started = time.perf_counter()
            try:
                raw = runner.run(it)
            except Exception as exc:
                if it.known_defect != f"traceback:{type(exc).__name__}":
                    raise
                raw, outcome = None, ("2", digest("\n"))
            cost_us = round((time.perf_counter() - started) * 1e6)
            if raw is not None:
                problems = runner.semantic_errors(it, raw)
                if problems:
                    raise RuntimeError("; ".join(problems))
                outcome = runner.finish(it, raw)
            lines.append(f"{outcome[0]} {outcome[1]} {cost_us}")
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def main() -> int:
    from workloads import WORKLOADS

    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for workload in sys.argv[1:] or WORKLOADS:
        print(f"recorded {record(workload)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    sys.exit(main())
