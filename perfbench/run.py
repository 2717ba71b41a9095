"""wordeq benchmark: one workload, passes in fresh processes, metrics as JSON.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): search, hull, check, axioms. Each pass runs
every item of the workload for this seed in a new child process
(child.py), one item at a time: a single-threaded closed-loop client that
starts the next item only after the previous one returned. Passes repeat
until --seconds have gone by; at least one runs (two with --trace 1).
Set-up time is the median of SETUP_SAMPLES set-ups: those of the passes,
plus processes that only set up when there were fewer passes.

--trace 0 reports the end-to-end metrics of END_TO_END: medians over the
passes, item percentiles over all items of all passes. --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of PER_LAYER from the traced ones, plus the tracing overhead (traced over
untraced wall time). Every item's outcome is checked against
expected/<workload>.txt; a mismatch makes the run incorrect and the exit
status 1. The last line of stdout is the result object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
PYTHONHASHSEED = "0"

# pass_ratio is the share of attempted items that did not fail; failures are
# counted as "failed" in the result object too. It is the complement of a
# failure ratio so that it never reads 0.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def _layer_names() -> dict[str, str]:
    timed = [
        "equations.enumerate_pseudo_solutions", "equations.canonical_representatives",
        "equations.descend", "equations.solution_rank", "equations.check_pseudo_solution",
        "equations.bounded_rank_certificate",
        "freeness.is_code", "freeness.minimal_generators", "freeness.free_hull", "freeness.rank",
        "pseudo.pseudo_free_hull", "pseudo.class_closure", "pseudo.class_factorization",
        "words.factorizations", "words.product", "words.is_in_monoid",
        "anticongruence.verify_axioms", "anticongruence.close_pairs",
        "anticongruence.parse_relation",
        "cli.parse_config", "cli.cmd_search", "cli.cmd_check", "cli.cmd_verify_rel",
        "cli.Report.machine_text", "cli.main",
    ]
    out = {}
    for fn in timed:
        out.update({f"{fn}.calls": "count", f"{fn}.total_s": "s", f"{fn}.self_s": "s"})
    out.update({
        "equations.enumerate_pseudo_solutions.emitted": "count",
        "equations.enumerate_pseudo_solutions.space": "count",
        "equations.check_pseudo_solution.max_side_words": "count",
        "words.Word.constructed": "count",
        "anticongruence.class_letters.calls": "count",
        "freeness.is_code.cache_hit_ratio": "ratio",
        "freeness.free_hull.cache_hit_ratio": "ratio",
        "pseudo.pseudo_free_hull.cache_hit_ratio": "ratio",
        "trace.spans": "count",
        "trace.overhead_ratio": "ratio",
    })
    return out


PER_LAYER = _layer_names()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def metadata(workload: str, seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pythonhashseed": PYTHONHASHSEED,
    }


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, index: int, scratch: Path, *flags: str) -> dict:
    """Start child.py for one pass (or set-up only) and return its measurements."""
    workdir = scratch / f"pass{index}"
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--out", str(out),
           "--spans", str(ROOT / ".perfbench_out" / f"spans_{workload}.tsv.gz"), *flags]
    spawned = time.monotonic()
    proc = subprocess.Popen([*cmd, "--spawned", repr(spawned)], env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassFailed(f"pass {index} exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    if code != 0 or not out.exists():
        raise PassFailed(f"pass {index} exited with status {code}")
    result = json.loads(out.read_text(encoding="utf-8"))
    shutil.rmtree(workdir)
    return result


def warm_up(scratch: Path) -> None:
    """Import everything once, so byte-code compilation is not timed as set-up."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys; sys.path.insert(0, sys.argv[1]); import wordeq, workloads, tracer, child"
    subprocess.run([sys.executable, "-c", code, str(HERE)], env=env, check=True, cwd=scratch)


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    latencies = [x for p in passes for x in p["latencies_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": percentile(latencies, 50) * 1000.0,
        "item_p95_ms": percentile(latencies, 95) * 1000.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    out = {}
    for name in PER_LAYER:
        values = [p["layers"].get(name, 0) for p in traced]
        out[name] = statistics.median(values)
    out["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                   / statistics.median(p["wall_s"] for p in untraced))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "wordeq" / "__init__.py").is_file():
        print(f"no wordeq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(scratch)
        passes: list[tuple[bool, dict]] = []
        started = time.monotonic()
        min_passes = 2 if args.trace else 1
        while len(passes) < min_passes or time.monotonic() - started < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            flags = ["--trace", str(int(traced)), "--invariants", str(int(not passes))]
            passes.append((traced, run_pass(args.workload, args.seed, len(passes), scratch, *flags)))
        setups = [p["setup_s"] for _, p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            probe = run_pass(args.workload, args.seed, len(passes) + len(setups), scratch,
                             "--setup-only", "1")
            setups.append(probe["setup_s"])
    except (PassFailed, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = [p for _, p in passes]
    errors = [e for p in results for e in p["errors"]]
    attempted = sum(p["attempted"] for p in results)
    failed = sum(p["failed"] for p in results)
    if args.trace:
        values = per_layer([p for t, p in passes if t], [p for t, p in passes if not t])
        units = PER_LAYER
    else:
        values = end_to_end(results, setups)
        units = END_TO_END

    meta = metadata(args.workload, args.seed)
    meta.update(passes=len(passes), items_per_pass=results[0]["attempted"])
    print("meta " + json.dumps(meta))
    print(f"{args.workload}: {len(passes)} passes x {results[0]['attempted']} items, "
          f"{attempted} attempted, {failed} failed, trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:55s} {value:14.6f} {units[name]}")
    for line in errors[:20]:
        print(f"  MISMATCH {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
