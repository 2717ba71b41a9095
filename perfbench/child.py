"""One pass of a workload in a fresh interpreter; writes its measurements as JSON.

run.py starts this script once per pass, so wordeq's caches start cold as
they do for every CLI user. --spawned is run.py's CLOCK_MONOTONIC reading
just before the start, so setup_s covers interpreter start, import wordeq
and building the inputs. Items run one at a time; outputs are digested
and checked only after the timed phase.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ITEM_TIMEOUT_S = 60.0


class ItemTimeout(BaseException):
    """Raised into a running item by the watchdog; not an Exception, so wordeq cannot catch it."""


class Watchdog:
    """A once-a-second timer that interrupts the current item after ITEM_TIMEOUT_S."""

    def __init__(self) -> None:
        self.started: float | None = None
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0, 1.0)

    def _tick(self, signum, frame) -> None:
        if self.started is not None and time.perf_counter() - self.started > ITEM_TIMEOUT_S:
            self.started = None
            raise ItemTimeout()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--invariants", type=int, default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", type=int, default=0)
    args = ap.parse_args()
    root = HERE.parent

    import wordeq  # noqa: F401  (import time is part of set-up)
    from workloads import Runner, draw, judge

    items, expected = draw(args.workload, args.seed, root)
    runner = Runner(args.workdir)
    runner.prepare(items)
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": time.monotonic() - args.spawned}), encoding="utf-8")
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    watchdog = Watchdog()

    raws: list = [None] * len(items)
    latencies = [0.0] * len(items)
    setup_s = time.monotonic() - args.spawned
    phase_start = time.perf_counter()
    for i, it in enumerate(items):
        if tracer is not None:
            tracer.item = i
        start = watchdog.started = time.perf_counter()
        try:
            raws[i] = runner.run(it)
        except ItemTimeout:
            raws[i] = "timeout"
        except Exception as exc:  # any traceback is an item outcome, not a crash of the pass
            raws[i] = f"traceback:{type(exc).__name__}"
        finally:
            watchdog.started = None
        latencies[i] = time.perf_counter() - start
    wall_s = time.perf_counter() - phase_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    watchdog.stop()

    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        if args.spans is not None:
            tracer.write_spans(args.spans)

    failed, errors = judge(runner, items, raws, expected, bool(args.invariants))

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failed": failed,
        "errors": errors[:50],
        "layers": layers,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
