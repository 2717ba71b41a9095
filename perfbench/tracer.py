"""Spans around wordeq's public functions, installed from outside the program.

install() replaces each public function's binding in every wordeq module
that holds it (so freeness.is_code and pseudo.is_code are both traced),
wraps Report.machine_text, and counts Word constructions and
class_letters calls without spans. enumerate_pseudo_solutions gets one
span per next(), so the time its consumer spends between items (descent)
is not charged to it. Spans stay in memory until write_spans().
"""
from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from pathlib import Path

MODULES = ("words", "anticongruence", "freeness", "pseudo", "equations", "cli")
CACHES = {  # metric prefix -> (module, lru_cache-wrapped function)
    "freeness.is_code": ("freeness", "_is_code_cached"),
    "freeness.free_hull": ("freeness", "_free_hull_cached"),
    "pseudo.pseudo_free_hull": ("pseudo", "_pseudo_free_hull_cached"),
}
clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, time covered by child spans]
        self.item = -1
        self.counts: dict[str, int] = {}
        self.last_reps: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def _id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _enter(self, nid: int) -> None:
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self.stack.append([len(self.span_start), 0.0])
        self.span_start.append(clock())

    def _exit(self) -> None:
        end = clock()
        idx, covered = self.stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.total[nid] += duration
        self.self_time[nid] += duration - covered
        if self.stack:
            self.stack[-1][1] += duration

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        tracer = self
        after = {
            "equations.canonical_representatives": self._after_reps,
            "equations.check_pseudo_solution": self._after_check,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(e, *args, **kwargs):
            tracer.calls[nid] += 1
            return tracer._iterate(fn(e, *args, **kwargs), nid, name, len(e.unknowns))

        return traced

    def _iterate(self, gen, nid: int, name: str, unknowns: int):
        self.last_reps = None
        first = True
        try:
            while True:
                self._enter(nid)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit()
                    if first and self.last_reps is not None:
                        self._count(name + ".space", self.last_reps**unknowns)
                    first = False
                self._count(name + ".emitted")
                yield value
        finally:
            gen.close()

    def _after_reps(self, reps) -> None:
        self.last_reps = len(reps)

    def _after_check(self, verdict) -> None:
        key = "equations.check_pseudo_solution.max_side_words"
        size = max(len(verdict.lhs_language), len(verdict.rhs_language))
        self.counts[key] = max(self.counts.get(key, 0), size)

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _counted(self, fn, key: str):
        tracer = self
        self.counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        import wordeq

        mods = {m: importlib.import_module(f"wordeq.{m}") for m in MODULES}
        holders = [wordeq, *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(fn, name)
                else:
                    wrapper = self._wrap(fn, name)
                for holder in holders:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._replace(holder, bound, wrapper)
                        elif isinstance(value, dict):  # dispatch tables such as cli.COMMANDS
                            for key in [k for k, v in value.items() if v is fn]:
                                self._undo.append((value, key, fn))
                                value[key] = wrapper
        report = mods["cli"].Report
        self._replace(report, "machine_text", self._wrap(report.machine_text, "cli.Report.machine_text"))
        word = mods["words"].Word
        self._replace(word, "__post_init__", self._counted(word.__post_init__, "words.Word.constructed"))
        ac = mods["anticongruence"]
        for cls in (ac.Identity, ac.MorphicPermutation, ac.FiniteTable):
            self._replace(cls, "class_letters",
                          self._counted(vars(cls)["class_letters"], "anticongruence.class_letters.calls"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results

    def summary(self) -> dict[str, float]:
        """calls, total_s and self_s per traced function, counters and cache hit ratios."""
        import importlib

        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.total_s"] = self.total[nid]
            out[f"{name}.self_s"] = self.self_time[nid]
        out.update(self.counts)
        for prefix, (module, attr) in CACHES.items():
            cached = getattr(importlib.import_module(f"wordeq.{module}"), attr, None)
            info = cached.cache_info() if hasattr(cached, "cache_info") else None
            lookups = info.hits + info.misses if info else 0
            out[f"{prefix}.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as a tab-separated line: item, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("item\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_item[i]}\t{names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")
