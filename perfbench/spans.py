"""In-memory spans around the program's public entry points.

The benchmark measures the program from outside: :func:`install`
replaces a fixed list of public functions and methods with wrappers
that record one span per call (name, start, end, parent) plus a few
counts read off the call's arguments or result.  Spans stay in memory
until :meth:`Recorder.dump` writes them out at the end of a pass, and
:func:`summarize` derives each layer's self time from them: a span's
duration minus the part of it covered by its child spans.

Nothing here is imported by the program; the wrappers are installed
into the running interpreter of a benchmark pass or of a traced server.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

Counter = Callable[[tuple, dict, Any], dict]


def _items(args, kwargs, result) -> dict:
    # Branch traces are (pcs, outcomes) pairs; the rest are sized arrays.
    trace = result[0] if isinstance(result, tuple) else result
    return {"items": len(trace)}


def _machine(args, kwargs, result) -> dict:
    return {"instructions": result.n_instructions, "cycles": result.cycles}


def _refs(args, kwargs, result) -> dict:
    return {"refs": len(args[1])}


def _branches(args, kwargs, result) -> dict:
    return {"branches": len(args[1])}


def _cells(args, kwargs, result) -> dict:
    return {"cells": len(result)}


def _hit(args, kwargs, result) -> dict:
    return {"hits": int(result is not None)}


def _report(args, kwargs, result) -> dict:
    report = args[0].report
    return {"retries": report.retries}


#: (span name, module, attribute, counter) for every wrapped entry point.
#: ``Class.method`` attributes are patched on the class; plain functions
#: are patched in their module and wherever ``from x import f`` bound them.
FULL: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("workloads.generate", "repro.workloads.instruction_trace",
     "generate_instruction_trace", _items),
    ("workloads.generate", "repro.workloads.address_trace",
     "generate_address_trace", _items),
    ("workloads.generate", "repro.tlb.workloads", "generate_page_trace", _items),
    ("workloads.generate", "repro.branch.workloads", "generate_branch_trace", _items),
    ("workloads.generate", "repro.workloads.phases", "PhasedWorkload.generate", _items),
    ("workloads.generate", "repro.workloads.phases",
     "PhasedMemoryWorkload.generate", _items),
    ("ooo.run", "repro.ooo.machine", "OutOfOrderMachine.run", _machine),
    ("cache.stackdist", "repro.cache.stackdist", "StackDistanceEngine.process", _refs),
    ("tlb.stack", "repro.tlb.simulator", "PageStackEngine.process", _refs),
    ("branch.predict", "repro.branch.predictors", "BimodalPredictor.run", _branches),
    ("branch.predict", "repro.branch.predictors", "GsharePredictor.run", _branches),
    ("engine.map", "repro.engine.engine", "ExperimentEngine.map", _cells),
    ("engine.execute", "repro.resilience.executor", "ResilientExecutor.run", _report),
    ("engine.cache_key", "repro.engine.cache", "ResultCache.key", None),
    ("engine.cache_load", "repro.engine.cache", "ResultCache.load", _hit),
    ("engine.cache_store", "repro.engine.cache", "ResultCache.store", None),
    ("api.assemble", "repro.api.query", "request_cell", None),
    ("api.assemble", "repro.api.query", "result_from_payload", None),
)

#: The pool only: cheap enough to leave a pooled pass's timing intact.
ENGINE = tuple(t for t in FULL if t[0] == "engine.execute")

#: The client half of the service layer, wrapped in the load generator.
CLIENT = (("service.optimize", "repro.service.client", "ServiceClient.optimize", None),)


class Recorder:
    """Collects spans from every thread of one interpreter."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        """``fn`` with a span recorded around every call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            record = {"name": name, "parent": stack[-1] if stack else -1}
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(record)
            stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                record["counts"] = counter(args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str | Path) -> None:
        """Write every finished span and counter as one JSON document."""
        with self._lock:
            spans = [s for s in self.spans if "end" in s]
        Path(path).write_text(json.dumps({"spans": spans, "counters": self.counters}))


def install(
    recorder: Recorder, targets: Iterable[tuple[str, str, str, Counter | None]]
) -> None:
    """Patch every target so calls go through ``recorder``."""
    for name, module_name, attr, counter in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(name, getattr(cls, meth), counter))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, counter)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapped)


def count_pool_spawns(recorder: Recorder) -> None:
    """Count process pools the engine's executor creates."""
    executor = importlib.import_module("repro.resilience.executor")
    base = executor.ProcessPoolExecutor

    class CountingPool(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs) -> None:
            recorder.counters["pool_spawns"] += 1
            super().__init__(*args, **kwargs)

    executor.ProcessPoolExecutor = CountingPool


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted((spans[c]["start"], spans[c]["end"]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out


#: Per-layer time metrics: metric name -> span names whose self time it sums.
TIME_METRICS = {
    "workloads.gen_s": ("workloads.generate",),
    "ooo.run_s": ("ooo.run",),
    "cache.stackdist_s": ("cache.stackdist",),
    "tlb.stack_s": ("tlb.stack",),
    "branch.predict_s": ("branch.predict",),
    "engine.map_s": ("engine.map",),
    "engine.execute_s": ("engine.execute",),
    "engine.cache_key_s": ("engine.cache_key",),
    "engine.cache_load_s": ("engine.cache_load",),
    "engine.cache_store_s": ("engine.cache_store",),
    "api.assemble_s": ("api.assemble",),
}

#: Per-layer counts: metric name -> (span name, count key).
COUNT_METRICS = {
    "workloads.items": ("workloads.generate", "items"),
    "ooo.instructions": ("ooo.run", "instructions"),
    "ooo.cycles": ("ooo.run", "cycles"),
    "cache.refs": ("cache.stackdist", "refs"),
    "tlb.refs": ("tlb.stack", "refs"),
    "branch.branches": ("branch.predict", "branches"),
    "engine.cells": ("engine.map", "cells"),
    "engine.cache_hits": ("engine.cache_load", "hits"),
    "engine.retries": ("engine.execute", "retries"),
}


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts, plus the attributed total.

    A count is taken at the outermost span of its name only, so a
    generator that calls another generator counts its items once.
    """
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        by_name[s["name"]] += own
        parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else None
        if parent != s["name"]:
            for key, value in s.get("counts", {}).items():
                counts[(s["name"], key)] += value
    out = {m: sum(by_name[n] for n in names) for m, names in TIME_METRICS.items()}
    out.update({m: counts[key] for m, key in COUNT_METRICS.items()})
    out["engine.cache_misses"] = out["engine.cells"] - out["engine.cache_hits"]
    out["ooo.minstr_per_s"] = _rate(out["ooo.instructions"], out["ooo.run_s"])
    out["cache.mrefs_per_s"] = _rate(out["cache.refs"], out["cache.stackdist_s"])
    out["branch.mbranches_per_s"] = _rate(out["branch.branches"], out["branch.predict_s"])
    out["trace.spans"] = len(spans)
    out["trace.attributed_s"] = sum(selfs)
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds / 1e6 if seconds > 0 else 0.0


def load(path: str | Path) -> tuple[list[dict], dict[str, int]]:
    """Spans and counters written by :meth:`Recorder.dump`."""
    document = json.loads(Path(path).read_text())
    return document["spans"], document["counters"]
