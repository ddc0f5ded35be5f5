"""Spans around calls into ksbound's public functions, recorded from outside.

The tracer replaces each named function by a wrapper in every loaded
``ksbound`` module that bound it (``from .coloring import find_coloring``
copies the function into ``ksbound.cli`` and ``ksbound.simulate`` too), so
calls between modules are seen as well as calls from the benchmark.  Nothing
under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, op, extra]``: ``parent`` is the
index of the enclosing span (or -1) and ``op`` the benchmark operation the
call belongs to.  Spans stay in memory until the run ends.  The two hottest
exact-arithmetic helpers (``same_ray``, ``inner_product``) are only counted,
because a span per call would cost more than the call.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter
from typing import Any, Callable

#: (module, function) pairs that get a span per call.
SPANNED = (
    ("cli", "main"),
    ("format", "parse_document"),
    ("model", "build_stats"),
    ("coloring", "validate_orthogonality"),
    ("coloring", "find_coloring"),
    ("coloring", "min_defect"),
    ("simulate", "default_base"),
    ("simulate", "simulate_model"),
    ("bounds", "critical_rate"),
    ("bounds", "table_report"),
)
#: (module, function) pairs whose calls are counted without a span.
COUNTED = (("model", "same_ray"), ("model", "inner_product"))


def set_key(ks: Any) -> str:
    """Identity of a set by content: its contexts, in order."""
    return "|".join(" ".join(ctx.vector_ids) for ctx in ks.contexts)


def _extra(name: str, args: tuple, result: Any) -> dict:
    """Per-call facts the per-layer metrics need, read from arguments and results."""
    if name == "format.parse_document":
        return {"accepted": result is not None}
    if name in ("coloring.find_coloring", "coloring.min_defect"):
        extra = {"key": set_key(args[0])}
        if result is not None:
            extra["nodes"] = result.nodes
            if name == "coloring.find_coloring":
                extra["sat"] = result.satisfiable
        return extra
    if name == "simulate.simulate_model" and result is not None:
        model = args[0]
        slots = len(model.ks_set.contexts) * model.ks_set.dimension
        return {"trials": result.trials, "slots": slots}
    if name == "bounds.critical_rate" and result is not None:
        return {"iterations": result.iterations}
    return {}


class Tracer:
    """Collects spans and call counts for the ops of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter_ns(), 0, parent, self.op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            alloc = name == "simulate.simulate_model" and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if alloc:
                    span[5]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                span[5].update(_extra(name, args, result))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``ksbound`` module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ksbound" or n.startswith("ksbound."))]
        for make, targets in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for mod, func in targets:
                orig = getattr(sys.modules[f"ksbound.{mod}"], func)
                wrapped = make(f"{mod}.{func}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def absorb(self, spans: list[list], counts: dict, op: int) -> None:
        """Add spans and counts recorded by a child process to this trace."""
        base = len(self.spans)
        for name, start, end, parent, _, extra in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, extra])
        self.counts.update(counts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, factor: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the traced ops, as (value, unit).

    Times and counts are per op; ratios are over the calls they describe.
    Times are divided by ``factor``, the run's machine-speed factor (pace.py).
    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (one thread).
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    for i, (name, start, end, _, _, _) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    out: dict[str, tuple[float, str]] = {}
    for mod, func in SPANNED:
        out[f"{mod}.{func}.self_ms"] = (self_ns[f"{mod}.{func}"] / 1e6 / ops / factor, "ms/op")
    for mod, func in COUNTED:
        out[f"{mod}.{func}.calls"] = (tracer.counts[f"{mod}.{func}"] / ops, "count/op")

    parses = by_name.get("format.parse_document", [])
    out["format.parse_document.calls"] = (len(parses) / ops, "count/op")
    out["format.parse_document.accept_ratio"] = (
        _ratio(sum(1 for s in parses if s[5]["accepted"]), len(parses)), "ratio")

    colorings = by_name.get("coloring.find_coloring", [])
    out["coloring.find_coloring.calls"] = (len(colorings) / ops, "count/op")
    out["coloring.find_coloring.nodes"] = (
        sum(s[5].get("nodes", 0) for s in colorings) / ops, "count/op")
    seen: set = set()
    repeats = 0
    for s in colorings:
        key = (s[4], s[5]["key"])
        repeats += key in seen
        seen.add(key)
    out["coloring.find_coloring.repeat_ratio"] = (_ratio(repeats, len(colorings)), "ratio")

    defects = {i: s for i, s in enumerate(spans) if s[0] == "coloring.min_defect"}
    out["coloring.min_defect.nodes"] = (
        sum(s[5].get("nodes", 0) for s in defects.values()) / ops, "count/op")
    probes = [s for s in colorings if s[3] in defects and s[5]["key"] != defects[s[3]][5]["key"]]
    out["coloring.min_defect.probe_hit_ratio"] = (
        _ratio(sum(1 for s in probes if s[5].get("sat")), len(probes)), "ratio")

    sims = by_name.get("simulate.simulate_model", [])
    slot_trials = sum(s[5].get("trials", 0) * s[5].get("slots", 0) for s in sims)
    out["simulate.simulate_model.slot_ns"] = (
        _ratio(self_ns["simulate.simulate_model"], slot_trials) / factor, "ns")
    out["simulate.simulate_model.trials"] = (
        sum(s[5].get("trials", 0) for s in sims) / ops, "count/op")
    out["simulate.simulate_model.peak_alloc_mb"] = (
        max((s[5].get("peak_alloc", 0) for s in sims), default=0) / 2**20, "MiB")

    iterations = [s[5].get("iterations", 0) for s in by_name.get("bounds.critical_rate", [])]
    out["bounds.critical_rate.iterations"] = (_ratio(sum(iterations), len(iterations)), "count")
    return out
