"""Span tracing for the benchmark's traced runs.

`Tracer.install` replaces the public functions of the library layers and the
CLI check runners with wrappers that record one span per call: its name,
start, end, parent span and the run's id.  Library code calls across modules
through names bound in each module's namespace (`cli` imports functions by
name, `autgrp` imports `build_complement`, `cones` imports `conflicting`
inside a function), so each wrapper replaces the original in every
`conesym.*` namespace that binds it, and in `cli._RUNNERS`.  `uninstall`
puts every original back.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct child spans; wrapped calls nest strictly in
one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("core", "cones", "ridge", "autgrp", "reflections")

# Per-coordinate helpers run from the innermost loops (`CutVector.__getitem__`
# calls `num_pairs` once per entry, millions of times on `structure`).  A span
# around each would cost more than the work it times, so they stay unwrapped
# and their time counts toward the caller.
UNWRAPPED = {"num_pairs", "pair_list", "pair_index", "pair_unindex"}

# Spans are named by role, not by the function behind the role today, so a
# rename inside the library keeps the metric names.  Private functions listed
# here are wrapped although they are not in the module's `__all__`.
ROLE_NAMES = {
    "cones._facet_incidence_masks": "cones.incidence_masks",
    "cones.enumerate_hypermetric_coeffs": "cones.hypermetric_coeffs",
    "ridge.build_triangle_graph": "ridge.triangle_graph",
    "ridge.verify_hexagon_neighborhood": "ridge.hexagon_neighborhood",
}

WRAPPER_MARK = "__perfbench_span__"


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _graph_digest(graph) -> str:
    return hashlib.sha256(repr((graph.n, tuple(graph.adj))).encode()).hexdigest()


def _matrix_entries(args, kwargs, result):
    rows = list(_first(args, kwargs))
    return {"entries": len(rows) * len(rows[0]) if rows else 0}


# Work counted at the layer boundary: span name -> (args, kwargs, result) -> counts.
COUNTERS = {
    "cones.integer_rank": _matrix_entries,
    "cones.adjacency_agreement": lambda a, k, r: {"pairs": r[0]},
    "cones.hypermetric_coeffs": lambda a, k, r: {"vectors": len(r)},
    "cones.hypermetric_sweep": lambda a, k, r: {"vector_cuts": r.vector_count * r.cut_count},
    "autgrp.automorphism_group": lambda a, k, r: {"vertices": _first(a, k).n},
}

# Inputs that identify repeated work: span name -> (args, kwargs) -> key.
DISTINCT_KEYS = {
    "cones.adjacency_agreement": lambda a, k: _first(a, k),
    "ridge.build_complement": lambda a, k: _first(a, k),
    "autgrp.automorphism_group": lambda a, k: _graph_digest(_first(a, k)),
}

# Calls whose peak Python/numpy allocation is measured with tracemalloc,
# started and stopped around the call alone.  Tracing allocations slows the
# nested coefficient enumeration severalfold, so it is done only in a traced
# run of its own (`Tracer(measure_alloc=True)`), whose times are not used.
PEAK_ALLOC = {"cones.hypermetric_sweep"}


def span_targets() -> dict:
    """Map each function to wrap to its span name."""
    targets = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"conesym.{layer}")
        names = [n for n in mod.__all__ if n not in UNWRAPPED]
        names += [key.split(".", 1)[1] for key in ROLE_NAMES if key.startswith(layer + ".")]
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                qualified = f"{layer}.{name}"
                targets[fn] = ROLE_NAMES.get(qualified, qualified)
    for check, runner in importlib.import_module("conesym.cli")._RUNNERS.items():
        targets[runner] = f"cli.check.{check}"
    return targets


def namespaces() -> list[dict]:
    """The globals of every loaded `conesym` module, and the CLI's runner table."""
    mods = [m for name, m in sorted(sys.modules.items()) if name == "conesym" or name.startswith("conesym.")]
    return [vars(m) for m in mods] + [importlib.import_module("conesym.cli")._RUNNERS]


def leftover_wrappers() -> list[str]:
    """Names still bound to a wrapper; empty after a clean uninstall."""
    return [
        f"{ns.get('__name__', '_RUNNERS')}.{key}"
        for ns in namespaces()
        for key, value in ns.items()
        if hasattr(value, WRAPPER_MARK)
    ]


class Tracer:
    """Records spans and boundary counts for one traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter, measure_alloc: bool = False):
        self.run_id = run_id
        self.clock = clock
        self.measure_alloc = measure_alloc
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.keys: dict[str, set] = defaultdict(set)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        distinct = DISTINCT_KEYS.get(name)
        measure_alloc = self.measure_alloc and name in PEAK_ALLOC

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            if distinct is not None:
                self.keys[name].add(distinct(args, kwargs))
            if measure_alloc:
                tracemalloc.start()
            self._stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
                if measure_alloc:
                    self.peak_alloc[name] = max(
                        self.peak_alloc[name], tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
            if counter is not None:
                for quantity, amount in counter(args, kwargs, result).items():
                    self.counts[name][quantity] += amount
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for fn, name in span_targets().items()}
        for ns in namespaces():
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]
                    self._patched.append((ns, key, value))

    def uninstall(self) -> None:
        while self._patched:
            ns, key, original = self._patched.pop()
            ns[key] = original

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, counts, distinct keys."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        for name, counts in self.counts.items():
            out[name].update(counts)
        for name, keys in self.keys.items():
            out[name]["distinct"] = len(keys)
        for name, peak in self.peak_alloc.items():
            out[name]["peak_alloc_bytes"] = peak
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
