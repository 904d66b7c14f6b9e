"""Spans at biqknot's layer boundaries, kept in memory, and the per-layer metrics.

Only the traced run installs the wrappers: each public layer function
is replaced, in every biqknot module that holds it, by a wrapper that
records a span (name, start, end, parent, op) and the counts the layer
metrics need. Nested layer calls made inside the library (a quiver
build listing colorings, a repro item counting) thus get spans of their
own, and no library file changes.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: tuple | None = None  # (pass, slot) of the op the span belongs to; None in set-up
    info: dict = field(default_factory=dict)  # counts, set when the call returned


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active = False
        self.op: tuple | None = None
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if measure is not None:
                self.spans[index].info = measure(args, kwargs, result)
            return result
        return traced

    def install(self, bq, layers) -> None:
        """Point every biqknot module's reference to each layer function at a wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "biqknot" or name.startswith("biqknot.")]
        for name, module, attr, measure in layers:
            original = getattr(getattr(bq, module), attr)
            wrapper = self.wrap(name, original, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, value in reversed(self._patched):
            setattr(m, key, value)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def _outermost(spans: list[Span]) -> list[bool]:
    """Whether no ancestor of each span has the same name (nested same-layer calls count once)."""
    out = []
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        out.append(p is None)
    return out


def combinations_before(n: int, k_max: int, found) -> int:
    """Subsets min_seed_size tries: all sizes below the answer, then lex rank of the witness."""
    if found is None:
        return sum(math.comb(n, j) for j in range(1, min(k_max, n) + 1))
    k, witness = found
    tried = sum(math.comb(n, j) for j in range(1, k))
    prev = -1
    for i, w in enumerate(witness):
        tried += sum(math.comb(n - v - 1, k - i - 1) for v in range(prev + 1, w))
        prev = w
    return tried + 1


def layer_table(bq):
    """(layer name, module, function, measure(args, kwargs, result) -> counts) per wrapped function."""
    strands = bq.diagram.strands

    def seeds(a, kw, r):
        k_max = a[1] if len(a) > 1 else kw.get("k_max", 6)
        return {"subsets": combinations_before(len(strands(a[0]).strands), k_max, r)}

    return [
        ("diagram.parse", "diagram", "parse_pd", lambda a, kw, r: {"crossings": len(r.crossings)}),
        ("algebra.build", "algebra", "make_dihedral", None),
        ("algebra.build", "algebra", "make_linear_biquandle", None),
        ("algebra.build", "algebra", "from_tables", None),
        ("algebra.build", "algebra", "parse_biquandle", None),
        ("algebra.endos", "algebra", "enumerate_endos", lambda a, kw, r: {"found": len(r)}),
        ("coloring.enumerate", "coloring", "enumerate_colorings", lambda a, kw, r: {"colorings": len(r)}),
        ("coloring.count", "coloring", "count_colorings", lambda a, kw, r: {"count": r}),
        ("coloring.snf", "coloring", "count_solutions_snf",
         lambda a, kw, r: {"cells": len(a[0].rows) * a[0].cols}),
        ("quiver.build", "quiver", "build_quiver",
         lambda a, kw, r: {"edges": len(r.vertices) * len(r.endos)}),
        ("quiver.indeg", "quiver", "in_degree_polynomial", None),
        ("quiver.iso", "quiver", "quivers_isomorphic", lambda a, kw, r: {"vertices": len(a[0].vertices)}),
        ("enhance", "enhance", "column_group_polynomial",
         lambda a, kw, r: {"colorings": sum(r.coeffs.values())}),
        ("bridge.seeds", "bridge", "min_seed_size", seeds),
    ]


LAYER_METRICS = {
    # layer: (keep self time, {count key: metric suffix}, (per-unit metric, count key))
    "coloring.enumerate": (True, {"colorings": "colorings"}, ("us_per_coloring", "colorings")),
    "coloring.count": (False, {}, None),
    "coloring.snf": (False, {"cells": "cells"}, None),
    "algebra.endos": (False, {"found": "found"}, None),
    "quiver.build": (True, {"edges": "edges"}, ("us_per_edge", "edges")),
    "quiver.iso": (False, {"vertices": "vertices"}, None),
    "enhance": (True, {}, ("us_per_coloring", "colorings")),
    "bridge.seeds": (False, {"subsets": "subsets_tried"}, ("us_per_subset", "subsets")),
    "diagram.parse": (False, {}, ("us_per_crossing", "crossings")),
}


def layer_metrics(spans: list[Span], passes: int = 1) -> dict[str, float]:
    """Per-layer calls, busy and self time, and counts per traced pass; cost per unit of work."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    calls, busy, done, own, counts = {}, {}, {}, {}, {}
    for s, self_t, is_outer in zip(spans, selfs, outer):
        own[s.name] = own.get(s.name, 0.0) + self_t
        if is_outer:
            calls[s.name] = calls.get(s.name, 0) + 1
            busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
            if s.info:  # returned: its time is spent on the units it counts
                done[s.name] = done.get(s.name, 0.0) + (s.end - s.start)
            for key, value in s.info.items():
                counts[(s.name, key)] = counts.get((s.name, key), 0) + value
    out: dict[str, float] = {}
    for layer, (with_self, named, per_unit) in LAYER_METRICS.items():
        out[f"{layer}.calls"] = calls.get(layer, 0) / passes
        out[f"{layer}.busy_s"] = busy.get(layer, 0.0) / passes
        if with_self:
            out[f"{layer}.self_s"] = own.get(layer, 0.0) / passes
        for key, suffix in named.items():
            out[f"{layer}.{suffix}"] = counts.get((layer, key), 0) / passes
        if per_unit:
            metric, key = per_unit
            units = counts.get((layer, key), 0)
            out[f"{layer}.{metric}"] = done.get(layer, 0.0) / units * 1e6 if units else 0.0
    # colorings a count materialises per coloring it returns (enumerations called by counts)
    listed = sum(s.info.get("colorings", 0) for s in spans
                 if s.name == "coloring.enumerate" and s.parent is not None
                 and spans[s.parent].name == "coloring.count")
    returned = counts.get(("coloring.count", "count"), 0)
    out["coloring.count.listed_per_count"] = listed / returned if returned else 0.0
    # algebras are built in set-up, outside any op
    out["algebra.build.busy_s"] = sum(s.end - s.start for s, is_outer in zip(spans, outer)
                                      if is_outer and s.name == "algebra.build" and s.op is None)
    out["quiver.indeg.busy_s"] = busy.get("quiver.indeg", 0.0) / passes
    return out
