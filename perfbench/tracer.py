"""Spans at the program's layer boundaries, recorded from outside the program.

A layer is one module of the alphacrit package. The traced run replaces the
names that cli, prooflab and covers imported from other modules (plus the few
intra-module calls a per-layer metric needs) with wrappers that record a span
around each call, and restores them afterwards. Spans stay in memory as
[name, parent index, start, end]; a span's self time is its duration minus the
durations of its direct children, so the self times of a span tree add up to
the root's duration.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import alphacrit.cli
import alphacrit.covers
import alphacrit.enumeration
import alphacrit.prooflab
import alphacrit.stability

FIND_TOK4 = "subdivisions.find_tok4"

# (module whose global name is replaced, name, span name)
BOUNDARIES = (
    (alphacrit.cli, "parse_graph6", "graphs.parse_graph6"),
    (alphacrit.cli, "alpha", "stability.alpha"),
    (alphacrit.cli, "is_alpha_critical", "stability.is_alpha_critical"),
    (alphacrit.cli, "critical_edges", "stability.critical_edges"),
    (alphacrit.cli, "find_tok4", FIND_TOK4),
    (alphacrit.cli, "rho_tilde", "covers.rho_tilde"),
    (alphacrit.cli, "run_claim", "prooflab.run_claim"),
    (alphacrit.enumeration, "parse_graph6", "graphs.parse_graph6"),
    (alphacrit.prooflab, "alpha", "stability.alpha"),
    (alphacrit.prooflab, "is_alpha_critical", "stability.is_alpha_critical"),
    (alphacrit.prooflab, "critical_edges", "stability.critical_edges"),
    (alphacrit.prooflab, "critical_edges_avoiding", "stability.critical_edges_avoiding"),
    (alphacrit.prooflab, "g_minus_c", "stability.g_minus_c"),
    (alphacrit.prooflab, "find_tok4", FIND_TOK4),
    (alphacrit.prooflab, "contains_tok4", "subdivisions.contains_tok4"),
    (alphacrit.prooflab, "is_tok4_graph", "subdivisions.is_tok4_graph"),
    (alphacrit.prooflab, "verify_tok4", "subdivisions.verify_tok4"),
    (alphacrit.prooflab, "canonical_form", "enumeration.canonical_form"),
    (alphacrit.covers, "alpha", "stability.alpha"),
    (alphacrit.covers, "critical_subgraph", "stability.critical_subgraph"),
    (alphacrit.covers, "peel_max_stable_set", "stability.peel_max_stable_set"),
    (alphacrit.covers, "find_tok4", FIND_TOK4),
    # intra-module calls, traced because a per-layer metric names them
    (alphacrit.covers, "cover_from_theorem", "covers.cover_from_theorem"),
    (alphacrit.covers, "verify_cover", "covers.verify_cover"),
    (alphacrit.stability, "all_max_stable_sets", "stability.all_max_stable_sets"),
)


def _span_name(name: str, args: tuple, result) -> str:
    if name == FIND_TOK4:
        return f"{name}.absent" if result is None else f"{name}.found"
    if name == "prooflab.run_claim":
        return f"{name}.{args[0]}"
    return name


class Tracer:
    """Records spans: `call` times one call, `install` patches BOUNDARIES."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._open
        idx = len(spans)
        spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][3] = perf_counter()
        spans[idx][0] = _span_name(name, args, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> list[tuple]:
        saved = []
        for module, attr, name in BOUNDARIES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return saved

    @staticmethod
    def uninstall(saved: list[tuple]) -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class NullTracer:
    """Same interface, no spans: the untraced run pays nothing."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def install(self) -> list:
        return []

    @staticmethod
    def uninstall(saved: list) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans: list[list], root: int) -> dict[str, float]:
    """Per-function call counts and total span time over all spans, and
    per-layer self time over the subtree of spans[root]."""
    out: dict[str, float] = defaultdict(float)
    for name, _, start, end in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
    inside = [False] * len(spans)
    inside[root] = True
    for i in range(root + 1, len(spans)):
        parent = spans[i][1]
        inside[i] = parent >= 0 and inside[parent]
    for (name, *_), own, keep in zip(spans, self_times(spans), inside):
        if keep:
            out[name.split(".", 1)[0] + ".self_s"] += own
    return dict(out)
