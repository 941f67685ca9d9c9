"""Spans and counts recorded from outside the library.

:class:`Tracer` replaces module-level names of the library with timing
wrappers. The library resolves those names at call time (for example
``solver.py`` calls ``surgery`` and ``chordality_certificate`` through its own
module globals, and recursion goes through ``solver.brooks_list_color``), so
every call from inside the library passes through a wrapper. No library file
changes. Spans stay in memory until :meth:`Tracer.summary` derives self times
and per-layer totals from them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns


def _module(name: str):
    # The package re-exports functions under some module names (`generate`),
    # so resolve modules through the import system, not package attributes.
    return importlib.import_module(f"brookscolor.{name}")


class Tracer:
    """Records one span per wrapped call: (name, start_ns, end_ns, parent
    span index or -1, instance id). Counts are kept at the same wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
                counts[name] += 1
            if observe is not None:
                observe(counts, args, result)
            return result

        return timed

    def install(self, module: str, attr: str, name: str, observe=None) -> None:
        mod = _module(module)
        original = getattr(mod, attr)
        setattr(mod, attr, self.wrap(name, original, observe))
        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> Tracer:
        for module, attr, name, observe in LAYER_WRAPPERS:
            self.install(module, attr, name, observe)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self):
        """Aggregates of the recorded spans.

        Returns total seconds per span name, self seconds per span name,
        total seconds per (span name, instance), the seconds of outermost
        ``solver.brooks_list_color`` spans, and the deepest nesting of those
        spans. A span's self time is its duration minus the durations of its
        direct children; a child always has a larger index than its parent.
        """
        child_ns = [0] * len(self.spans)
        # nesting depth of solver.brooks_list_color spans around each span
        depth = [0] * len(self.spans)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        by_inst: dict[tuple[str, int], float] = defaultdict(float)
        top_solve = 0.0
        max_depth = 0
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, _ = span
            if parent >= 0:
                child_ns[parent] += end - start
                depth[idx] = depth[parent]
            if name == "solver.brooks_list_color":
                depth[idx] += 1
                max_depth = max(max_depth, depth[idx])
                if depth[idx] == 1:
                    top_solve += (end - start) / 1e9
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, inst = span
            total[name] += (end - start) / 1e9
            own[name] += (end - start - child_ns[idx]) / 1e9
            by_inst[(name, inst)] += (end - start) / 1e9
        return total, own, by_inst, top_solve, max_depth


def _observe_branch_pair(counts, args, pair) -> None:
    counts["hole_vertices"] += len(pair.cycle.cycle)


def _observe_select(counts, args, result) -> None:
    pair = args[0]
    counts["branch_f" if result[1] == pair.f_retained else "branch_h"] += 1


def _observe_surgery(counts, args, result) -> None:
    counts["surgery_vertices"] += result.n


def _observe_find_hole(counts, args, result) -> None:
    if result is not None:
        counts["find_hole_hits"] += 1


# (module, attribute, span name, observer). Each name is the one the caller
# resolves at call time: solver's and cli's imported names are patched in
# solver and cli, chordal's helpers in chordal, the parser's graph builder in
# instance_io. `_edge_components` stays unwrapped, so the biconnected scan
# counts toward the certificate's self time; `_has_complete_component` stays
# unwrapped, so the K_{Δ+1} scan counts toward select_branch's self time.
LAYER_WRAPPERS = (
    ("cli", "parse_instance", "instance_io.parse_instance", None),
    ("cli", "emit_coloring", "instance_io.emit_coloring", None),
    ("cli", "brooks_list_color", "solver.brooks_list_color", None),
    ("cli", "chordality_certificate", "chordal.chordality_certificate", None),
    ("instance_io", "build_graph", "graph.build_graph", None),
    ("solver", "brooks_list_color", "solver.brooks_list_color", None),
    ("solver", "connected_components", "graph.connected_components", None),
    ("solver", "surgery", "graph.surgery", _observe_surgery),
    ("solver", "is_complete", "graph.is_complete", None),
    ("solver", "chordality_certificate", "chordal.chordality_certificate", None),
    ("solver", "greedy_color_along", "chordal.greedy_color_along", None),
    ("solver", "build_branch_pair", "solver.build_branch_pair", _observe_branch_pair),
    ("solver", "select_branch", "solver.select_branch", _observe_select),
    ("solver", "residual_lists", "solver.residual_lists", None),
    ("solver", "extend_around_cycle", "solver.extend_around_cycle", None),
    ("solver", "verify_coloring", "oracle.verify_coloring", None),
    ("chordal", "mcs_order", "chordal.mcs_order", None),
    ("chordal", "verify_peo", "chordal.verify_peo", None),
    ("chordal", "find_hole_from_witness", "chordal.find_hole_from_witness", _observe_find_hole),
)
