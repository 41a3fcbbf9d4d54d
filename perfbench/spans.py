"""Spans around cachegame's public entry points, for the traced run.

``Tracer.install`` replaces each entry point in ``LAYERS`` with a wrapper,
as a module attribute, so calls the program makes to itself are caught as
well as the benchmark's own: ``solver.solve`` looks up ``build_tree`` and
``solve_tree`` in its module, and ``lp.check_feasible`` looks up
``solve_lp``.  Each call records one span (name, start, end, parent span,
operation id) plus the size counts of its input and output.  Counting runs
before the span starts and after it ends, so it is not part of any span's
time.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    index: int  # position in Tracer.spans
    name: str
    parent: int | None  # index of the enclosing span
    op: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _lp_size(lp, *args, **kwargs) -> dict:
    return {"rows": len(lp.rows), "cols": lp.num_vars, "nnz": sum(len(r) for r in lp.rows)}


def _solve_tree_size(result) -> dict:
    s = result.stats
    return {
        "sequences": s["searcher_sequences"] + s["hider_sequences"],
        "infosets": s["searcher_infosets"] + s["hider_infosets"],
    }


def count_partitions(d: int, parts: int) -> int:
    """Partitions of ``d`` into at most ``parts`` positive parts: the count
    patterns a best response minimizes over."""
    table = [1] + [0] * d  # ways to write each total with parts of size <= p
    for p in range(1, parts + 1):  # conjugation: at most `parts` parts
        for total in range(p, d + 1):
            table[total] += table[total - p]
    return table[d]


def _strategy_size(spec, strategy, *args, **kwargs) -> dict:
    seen = set()
    stack = [strategy.root]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        for entry in node.mix:
            stack.extend(child for _, child in entry.branches)
    return {"patterns": count_partitions(spec.d, spec.n), "strategy_nodes": len(seen)}


# (module, attribute, span name, count before the call, count after it)
LAYERS = (
    ("solver", "build_tree", "build_tree", None, lambda tree: {"nodes": tree.num_nodes}),
    ("solver", "solve_tree", "solve_tree", None, _solve_tree_size),
    ("lp", "solve_lp", "solve_lp", _lp_size, lambda sol: {"pivots": sol.pivots}),
    ("lp", "check_feasible", "check_feasible", None, lambda r: {"feasible": int(r.feasible)}),
    ("accumulation", "max_losing_subsets_exact", "max_losing", None, None),
    ("solver", "best_response_value", "best_response", _strategy_size, None),
    ("strategies", "builtin_family", "family", None, None),
)

# Per-layer metrics of one pass, in the order and units of BENCHMARK.json.
PER_LAYER = (
    ("build_tree.s", "s"),
    ("build_tree.nodes", "count"),
    ("build_tree.nodes_per_s", "1/s"),
    ("solve_tree.self_s", "s"),
    ("solve_tree.sequences", "count"),
    ("solve_tree.infosets", "count"),
    ("solve_lp.s", "s"),
    ("solve_lp.calls", "count"),
    ("solve_lp.rows", "count"),
    ("solve_lp.cols", "count"),
    ("solve_lp.nnz", "count"),
    ("solve_lp.pivots", "count"),
    ("solve_lp.s_per_pivot", "s"),
    ("solve_lp.s_per_call", "s"),
    ("check_feasible.s", "s"),
    ("check_feasible.calls", "count"),
    ("check_feasible.feasible_ratio", "ratio"),
    ("max_losing.s", "s"),
    ("max_losing.self_s", "s"),
    ("best_response.s", "s"),
    ("best_response.patterns", "count"),
    ("best_response.strategy_nodes", "count"),
    ("family.s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead", "ratio"),
)

# Size counts that must repeat exactly for one instance, per operation.
DETERMINISTIC_COUNTS = (
    "build_tree.nodes",
    "solve_lp.rows",
    "solve_lp.cols",
    "solve_lp.nnz",
    "solve_lp.pivots",
    "check_feasible.calls",
    "best_response.patterns",
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0  # operation id given to new spans; the caller sets it
        self._stack: list[int] = []
        self._installed: list = []

    def install(self, mods) -> None:
        for module_name, attr, name, before, after in LAYERS:
            module = getattr(mods, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, before, after))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, before, after):
        def wrapper(*args, **kwargs):
            counts = before(*args, **kwargs) if before else {}
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent, self.op, counts=counts)
            self._stack.append(span.index)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                span.counts.update(after(result))
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


def _totals(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds, summed counts.

    Calls run one at a time, so a span's direct children never overlap and
    its self time is its duration minus theirs.
    """
    child_time: dict = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    totals: dict = {}
    for span in spans:
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += span.end - span.start
        t["self_s"] += span.end - span.start - child_time.get(span.index, 0.0)
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return totals


def layer_metrics(spans: list[Span]) -> dict:
    """The per-layer metrics of PER_LAYER, bar ``trace.*``, over ``spans``."""
    totals = _totals(spans)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    lp_s, lp_calls, pivots = get("solve_lp", "s"), get("solve_lp", "calls"), get("solve_lp", "pivots")
    return {
        "build_tree.s": get("build_tree", "s"),
        "build_tree.nodes": get("build_tree", "nodes"),
        "build_tree.nodes_per_s": ratio(get("build_tree", "nodes"), get("build_tree", "s")),
        "solve_tree.self_s": get("solve_tree", "self_s"),
        "solve_tree.sequences": get("solve_tree", "sequences"),
        "solve_tree.infosets": get("solve_tree", "infosets"),
        "solve_lp.s": lp_s,
        "solve_lp.calls": lp_calls,
        "solve_lp.rows": get("solve_lp", "rows"),
        "solve_lp.cols": get("solve_lp", "cols"),
        "solve_lp.nnz": get("solve_lp", "nnz"),
        "solve_lp.pivots": pivots,
        "solve_lp.s_per_pivot": ratio(lp_s, pivots),
        "solve_lp.s_per_call": ratio(lp_s, lp_calls),
        "check_feasible.s": get("check_feasible", "s"),
        "check_feasible.calls": get("check_feasible", "calls"),
        "check_feasible.feasible_ratio": ratio(
            get("check_feasible", "feasible"), get("check_feasible", "calls")
        ),
        "max_losing.s": get("max_losing", "s"),
        "max_losing.self_s": get("max_losing", "self_s"),
        "best_response.s": get("best_response", "s"),
        "best_response.patterns": get("best_response", "patterns"),
        "best_response.strategy_nodes": get("best_response", "strategy_nodes"),
        "family.s": get("family", "s"),
    }


def op_counts(spans: list[Span]) -> dict:
    """DETERMINISTIC_COUNTS of each operation id, for the layers it reached."""
    by_op: dict = {}
    for span in spans:
        by_op.setdefault(span.op, []).append(span)
    out = {}
    for op, group in by_op.items():
        totals = _totals(group)
        out[op] = {}
        for name in DETERMINISTIC_COUNTS:
            layer, key = name.split(".")
            if layer in totals:
                out[op][name] = totals[layer][key]
    return out
