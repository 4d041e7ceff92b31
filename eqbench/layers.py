"""Spans and counters at eqlines' module boundaries, installed from outside.

``Tracer.install`` replaces public functions of each module, and a few
methods of the search and group classes, with wrappers that record spans
(name, start, end, parent, round) and counts.  A function is replaced
under every name any eqlines module binds it to, so calls through
``from .x import f`` are seen too.  A target that no longer exists is
recorded as missing, and the metrics that depend on it are reported
with the value None, never as zero.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# (metric name, unit) in the order they are reported
METRICS = [
    ("hadamard.from_recipe_s", "s"),
    ("hadamard.check_modular_hadamard_s", "s"),
    ("exactalg.mat_rank_s", "s"),
    ("sic.construct_sic_s", "s"),
    ("sic.verify_sic_s", "s"),
    ("sic.gram_phase_matrix_s", "s"),
    ("sic.build_tilde_s", "s"),
    ("autgraph.encode_s", "s"),
    ("autgraph.graph_automorphisms_s", "s"),
    ("autgraph.find_isomorphism_s", "s"),
    ("autgraph.graph_vertices", "count"),
    ("autgraph.search_nodes", "count"),
    ("autgraph.refine_calls", "count"),
    ("autgraph.refine_s", "s"),
    ("autgraph.ms_per_node", "ms"),
    ("autgraph.refine_bytes_computed", "bytes"),
    ("permgroup.schreier_sims_s", "s"),
    ("permgroup.contains_s", "s"),
    ("permgroup.orbits_s", "s"),
    ("permgroup.transitivity_s", "s"),
    ("permgroup.iota_embed_s", "s"),
    ("analysis.iota_weak_group_s", "s"),
    ("analysis.sic_aut_parts_s", "s"),
    ("analysis.tilde_strong_aut_s", "s"),
    ("analysis.sandwich_report_self_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.payload_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

# span name -> (module, function) whose calls it times
FUNCTION_SPANS = {
    "hadamard.from_recipe": [("hadamard", "from_recipe")],
    "hadamard.check_modular_hadamard": [("hadamard", "check_modular_hadamard")],
    "exactalg.mat_rank": [("exactalg", "mat_rank")],
    "sic.construct_sic": [("sic", "construct_sic")],
    "sic.verify_sic": [("sic", "verify_sic")],
    "sic.gram_phase_matrix": [("sic", "gram_phase_matrix")],
    "sic.build_tilde": [("sic", "build_tilde")],
    "autgraph.encode": [("autgraph", "encode_sic_graph"),
                        ("autgraph", "encode_phased_matrix_graph")],
    "autgraph.graph_automorphisms": [("autgraph", "graph_automorphisms")],
    "autgraph.find_isomorphism": [("autgraph", "find_isomorphism")],
    "permgroup.iota_embed": [("permgroup", "iota_embed")],
    "analysis.iota_weak_group": [("analysis", "iota_weak_group")],
    "analysis.sic_aut_parts": [("analysis", "sic_aut_parts")],
    "analysis.tilde_strong_aut": [("analysis", "tilde_strong_aut")],
    "analysis.sandwich_report": [("analysis", "sandwich_report")],
    "cli.emit": [("cli", "_emit")],
}

SEARCHES = ("autgraph.graph_automorphisms", "autgraph.find_isomorphism")

# metric -> the wrapped targets it is read from, where that is not simply
# the span named by the metric without its "_s"
DEPENDS = {
    "autgraph.graph_vertices": SEARCHES,
    "autgraph.search_nodes": ("_Search._tick",),
    "autgraph.refine_calls": ("_Search._refine",),
    "autgraph.refine_s": ("_Search._refine",),
    "autgraph.ms_per_node": ("_Search._tick",) + SEARCHES,
    "autgraph.refine_bytes_computed": ("_Search._refine", "_group_classes"),
    "permgroup.schreier_sims_s": ("PermGroup.order", "PermGroup.contains"),
    "permgroup.contains_s": ("PermGroup.contains",),
    "analysis.sandwich_report_self_s": ("analysis.sandwich_report",),
    "cli.payload_bytes": ("cli.emit",),
    "trace.overhead_s": (),
}

# span name -> (module, class, method)
METHOD_SPANS = {
    "permgroup.orbits": ("permgroup", "PermGroup", "orbits"),
    "permgroup.transitivity": ("permgroup", "PermGroup", "transitivity_degree"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, round]
        self.child_s: list[float] = []
        self.stack: list[int] = []
        self.round = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.missing: set[str] = set()
        self._refine_n = 0
        self._built = weakref.WeakSet()

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.round])
        self.child_s.append(0.0)
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int):
        rec = self.spans[idx]
        rec[2] = perf_counter()
        self.stack.pop()
        if rec[3] >= 0:
            self.child_s[rec[3]] += rec[2] - rec[1]

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    # -- installation -----------------------------------------------------
    @staticmethod
    def _modules():
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == "eqlines" or k.startswith("eqlines."))]

    def _replace(self, module: str, attr: str, make) -> bool:
        mod = sys.modules.get(f"eqlines.{module}")
        orig = getattr(mod, attr, None)
        if orig is None:
            return False
        new = make(orig)
        for m in self._modules():
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, new)
        return True

    def _replace_method(self, module: str, cls: str, attr: str, make) -> bool:
        klass = getattr(sys.modules.get(f"eqlines.{module}"), cls, None)
        orig = getattr(klass, attr, None)
        if orig is None:
            return False
        setattr(klass, attr, make(orig))
        return True

    def install(self):
        for name, targets in FUNCTION_SPANS.items():
            wrap = self._searched if name in SEARCHES else self._timed
            for module, attr in targets:
                if not self._replace(module, attr, lambda f, n=name: wrap(n, f)):
                    self.missing.add(name)
        for name, (module, cls, attr) in METHOD_SPANS.items():
            if not self._replace_method(module, cls, attr, lambda f, n=name: self._timed(n, f)):
                self.missing.add(name)
        hooks = [("permgroup", "PermGroup", "order", self._first_build),
                 ("permgroup", "PermGroup", "contains", self._first_build),
                 ("autgraph", "_Search", "_tick", self._count_node),
                 ("autgraph", "_Search", "_refine", self._refine)]
        for module, cls, attr, make in hooks:
            if not self._replace_method(module, cls, attr, make):
                self.missing.add(f"{cls}.{attr}")
        if not self._replace("autgraph", "_group_classes", self._split):
            self.missing.add("_group_classes")
        if not self._replace("cli", "_emit", self._emit):
            self.missing.add("cli.emit")

    # -- wrappers with counts -----------------------------------------------
    def _searched(self, name: str, fn):
        timed = self._timed(name, fn)

        @functools.wraps(fn)
        def wrapper(graph, *args, **kwargs):
            counts = self.counts[self.round]
            counts["vertices"] = max(counts["vertices"], graph.n)
            return timed(graph, *args, **kwargs)
        return wrapper

    def _first_build(self, fn):
        """The first order() or contains() on a group builds its stabilizer
        chain; that call is timed as Schreier-Sims, later contains() calls
        as membership tests."""
        @functools.wraps(fn)
        def wrapper(group, *args, **kwargs):
            if group in self._built:
                name = f"permgroup.{fn.__name__}"
            else:
                self._built.add(group)
                name = "permgroup.schreier_sims"
            idx = self._enter(name)
            try:
                return fn(group, *args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    def _count_node(self, fn):
        @functools.wraps(fn)
        def wrapper(search, *args, **kwargs):
            self.counts[self.round]["search_nodes"] += 1
            return fn(search, *args, **kwargs)
        return wrapper

    def _refine(self, fn):
        timed = self._timed("autgraph.refine", fn)

        @functools.wraps(fn)
        def wrapper(search, *args, **kwargs):
            self.counts[self.round]["refine_calls"] += 1
            self._refine_n = search.n
            try:
                return timed(search, *args, **kwargs)
            finally:
                self._refine_n = 0
        return wrapper

    def _split(self, fn):
        """Each class split inside a refine round follows one dense n x n
        matvec; count the matrix bytes that matvec reads."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = self._refine_n
            self.counts[self.round]["refine_bytes"] += n * n * 8
            return fn(*args, **kwargs)
        return wrapper

    def _emit(self, fn):
        @functools.wraps(fn)
        def wrapper(args, *rest, **kwargs):
            out = fn(args, *rest, **kwargs)
            path = getattr(args, "out", None)
            if path:
                self.counts[self.round]["payload_bytes"] += os.path.getsize(path)
            return out
        return wrapper

    # -- metrics ------------------------------------------------------------
    def round_metrics(self, rnd: int) -> dict:
        """Per-layer figures of one traced round.  Time of a span name counts
        only its outermost calls; sandwich_report also gets its self time."""
        incl, self_s = Counter(), Counter()
        open_names: dict[int, frozenset] = {}
        for idx, (name, t0, t1, parent, r) in enumerate(self.spans):
            if r != rnd:
                continue
            above = open_names.get(parent, frozenset())
            open_names[idx] = above | {name}
            if name not in above:
                incl[name] += t1 - t0
            self_s[name] += t1 - t0 - self.child_s[idx]
        counts = self.counts[rnd]
        nodes = counts["search_nodes"]
        search_s = sum(incl[n] for n in SEARCHES)
        vals = {name: incl[name[:-2]] for name, _ in METRICS if name.endswith("_s")}
        vals.update({
            "analysis.sandwich_report_self_s": self_s["analysis.sandwich_report"],
            "autgraph.graph_vertices": counts["vertices"],
            "autgraph.search_nodes": nodes,
            "autgraph.refine_calls": counts["refine_calls"],
            "autgraph.refine_bytes_computed": counts["refine_bytes"],
            "autgraph.ms_per_node": 1000 * search_s / nodes if nodes else None,
            "cli.payload_bytes": counts["payload_bytes"],
        })
        for name in vals:
            if self.missing.intersection(DEPENDS.get(name, (name[:-2],))):
                vals[name] = None
        return vals

    def self_times(self) -> dict[str, float]:
        out = Counter()
        for idx, rec in enumerate(self.spans):
            out[rec[0]] += rec[2] - rec[1] - self.child_s[idx]
        return dict(out)


def median_metrics(per_round: list[dict]) -> dict:
    """Median over rounds of each per-layer figure; None stays None."""
    out = {}
    for name, _ in METRICS:
        vals = [r.get(name) for r in per_round]
        out[name] = None if any(v is None for v in vals) else statistics.median(vals)
    return out
