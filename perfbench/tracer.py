"""Outside-in span tracing of the tautrel layers.

A traced child process calls ``install()`` before it runs the CLI.  Each
public function named in ``SPANS`` is replaced by a wrapper in every
``tautrel`` module that holds it by name (``from .graphs import
canonical_key`` binds a second name that must be rebound too), and
``Expression.__init__`` is replaced on the class.  Spans are kept in memory
as parallel arrays (name, start, end, parent) and written once, when the op
ends, by ``Tracer.write``.  The parent process reads the files back with
``read_spans`` and folds them into per-layer metrics with ``summarize``.

Work counts come from return values and from ``cache_info()``; they are
deterministic for a given op and are what the determinism check compares.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# Span name -> (module, attribute).  Names are "<module>.<function>".
SPANS = {
    "cli.main": ("tautrel.cli", "main"),
    "treeclass.weighted_tree_class": ("tautrel.treeclass", "weighted_tree_class"),
    "treeclass.enumerate_shapes": ("tautrel.treeclass", "enumerate_shapes"),
    "pushforward.forget_extra_legs": ("tautrel.pushforward", "forget_extra_legs"),
    "reduce.eliminate_all_psi": ("tautrel.reduce", "eliminate_all_psi"),
    "reduce.generate_wdvv_relations": ("tautrel.reduce", "generate_wdvv_relations"),
    "reduce.span_zero_test": ("tautrel.reduce", "span_zero_test"),
    "graphs.canonical_key": ("tautrel.graphs", "canonical_key"),
    "graphs.automorphism_order": ("tautrel.graphs", "automorphism_order"),
    "expressions.Expression.init": ("tautrel.expressions", "Expression.__init__"),
    "expressions.parse_bracket": ("tautrel.expressions", "parse_bracket"),
    "expressions.render_bracket": ("tautrel.expressions", "render_bracket"),
    "expressions.expression_to_json": ("tautrel.expressions", "expression_to_json"),
}

# The lru caches of the graphs module whose summed size is graphs.cache_entries.
CACHES = ("canonical_key", "graph_from_key", "automorphism_order")

# Work counts reported as they are, summed over the ops of a pass.
WORK_COUNTS = (
    "treeclass.shapes",
    "treeclass.terms",
    "reduce.eliminate_all_psi.terms_out",
    "reduce.relations.generated",
    "reduce.relations.final",
    "reduce.relations.used",
    "reduce.span.rounds",
)

COUNTS = WORK_COUNTS + (
    "graphs.canonical_key.hits",
    "graphs.canonical_key.misses",
    "graphs.cache_entries",
)


def _count_shapes(counts, ret):
    counts["treeclass.shapes"] += len(ret)


def _count_class_terms(counts, ret):
    counts["treeclass.terms"] += len(ret)


def _count_psi_free_terms(counts, ret):
    counts["reduce.eliminate_all_psi.terms_out"] += len(ret)


def _count_relations(counts, ret):
    counts["reduce.relations.generated"] += len(ret.relations)
    counts["reduce.relations.final"] = len(ret.relations)   # the op's last basis


def _count_certificate(counts, ret):
    counts["reduce.relations.used"] += len(ret.combination)
    counts["reduce.span.rounds"] += ret.budget_spent


_RETURN_COUNTS = {
    "treeclass.enumerate_shapes": _count_shapes,
    "treeclass.weighted_tree_class": _count_class_terms,
    "reduce.eliminate_all_psi": _count_psi_free_terms,
    "reduce.generate_wdvv_relations": _count_relations,
    "reduce.span_zero_test": _count_certificate,
}


class Tracer:
    """In-memory span store of one traced process."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.caches = {}

    def wrap(self, span_name, fn):
        name_index = self.names.index(span_name)
        count = _RETURN_COUNTS.get(span_name)
        clock = time.perf_counter
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self.stack)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(name_index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                ret = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, ret)
            return ret

        return traced

    def finish(self):
        """Fold in the cache counters; call once, when the op has ended."""
        info = self.caches["canonical_key"].cache_info()
        self.counts["graphs.canonical_key.hits"] = info.hits
        self.counts["graphs.canonical_key.misses"] = info.misses
        self.counts["graphs.cache_entries"] = sum(
            cache.cache_info().currsize for cache in self.caches.values())

    def write(self, path, op_id):
        """Write the spans and counts: ``path`` (JSON) and ``path + '.bin'``."""
        meta = {"op": op_id, "names": self.names, "spans": len(self.name_of),
                "counts": self.counts}
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_of, self.start, self.end, self.parent):
                arr.tofile(fh)
        with open(path, "w") as fh:
            json.dump(meta, fh)


def install(tracer):
    """Rebind every function in ``SPANS`` to its traced wrapper."""
    graphs = importlib.import_module("tautrel.graphs")
    tracer.caches = {name: getattr(graphs, name) for name in CACHES}
    for span_name, (module_name, attr) in SPANS.items():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method)))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(span_name, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tautrel" or name.startswith("tautrel.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def read_spans(path):
    """Load one span file: (meta dict, name_of, start, end, parent arrays)."""
    with open(path) as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = (array("i"), array("d"), array("d"), array("i"))
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (meta,) + arrays


def self_times(name_of, start, end, parent, n_names):
    """Per-name (calls, inclusive seconds, self seconds) of one op's spans.

    A span's self time is its duration minus the durations of its children;
    spans of one process never overlap their siblings, so the children's
    durations are exactly the covered part of the parent's interval.
    """
    calls = [0] * n_names
    total = [0.0] * n_names
    own = [0.0] * len(name_of)
    for i, name in enumerate(name_of):
        dur = end[i] - start[i]
        calls[name] += 1
        total[name] += dur
        own[i] += dur
        if parent[i] >= 0:
            own[parent[i]] -= dur
    selfs = [0.0] * n_names
    for i, name in enumerate(name_of):
        selfs[name] += own[i]
    return calls, total, selfs


def summarize(span_files, traced_seconds, untraced_seconds):
    """Per-layer metrics of one traced pass over a workload's pool."""
    names = list(SPANS)
    calls = dict.fromkeys(names, 0)
    inclusive = dict.fromkeys(names, 0.0)
    selfs = dict.fromkeys(names, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    max_entries = 0
    for path in span_files:
        meta, name_of, start, end, parent = read_spans(path)
        if meta["names"] != names:
            raise ValueError("span file %s was written with other span names" % path)
        c, t, s = self_times(name_of, start, end, parent, len(names))
        for k, name in enumerate(names):
            calls[name] += c[k]
            inclusive[name] += t[k]
            selfs[name] += s[k]
        for key, value in meta["counts"].items():
            counts[key] += value
        max_entries = max(max_entries, meta["counts"]["graphs.cache_entries"])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in names:
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".self_s"] = (selfs[name], "s")
    for key in WORK_COUNTS:
        metrics[key] = (counts[key], "count")
    metrics["reduce.relations.regenerated_ratio"] = (
        ratio(counts["reduce.relations.final"], counts["reduce.relations.generated"]),
        "ratio")
    metrics["reduce.relations.used_ratio"] = (
        ratio(counts["reduce.relations.used"], counts["reduce.relations.final"]), "ratio")
    lookups = counts["graphs.canonical_key.hits"] + counts["graphs.canonical_key.misses"]
    metrics["graphs.canonical_key.hit_ratio"] = (
        ratio(counts["graphs.canonical_key.hits"], lookups), "ratio")
    metrics["graphs.cache_entries"] = (max_entries, "count")
    metrics["cli.main.uncovered_share"] = (
        ratio(selfs["cli.main"], inclusive["cli.main"]), "ratio")
    metrics["trace.overhead_ratio"] = (ratio(traced_seconds, untraced_seconds), "ratio")
    return metrics
