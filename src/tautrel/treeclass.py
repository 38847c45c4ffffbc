"""Weighted rooted-tree boundary classes.

A shape is a stable rooted tree without extra legs whose frozen legs sit on
the root and whose every top vertex carries at least one regular leg.  Given
nonnegative weights on the regular legs, each way of adding at least one
extra leg to every non-root vertex induces a psi decoration: weight ``d_i``
on regular leg ``U<i>``, zero on frozen legs, extra legs and upward halves,
and (number of extras on the child) - 1 on each downward edge half.  The
class of a shape is the sum over all such decorated trees of the pushforward
forgetting the extras; the full class sums shapes with sign (-1)^(#edges).

By the string equation, forgetting the extras of a non-root vertex applies
the string table for that many points to the vertex's other exponents.  So
each class is assembled on the shape graph itself: the half-edge down to a
child carries the child's extras minus one, the table is applied at every
non-root vertex, and no extra leg is ever built.

Per-vertex bounds cut the sum to finitely many assignments: the string
equation kills a vertex whose extras outnumber its total psi exponent, and a
vertex whose psi load exceeds the dimension of its moduli factor dies too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    DecoratedGraph,
    GraphBuilder,
    RootedTreeView,
    canonical_key,
    leg_kind,
)
from . import graphs
from .expressions import Expression, make_ambient
from .pushforward import _push_at_vertices


def _as_weights(d):
    """The weights as a tuple: at least one, none negative."""
    weights = tuple(d)
    if not weights:
        raise ValueError("need at least one regular leg weight")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    return weights


@dataclass(frozen=True)
class TreeShape:
    """A rooted tree in the shape family; the root is always vertex 0."""

    graph: object

    def view(self):
        return RootedTreeView(self.graph, 0)

    def key(self):
        return canonical_key(DecoratedGraph(self.graph, (0,) * self.graph.n_half_edges))

    def n_edges(self):
        return self.graph.n_edges()


def _set_partitions(items):
    """Partitions of ``items`` into nonempty blocks, blocks ordered by minimum."""
    items = sorted(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _subsets(rest):
        remaining = [x for x in rest if x not in sub]
        for tail in _set_partitions(remaining):
            yield [[first] + list(sub)] + tail


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _tree_specs(genus_budget, legs, pending):
    """Rooted subtree specs (genus, legs at local root, child specs).

    ``legs`` is a sorted tuple.  ``pending`` counts half-edges on the local
    root beyond legs and child edges (the parent edge, or the frozen legs on
    the global root).  Every leaf must end up with a regular leg, so each
    child block is nonempty.  The result is a tuple of nested tuples, cached
    per argument, so equal subtrees are expanded once.
    """
    out = []
    for g0 in range(genus_budget + 1):
        for here in _subsets(legs):
            rest = [i for i in legs if i not in here]
            for blocks in _set_partitions(rest):
                k = len(blocks)
                if k == 0 and not here:
                    continue
                if 2 * g0 - 2 + len(here) + k + pending <= 0:
                    continue
                for genera in _compositions(genus_budget - g0, k):
                    child_lists = [_tree_specs(gb, tuple(blk), 1)
                                   for gb, blk in zip(genera, blocks)]
                    for combo in itertools.product(*child_lists):
                        out.append((g0, here, combo))
    return tuple(out)


def _materialize(spec, frozen_count):
    b = GraphBuilder()

    def build_vertex(node, parent):
        g0, here, children = node
        v = b.add_vertex(g0)
        if parent is not None:
            b.add_edge(parent, v)
        for i in here:
            b.add_leg(v, "U%d" % i)
        return v, children

    root, root_children = build_vertex(spec, None)
    for j in range(1, frozen_count + 1):
        b.add_leg(root, "V%d" % j)
    stack = [(root, child) for child in root_children]
    while stack:
        parent, node = stack.pop()
        v, children = build_vertex(node, parent)
        stack.extend((v, child) for child in children)
    return b.build().graph


def enumerate_shapes(genus_value, n_regular, n_frozen):
    """All shapes with the given genus, regular leg count and frozen leg count.

    Complete and duplicate-free; stability bounds the vertex count by
    ``n + m + 2g - 2`` so the family is finite.
    """
    if genus_value < 0:
        raise ValueError("negative genus %d" % genus_value)
    if n_regular < 1:
        raise ValueError("need at least one regular leg")
    if n_frozen < 0:
        raise ValueError("negative frozen leg count")
    if 2 * genus_value - 2 + n_regular + n_frozen <= 0:
        raise ValueError("unstable target space")
    seen = {}
    for spec in _tree_specs(genus_value, tuple(range(1, n_regular + 1)), n_frozen):
        shape = TreeShape(_materialize(spec, n_frozen))
        seen.setdefault(shape.key(), shape)
    return [seen[k] for k in sorted(seen)]


def _leg_exponents(shape, weights):
    """Weight ``d_i`` on regular leg ``U<i>`` and zero on every other half-edge.

    This is where weights meet a shape, so it checks that there is exactly
    one weight per regular leg ``U1 .. Un``.
    """
    g = shape.graph
    exps = [0] * g.n_half_edges
    regular = {}
    for h, lab in enumerate(g.labels):
        if lab is not None and leg_kind(lab) == "regular":
            regular[int(lab[1:])] = h
    if sorted(regular) != list(range(1, len(weights) + 1)):
        raise ValueError("%d weights for the regular legs %s" % (
            len(weights), " ".join("U%d" % i for i in sorted(regular))))
    for i, h in regular.items():
        exps[h] = weights[i - 1]
    return exps


def extra_count_bounds(genus_v, non_extra_degree, weighted_total):
    """Allowed numbers of extra legs on a non-root vertex.

    The string equation needs the extras not to outnumber the total psi
    exponent at the vertex; the dimension of the vertex moduli factor gives
    the lower bound.  Returns (lo, hi) with lo > hi when nothing survives.
    """
    lo = max(1, weighted_total - (3 * genus_v - 3 + non_extra_degree))
    hi = weighted_total
    return lo, hi


def acceptable_assignments(shape, weights):
    """All extra-leg assignments (vertex -> count-1) passing every bound."""
    return _assignments(shape, shape.view(), _leg_exponents(shape, _as_weights(weights)))


def _assignments(shape, view, exps):
    """``acceptable_assignments`` on a shape's view and leg exponents.

    Works bottom-up: the psi total at a vertex depends on its children's
    extra counts, and the root, which never carries extras, still imposes
    its dimension bound on its children.
    """
    g = shape.graph

    def branch(v):
        """Yield (extra_count, partial assignment) for the subtree at v."""
        child_options = [branch(w) for _h, w in view.children[v]]
        halves = g.halves_at(v)
        for combo in itertools.product(*child_options):
            assignment = {}
            total = sum(exps[h] for h in halves)
            for k_child, sub in combo:
                total += k_child - 1
                assignment.update(sub)
            if v == 0:
                if total <= 3 * g.genera[v] - 3 + len(halves):
                    yield 0, assignment
                continue
            lo, hi = extra_count_bounds(g.genera[v], len(halves), total)
            for k in range(lo, hi + 1):
                yield k, {**assignment, v: k}

    return [{v: k - 1 for v, k in assignment.items()} for _k, assignment in branch(0)]


def _shape_terms(shape, weights):
    """Uncollected (coefficient, graph) terms of the class of ``shape``.

    The half-edge down to child ``c`` carries ``assignment[c]``, and the
    ``assignment[v] + 1`` extras of each non-root vertex ``v`` are forgotten
    by its string table without ever being built.
    """
    view = shape.view()
    exps = _leg_exponents(shape, weights)
    out = []
    for assignment in _assignments(shape, view, tuple(exps)):
        for hs in view.children.values():
            for h, child in hs:
                exps[h] = assignment[child]
        decorated = DecoratedGraph(shape.graph, tuple(exps))
        counts = {v: k + 1 for v, k in assignment.items()}
        out.extend(_push_at_vertices(1, decorated, counts, ()))
    return out


def shape_class(shape, weights):
    """Sum over acceptable extra-leg assignments of the forgotten decorated tree."""
    weights = _as_weights(weights)
    ambient = make_ambient(graphs.genus(shape.graph), shape.graph.leg_labels())
    return Expression(ambient, _shape_terms(shape, weights))


def weighted_tree_class(genus_value, n_frozen, weights):
    """Signed sum of shape classes over the whole shape family."""
    weights = _as_weights(weights)
    ambient = make_ambient(genus_value,
                           ["U%d" % i for i in range(1, len(weights) + 1)]
                           + ["V%d" % j for j in range(1, n_frozen + 1)])
    terms = []
    for shape in enumerate_shapes(genus_value, len(weights), n_frozen):
        sign = -1 if shape.n_edges() % 2 else 1
        terms.extend((sign * c, dg) for c, dg in _shape_terms(shape, weights))
    return Expression(ambient, terms)
