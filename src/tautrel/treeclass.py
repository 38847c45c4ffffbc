"""Weighted rooted-tree boundary classes.

A shape is a stable rooted tree without extra legs whose frozen legs sit on
the root and whose every top vertex carries at least one regular leg.  Given
nonnegative weights on the regular legs, each way of adding at least one
extra leg to every non-root vertex induces a psi decoration: weight ``d_i``
on regular leg ``U<i>``, zero on frozen legs, extra legs and upward halves,
and (number of extras on the child) - 1 on each downward edge half.  The
class of a shape is the sum over all such decorated trees of the pushforward
forgetting the extras; the full class sums shapes with sign (-1)^(#edges).

Per-vertex bounds cut the sum to finitely many assignments: the string
equation kills a vertex whose extras outnumber its total psi exponent, and a
vertex whose psi load exceeds the dimension of its moduli factor dies too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    EXTRA,
    DecoratedGraph,
    GraphBuilder,
    RootedTreeView,
    canonical_key,
    leg_kind,
)
from . import graphs
from .expressions import Expression, make_ambient
from .pushforward import forget_extra_legs


@dataclass(frozen=True)
class WeightVector:
    weights: tuple

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("need at least one regular leg weight")
        if any(d < 0 for d in self.weights):
            raise ValueError("weights must be nonnegative")

    @property
    def total(self):
        return sum(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]


def _as_weights(d):
    return d if isinstance(d, WeightVector) else WeightVector(tuple(d))


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


def _tree_specs(genus_budget, legs, pending):
    """Rooted subtree specs (genus, legs at local root, child specs).

    ``pending`` counts half-edges on the local root beyond legs and child
    edges (the parent edge, or the frozen legs on the global root).  Every
    leaf must end up with a regular leg, so each child block is nonempty.
    """
    out = []
    legs = frozenset(legs)
    for g0 in range(genus_budget + 1):
        for here in _subsets(sorted(legs)):
            rest = legs - set(here)
            for blocks in _set_partitions(rest):
                k = len(blocks)
                if k == 0 and not here:
                    continue
                if 2 * g0 - 2 + len(here) + k + pending <= 0:
                    continue
                for genera in _compositions(genus_budget - g0, k):
                    child_lists = [_tree_specs(gb, blk, 1)
                                   for gb, blk in zip(genera, blocks)]
                    for combo in itertools.product(*child_lists):
                        out.append((g0, tuple(sorted(here)), combo))
    return out


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
    if n_regular < 1:
        raise ValueError("need at least one regular leg")
    if n_frozen < 0:
        raise ValueError("negative frozen leg count")
    if 2 * genus_value - 2 + n_regular + n_frozen <= 0:
        raise ValueError("unstable target space")
    seen = {}
    for spec in _tree_specs(genus_value, range(1, n_regular + 1), n_frozen):
        shape = TreeShape(_materialize(spec, n_frozen))
        seen.setdefault(shape.key(), shape)
    return [seen[k] for k in sorted(seen)]


def add_extras(shape, assignment):
    """Add ``assignment[v] + 1`` extra legs to each non-root vertex."""
    g = shape.graph
    b = GraphBuilder.copy_of(DecoratedGraph(g, (0,) * g.n_half_edges))
    for v in range(1, g.n_vertices):
        for _ in range(assignment[v] + 1):
            b.add_leg(v, EXTRA)
    return b.build()


def weight_decoration(tree_dg, weights):
    """The induced psi decoration on a balanced rooted tree with extras."""
    weights = _as_weights(weights)
    view = RootedTreeView(tree_dg.graph, 0)
    g = tree_dg.graph
    exps = [0] * g.n_half_edges
    for h in range(g.n_half_edges):
        lab = g.labels[h]
        if lab is not None and leg_kind(lab) == "regular":
            i = int(lab[1:])
            if not 1 <= i <= len(weights):
                raise ValueError("regular leg %s has no weight" % lab)
            exps[h] = weights[i - 1]
    for v in range(g.n_vertices):
        for h, child in view.children[v]:
            exps[h] = g.extra_count(child) - 1
    decorated = DecoratedGraph(g, tuple(exps))
    if not graphs.is_balanced(view):
        raise ValueError("tree is not balanced")
    return decorated


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
    """All extra-leg assignments (vertex -> count-1) passing every bound.

    Works bottom-up: the psi total at a vertex depends on its children's
    extra counts, and the root, which never carries extras, still imposes
    its dimension bound on its children.
    """
    weights = _as_weights(weights)
    view = shape.view()
    g = shape.graph

    def weight_at(v):
        total = 0
        for h in g.halves_at(v):
            lab = g.labels[h]
            if lab is not None and leg_kind(lab) == "regular":
                total += weights[int(lab[1:]) - 1]
        return total

    def branch(v):
        """Yield (extra_count, partial assignment) for the subtree at v."""
        child_options = [branch(w) for _h, w in view.children[v]]
        for combo in itertools.product(*child_options):
            assignment = {}
            total = weight_at(v)
            for k_child, sub in combo:
                total += k_child - 1
                assignment.update(sub)
            degree = len(g.halves_at(v)) - g.extra_count(v)
            if v == 0:
                if total <= 3 * g.genera[v] - 3 + degree:
                    yield 0, assignment
                continue
            lo, hi = extra_count_bounds(g.genera[v], degree, total)
            for k in range(lo, hi + 1):
                yield k, {**assignment, v: k}

    return [{v: k - 1 for v, k in assignment.items()} for _k, assignment in branch(0)]


def shape_class(shape, weights):
    """Sum over acceptable extra-leg assignments of the forgotten decorated tree."""
    weights = _as_weights(weights)
    ambient = make_ambient(graphs.genus(shape.graph), shape.graph.leg_labels())
    acc = {}
    for assignment in acceptable_assignments(shape, weights):
        tree = add_extras(shape, assignment)
        decorated = weight_decoration(tree, weights)
        term = Expression(ambient, [(1, decorated)])
        for key, c in forget_extra_legs(term)._terms.items():
            acc[key] = acc.get(key, 0) + c
    return Expression(ambient, _raw={k: c for k, c in acc.items() if c != 0})


def weighted_tree_class(genus_value, n_frozen, weights):
    """Signed sum of shape classes over the whole shape family."""
    weights = _as_weights(weights)
    shapes = enumerate_shapes(genus_value, len(weights), n_frozen)
    ambient = make_ambient(genus_value,
                           ["U%d" % i for i in range(1, len(weights) + 1)]
                           + ["V%d" % j for j in range(1, n_frozen + 1)])
    acc = {}
    for shape in shapes:
        sign = -1 if shape.n_edges() % 2 else 1
        for key, c in shape_class(shape, weights)._terms.items():
            acc[key] = acc.get(key, 0) + sign * c
    return Expression(ambient, _raw={k: c for k, c in acc.items() if c != 0})
