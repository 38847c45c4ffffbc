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
each class is assembled on the records of the shape (a base class per
vertex and a flat edge record per edge, as a canonical key holds them):
the half-edge down to a child carries the child's extras minus one, the
table is applied at every non-root vertex, and neither an extra leg nor a
graph is ever built.  A shape is read off its tree spec in one walk, and
keyed by the canonical search on its records.

Per-vertex bounds cut the sum to finitely many assignments: the string
equation kills a vertex whose extras outnumber its total psi exponent, and a
vertex whose psi load exceeds the dimension of its moduli factor dies too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import _canonical_search, leg_kind
from .expressions import _summed, make_ambient
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
    """A rooted tree in the shape family; the root is always vertex 0.

    ``genera[v]`` is the genus of vertex ``v``, ``legs[v]`` the labels of its
    legs, ``parent[v]`` its parent (None at the root) and ``children[v]`` its
    children in increasing order.
    """

    genera: tuple
    legs: tuple
    parent: tuple
    children: tuple

    def records(self, legs, down):
        """The records of the shape whose vertex ``v`` carries the sorted
        (label, exponent) pairs ``legs[v]`` and whose half-edge down to each
        child ``c`` carries ``down[c]``; edge ``c - 1`` joins ``c`` to its
        parent, and the half-edges up to parents carry no psi power."""
        base = []
        for v, genus_v in enumerate(self.genera):
            intexp = [down[c] for c in self.children[v]] + [0] * (v > 0)
            base.append((genus_v, legs[v], tuple(sorted(intexp))))
        edges = [(self.parent[c], down[c], c, 0) for c in range(1, len(self.genera))]
        return base, edges

    def key(self):
        """The canonical key of the shape's records without psi powers."""
        legs = tuple(tuple(sorted((label, 0) for label in labels)) for labels in self.legs)
        return _canonical_search(*self.records(legs, [0] * len(self.genera)))[0]

    def n_edges(self):
        return len(self.genera) - 1


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
    """The ``parts``-tuples of naturals summing to ``total``, in lexicographic order."""
    return (c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total)


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


def _walk(spec, n_frozen):
    """The shape of a tree spec, its vertices numbered in depth-first order:
    each vertex, then the subtrees of its child specs from the last to the
    first.  The frozen legs go on the root."""
    genera, legs, parent = [], [], []
    stack = [(None, spec)]
    while stack:
        up, (g0, here, kids) = stack.pop()
        v = len(genera)
        genera.append(g0)
        legs.append(tuple("U%d" % i for i in here))
        parent.append(up)
        stack.extend((v, kid) for kid in kids)
    legs[0] += tuple("V%d" % j for j in range(1, n_frozen + 1))
    children = [[] for _ in genera]
    for c in range(1, len(genera)):
        children[parent[c]].append(c)
    return TreeShape(tuple(genera), tuple(legs), tuple(parent),
                     tuple(tuple(cs) for cs in children))


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
        shape = _walk(spec, n_frozen)
        seen.setdefault(shape.key(), shape)
    return [seen[k] for k in sorted(seen)]


def _leg_weights(shape, weights):
    """The legs of each vertex as sorted (label, exponent) pairs: weight
    ``d_i`` on regular leg ``U<i>`` and zero on frozen legs.

    This is where weights meet a shape, so it checks that there is exactly
    one weight per regular leg ``U1 .. Un``.
    """
    regular = sorted(int(label[1:]) for labels in shape.legs for label in labels
                     if leg_kind(label) == "regular")
    if regular != list(range(1, len(weights) + 1)):
        raise ValueError("%d weights for the regular legs %s" % (
            len(weights), " ".join("U%d" % i for i in regular)))
    return tuple(
        tuple(sorted((label, weights[int(label[1:]) - 1] if leg_kind(label) == "regular"
                      else 0) for label in labels))
        for labels in shape.legs)


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
    return _assignments(shape, _leg_weights(shape, _as_weights(weights)))


def _assignments(shape, legs):
    """``acceptable_assignments`` on a shape's weighted legs.

    Works bottom-up: the psi total at a vertex depends on its children's
    extra counts, and the root, which never carries extras, still imposes
    its dimension bound on its children.
    """

    def branch(v):
        """Yield (extra_count, partial assignment) for the subtree at v."""
        kids = shape.children[v]
        child_options = [branch(c) for c in kids]
        genus_v = shape.genera[v]
        valence = len(legs[v]) + len(kids) + (v > 0)
        weight = sum(e for _label, e in legs[v])
        for combo in itertools.product(*child_options):
            assignment = {}
            total = weight
            for k_child, sub in combo:
                total += k_child - 1
                assignment.update(sub)
            if v == 0:
                if total <= 3 * genus_v - 3 + valence:
                    yield 0, assignment
                continue
            lo, hi = extra_count_bounds(genus_v, valence, total)
            for k in range(lo, hi + 1):
                yield k, {**assignment, v: k}

    return [{v: k - 1 for v, k in assignment.items()} for _k, assignment in branch(0)]


def _shape_terms(shape, legs):
    """Uncollected (coefficient, key) pairs of the class of ``shape``.

    The half-edge down to child ``c`` carries ``assignment[c]``, and the
    ``assignment[v] + 1`` extras of each non-root vertex ``v`` are forgotten
    by its string table without ever being built.
    """
    for assignment in _assignments(shape, legs):
        counts = {v: k + 1 for v, k in assignment.items()}
        yield from _push_at_vertices(1, *shape.records(legs, assignment), counts)


def weighted_tree_class(genus_value, n_frozen, weights):
    """Signed sum of shape classes over the whole shape family."""
    weights = _as_weights(weights)
    ambient = make_ambient(genus_value,
                           ["U%d" % i for i in range(1, len(weights) + 1)]
                           + ["V%d" % j for j in range(1, n_frozen + 1)])
    return _summed(ambient, (
        (-c if shape.n_edges() % 2 else c, key)
        for shape in enumerate_shapes(genus_value, len(weights), n_frozen)
        for c, key in _shape_terms(shape, _leg_weights(shape, weights))))
