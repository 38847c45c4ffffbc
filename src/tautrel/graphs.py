"""Half-edge dual graphs of stable curves.

A dual graph records the combinatorics of a nodal curve: each vertex carries
a genus, an involution pairs half-edges into edges (nodes), and the fixed
points of the involution are legs (marked points).  Leg labels come in four
kinds: regular ``U<i>``, frozen ``V<i>``, arbitrary named labels, and
anonymous extra legs which all share the label ``W``.  Pinned labels
(regular/frozen/named) must be preserved by isomorphisms; extra legs and
internal half-edge identities are freely interchangeable.  An extra leg is
otherwise a leg like the others, whose label may recur.

The program computes on records: a base class per vertex (see
``base_classes``) and a flat (v1, e1, v2, e2) record per edge (see
``_records``), which ``_canonical_search`` keys up to exactly that
identification.  A key is its records: base classes in canonical vertex
order, then the edge records, lower end first, sorted; ``half_edges``
numbers their half-edges.  Graph objects are the bridge: ``GraphBuilder``
input, ``canonical_key``, ``graph_from_key``.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from functools import lru_cache
from math import factorial

EXTRA = "W"

_KIND_ORDER = {"regular": 0, "frozen": 1, "named": 2, "extra": 3}
FROZEN_FIRST = {"frozen": 0, "regular": 1, "named": 2, "extra": 3}


def leg_kind(label):
    """Classify a leg label as the bracket grammar reads it: ``W`` and ``W``
    plus ASCII digits extra, ``U<i>`` regular and ``V<i>`` frozen for i an
    ASCII decimal without a leading zero, and any other label named."""
    head, digits = label[:1], label[1:]
    decimal = digits.isascii() and digits.isdigit()
    if head == EXTRA and (decimal or not digits):
        return "extra"
    if head in ("U", "V") and decimal and str(int(digits)) == digits:
        return "regular" if head == "U" else "frozen"
    return "named"


def label_sort_key(label):
    kind = leg_kind(label)
    if kind in ("regular", "frozen"):
        return (_KIND_ORDER[kind], int(label[1:]), label)
    return (_KIND_ORDER[kind], 0, label)


def leg_rank(label):
    """The rank of a leg in the order in which a vertex shows its legs and
    offers them as partners: frozen, regular, named, then extra legs, each
    kind in ``label_sort_key`` order."""
    return FROZEN_FIRST[leg_kind(label)], label_sort_key(label)


class DualGraph(namedtuple("DualGraph", "genera vertex_of involution labels")):
    """Immutable half-edge structure.

    ``genera[v]`` is the genus of vertex ``v``; half-edge ``h`` is attached to
    ``vertex_of[h]``; ``involution[h]`` is its partner (itself for a leg);
    ``labels[h]`` is the leg label, or ``None`` for an internal half-edge.
    """

    __slots__ = ()

    @property
    def n_vertices(self):
        return len(self.genera)

    @property
    def n_half_edges(self):
        return len(self.vertex_of)

    def edges(self):
        """Internal edges as (h, involution[h]) pairs with h < partner."""
        return [(h, self.involution[h]) for h in range(self.n_half_edges)
                if self.involution[h] > h]

    def n_edges(self):
        return len(self.edges())


class DecoratedGraph(namedtuple("DecoratedGraph", "graph exponents")):
    """A dual graph plus one nonnegative psi exponent per half-edge."""

    __slots__ = ()

    def degree(self):
        """Complex cohomological degree of the pushed-forward class."""
        return self.graph.n_edges() + sum(self.exponents)


def validate(graph):
    """The violated invariants of the half-edge structure (empty when none);
    terms are checked further on their records (``expressions._checked``)."""
    violations = []
    nv, nh = graph.n_vertices, graph.n_half_edges
    if nv == 0:
        return ["no vertices"]
    if len(graph.involution) != nh or len(graph.labels) != nh:
        return ["inconsistent array lengths"]
    for h in range(nh):
        p = graph.involution[h]
        if not (0 <= p < nh) or graph.involution[p] != h:
            violations.append("not an involution")
            break
    for h in range(nh):
        if not 0 <= graph.vertex_of[h] < nv:
            violations.append("half-edge attached to missing vertex")
            break
    for h in range(nh):
        fixed = graph.involution[h] == h
        labeled = graph.labels[h] is not None
        if fixed != labeled:
            violations.append("legs and involution fixed points disagree")
            break
    seen = set()
    for lab in graph.labels:
        if lab is None or lab == EXTRA:
            continue
        if lab in seen:
            violations.append("duplicate leg label %r" % lab)
        seen.add(lab)
    return violations


class GraphBuilder:
    """Mutable accumulator that builds a ``DecoratedGraph`` by hand: the
    library's input bridge to expressions, whose terms are keyed records."""

    def __init__(self):
        self.genera = []
        self.vertex_of = []
        self.labels = []
        self.exponents = []
        self.pairs = []

    def add_vertex(self, genus):
        self.genera.append(genus)
        return len(self.genera) - 1

    def add_leg(self, v, label, exponent=0):
        h = len(self.vertex_of)
        self.vertex_of.append(v)
        self.labels.append(label)
        self.exponents.append(exponent)
        return h

    def add_half(self, v, exponent=0):
        return self.add_leg(v, None, exponent)

    def add_edge(self, v1, v2, exp1=0, exp2=0):
        h1 = self.add_half(v1, exp1)
        h2 = self.add_half(v2, exp2)
        self.pairs.append((h1, h2))
        return h1, h2

    def pair(self, h1, h2):
        self.pairs.append((h1, h2))

    def build(self):
        nh = len(self.vertex_of)
        involution = list(range(nh))
        for h1, h2 in self.pairs:
            involution[h1], involution[h2] = h2, h1
        graph = DualGraph(tuple(self.genera), tuple(self.vertex_of),
                          tuple(involution), tuple(self.labels))
        return DecoratedGraph(graph, tuple(self.exponents))


# ---------------------------------------------------------------------------
# canonical forms


def base_classes(genera, halves):
    """The base class of every vertex, from the vertex genera and the
    (vertex, label, exponent) of every half-edge, label None on an edge end.

    A vertex's base class is (genus, sorted (label, exponent) legs, sorted
    exponents of its edge ends); an extra leg is the leg ``(EXTRA, 0)``, the
    one label that may recur.
    """
    legsig = [[] for _ in genera]
    intexp = [[] for _ in genera]
    for v, lab, exp in halves:
        if lab is None:
            intexp[v].append(exp)
            continue
        if lab == EXTRA and exp != 0:
            raise ValueError("extra legs cannot carry psi exponents")
        legsig[v].append((lab, exp))
    return [(genus_v, tuple(sorted(legsig[v])), tuple(sorted(intexp[v])))
            for v, genus_v in enumerate(genera)]


def _records(dg):
    """The base class of every vertex and the (v1, e1, v2, e2) record of every
    edge, which gives both end vertices with the exponents there, in the order
    of ``DualGraph.edges``."""
    g = dg.graph
    base = base_classes(g.genera, zip(g.vertex_of, g.labels, dg.exponents))
    edges = [(g.vertex_of[h], dg.exponents[h], g.vertex_of[p], dg.exponents[p])
             for h, p in g.edges()]
    return base, edges


def _sorted_runs(value):
    """The vertices sorted by ``value`` (stably), and its runs of more than one
    equal value as (start, vertices) pairs: the run's first position in that
    order and its vertices, in increasing order."""
    order = sorted(range(len(value)), key=value.__getitem__)
    tied, start = [], 0
    for i in range(1, len(order) + 1):
        if i == len(order) or value[order[i]] != value[order[i - 1]]:
            if i - start > 1:
                tied.append((start, order[start:i]))
            start = i
    return order, tied


def _refined_groups(base, edges):
    """Vertex groups under iterated neighborhood refinement, in canonical order:
    the vertices in that order, and the groups of more than one vertex as
    (start, vertices) pairs (see ``_sorted_runs``); every other vertex is a
    group of its own.

    The first groups are the runs of equal base classes among the vertices
    sorted by base class.  While some group holds more than one vertex, a
    pass sorts the vertices by their group's rank, the group's first
    position, and the sorted (own exponent, far exponent, far group's rank)
    of their edge ends, and takes the runs as the new groups.  Ranks keep the
    order of the values they stand for, so the groups come in the order of
    the fully nested values, and no value is hashed.  Refinement only ever
    splits groups and is isomorphism-invariant, so restricting the canonical
    search to within-group permutations is sound.  It has converged once a
    pass no longer adds a group, or once every group holds one vertex, when
    no pass can split a group.
    """
    order, tied = _sorted_runs(base)
    if tied:
        at = [[] for _ in base]    # (own exponent, far exponent, far vertex)
        for v1, e1, v2, e2 in edges:
            at[v1].append((e1, e2, v2))
            at[v2].append((e2, e1, v1))
        rank = [0] * len(base)
        while tied:
            for i, v in enumerate(order):
                rank[v] = i
            for start, grp in tied:
                for v in grp:
                    rank[v] = start
            order, new = _sorted_runs([(rank[v], sorted((e, f, rank[w]) for e, f, w in at[v]))
                                       for v in range(len(base))])
            if new == tied:        # no group split, so the order is the same too
                break
            tied = new
    return order, tied


def _twin_classes(grp, incidences):
    """Split a refined group into classes of twins, each in increasing order.

    Two vertices of a group are twins when their sorted incidences, the
    (own exponent, far exponent, far vertex) of every edge end at them, are
    equal.  A loop is entered from both ends with the far vertex -1, so no
    vertex lists itself; an edge u-v would list v at u only, and equal
    incidences rule it out.  The group already fixes genus and legs, so
    swapping two twins is an automorphism.
    """
    classes = {}
    for v in grp:
        classes.setdefault(tuple(sorted(incidences[v])), []).append(v)
    return list(classes.values())


def _arrangements(classes):
    """Distinct vertex orders of a group up to reordering inside each class.

    The orders are stepped in lexicographic order of the class that fills
    each position, so each sequence of classes comes exactly once.  Which
    vertex of a class fills which of its positions does not change the edge
    records, so the vertices just move with their classes.
    """
    rank = {v: i for i, cls in enumerate(classes) for v in cls}
    order = [v for cls in classes for v in cls]
    n = len(order)
    while True:
        yield tuple(order)
        i = n - 2
        while i >= 0 and rank[order[i]] >= rank[order[i + 1]]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while rank[order[j]] <= rank[order[i]]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1:] = reversed(order[i + 1:])


def _canonical_search(base, edges):
    """The canonical key of a graph given by its records (see ``_records``)
    and how many vertex orders reach it.

    Every order that keeps each refined group in its block of positions
    reaches a sorted tuple of edge records, and the least one wins.  Two
    orders that reach it differ by a group-preserving vertex permutation that
    maps the edges onto themselves, so the count of ties is the order of the
    vertex part of the automorphism group.

    A one-vertex group is placed once, and only the larger groups' orders are
    enumerated.  Orders that differ only inside a class of twins (see
    ``_twin_classes``) differ by an automorphism and give the same records.
    So only the distinct arrangements of the twin classes are tried, and
    their ties are multiplied by m! for every class of m twins.  A group
    without twins has singleton classes, and its arrangements are all of its
    orders.
    """
    order, tied = _refined_groups(base, edges)
    pos = [0] * len(base)
    for i, v in enumerate(order):
        pos[v] = i
    choices, twin_orders = [], 1
    if tied:
        incidences = [[] for _ in base]
        for v1, e1, v2, e2 in edges:
            incidences[v1].append((e1, e2, -1 if v1 == v2 else v2))
            incidences[v2].append((e2, e1, -1 if v1 == v2 else v1))
    for _start, grp in tied:
        classes = _twin_classes(grp, incidences)
        for cls in classes:
            twin_orders *= factorial(len(cls))
        choices.append(_arrangements(classes))
    best, ties = None, 0
    for combo in itertools.product(*choices) if choices else ((),):
        for (start, _grp), arrangement in zip(tied, combo):
            for i, v in enumerate(arrangement, start):
                pos[v] = i
        recs = []
        for v1, e1, v2, e2 in edges:
            p1, p2 = pos[v1], pos[v2]
            recs.append((p1, e1, p2, e2) if (p1, e1) <= (p2, e2) else (p2, e2, p1, e1))
        recs = tuple(sorted(recs))
        if recs == best:
            ties += 1
        elif best is None or recs < best:
            best, ties = recs, 1
    return (tuple([base[v] for v in order]), best), ties * twin_orders


@lru_cache(maxsize=None)
def canonical_key(dg):
    """Total invariant of a decorated graph up to label-fixing isomorphism.

    Two decorated graphs get equal keys exactly when some isomorphism matches
    them fixing every regular/frozen/named leg label; internal half-edges and
    extra legs may be renamed freely.  The key is self-describing: it lists
    per-vertex data (genus, decorated legs, edge-end exponents) in a canonical
    vertex order together with the multiset of decorated edge records, so the
    graph can be rebuilt from it (see ``graph_from_key``).
    """
    return _canonical_search(*_records(dg))[0]


@lru_cache(maxsize=None)
def graph_from_key(key):
    """Rebuild the canonical representative graph described by a key, its
    half-edges numbered as ``half_edges`` lists them."""
    halves = half_edges(*key)
    involution = [h + 1 - end[1] if end is not None else h
                  for h, (_v, _label, _e, end) in enumerate(halves)]
    graph = DualGraph(tuple(part[0] for part in key[0]),
                      tuple(v for v, _label, _e, _end in halves), tuple(involution),
                      tuple(label for _v, label, _e, _end in halves))
    return DecoratedGraph(graph, tuple(e for _v, _label, e, _end in halves))


def symmetry_order(key, ties):
    """Order of the decoration-preserving automorphism group of the graph
    with key ``key``, whose canonical search counted ``ties`` vertex orders.

    Regular, frozen and named legs are fixed pointwise; internal half-edges
    may permute.  Swapping extra legs at one vertex is never counted as a
    symmetry.  Each vertex automorphism lifts to the half-edges in as many
    ways as the m equal edge records of each kind can be matched (m!) times
    two per loop whose ends carry equal exponents.
    """
    recs = key[1]
    order = ties * 2 ** sum(1 for v1, e1, v2, e2 in recs if v1 == v2 and e1 == e2)
    for m in Counter(recs).values():
        order *= factorial(m)
    return order


@lru_cache(maxsize=None)
def automorphism_order(key):
    """``symmetry_order`` of a canonical key, searching its records once."""
    return symmetry_order(key, _canonical_search(*key)[1])


# ---------------------------------------------------------------------------
# record surgery
#
# Record surgery works on the (base, edges) records of ``_records`` or of a
# key and returns fresh lists, so a contracted or split graph is keyed by
# ``_canonical_search`` without being built.


def key_records(key):
    """A mutable copy of the records a key is, numbered as in
    ``graph_from_key``, for code that edits them."""
    return list(key[0]), list(key[1])


def contract_records(base, edges, i):
    """Contract the non-loop edge ``edges[i]``, merging its endpoints (genera
    add), in fresh lists: ``base`` and ``edges`` may be a key's tuples."""
    v1, e1, v2, e2 = edges[i]
    (g1, legs1, int1), (g2, legs2, int2) = base[v1], base[v2]
    rest1, rest2 = list(int1), list(int2)
    rest1.remove(e1)
    rest2.remove(e2)
    lo, hi = min(v1, v2), max(v1, v2)
    base = [*base[:hi], *base[hi + 1:]]
    base[lo] = (g1 + g2, tuple(sorted(legs1 + legs2)), tuple(sorted(rest1 + rest2)))

    def moved(u):
        return lo if u == hi else u - (u > hi)

    return base, [(moved(u1), f1, moved(u2), f2)
                  for j, (u1, f1, u2, f2) in enumerate(edges) if j != i]


def half_edges(base, edges, at=None):
    """The half-edges of the graph with records (base, edges), or of its
    vertex ``at`` only, in the one numbering of the program: legs vertex by
    vertex in base order, extra legs among them, then two halves per edge
    record.  Each is (vertex, label, exponent, end): an edge end has label
    None and end (i, j), indexing the flat record ``edges[i]`` of a key or of
    records: ``edges[i][j]`` is its vertex, ``edges[i][j + 1]`` its exponent,
    and the half after a j = 0 end its partner; a leg has end None."""
    vertices = range(len(base)) if at is None else (at,)
    out = [(v, label, exp, None) for v in vertices for label, exp in base[v][1]]
    for i, (v1, e1, v2, e2) in enumerate(edges):
        if at is None or v1 == at:
            out.append((v1, None, e1, (i, 0)))
        if at is None or v2 == at:
            out.append((v2, None, e2, (i, 2)))
    return out


def split_records(base, edges, v, halves, side, genus):
    """Split vertex ``v`` into a genus-0 vertex and a vertex of genus
    ``genus`` joined by a fresh edge without psi powers.

    ``halves`` is ``half_edges(base, edges, v)``, listed once by the
    caller for every side it splits.  The half-edges in ``side``, positions
    in that list, stay on ``v``, which gets genus 0; the rest move to a new
    last vertex of genus ``genus``.  Legs and edge ends keep their exponents.
    The records of edges that do not move stay the caller's.
    """
    nv = len(base)
    legs_a, legs_b = [], []
    int_a, int_b = [0], [0]
    out = list(edges)
    for n, (_v, label, exp, end) in enumerate(halves):
        stays = n in side
        if end is None:
            (legs_a if stays else legs_b).append((label, exp))
            continue
        (int_a if stays else int_b).append(exp)
        if not stays:
            i, j = end
            out[i] = rec = list(out[i])
            rec[j] = nv
    out.append((v, 0, nv, 0))
    base = list(base)
    base[v] = (0, tuple(legs_a), tuple(sorted(int_a)))
    base.append((genus, tuple(legs_b), tuple(sorted(int_b))))
    return base, out
