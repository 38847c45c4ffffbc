"""Shared helpers: independent oracles used to freeze expected values.

Everything here deliberately avoids the code paths under test: automorphism
counts come from raw permutation search, genus-0 integrals from the
string-equation recursion, genus-1 integrals from string plus dilaton
anchored at 1/24, and tree shapes from exhaustive parent-array enumeration.
The genus-0 closed form and the genus-1 splitting recursion that computed
vertex integrals before the DVV recursion replaced them stay here as
references.  ``closure`` grows a relation closure by a number of rounds,
``restored`` lists its relations as dicts, ``relation_expression`` reads
one back over graph keys, and ``transposed`` and ``solve_columns`` hand the
span solver a system of hand-made columns by its rows, as the solver built
them from the relations each round before a closure grew its rows.
``local_basis_by_elimination`` finds the basis of
the exchange relations at a vertex by the exact elimination that ran before
``_local_basis`` wrote it down.
``RootedTreeView`` is the graph-level rooted-tree walk that tree classes
used before they were assembled on records; it stays here as a reference.
So do the graph-level helpers that ``tautrel`` used before every term was
computed on as records: ``genus``, ``is_stable``, ``is_connected``,
``vertex_overweight``, ``builder_copy_of`` and ``graph_automorphism_order``.
``multiply_by_leg_psi``, ``relabel_legs``, ``distribute`` and
``shape_class`` are library functions that no command used, and
``psi_free`` was a method of ``Expression`` that no command used; they stay
here as references for the tests that use them.  ``halves_at``,
``leg_labels`` and ``leg_with_label`` were methods of ``DualGraph`` that
only tests called.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from tautrel.expressions import (
    Expression,
    _ambient_of,
    _base_overweight,
    _exponents,
    _from_records,
    _summed,
    make_ambient,
)
from tautrel.graphs import (
    EXTRA,
    DecoratedGraph,
    DualGraph,
    GraphBuilder,
    _canonical_search,
    _records,
    canonical_key,
    half_edges,
    key_records,
    label_sort_key,
    leg_kind,
    validate,
)
from tautrel.reduce import (
    RelationBasis,
    _exchange_relation,
    _only_term,
    _restored,
    _sides,
    _solve_exact,
    generate_wdvv_relations,
)
from tautrel.treeclass import _as_weights, _leg_weights, _shape_terms

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name + ".bracket")) as fh:
        return fh.read()


@pytest.fixture
def fixtures():
    return fixture_text


def halves_at(g, v):
    """The half-edges at vertex ``v`` of the dual graph ``g``, in order."""
    return [h for h, w in enumerate(g.vertex_of) if w == v]


def leg_labels(g):
    """The sorted non-extra leg labels of the dual graph ``g``."""
    return sorted((lab for lab in g.labels if lab is not None and lab != EXTRA),
                  key=label_sort_key)


def leg_with_label(g, label):
    """The first half-edge of the dual graph ``g`` with leg label ``label``."""
    for h, lab in enumerate(g.labels):
        if lab == label:
            return h
    raise KeyError(label)


# ---------------------------------------------------------------------------
# graph-level references


def genus(graph):
    """1 + #edges - #vertices + sum of vertex genera."""
    return 1 + graph.n_edges() - graph.n_vertices + sum(graph.genera)


def is_stable(graph_or_decorated):
    g = graph_or_decorated.graph if isinstance(graph_or_decorated, DecoratedGraph) else graph_or_decorated
    counts = Counter(g.vertex_of)
    return all(2 * g.genera[v] - 2 + counts.get(v, 0) > 0 for v in range(g.n_vertices))


def is_connected(graph):
    reached = {0}
    frontier = [0]
    adjacency = {v: set() for v in range(graph.n_vertices)}
    for h, p in graph.edges():
        adjacency[graph.vertex_of[h]].add(graph.vertex_of[p])
        adjacency[graph.vertex_of[p]].add(graph.vertex_of[h])
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return len(reached) == graph.n_vertices


def valid_term(dg):
    """Whether ``dg`` is a valid term of the ambient of its genus and legs."""
    g = dg.graph
    return (not validate(g) and min(g.genera) >= 0 and is_connected(g) and is_stable(dg)
            and 2 * genus(g) - 2 + len(leg_labels(g)) > 0)


def vertex_overweight(dg):
    g = dg.graph
    degree = [0] * g.n_vertices
    load = [0] * g.n_vertices
    for h in range(g.n_half_edges):
        degree[g.vertex_of[h]] += 1
        load[g.vertex_of[h]] += dg.exponents[h]
    return any(load[v] > 3 * g.genera[v] - 3 + degree[v] for v in range(g.n_vertices))


def builder_copy_of(dg, drop=()):
    """A builder holding a copy of ``dg``, ready for appended edges and legs.

    Half-edges in ``drop`` are left out, the rest keep their relative
    order and their psi exponents, and an edge is re-paired only when
    both of its halves are kept.
    """
    g = dg.graph
    kept = [h for h in range(g.n_half_edges) if h not in drop]
    new_id = {h: i for i, h in enumerate(kept)}
    b = GraphBuilder()
    b.genera = list(g.genera)
    b.vertex_of = [g.vertex_of[h] for h in kept]
    b.labels = [g.labels[h] for h in kept]
    b.exponents = [dg.exponents[h] for h in kept]
    b.pairs = [(new_id[h], new_id[p]) for h, p in g.edges()
               if h in new_id and p in new_id]
    return b


def graph_automorphism_order(dg):
    """The automorphism order of a graph, from the canonical search on its
    records, as ``automorphism_order`` took it before it took keys."""
    (_vpart, recs), ties = _canonical_search(*_records(dg))
    order = ties * 2 ** sum(1 for v1, e1, v2, e2 in recs if v1 == v2 and e1 == e2)
    for m in Counter(recs).values():
        order *= math.factorial(m)
    return order


# ---------------------------------------------------------------------------
# random graphs and relabelings


def random_decorated_graph(rng, max_vertices=4, with_extras=True):
    b = GraphBuilder()
    nv = rng.randint(1, max_vertices)
    for _ in range(nv):
        b.add_vertex(rng.randint(0, 2))
    for v in range(1, nv):
        b.add_edge(rng.randrange(v), v, rng.randint(0, 2), rng.randint(0, 2))
    if rng.random() < 0.5:
        v, w = rng.randrange(nv), rng.randrange(nv)
        b.add_edge(v, w, rng.randint(0, 2), rng.randint(0, 2))
    for i in range(1, rng.randint(1, 3) + 1):
        b.add_leg(rng.randrange(nv), "U%d" % i, rng.randint(0, 2))
    if rng.random() < 0.5:
        b.add_leg(rng.randrange(nv), "V1", rng.randint(0, 2))
    if with_extras:
        for _ in range(rng.randint(0, 2)):
            b.add_leg(rng.randrange(nv), EXTRA, 0)
    return b.build()


def relabeled(dg, rng):
    """The same graph with vertices and half-edges renamed at random."""
    g = dg.graph
    vperm = list(range(g.n_vertices))
    hperm = list(range(g.n_half_edges))
    rng.shuffle(vperm)
    rng.shuffle(hperm)
    nh = g.n_half_edges
    vertex_of = [0] * nh
    labels = [None] * nh
    exps = [0] * nh
    involution = [0] * nh
    for h in range(nh):
        vertex_of[hperm[h]] = vperm[g.vertex_of[h]]
        labels[hperm[h]] = g.labels[h]
        exps[hperm[h]] = dg.exponents[h]
        involution[hperm[h]] = hperm[g.involution[h]]
    genera = [0] * g.n_vertices
    for v in range(g.n_vertices):
        genera[vperm[v]] = g.genera[v]
    return DecoratedGraph(
        DualGraph(tuple(genera), tuple(vertex_of), tuple(involution), tuple(labels)),
        tuple(exps))


def brute_force_automorphism_order(dg):
    """Count decoration-preserving half-edge permutations directly."""
    g = dg.graph
    halves = [h for h in range(g.n_half_edges) if g.labels[h] != EXTRA]
    extras = Counter(g.vertex_of[h] for h in range(g.n_half_edges)
                     if g.labels[h] == EXTRA)
    count = 0
    for perm in itertools.permutations(halves):
        f = dict(zip(halves, perm))
        if any(g.labels[f[h]] != g.labels[h] or dg.exponents[f[h]] != dg.exponents[h]
               for h in halves):
            continue
        if any((g.involution[h] in f and f[g.involution[h]] != g.involution[f[h]])
               for h in halves):
            continue
        pi = {}
        ok = True
        for h in halves:
            v, w = g.vertex_of[h], g.vertex_of[f[h]]
            if pi.setdefault(v, w) != w:
                ok = False
                break
        if not ok:
            continue
        if len(set(pi.values())) != len(pi):
            continue
        if any(g.genera[v] != g.genera[w] or extras[v] != extras[w]
               for v, w in pi.items()):
            continue
        count += 1
    # vertices without half-edges can permute freely among equals
    bare = [v for v in range(g.n_vertices) if not halves_at(g, v)]
    groups = {}
    for v in bare:
        groups.setdefault((g.genera[v], extras[v]), []).append(v)
    for vs in groups.values():
        for k in range(2, len(vs) + 1):
            count *= k
    return count


# ---------------------------------------------------------------------------
# integration oracles


@lru_cache(maxsize=None)
def genus0_integral_by_string(exps):
    """Genus-0 psi integral computed purely by the string-equation recursion."""
    exps = tuple(sorted(exps))
    n = len(exps)
    if n < 3 or sum(exps) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)
    rest = list(exps[1:])  # exps[0] == 0 in top degree with n > 3
    assert exps[0] == 0
    total = Fraction(0)
    for i, q in enumerate(rest):
        if q >= 1:
            dropped = tuple(rest[:i] + [q - 1] + rest[i + 1:])
            total += genus0_integral_by_string(dropped)
    return total


@lru_cache(maxsize=None)
def genus1_integral_by_string_dilaton(exps):
    """Genus-1 psi integral from string + dilaton, anchored at 1/24."""
    exps = tuple(sorted(exps))
    n = len(exps)
    if sum(exps) != n:
        return Fraction(0)
    if n == 1:
        return Fraction(1, 24)
    if exps[0] == 0:
        rest = list(exps[1:])
        total = Fraction(0)
        for i, q in enumerate(rest):
            if q >= 1:
                dropped = tuple(rest[:i] + [q - 1] + rest[i + 1:])
                total += genus1_integral_by_string_dilaton(dropped)
        return total
    # all exponents positive and summing to n forces all ones: dilaton
    return (n - 1) * genus1_integral_by_string_dilaton((1,) * (n - 1))


@lru_cache(maxsize=None)
def genus0_closed_form(exps):
    """Genus-0 psi integral by the closed form (n-3)! / prod(a_i!)."""
    n = len(exps)
    if n < 3 or sum(exps) != n - 3:
        return Fraction(0)
    value = Fraction(math.factorial(n - 3))
    for q in exps:
        value /= math.factorial(q)
    return value


@lru_cache(maxsize=None)
def genus1_splitting_recursion(exps):
    """Genus-1 psi integral by the one-step splitting identity of psi
    elimination: one power comes off the first positive exponent, whose
    point moves with every nonempty companion set onto a genus-0 branch,
    plus 1/24 times the genus-0 integral with a loop."""
    n = len(exps)
    if sum(exps) != n:
        return Fraction(0)
    target = next(i for i, q in enumerate(exps) if q > 0)
    lowered = list(exps)
    lowered[target] -= 1
    others = [i for i in range(n) if i != target]
    total = Fraction(0)
    for r in range(1, len(others) + 1):
        for companions in itertools.combinations(others, r):
            side = {target, *companions}
            inner = tuple(sorted([0, *(lowered[i] for i in side)]))
            outer = tuple(sorted([0, *(lowered[i] for i in range(n) if i not in side)]))
            total += genus0_closed_form(inner) * genus1_splitting_recursion(outer)
    return total + Fraction(1, 24) * genus0_closed_form(tuple(sorted(lowered + [0, 0])))


# ---------------------------------------------------------------------------
# relations of a closure


def closure(support, rounds):
    """A fresh relation closure of ``support`` grown by ``rounds`` rounds, one
    ``generate_wdvv_relations`` call each."""
    basis = RelationBasis(support)
    for _ in range(rounds):
        generate_wdvv_relations(basis)
    return basis


def restored(basis):
    """The relations of a ``RelationBasis`` as id -> int dicts, in order."""
    return [_restored(sig, scale) for sig, scale in basis.relations.items()]


def relation_expression(basis, i):
    """Relation ``i`` of a ``RelationBasis`` as an ``Expression`` over graph
    keys, read back through the basis's key table, with ``Fraction``
    coefficients, on the genus and legs of its graphs."""
    terms = {basis.keys[k]: Fraction(n) for k, n in restored(basis)[i].items()}
    return Expression(_ambient_of([(1, *next(iter(terms)))]), _raw=terms)


def transposed(columns):
    """The rows of ``columns``, key -> int dicts: key -> {column index:
    entry}, entries in column order.  ``_solve_exact`` built its rows so
    from a closure's relations every round before the closure grew them."""
    rows = {}
    for j, col in enumerate(columns):
        for key, val in col.items():
            rows.setdefault(key, {})[j] = val
    return rows


def solve_columns(columns, target):
    """``_solve_exact`` on hand-made columns, handed over by their rows."""
    return _solve_exact(transposed(columns), target, columns)


def local_basis_by_elimination(k):
    """The (quadruple, exchange index) pairs of the exchange relations among k
    points that are independent of the relations before them in generation
    order (quadruples in lexicographic order, each with exchanges 0 and 1),
    over the abstract splittings of k points, a side and its complement
    being one splitting.  Found by one exact elimination, as the closure did
    before ``_local_basis`` wrote the basis down."""
    everything = frozenset(range(k))
    column = {}                    # splitting, as its side holding 0 -> index

    def split(pair_a, pair_b):
        for side in _sides(range(k), pair_a, pair_b):
            yield column.setdefault(side if 0 in side else everything - side,
                                    len(column))

    echelon = {}                   # lowest column -> row with entry 1 there
    basis = []
    for quad in itertools.combinations(range(k), 4):
        for e in (0, 1):
            row = {j: Fraction(n) for j, n in _exchange_relation(split, quad, e).items()}
            while row:             # reduce the row; a new leading column keeps it
                c = min(row)
                if c not in echelon:
                    echelon[c] = {j: v / row[c] for j, v in row.items()}
                    basis.append((quad, e))
                    break
                f = row[c]
                for j, v in echelon[c].items():
                    row[j] = row.get(j, 0) - f * v
                    if not row[j]:
                        del row[j]
    return basis


# ---------------------------------------------------------------------------
# exhaustive shape oracle


def brute_force_shape_keys(genus_value, n_regular, n_frozen):
    """Shape keys by exhaustive search over parent arrays, genera and legs."""
    max_vertices = n_regular + n_frozen + 2 * genus_value - 2
    keys = set()
    for nv in range(1, max_vertices + 1):
        for parents in itertools.product(*(range(i) for i in range(1, nv))):
            for genera in itertools.product(range(genus_value + 1), repeat=nv):
                if sum(genera) != genus_value:
                    continue
                for placement in itertools.product(range(nv), repeat=n_regular):
                    b = GraphBuilder()
                    for g0 in genera:
                        b.add_vertex(g0)
                    children = {v: [] for v in range(nv)}
                    for child, parent in enumerate(parents, start=1):
                        b.add_edge(parent, child)
                        children[parent].append(child)
                    for i, v in enumerate(placement, start=1):
                        b.add_leg(v, "U%d" % i)
                    for j in range(1, n_frozen + 1):
                        b.add_leg(0, "V%d" % j)
                    dg = b.build()
                    g = dg.graph
                    counts = [len(halves_at(g, v)) for v in range(nv)]
                    if any(2 * genera[v] - 2 + counts[v] <= 0 for v in range(nv)):
                        continue
                    leaf_ok = all(
                        children[v] or any(
                            g.labels[h] is not None and leg_kind(g.labels[h]) == "regular"
                            for h in halves_at(g, v))
                        for v in range(nv))
                    if not leaf_ok:
                        continue
                    keys.add(canonical_key(dg))
    return keys


# ---------------------------------------------------------------------------
# rooted trees


class RootedTreeView:
    """A dual graph certified as a rooted tree.

    ``children[v]`` lists the (half-edge at v, child) pairs of the edges from
    ``v`` away from the root, in breadth-first order.
    """

    def __init__(self, graph, root=0):
        if isinstance(graph, DecoratedGraph):
            graph = graph.graph
        problems = validate(graph)
        if problems:
            raise ValueError("invalid graph: %s" % "; ".join(problems))
        if graph.n_edges() != graph.n_vertices - 1:
            raise ValueError("not a tree (first Betti number nonzero)")
        self.graph = graph
        self.root = root
        seen = {root}
        children = {v: [] for v in range(graph.n_vertices)}
        frontier = [root]
        while frontier:
            v = frontier.pop(0)
            for h in halves_at(graph, v):
                p = graph.involution[h]
                if p == h:
                    continue
                w = graph.vertex_of[p]
                if w not in seen:
                    seen.add(w)
                    children[v].append((h, w))
                    frontier.append(w)
        self.children = children
        for h, lab in enumerate(graph.labels):
            if lab is not None and leg_kind(lab) == "frozen" and graph.vertex_of[h] != root:
                raise ValueError("frozen leg %s not attached to the root" % lab)


# ---------------------------------------------------------------------------
# library functions that no command uses


def _relabeled(expr, ambient, leg):
    """Every term with each leg (label, exponent) replaced by ``leg(label,
    exponent)``, keyed on its records; overweight terms drop."""
    out = []
    for key, coeff in expr._terms.items():
        base, edges = key_records(key)
        base = [(genus_v, tuple(sorted(leg(*pair) for pair in legs)), intexp)
                for genus_v, legs, intexp in base]
        if not _base_overweight(base):
            out.append((coeff, _canonical_search(base, edges)[0]))
    return _summed(ambient, out)


def multiply_by_leg_psi(expr, label, power):
    """Multiply by the psi class of an ambient leg, raised to ``power``."""
    if label not in expr.ambient.labels:
        raise ValueError("leg %r is not an ambient label" % label)
    if power < 0:
        raise ValueError("negative psi power")
    if power == 0:
        return expr
    return _relabeled(expr, expr.ambient, lambda name, e: (
        name, e + power if name == label else e))


def relabel_legs(expr, mapping):
    """Rename pinned legs; the ambient is rebuilt from the new labels."""
    new_labels = [mapping.get(lab, lab) for lab in expr.ambient.labels]
    ambient = make_ambient(expr.ambient.genus, new_labels)
    return _relabeled(expr, ambient, lambda name, e: (mapping.get(name, name), e))


def distribute(expr, label):
    """Insert a fresh leg named ``label`` into each vertex in turn and sum."""
    coeff, base, edges = _only_term(expr)
    if label in {half[1] for half in half_edges(base, edges)}:
        raise ValueError("name %r already used in the term" % label)
    out = []
    for v, (genus_v, legs, intexp) in enumerate(base):
        grown = list(base)
        grown[v] = (genus_v, tuple(sorted(legs + ((label, 0),))), intexp)
        out.append((coeff, grown, edges))
    return _from_records(out)


def psi_free(expr):
    """Whether no term of ``expr`` carries a psi class."""
    return not any(e for key in expr.support() for e in _exponents(key[0]))


def shape_class(shape, weights):
    """Sum over acceptable extra-leg assignments of the forgotten decorated tree."""
    legs = _leg_weights(shape, _as_weights(weights))
    ambient = make_ambient(sum(shape.genera), [label for labels in shape.legs
                                               for label in labels])
    return _summed(ambient, _shape_terms(shape, legs))
