import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tautrel import graphs
from tautrel.graphs import (
    EXTRA,
    DecoratedGraph,
    DualGraph,
    GraphBuilder,
    _canonical_search,
    _records,
    _refined_groups,
    automorphism_order,
    canonical_key,
    contract_records,
    graph_from_key,
    half_edges,
    key_records,
    split_records,
    validate,
)
from tautrel.expressions import (
    Expression,
    attach_vertex,
    from_terms,
    parse_bracket,
)
from tautrel.reduce import psi_reduce_genus0, psi_reduce_genus1

from conftest import (
    RootedTreeView,
    brute_force_automorphism_order,
    builder_copy_of,
    fixture_text,
    genus,
    halves_at,
    is_connected,
    is_stable,
    leg_with_label,
    random_decorated_graph,
    relabeled,
    valid_term,
)


def build(fn):
    b = GraphBuilder()
    fn(b)
    return b.build()


def test_validate_ok_single_vertex():
    dg = build(lambda b: (b.add_vertex(1),
                          b.add_leg(0, "U1"), b.add_leg(0, "U2"), b.add_leg(0, "V1")))
    assert validate(dg.graph) == []


def test_validate_broken_involution():
    g = DualGraph((0,), (0, 0, 0), (1, 2, 0), (None, None, None))
    assert "not an involution" in validate(g)


def test_validate_disconnected():
    def fn(b):
        b.add_vertex(1)
        b.add_vertex(1)
        b.add_leg(0, "U1")
        b.add_leg(1, "U2")
    dg = build(fn)
    assert validate(dg.graph) == [] and not is_connected(dg.graph)
    with pytest.raises(ValueError, match="invalid graph in term: disconnected"):
        from_terms([(1, dg)])


def test_validate_leg_label_clash():
    def fn(b):
        b.add_vertex(1)
        b.add_leg(0, "U1")
        b.add_leg(0, "U1")
    assert any("duplicate" in v for v in validate(build(fn).graph))


def test_genus_single_vertex():
    dg = build(lambda b: (b.add_vertex(1), b.add_leg(0, "U1")))
    assert genus(dg.graph) == 1


def test_genus_self_edge():
    dg = build(lambda b: (b.add_vertex(0), b.add_leg(0, "U1"), b.add_edge(0, 0)))
    assert genus(dg.graph) == 1


def test_genus_four_vertices_six_edges():
    def fn(b):
        for g0 in (1, 2, 0, 3):
            b.add_vertex(g0)
        for v, w in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]:
            b.add_edge(v, w)
    assert genus(build(fn).graph) == 3 + (1 + 2 + 0 + 3)


@pytest.mark.parametrize("g0,n_legs,stable", [(0, 3, True), (0, 2, False), (1, 1, True)])
def test_is_stable(g0, n_legs, stable):
    def fn(b):
        b.add_vertex(g0)
        for i in range(1, n_legs + 1):
            b.add_leg(0, "U%d" % i)
    assert is_stable(build(fn)) is stable


def test_rooted_tree_children():
    def fn(b):
        b.add_vertex(0)
        b.add_vertex(0)
        b.add_vertex(1)
        b.add_leg(0, "V1")
        b.add_leg(0, "V2")
        b.add_edge(0, 1)
        b.add_edge(1, 2)
        b.add_leg(1, "U1")
        b.add_leg(2, "U2")
    view = RootedTreeView(build(fn).graph)
    assert {v: [w for _h, w in kids] for v, kids in view.children.items()} == \
        {0: [1], 1: [2], 2: []}


TAUTEX = """
<P^3(s1) s2 P^2(s3) g1 P^1(g1*) P^5(g2)>_3 <P^7(g2*) g3 g4>_3
<P^1(g3*) P^8(g5) P^2(g5*) s4 g6>_3 <P^6(g4*) g6* s5 P^4(s6)>_3
"""

TAUTEX_RELABELED = """
<P^3(s1) s2 P^2(s3) g2 P^1(g2*) P^5(g1)>_3 <P^7(g1*) g3 g4>_3
<P^1(g3*) P^8(g5) P^2(g5*) s4 g6>_3 <P^6(g4*) g6* s5 P^4(s6)>_3
"""


def test_canonical_key_edge_relabeling_invariance():
    a = parse_bracket(TAUTEX)
    b = parse_bracket(TAUTEX_RELABELED)
    assert a == b


def test_canonical_key_fixes_pinned_labels():
    a = parse_bracket("<V1 V2 a>_0 <a* P^2(U1) U2>_1")
    b = parse_bracket("<V1 V2 a>_0 <a* P^2(U2) U1>_1")
    assert a != b


def test_canonical_key_extra_legs_anonymous():
    def one_order(b):
        b.add_vertex(1)
        b.add_leg(0, "U1", 1)
        b.add_leg(0, EXTRA)
        b.add_leg(0, EXTRA)
    def other_order(b):
        b.add_vertex(1)
        b.add_leg(0, EXTRA)
        b.add_leg(0, "U1", 1)
        b.add_leg(0, EXTRA)
    assert canonical_key(build(one_order)) == canonical_key(build(other_order))


def test_an_extra_leg_is_a_leg():
    """A base class is (genus, legs, edge-end exponents), an extra leg is
    the leg (W, 0), and ``half_edges`` lists it among the legs of its vertex,
    before the edge ends."""
    (key,) = parse_bracket("<U1 W W a>_0 <a* U2 U3>_0").support()
    base, edges = key
    assert base == ((0, (("U1", 0), (EXTRA, 0), (EXTRA, 0)), (0,)),
                    (0, (("U2", 0), ("U3", 0)), (0,)))
    assert [(label, e, end) for _v, label, e, end in half_edges(base, edges, 0)] == \
        [("U1", 0, None), (EXTRA, 0, None), (EXTRA, 0, None), (None, 0, (0, 0))]
    assert [label for _v, label, _e, _end in half_edges(base, edges)] == \
        ["U1", EXTRA, EXTRA, "U2", "U3", None, None]


def test_automorphism_order_examples():
    tree = parse_bracket("<V1 V2 a>_0 <a* U1 U2>_1").terms()[0][1]
    assert automorphism_order(canonical_key(tree)) == 1
    loop_equal = parse_bracket("<x1 a a*>_0").terms()[0][1]
    assert automorphism_order(canonical_key(loop_equal)) == 2
    def skew(b):
        b.add_vertex(0)
        b.add_leg(0, "x1")
        b.add_edge(0, 0, 1, 0)
    assert automorphism_order(canonical_key(build(skew))) == 1


def test_automorphism_order_high_symmetry():
    def theta(b):
        b.add_vertex(1)
        b.add_vertex(1)
        for _ in range(3):
            b.add_edge(0, 1)
    dg = build(theta)
    assert automorphism_order(canonical_key(dg)) == brute_force_automorphism_order(dg) == 12

    def double_loop(b):
        b.add_vertex(0)
        b.add_leg(0, "x1")
        b.add_edge(0, 0)
        b.add_edge(0, 0)
    dg = build(double_loop)
    assert automorphism_order(canonical_key(dg)) == brute_force_automorphism_order(dg) == 8


def test_automorphism_order_against_brute_force():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        dg = random_decorated_graph(rng, max_vertices=3)
        non_extra = sum(1 for lab in dg.graph.labels if lab != EXTRA)
        if non_extra > 7:
            continue
        assert automorphism_order(canonical_key(dg)) == brute_force_automorphism_order(dg)
        checked += 1


# ---------------------------------------------------------------------------
# automorphism orders in closed form, and the one canonical search against the
# two permutation loops it replaced


def star(tails, p=0):
    """Genus-0 centre <P^p(U1) U2 U3 ...>_0 with one edge per (genus, exponent) tail."""
    b = GraphBuilder()
    b.add_vertex(0)
    b.add_leg(0, "U1", p)
    b.add_leg(0, "U2")
    b.add_leg(0, "U3")
    for genus_t, exp_t in tails:
        b.add_edge(0, b.add_vertex(genus_t), 0, exp_t)
    return b.build()


def bouquet(j):
    b = GraphBuilder()
    b.add_vertex(0)
    b.add_leg(0, "U1")
    for _ in range(j):
        b.add_edge(0, 0)
    return b.build()


def theta(m):
    b = GraphBuilder()
    b.add_vertex(1)
    b.add_vertex(1)
    for _ in range(m):
        b.add_edge(0, 1)
    return b.build()


def two_centre_star(a, b):
    """``star`` with ``a`` genus-1 tails and a legless genus-0 second centre with ``b``."""
    bld = GraphBuilder()
    bld.add_vertex(0)
    bld.add_leg(0, "U1")
    bld.add_leg(0, "U2")
    bld.add_leg(0, "U3")
    second = bld.add_vertex(0)
    bld.add_edge(0, second)
    for centre, k in [(0, a), (second, b)]:
        for _ in range(k):
            bld.add_edge(centre, bld.add_vertex(1))
    return bld.build()


SHAPES = {"star": lambda k: star([(1, 0)] * k), "bouquet": bouquet, "theta": theta,
          "two-centre star": lambda ab: two_centre_star(*ab)}
CLOSED_FORMS = (
    [("star", k, factorial(k)) for k in range(1, 13)]
    + [("two-centre star", (a, b), factorial(a) * factorial(b))
       for a, b in [(1, 1), (2, 3), (4, 4), (6, 5), (7, 8)]]
    + [("bouquet", j, 2 ** j * factorial(j)) for j in range(1, 7)]
    + [("theta", m, 2 * factorial(m)) for m in range(1, 7)])


@pytest.mark.parametrize("shape,n,expected", CLOSED_FORMS)
def test_automorphism_order_closed_forms(shape, n, expected):
    dg = SHAPES[shape](n)
    other = relabeled(dg, random.Random(str(n)))
    assert automorphism_order(canonical_key(dg)) == expected
    assert automorphism_order(canonical_key(other)) == expected
    assert canonical_key(other) == canonical_key(dg)


def flat_record(end1, end2):
    return end1 + end2


def nested_record(end1, end2):
    return (end1, end2)


def reference_canonical_key(dg, record=flat_record):
    """Least edge records over all within-group vertex orders, ``record``
    writing each from its two (vertex, exponent) ends, the lower one first."""
    base, edges = _records(dg)
    groups = _refined_groups(base, edges)
    order = [v for grp in groups for v in grp]
    vpart = tuple(base[v] for v in order)
    best = None
    for combo in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        pos = {}
        i = 0
        for grp in combo:
            for v in grp:
                pos[v] = i
                i += 1
        recs = tuple(sorted(
            record(*sorted(((pos[v1], e1), (pos[v2], e2))))
            for v1, e1, v2, e2 in edges))
        if best is None or recs < best:
            best = recs
    return (vpart, best)


def reference_automorphism_order(dg):
    """Count the within-group vertex permutations that keep the edge multiset."""
    base, edges = _records(dg)
    groups = _refined_groups(base, edges)
    recs = [tuple(sorted(((v1, e1), (v2, e2)))) for v1, e1, v2, e2 in edges]
    counts = Counter(recs)
    per_valid = 1
    for m in counts.values():
        per_valid *= factorial(m)
    per_valid *= 2 ** sum(1 for r in recs if r[0] == r[1])
    valid = 0
    for combo in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        pi = {}
        for grp, image in zip(groups, combo):
            for v, w in zip(grp, image):
                pi[v] = w
        mapped = Counter(tuple(sorted(((pi[v1], e1), (pi[v2], e2))))
                         for v1, e1, v2, e2 in edges)
        if mapped == counts:
            valid += 1
    return valid * per_valid


def reference_refined_groups(dg):
    """Refinement passes until one adds no group, even on a discrete partition."""
    g = dg.graph
    nv = g.n_vertices
    base = _records(dg)[0]
    val = list(base)
    internal = [h for h in range(g.n_half_edges)
                if g.involution[h] != h]
    at = [[] for _ in range(nv)]
    for h in internal:
        at[g.vertex_of[h]].append(h)
    n_groups = len(set(val))
    while True:
        new = []
        for v in range(nv):
            nbr = tuple(sorted(
                (dg.exponents[h], dg.exponents[g.involution[h]], val[g.vertex_of[g.involution[h]]])
                for h in at[v]))
            new.append((val[v], nbr))
        n_new = len(set(new))
        if n_new == n_groups:
            break
        val, n_groups = new, n_new
    groups = {}
    for v in range(nv):
        groups.setdefault(val[v], []).append(v)
    ordered = [sorted(groups[value]) for value in sorted(groups)]
    return base, ordered


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_refinement_matches_reference_loop_on_random_graphs(rng):
    dg = random_decorated_graph(rng, max_vertices=6)
    base, edges = _records(dg)
    assert (base, _refined_groups(base, edges)) == reference_refined_groups(dg)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_search_matches_reference_loops_on_random_graphs(rng):
    dg = random_decorated_graph(rng, max_vertices=6)
    assert canonical_key(dg) == reference_canonical_key(dg)
    assert automorphism_order(canonical_key(dg)) == reference_automorphism_order(dg)


def flattened(nested_key):
    vpart, recs = nested_key
    return vpart, tuple(flat_record(*rec) for rec in recs)


def nested_symmetry_order(nested_key, ties):
    """``symmetry_order`` on a key with nested ((v1, e1), (v2, e2)) records."""
    recs = nested_key[1]
    order = ties * 2 ** sum(1 for end1, end2 in recs if end1 == end2)
    for m in Counter(recs).values():
        order *= factorial(m)
    return order


def loops_and_repeats():
    """Two vertices: loops with equal and with unequal end exponents, and
    repeated edge records, both loops and edges between the vertices."""
    b = GraphBuilder()
    b.add_vertex(0)
    b.add_vertex(0)
    b.add_leg(0, "U1")
    b.add_leg(1, "U2")
    for v1, v2, e1, e2 in [(0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 0, 2), (1, 1, 0, 0),
                           (0, 1, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1)]:
        b.add_edge(v1, v2, e1, e2)
    return b.build()


FIXED_BATCH = [loops_and_repeats(), bouquet(3), theta(3), star([(1, 0)] * 3),
               two_centre_star(2, 2)]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_flat_keys_are_the_nested_keys_flattened_in_the_same_order(rng):
    """A key's flat (v1, e1, v2, e2) records are the nested ((v1, e1), (v2,
    e2)) records flattened, and flattening keeps the order of keys and of
    their records, so the least arrangement, the tie count, the symmetry
    order and every sorted list of keys are those of the nested form."""
    batch = [random_decorated_graph(rng, max_vertices=5) for _ in range(6)] + FIXED_BATCH
    flat = [canonical_key(dg) for dg in batch]
    nested = [reference_canonical_key(dg, nested_record) for dg in batch]
    assert flat == [flattened(key) for key in nested]
    for dg, key, old in zip(batch, flat, nested):
        ties = _canonical_search(*_records(dg))[1]
        assert graphs.symmetry_order(key, ties) == nested_symmetry_order(old, ties)
    assert sorted(flat) == [flattened(key) for key in sorted(nested)]
    assert sorted(key[1] for key in flat) == \
        [flattened(key)[1] for key in sorted(nested, key=lambda key: key[1])]


@settings(max_examples=150, deadline=None)
@given(tails=st.lists(st.sampled_from([(1, 0), (1, 1), (2, 0)]), max_size=6),
       p=st.integers(0, 2), rng=st.randoms(use_true_random=False))
def test_canonical_search_matches_reference_loops_on_stars(tails, p, rng):
    dg = relabeled(star(tails, p), rng)
    assert canonical_key(dg) == reference_canonical_key(dg)
    assert automorphism_order(canonical_key(dg)) == reference_automorphism_order(dg)


# Tails that hang off the centres: (genus, exponent on the tail's end of its
# edge, extra legs on the tail).
TAIL_KINDS = [(1, 0, 0), (1, 1, 0), (0, 0, 2), (2, 0, 0)]


def twin_heavy_graph(n_centres, p, centre_of, tail_lists, joins):
    """Centres 0 .. n_centres-1 of genus 0 with tails of ``TAIL_KINDS``.

    Centre 0 carries ``P^p(U1) U2 U3``, centre ``c > 0`` hangs off centre
    ``centre_of[c - 1]``, and centre ``c`` carries the tails of
    ``tail_lists[c]``.  Each join ``(t, w, e_t, e_w)`` adds an edge from tail
    ``t`` to vertex ``w`` (tails are numbered after the centres), a loop when
    ``t == w``.
    """
    b = GraphBuilder()
    for _ in range(n_centres):
        b.add_vertex(0)
    b.add_leg(0, "U1", p)
    b.add_leg(0, "U2")
    b.add_leg(0, "U3")
    for c, parent in enumerate(centre_of, start=1):
        b.add_edge(parent, c)
    for c, tails in enumerate(tail_lists):
        for genus_t, exp_t, extras_t in tails:
            t = b.add_vertex(genus_t)
            b.add_edge(c, t, 0, exp_t)
            for _ in range(extras_t):
                b.add_leg(t, EXTRA)
    for t, w, e_t, e_w in joins:
        b.add_edge(t, w, e_t, e_w)
    return b.build()


@st.composite
def twin_heavy_graphs(draw):
    """Relabeled ``twin_heavy_graph``s whose reference loops stay affordable."""
    n_centres = draw(st.integers(1, 3))
    p = draw(st.integers(0, 2))
    centre_of = [draw(st.integers(0, c - 1)) for c in range(1, n_centres)]
    tail_lists = [draw(st.lists(st.sampled_from(TAIL_KINDS), max_size=6))
                  for _ in range(n_centres)]
    n_tails = sum(map(len, tail_lists))
    joins = []
    if n_tails:
        tail = st.integers(n_centres, n_centres + n_tails - 1)
        end = st.integers(0, n_centres + n_tails - 1)
        joins = draw(st.lists(st.tuples(tail, end, st.integers(0, 1), st.integers(0, 1)),
                              max_size=2))
    dg = twin_heavy_graph(n_centres, p, centre_of, tail_lists, joins)
    groups = _refined_groups(*_records(dg))
    assume(prod(factorial(len(grp)) for grp in groups) <= 5040)
    return relabeled(dg, draw(st.randoms(use_true_random=False)))


# Two identical tails joined to each other, and a loop on one of four twins.
JOINED_TWINS = twin_heavy_graph(1, 0, [], [[(1, 0, 0)] * 4], [(1, 2, 0, 0), (3, 3, 1, 0)])
# Tails a, b on centre 1 and edges a-2, b-2 whose exponents cross those of
# a-1, b-1: the far vertices agree, the exponents decide that neither the
# tails nor the centres 1, 2 are twins.
CROSSED = twin_heavy_graph(3, 0, [0, 0], [[], [(1, 0, 0), (1, 1, 0)], []],
                           [(3, 2, 1, 0), (4, 2, 0, 0)])


@settings(max_examples=200, deadline=None)
@given(twin_heavy_graphs())
@example(JOINED_TWINS)
@example(CROSSED)
def test_canonical_search_matches_reference_loops_on_twin_heavy_graphs(dg):
    assert canonical_key(dg) == reference_canonical_key(dg)
    order = automorphism_order(canonical_key(dg))
    assert order == reference_automorphism_order(dg)
    if sum(1 for lab in dg.graph.labels if lab != EXTRA) <= 7:
        assert order == brute_force_automorphism_order(dg)


def hashed_refined_groups(base, edges):
    """Reference oracle: the refinement that counted the groups of each pass
    by hashing its nested values into a set, and grouped and ordered the
    vertices by the values of the last pass."""
    nv = len(base)
    val = list(base)
    at = [[] for _ in range(nv)]
    for v1, e1, v2, e2 in edges:
        at[v1].append((e1, e2, v2))
        at[v2].append((e2, e1, v1))
    n_groups = len(set(val))
    while n_groups < nv:
        new = []
        for v in range(nv):
            nbr = tuple(sorted((e, f, val[w]) for e, f, w in at[v]))
            new.append((val[v], nbr))
        n_new = len(set(new))
        if n_new == n_groups:
            break
        val, n_groups = new, n_new
    groups = {}
    for v in range(nv):
        groups.setdefault(val[v], []).append(v)
    return [sorted(groups[value]) for value in sorted(groups)]


def check_sorted_grouping(dg):
    """Grouping by sorting gives the hashed grouping's groups, and the search
    over them its key and tie count."""
    base, edges = _records(dg)
    assert _refined_groups(base, edges) == hashed_refined_groups(base, edges)
    with mock.patch.object(graphs, "_refined_groups", hashed_refined_groups):
        expected = _canonical_search(base, edges)
    assert _canonical_search(base, edges) == expected


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sorted_grouping_matches_hashed_grouping_on_random_graphs(rng):
    check_sorted_grouping(random_decorated_graph(rng, max_vertices=6))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(7, 9), a=st.integers(0, 9), p=st.integers(0, 2),
       rng=st.randoms(use_true_random=False))
@example(k=9, a=9, p=1, rng=random.Random(0))
@example(k=7, a=4, p=1, rng=random.Random(0))
def test_sorted_grouping_matches_hashed_grouping_on_stars(k, a, p, rng):
    """Stars of k tails: min(a, k) of genus 1 and the rest of genus 0 with
    two extra legs, so a = k is the symmetric star of one twin class, and
    a < k the mixed star of two."""
    a = min(a, k)
    tails = [(1, 0, 0)] * a + [(0, 0, 2)] * (k - a)
    check_sorted_grouping(relabeled(twin_heavy_graph(1, p, [], [tails], []), rng))


def test_canonical_key_relabeling_property():
    rng = random.Random(20240817)
    for _ in range(1000):
        dg = random_decorated_graph(rng)
        other = relabeled(dg, rng)
        assert canonical_key(dg) == canonical_key(other)
        assert genus(dg.graph) == genus(other.graph)


def test_key_roundtrips_through_reconstruction():
    rng = random.Random(11)
    for _ in range(200):
        dg = random_decorated_graph(rng)
        key = canonical_key(dg)
        assert canonical_key(graph_from_key(key)) == key


def test_tree_genus_is_vertex_sum():
    rng = random.Random(5)
    for _ in range(100):
        b = GraphBuilder()
        nv = rng.randint(1, 5)
        genera = [rng.randint(0, 2) for _ in range(nv)]
        for g0 in genera:
            b.add_vertex(g0)
        for v in range(1, nv):
            b.add_edge(rng.randrange(v), v)
        b.add_leg(rng.randrange(nv), "U1")
        dg = b.build()
        assert genus(dg.graph) == sum(genera)


def test_level_edge_count_identity():
    # each non-root vertex contributes exactly its parent edge
    def fn(b):
        for g0 in (0, 1, 0, 0):
            b.add_vertex(g0)
        b.add_leg(0, "V1")
        b.add_edge(0, 1)
        b.add_edge(1, 2)
        b.add_edge(1, 3)
        b.add_leg(2, "U1")
        b.add_leg(3, "U2")
    view = RootedTreeView(build(fn).graph)
    non_root = [v for v in range(view.graph.n_vertices) if v != view.root]
    assert len(non_root) == view.graph.n_edges()


# ---------------------------------------------------------------------------
# graph surgery against hand-written reference loops
#
# Each reference copies half-edges one by one, remaps them and re-pairs the
# edges, as the surgeries did before they went through ``builder_copy_of``.


def reference_split_vertex(dg, v, side, genus_a, genus_b, exp_a=0, exp_b=0):
    g = dg.graph
    side = set(side)
    halves = set(halves_at(g, v))
    if not side <= halves:
        raise ValueError("side must consist of half-edges at the split vertex")
    nv = g.n_vertices
    genera = list(g.genera)
    genera[v] = genus_a
    genera.append(genus_b)
    b = GraphBuilder()
    for genus_v in genera:
        b.add_vertex(genus_v)
    remap = {}
    for h in range(g.n_half_edges):
        w = g.vertex_of[h]
        if w == v:
            w = v if h in side else nv
        if g.labels[h] is not None:
            remap[h] = b.add_leg(w, g.labels[h], dg.exponents[h])
        else:
            remap[h] = b.add_half(w, dg.exponents[h])
    for h, p in g.edges():
        b.pair(remap[h], remap[p])
    b.add_edge(v, nv, exp_a, exp_b)
    return b.build()


def split_vertex(dg, v, side, genus_a, genus_b, exp_a=0, exp_b=0):
    """Split vertex ``v`` into two vertices joined by a fresh edge.

    Half-edges in ``side`` stay on the first new vertex (which keeps id
    ``v`` and genus ``genus_a``); the rest move to an appended vertex of
    genus ``genus_b``.  The fresh edge halves carry ``exp_a``/``exp_b``.
    The graph surgery that psi elimination and the relation closure used
    before they split key records; a reference for ``split_records``.
    """
    g = dg.graph
    side = set(side)
    if not side <= set(halves_at(g, v)):
        raise ValueError("side must consist of half-edges at the split vertex")
    nv = g.n_vertices
    b = builder_copy_of(dg)
    b.genera[v] = genus_a
    b.genera.append(genus_b)
    b.vertex_of = [nv if w == v and h not in side else w
                   for h, w in enumerate(g.vertex_of)]
    b.add_edge(v, nv, exp_a, exp_b)
    return b.build()


def contract_edge(dg, h):
    """Contract a non-loop edge, merging its endpoints (genera add).

    The graph surgery the relation closure used before it contracted key
    records; a reference for ``contract_records``.
    """
    g = dg.graph
    p = g.involution[h]
    if p == h:
        raise ValueError("cannot contract a leg")
    v, w = g.vertex_of[h], g.vertex_of[p]
    if v == w:
        raise ValueError("cannot contract a loop edge")
    lo, hi = min(v, w), max(v, w)
    b = builder_copy_of(dg, drop=(h, p))
    b.genera[lo] += b.genera.pop(hi)
    b.vertex_of = [lo if u == hi else u - (u > hi) for u in b.vertex_of]
    return b.build()


def reference_contract_edge(dg, h):
    g = dg.graph
    p = g.involution[h]
    if p == h:
        raise ValueError("cannot contract a leg")
    v, w = g.vertex_of[h], g.vertex_of[p]
    if v == w:
        raise ValueError("cannot contract a loop edge")
    lo, hi = min(v, w), max(v, w)
    genera = []
    reattach = {}
    for u in range(g.n_vertices):
        if u == hi:
            reattach[u] = lo
            continue
        reattach[u] = len(genera)
        genera.append(g.genera[u] + (g.genera[hi] if u == lo else 0))
    b = GraphBuilder()
    for genus_v in genera:
        b.add_vertex(genus_v)
    remap = {}
    for x in range(g.n_half_edges):
        if x in (h, p):
            continue
        u = reattach[g.vertex_of[x]]
        if g.labels[x] is not None:
            remap[x] = b.add_leg(u, g.labels[x], dg.exponents[x])
        else:
            remap[x] = b.add_half(u, dg.exponents[x])
    for x, y in g.edges():
        if x in remap and y in remap:
            b.pair(remap[x], remap[y])
    return b.build()


def reference_loop_term(dg, vertex, half):
    """Lower the psi at ``half``, split off every half-edge, close the stub."""
    exps = list(dg.exponents)
    exps[half] -= 1
    lowered = DecoratedGraph(dg.graph, tuple(exps))
    split = reference_split_vertex(lowered, vertex, halves_at(dg.graph, vertex), 0, 0)
    g = split.graph
    stub = g.n_vertices - 1
    b = GraphBuilder()
    for v in range(g.n_vertices - 1):
        b.add_vertex(g.genera[v])
    remap = {}
    for h in range(g.n_half_edges):
        v = g.vertex_of[h]
        if v == stub:
            v = vertex
        if g.labels[h] is not None:
            remap[h] = b.add_leg(v, g.labels[h], split.exponents[h])
        else:
            remap[h] = b.add_half(v, split.exponents[h])
    for h, p in g.edges():
        b.pair(remap[h], remap[p])
    return b.build()


def reference_psi_reduce_genus0(expr, vertex, half, partner_pair):
    (coeff, dg), = expr.terms()
    exps = list(dg.exponents)
    exps[half] -= 1
    lowered = DecoratedGraph(dg.graph, tuple(exps))
    pool = [h for h in halves_at(dg.graph, vertex) if h not in (half, *partner_pair)]
    out = []
    for r in range(1, len(pool) + 1):
        for companions in itertools.combinations(pool, r):
            side = frozenset({half, *companions})
            out.append((coeff, reference_split_vertex(lowered, vertex, side, 0, 0)))
    return Expression(expr.ambient, out)


def reference_psi_reduce_genus1(expr, vertex, half):
    (coeff, dg), = expr.terms()
    exps = list(dg.exponents)
    exps[half] -= 1
    lowered = DecoratedGraph(dg.graph, tuple(exps))
    pool = [h for h in halves_at(dg.graph, vertex) if h != half]
    out = []
    for r in range(1, len(pool) + 1):
        for companions in itertools.combinations(pool, r):
            side = frozenset({half, *companions})
            out.append((coeff, reference_split_vertex(lowered, vertex, side, 0, 1)))
    out.append((coeff * Fraction(1, 24), reference_loop_term(dg, vertex, half)))
    return Expression(expr.ambient, out)


def reference_attach_vertex(expr, leg_label, genus_v, legs):
    out = []
    for coeff, dg in expr.terms():
        g = dg.graph
        b = GraphBuilder()
        for genus_w in g.genera:
            b.add_vertex(genus_w)
        new_v = b.add_vertex(genus_v)
        remap = {}
        glue = None
        for h in range(g.n_half_edges):
            if g.labels[h] == leg_label:
                glue = remap[h] = b.add_half(g.vertex_of[h], dg.exponents[h])
            elif g.labels[h] is not None:
                remap[h] = b.add_leg(g.vertex_of[h], g.labels[h], dg.exponents[h])
            else:
                remap[h] = b.add_half(g.vertex_of[h], dg.exponents[h])
        if glue is None:
            raise ValueError("no leg labeled %r" % leg_label)
        for h, p in g.edges():
            b.pair(remap[h], remap[p])
        other = b.add_half(new_v, 0)
        b.pair(glue, other)
        for label, exp in legs:
            b.add_leg(new_v, label, exp)
        out.append((coeff, b.build()))
    return from_terms(out)


def _subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1))


def check_splits_and_contractions(dg):
    g = dg.graph
    checked = 0
    for v in range(g.n_vertices):
        if g.genera[v] > 1:
            continue
        for side in _subsets(halves_at(g, v)):
            for genus_a in range(g.genera[v] + 1):
                for exp_a, exp_b in ((0, 0), (1, 0)):
                    args = (v, side, genus_a, g.genera[v] - genus_a, exp_a, exp_b)
                    assert canonical_key(split_vertex(dg, *args)) == \
                        canonical_key(reference_split_vertex(dg, *args))
                    checked += 1
    for h, p in g.edges():
        if g.vertex_of[h] != g.vertex_of[p]:
            for x in (h, p):
                assert canonical_key(contract_edge(dg, x)) == \
                    canonical_key(reference_contract_edge(dg, x))
                checked += 1
    return checked


def record_numbering(dg, v):
    """The half-edges of ``dg`` at ``v`` in the order ``half_edges`` lists
    them at a vertex: legs, extra legs among them, as sorted in the base
    class, then edge ends in record order."""
    g = dg.graph
    legs = sorted((h for h in halves_at(g, v) if g.labels[h] is not None),
                  key=lambda h: (g.labels[h], dg.exponents[h]))
    ends = [x for h, p in g.edges() for x in (h, p) if g.vertex_of[x] == v]
    return legs + ends


def check_record_surgery(dg):
    """Record contraction and record splitting key like graph surgery.

    A genus-0 or genus-1 vertex is split as psi elimination splits it: the
    side stays on a genus-0 vertex and the rest keeps the vertex's genus.
    """
    g = dg.graph
    base, edges = _records(dg)
    checked = 0
    for i, (h, p) in enumerate(g.edges()):
        if g.vertex_of[h] != g.vertex_of[p]:
            assert _canonical_search(*contract_records(base, edges, i))[0] == \
                canonical_key(contract_edge(dg, h))
            checked += 1
    for v in range(g.n_vertices):
        order = record_numbering(dg, v)
        assert [(lab, e) for _v, lab, e, _end in half_edges(base, edges, v)] == \
            [(g.labels[h], dg.exponents[h]) for h in order]
        genus_v = g.genera[v]
        if genus_v > 1:
            continue
        for side in _subsets(range(len(order))):
            split = split_records(base, edges, v, half_edges(base, edges, v),
                                  set(side), genus_v)
            assert _canonical_search(*split)[0] == canonical_key(reference_split_vertex(
                dg, v, [order[i] for i in side], 0, genus_v))
            checked += 1
    return checked


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_record_surgery_matches_graph_surgery_on_random_graphs(rng):
    dg = random_decorated_graph(rng)
    check_record_surgery(dg)
    # a key's records are numbered as graph_from_key numbers the graph
    key = canonical_key(dg)
    rebuilt = graph_from_key(key)
    assert all(record_numbering(rebuilt, v) == halves_at(rebuilt.graph, v)
               for v in range(rebuilt.graph.n_vertices))
    assert _records(rebuilt) == key_records(key)
    # the listing at a vertex is the whole listing restricted to it
    base, edges = key_records(key)
    listing = half_edges(base, edges)
    assert all(half_edges(base, edges, v) == [x for x in listing if x[0] == v]
               for v in range(len(base)))


@pytest.mark.parametrize("name", ["f", "h1", "i1"])
def test_record_surgery_matches_graph_surgery_on_fixtures(name):
    assert sum(check_record_surgery(dg) for _c, dg in
               parse_bracket(fixture_text(name)).terms()) > 0


def single_term(dg):
    """``dg`` as a one-term expression, or None when it is no valid nonzero term."""
    if not valid_term(dg):
        return None
    expr = from_terms([(Fraction(1), dg)])
    return None if expr.is_zero() else expr


def psi_inputs(dg, genus_v):
    """Single-term expressions with a psi on a vertex of genus ``genus_v``,
    made from ``dg``.

    Each vertex of genus 0 or 1 in turn is given genus ``genus_v``, and each
    of its half-edges other than extra legs in turn one more psi power.
    """
    g = dg.graph
    for v in range(g.n_vertices):
        if g.genera[v] > 1:
            continue
        genera = list(g.genera)
        genera[v] = genus_v
        raised = DualGraph(tuple(genera), g.vertex_of, g.involution, g.labels)
        for h in halves_at(g, v):
            if g.labels[h] == EXTRA:
                continue
            exps = list(dg.exponents)
            exps[h] += 1
            expr = single_term(DecoratedGraph(raised, tuple(exps)))
            if expr is not None:
                yield expr


def check_loop_terms(dg):
    checked = 0
    for expr in psi_inputs(dg, 1):
        (_c, term), = expr.terms()
        tg = term.graph
        for h in range(tg.n_half_edges):
            v = tg.vertex_of[h]
            if tg.genera[v] == 1 and term.exponents[h] > 0:
                assert psi_reduce_genus1(expr, v, h) == \
                    reference_psi_reduce_genus1(expr, v, h)
                checked += 1
    return checked


def check_genus0_rewrites(dg):
    """Every psi site on a genus-0 vertex with every valid partner pair."""
    checked = 0
    for expr in psi_inputs(dg, 0):
        (_c, term), = expr.terms()
        tg = term.graph
        for h in range(tg.n_half_edges):
            v = tg.vertex_of[h]
            halves = halves_at(tg, v)
            if tg.genera[v] != 0 or len(halves) < 4 or term.exponents[h] < 1:
                continue
            for pair in itertools.combinations([x for x in halves if x != h], 2):
                assert psi_reduce_genus0(expr, v, h, pair) == \
                    reference_psi_reduce_genus0(expr, v, h, pair)
                checked += 1
    return checked


def check_attachments(expr):
    checked = 0
    for label in expr.ambient.labels:
        for genus_v, legs in ((0, [("Z1", 0), ("Z2", 0)]), (1, [("Z1", 1)])):
            assert attach_vertex(expr, label, genus_v, legs) == \
                reference_attach_vertex(expr, label, genus_v, legs)
            checked += 1
    return checked


@pytest.mark.parametrize("name", ["f", "h1", "i1"])
def test_surgery_matches_reference_loops_on_fixtures(name):
    expr = parse_bracket(fixture_text(name))
    splits = loops = rewrites = 0
    for _c, dg in expr.terms():
        splits += check_splits_and_contractions(dg)
        loops += check_loop_terms(dg)
        rewrites += check_genus0_rewrites(dg)
    assert splits > 0 and loops > 0 and rewrites > 0
    assert check_attachments(expr) > 0


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_surgery_matches_reference_loops_on_random_graphs(rng):
    dg = random_decorated_graph(rng, with_extras=True)
    check_splits_and_contractions(dg)
    check_loop_terms(dg)
    check_genus0_rewrites(dg)
    expr = single_term(dg)
    if expr is not None:
        check_attachments(expr)


def test_surgery_input_checks():
    dg = parse_bracket("<U1 U2 a>_0 <a* U3 b b*>_0").terms()[0][1]
    g = dg.graph
    loop = next(h for h, p in g.edges() if g.vertex_of[h] == g.vertex_of[p])
    leg = leg_with_label(g, "U1")
    with pytest.raises(ValueError, match="side must consist"):
        split_vertex(dg, 1 - g.vertex_of[leg], [leg], 0, 0)
    with pytest.raises(ValueError, match="cannot contract a leg"):
        contract_edge(dg, leg)
    with pytest.raises(ValueError, match="cannot contract a loop edge"):
        contract_edge(dg, loop)
    with pytest.raises(ValueError, match="no leg labeled 'r'"):
        attach_vertex(parse_bracket("<U1 U2 U3>_0"), "r", 0, [("Z1", 0)])
