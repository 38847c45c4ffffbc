import itertools

import pytest

from tautrel import treeclass
from tautrel.graphs import (
    EXTRA,
    DecoratedGraph,
    GraphBuilder,
    automorphism_order,
    canonical_key,
    graph_from_key,
    leg_kind,
)
from tautrel.expressions import Expression, make_ambient, parse_bracket
from tautrel.pushforward import forget_extra_legs, forget_frozen_legs
from tautrel.treeclass import (
    _tree_specs,
    acceptable_assignments,
    enumerate_shapes,
    extra_count_bounds,
    weighted_tree_class,
)

from conftest import (
    RootedTreeView,
    brute_force_shape_keys,
    builder_copy_of,
    fixture_text,
    genus,
    relabel_legs,
    shape_class,
)


# ---------------------------------------------------------------------------
# the reference path: build the extra legs, decorate, forget them again


def _extras_at(g, v):
    return sum(1 for h in g.halves_at(v) if g.labels[h] == EXTRA)


def shape_graph(shape):
    """The dual graph of a shape, its vertices numbered as the shape numbers them."""
    b = GraphBuilder()
    for genus_v in shape.genera:
        b.add_vertex(genus_v)
    for v, labels in enumerate(shape.legs):
        for label in labels:
            b.add_leg(v, label)
    for c in range(1, len(shape.genera)):
        b.add_edge(shape.parent[c], c)
    return b.build().graph


def reference_add_extras(shape, assignment):
    """Add ``assignment[v] + 1`` extra legs to each non-root vertex."""
    g = shape_graph(shape)
    b = builder_copy_of(DecoratedGraph(g, (0,) * g.n_half_edges))
    for v in range(1, g.n_vertices):
        for _ in range(assignment[v] + 1):
            b.add_leg(v, EXTRA)
    return b.build()


def reference_is_balanced(tree):
    """Root has no extra legs and every other vertex has at least one."""
    g = tree.graph
    for v in range(g.n_vertices):
        n_extras = _extras_at(g, v)
        if v == tree.root and n_extras > 0:
            return False
        if v != tree.root and n_extras == 0:
            return False
    return True


def reference_weight_decoration(tree_dg, weights):
    """The induced psi decoration on a balanced rooted tree with extras."""
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
            exps[h] = _extras_at(g, child) - 1
    decorated = DecoratedGraph(g, tuple(exps))
    if not reference_is_balanced(view):
        raise ValueError("tree is not balanced")
    return decorated


def reference_shape_class(shape, weights):
    """Each acceptable tree as a one-term Expression, then forget its extras."""
    g = shape_graph(shape)
    ambient = make_ambient(genus(g), g.leg_labels())
    acc = {}
    for assignment in acceptable_assignments(shape, weights):
        tree = reference_add_extras(shape, assignment)
        term = Expression(ambient, [(1, reference_weight_decoration(tree, weights))])
        for key, c in forget_extra_legs(term)._terms.items():
            acc[key] = acc.get(key, 0) + c
    return Expression(ambient, _raw={k: c for k, c in acc.items() if c != 0})


# ---------------------------------------------------------------------------
# the reference shapes: one graph per tree spec, walked by RootedTreeView


def reference_materialize(spec, frozen_count):
    """The dual graph of a tree spec, numbered depth first with the last child
    spec first, as shapes were built before they were read off the spec."""
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


def zero_key(graph):
    return canonical_key(DecoratedGraph(graph, (0,) * graph.n_half_edges))


def reference_enumerate_shapes(genus_value, n_regular, n_frozen):
    """Shape graphs keyed by ``canonical_key``, the first spec kept per key."""
    seen = {}
    for spec in _tree_specs(genus_value, tuple(range(1, n_regular + 1)), n_frozen):
        graph = reference_materialize(spec, n_frozen)
        seen.setdefault(zero_key(graph), graph)
    return [seen[k] for k in sorted(seen)]


def reference_assignments(graph, weights):
    """``acceptable_assignments`` on a shape graph and its rooted-tree view."""
    view = RootedTreeView(graph, 0)
    exps = [0] * graph.n_half_edges
    for h, lab in enumerate(graph.labels):
        if lab is not None and leg_kind(lab) == "regular":
            exps[h] = weights[int(lab[1:]) - 1]

    def branch(v):
        child_options = [branch(w) for _h, w in view.children[v]]
        halves = graph.halves_at(v)
        for combo in itertools.product(*child_options):
            assignment = {}
            total = sum(exps[h] for h in halves)
            for k_child, sub in combo:
                total += k_child - 1
                assignment.update(sub)
            if v == 0:
                if total <= 3 * graph.genera[v] - 3 + len(halves):
                    yield 0, assignment
                continue
            lo, hi = extra_count_bounds(graph.genera[v], len(halves), total)
            for k in range(lo, hi + 1):
                yield k, {**assignment, v: k}

    return [{v: k - 1 for v, k in assignment.items()} for _k, assignment in branch(0)]


def assert_shape_is_graph(shape, graph):
    """Genera, legs, parents, children and key of ``shape`` match ``graph``."""
    view = RootedTreeView(graph, 0)
    nv = graph.n_vertices
    parent = [None] * nv
    for v, kids in view.children.items():
        for _h, w in kids:
            parent[w] = v
    assert shape.genera == graph.genera
    assert [sorted(labels) for labels in shape.legs] == \
        [sorted(graph.labels[h] for h in graph.halves_at(v) if graph.labels[h] is not None)
         for v in range(nv)]
    assert shape.parent == tuple(parent)
    assert shape.children == tuple(tuple(w for _h, w in view.children[v])
                                   for v in range(nv))
    assert shape.n_edges() == graph.n_edges()
    assert shape.key() == zero_key(graph)


@pytest.mark.parametrize("g,n,m,weights", [
    (2, 4, 1, (1, 1, 1, 1)), (2, 4, 0, (2, 2, 1, 1)), (1, 2, 2, (2, 1)),
    (0, 3, 3, (1, 1, 1)), (1, 3, 0, (2, 1, 1)), (0, 5, 0, (1, 1, 1, 1, 2))])
def test_shapes_match_reference_materialization(g, n, m, weights):
    for spec in _tree_specs(g, tuple(range(1, n + 1)), m):
        assert_shape_is_graph(treeclass._walk(spec, m), reference_materialize(spec, m))
    shapes = enumerate_shapes(g, n, m)
    reference = reference_enumerate_shapes(g, n, m)
    assert len(shapes) == len(reference)
    for shape, graph in zip(shapes, reference):
        assert_shape_is_graph(shape, graph)
        assert acceptable_assignments(shape, weights) == \
            reference_assignments(graph, weights)


def test_classes_build_no_graph(monkeypatch):
    def no_build(self):
        raise AssertionError("a tree class or forgetful map built a graph")

    monkeypatch.setattr(GraphBuilder, "build", no_build)
    caches = (canonical_key, graph_from_key, automorphism_order)
    before = [f.cache_info() for f in caches]
    _tree_specs.cache_clear()
    raw = weighted_tree_class(1, 3, (2, 1, 1))
    pushed = forget_frozen_legs(raw, 1)
    assert len(raw) == 112 and not pushed.is_zero()
    assert [f.cache_info() for f in caches] == before


def _tree(fn):
    b = GraphBuilder()
    fn(b)
    return RootedTreeView(b.build().graph)


def test_balanced_cases():
    single = _tree(lambda b: (b.add_vertex(1), b.add_leg(0, "U1"),
                              b.add_leg(0, "V1"), b.add_leg(0, "V2")))
    assert reference_is_balanced(single) is True

    def two_vertex(root_extra, child_extra):
        def fn(b):
            b.add_vertex(0)
            b.add_vertex(1)
            b.add_leg(0, "V1")
            b.add_leg(0, "V2")
            if root_extra:
                b.add_leg(0, EXTRA)
            b.add_edge(0, 1)
            b.add_leg(1, "U1")
            if child_extra:
                b.add_leg(1, EXTRA)
        return _tree(fn)

    assert reference_is_balanced(two_vertex(False, False)) is False
    assert reference_is_balanced(two_vertex(True, True)) is False
    assert reference_is_balanced(two_vertex(False, True)) is True


def shape_keys(shapes):
    return {s.key() for s in shapes}


@pytest.mark.parametrize("g,n,m", [(0, 1, 2), (1, 1, 2), (0, 2, 2), (1, 2, 2), (0, 3, 3)])
def test_enumeration_matches_brute_force(g, n, m):
    assert shape_keys(enumerate_shapes(g, n, m)) == brute_force_shape_keys(g, n, m)


def test_enumeration_counts():
    assert len(enumerate_shapes(0, 1, 2)) == 1
    assert len([s for s in enumerate_shapes(1, 1, 2)
                if len(s.genera) == 1]) == 1
    shapes = enumerate_shapes(1, 2, 2)
    assert len(shapes) == 8
    contributing = [s for s in shapes if acceptable_assignments(s, (2, 1))]
    assert len(contributing) == 6


def test_chain_shapes_only_for_one_regular_leg():
    for shape in enumerate_shapes(1, 1, 2):
        assert all(len(kids) <= 1 for kids in shape.children)


def test_enumerate_rejects_unstable_target():
    with pytest.raises(ValueError):
        enumerate_shapes(0, 1, 1)


def test_negative_genus_is_rejected():
    # 2g - 2 + n > 0 holds for all three, so only the genus check stops them
    with pytest.raises(ValueError, match="negative genus -1"):
        make_ambient(-1, ["U1", "U2", "V1", "V2", "V3"])
    with pytest.raises(ValueError, match="negative genus -1"):
        enumerate_shapes(-1, 2, 3)
    with pytest.raises(ValueError, match="negative genus -1"):
        weighted_tree_class(-1, 3, (1, 1))


def _single_vertex_shape(g, n, m):
    (shape,) = [s for s in enumerate_shapes(g, n, m) if len(s.genera) == 1]
    return shape


def _two_vertex_shape(g, n, m, child_regulars, child_genus):
    for s in enumerate_shapes(g, n, m):
        if len(s.genera) != 2:
            continue
        labels = {lab for lab in s.legs[1] if leg_kind(lab) == "regular"}
        if labels == set(child_regulars) and s.genera[1] == child_genus:
            return s
    raise AssertionError("shape not found")


def test_weight_decoration_single_vertex():
    shape = _single_vertex_shape(1, 2, 2)
    tree = reference_add_extras(shape, {})
    dg = reference_weight_decoration(tree, (2, 1))
    exps = {tree.graph.labels[h]: dg.exponents[h]
            for h in range(tree.graph.n_half_edges)}
    assert exps == {"U1": 2, "U2": 1, "V1": 0, "V2": 0}


def test_weight_decoration_edge_counts_extras():
    shape = _two_vertex_shape(1, 2, 2, {"U1", "U2"}, 1)
    tree = reference_add_extras(shape, {1: 2})      # three extra legs on the child
    dg = reference_weight_decoration(tree, (2, 1))
    g = tree.graph
    (down,) = [h for h, p in g.edges()]
    assert dg.exponents[down] == 2        # extras minus one
    for h in range(g.n_half_edges):
        if g.labels[h] == EXTRA:
            assert dg.exponents[h] == 0


def test_extra_count_bounds():
    # four non-extra half-edges, psi total 3: two or three extras survive
    assert extra_count_bounds(0, 4, 3) == (2, 3)
    # three non-extra half-edges, psi total 3 on genus 0: exactly three extras
    assert extra_count_bounds(0, 3, 3) == (3, 3)
    # no psi weight at a non-root vertex: empty range
    lo, hi = extra_count_bounds(0, 3, 0)
    assert lo > hi


def test_acceptable_assignments_match_named_terms():
    shape = _two_vertex_shape(1, 2, 2, {"U1", "U2"}, 1)
    assert acceptable_assignments(shape, (2, 1)) == [{1: 0}]
    top = _two_vertex_shape(1, 2, 2, {"U1", "U2"}, 0)
    assert acceptable_assignments(top, (2, 1)) == [{1: 2}]


def test_acceptable_assignments_empty_when_no_weight_reaches():
    shape = _two_vertex_shape(1, 2, 2, {"U2"}, 1)   # only U2 (weight 0) below
    assert acceptable_assignments(shape, (2, 0)) == []


@pytest.mark.parametrize("g,m,d", [(0, 4, (1, 1, 1, 1)), (0, 5, (1, 1, 2)),
                                   (1, 2, (2, 1, 1)), (1, 3, (2, 1, 1)),
                                   (2, 1, (2, 1, 1)), (1, 2, (1, 1, 1, 1))])
def test_shape_class_matches_reference(g, m, d):
    for shape in enumerate_shapes(g, len(d), m):
        got, want = shape_class(shape, d), reference_shape_class(shape, d)
        assert got == want
        assert all(type(c) is type(want._terms[k]) for k, c in got._terms.items())


@pytest.mark.parametrize("weights", [(2, 1), (2, 1, 1, 5)])
def test_weights_must_match_regular_legs(weights):
    (shape,) = [s for s in enumerate_shapes(1, 3, 0) if len(s.genera) == 1]
    with pytest.raises(ValueError, match="weights for the regular legs U1 U2 U3"):
        acceptable_assignments(shape, weights)
    with pytest.raises(ValueError, match="weights for the regular legs U1 U2 U3"):
        shape_class(shape, weights)


def _relabeled_weights(d, mapping):
    """Weights that put ``d[i]`` on the leg that ``mapping`` sends U<i+1> to."""
    out = [None] * len(d)
    for i, w in enumerate(d, start=1):
        out[int(mapping["U%d" % i][1:]) - 1] = w
    return tuple(out)


CYCLE = {"U1": "U2", "U2": "U3", "U3": "U1"}


@pytest.mark.parametrize("g,m,d,mapping", [
    (1, 1, (2, 1, 1), CYCLE),
    (2, 1, (2, 1, 1), CYCLE),
    (1, 2, (2, 1, 1), CYCLE),
    (2, 0, (2, 1, 1), CYCLE),
    pytest.param(2, 0, (1, 1, 2, 2), {"U1": "U3", "U3": "U1", "U2": "U4", "U4": "U2"},
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "enumerate_shapes dedups m = 0 shapes by their unrooted key, "
                     "so two rootings of one tree collapse into the first spec; "
                     "see the FOUND line on m = 0 in CHANGES.md"))),
])
def test_class_is_equivariant_under_leg_relabeling(g, m, d, mapping):
    relabeled = relabel_legs(weighted_tree_class(g, m, d), mapping)
    assert relabeled == weighted_tree_class(g, m, _relabeled_weights(d, mapping))


def test_tree_specs_expand_each_argument_once():
    # enumerate_shapes(2, 4, 1) asks for 45 distinct (genus, legs, pending)
    # subtree spec lists, most of them many times over
    _tree_specs.cache_clear()
    enumerate_shapes(2, 4, 1)
    info = _tree_specs.cache_info()
    assert info.misses == 45
    assert info.hits > info.misses
    assert isinstance(_tree_specs(2, (1, 2, 3, 4), 1), tuple)


def test_shape_class_single_vertex():
    shape = _single_vertex_shape(1, 2, 2)
    assert shape_class(shape, (2, 1)) == parse_bracket("<V1 V2 P^2(U1) P^1(U2)>_1")


def test_shape_class_two_vertex():
    shape = _two_vertex_shape(1, 2, 2, {"U1", "U2"}, 1)
    expected = parse_bracket(
        "<V1 V2 a>_0 <a* P^2(U1) U2>_1 + <V1 V2 a>_0 <a* P^1(U1) P^1(U2)>_1")
    assert shape_class(shape, (2, 1)) == expected


def test_full_class_matches_seven_term_transcription():
    assert weighted_tree_class(1, 2, (2, 1)) == parse_bracket(fixture_text("b21_raw"))


def test_full_class_empty_at_low_weight():
    assert weighted_tree_class(0, 2, (1,)).is_zero()


def test_class_degree_property():
    for d in [(2, 1), (1, 1, 1), (3,)]:
        expr = weighted_tree_class(1, 2, d)
        assert expr.degree() == sum(d)


def forced_shape_class(shape, weights, assignment):
    """Shape contribution from one forced extra-leg assignment (may be zero)."""
    tree = reference_add_extras(shape, assignment)
    dg = reference_weight_decoration(tree, weights)
    ambient = make_ambient(1, [lab for lab in shape_graph(shape).leg_labels()])
    term = Expression(ambient, [(1, dg)])
    if term.is_zero():
        return term
    return forget_extra_legs(term)


def test_pruning_soundness():
    shape = _two_vertex_shape(1, 2, 2, {"U1", "U2"}, 1)
    allowed = acceptable_assignments(shape, (2, 1))
    for forced in ({1: 1}, {1: 2}, {1: 3}, {1: 4}):
        if forced in allowed:
            continue
        assert forced_shape_class(shape, (2, 1), forced).is_zero()


def test_appending_zero_weight_leg_matches_extra_frozen_leg():
    # genus 0: the sub-sum over shapes with the last regular leg (weight 0)
    # on the root agrees with the class having one more frozen leg
    for m, d in [(2, (1,)), (2, (2,)), (2, (1, 1))]:
        n = len(d)
        extended = d + (0,)
        last = "U%d" % (n + 1)
        total = None
        for shape in enumerate_shapes(0, n + 1, m):
            if last not in shape.legs[0]:
                continue
            sign = -1 if shape.n_edges() % 2 else 1
            part = shape_class(shape, extended).scale(sign)
            total = part if total is None else total + part
        renamed = relabel_legs(total, {last: "V%d" % (m + 1)})
        assert renamed == weighted_tree_class(0, m + 1, d)


def test_shapes_are_deterministic():
    once = [s.key() for s in enumerate_shapes(1, 2, 2)]
    twice = [s.key() for s in enumerate_shapes(1, 2, 2)]
    assert once == twice
    assert len(set(once)) == len(once)
