import copy
import dataclasses
import gc
import heapq
import itertools
import math
import os
import random
import re
import weakref
from fractions import Fraction
from math import comb, isqrt
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tautrel.expressions import (
    Expression,
    _base_overweight,
    make_ambient,
    parse_bracket,
    zero,
)
from tautrel.graphs import (
    EXTRA,
    DecoratedGraph,
    DualGraph,
    GraphBuilder,
    _canonical_search,
    automorphism_order,
    canonical_key,
    contract_records,
    graph_from_key,
    half_edges,
    key_records,
    label_sort_key,
    leg_kind,
)
from tautrel import reduce
from tautrel.reduce import (
    PRIMES,
    RelationBasis,
    _solve_exact,
    choose_partner_pair,
    eliminate_all_psi,
    generate_wdvv_relations,
    integrate,
    pair_with_psi_monomials,
    psi_reduce_genus0,
    psi_reduce_genus1,
    span_zero_test,
    vertex_integral,
    wdvv_relations_at,
)
from tautrel.treeclass import weighted_tree_class

from conftest import (
    FIXTURES,
    builder_copy_of,
    closure,
    distribute,
    fixture_text,
    genus,
    genus0_closed_form,
    genus0_integral_by_string,
    genus1_integral_by_string_dilaton,
    genus1_splitting_recursion,
    local_basis_by_elimination,
    multiply_by_leg_psi,
    psi_free,
    random_decorated_graph,
    relabel_legs,
    relation_expression,
    valid_term,
    vertex_overweight,
)
from test_graphs import contract_edge, single_term, split_vertex


def half_by_label(expr, label):
    (_c, dg), = expr.terms()
    return dg.graph.leg_with_label(label)


def keyed_relations(basis):
    """The basis relations as key -> int dicts, mapped back through its key table."""
    keys = basis.keys
    return [{keys[i]: n for i, n in rel.items()} for rel in basis.relations]


def as_expressions(basis):
    """The basis relations as Expressions with Fraction coefficients."""
    return [relation_expression(basis, i) for i in range(len(basis.relations))]


def certified_zero(expr, budget=3):
    reduced = eliminate_all_psi(expr)
    if reduced.is_zero():
        return True
    return span_zero_test(reduced, budget=budget).zero


# ---------------------------------------------------------------------------
# single steps


def test_genus0_reduce_four_points():
    e = parse_bracket("<P^1(x1) x2 x3 x4>_0")
    h = {lab: half_by_label(e, lab) for lab in ("x1", "x2", "x3", "x4")}
    out = psi_reduce_genus0(e, 0, h["x1"], (h["x3"], h["x4"]))
    assert out == parse_bracket("<x1 x2 a>_0 <a* x3 x4>_0")


def test_genus0_reduce_five_points():
    e = parse_bracket("<P^1(x1) x2 x3 x4 x5>_0")
    h = {lab: half_by_label(e, lab) for lab in ("x1", "x2", "x3", "x4", "x5")}
    out = psi_reduce_genus0(e, 0, h["x1"], (h["x4"], h["x5"]))
    assert out == parse_bracket(
        "<x1 x2 a>_0 <a* x3 x4 x5>_0 + <x1 x3 a>_0 <a* x2 x4 x5>_0"
        " + <x1 x2 x3 a>_0 <a* x4 x5>_0")


ON_GENUS_0 = "partner pair must be two other half-edges of the vertex"


@pytest.mark.parametrize("genus,text,at,target,partners,message", [
    (0, "<P^1(x1) x2 x3 x4>_0 + <x1 P^1(x2) x3 x4>_0", "x1", "x1", ("x3", "x4"),
     "expected a single-term expression"),
    (1, "<P^1(x1) x2>_1 + <x1 P^1(x2)>_1", "x1", "x1", (),
     "expected a single-term expression"),
    (0, "<P^1(x1) x2>_1", "x1", "x1", ("x2", "x2"), "target vertex must have genus 0"),
    (1, "<P^1(x1) x2 x3 x4>_0", "x1", "x1", (), "target vertex must have genus 1"),
    (0, "<P^1(x1) x2 x6 a>_0 <a* x3 x4 x5>_0", "x3", "x1", ("x3", "x4"), ON_GENUS_0),
    (1, "<P^1(x1) x2 x3 a>_0 <a* x4>_1", "x4", "x1", (),
     "target half-edge is not at the vertex"),
    (0, "<P^1(x1) x2 x3 x4>_0", "x1", "x1", ("x1", "x3"), ON_GENUS_0),
    (0, "<P^1(x1) x2 x3 a>_0 <a* x4 x5>_0", "x1", "x1", ("x2", "x4"), ON_GENUS_0),
    (0, "<P^1(x1) x2 x3 x4>_0", "x1", "x2", ("x3", "x4"),
     "target half-edge carries no psi class"),
    (1, "<P^1(x1) x2>_1", "x1", "x2", (), "target half-edge carries no psi class"),
    (0, "<x1 x2 a>_0 <a* P^1(x3) x4>_1", "x1", "x3", ("x1", "x2"),
     "genus-0 reduction needs at least 4 half-edges"),
], ids=["genus0-two-terms", "genus1-two-terms", "genus0-wrong-genus",
        "genus1-wrong-genus", "genus0-target-elsewhere", "genus1-target-elsewhere",
        "genus0-pair-holds-target", "genus0-pair-elsewhere", "genus0-bare-target",
        "genus1-bare-target", "genus0-three-pointed"])
def test_single_term_rewrite_errors(genus, text, at, target, partners, message):
    """Each check of the single-term psi rewrites raises its own message.
    Legs are named; the vertex is the one of leg ``at``, numbered, like the
    half-edges, in the graph of the first term."""
    e = parse_bracket(text)
    graph = e.terms()[0][1].graph
    vertex = graph.vertex_of[graph.leg_with_label(at)]
    half = graph.leg_with_label(target)
    with pytest.raises(ValueError, match=re.escape(message)):
        if genus == 0:
            psi_reduce_genus0(e, vertex, half,
                              tuple(graph.leg_with_label(x) for x in partners))
        else:
            psi_reduce_genus1(e, vertex, half)


@pytest.mark.parametrize("genus,vertex,half,message", [
    (0, 1, 0, "no vertex numbered 1"),
    (0, -1, 0, "no vertex numbered -1"),
    (0, 0, 9, "no half-edge numbered 9"),
    (0, 0, -1, "no half-edge numbered -1"),
    (1, 1, 0, "no vertex numbered 1"),
    (1, 0, 2, "no half-edge numbered 2"),
])
def test_single_term_rewrite_rejects_numbers_out_of_range(genus, vertex, half, message):
    """A vertex or half-edge number outside the graph of the one term is
    named, not read from the other end of a list."""
    e = parse_bracket("<P^1(x1) x2 x3 x4>_0" if genus == 0 else "<P^1(x1) x2>_1")
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        if genus == 0:
            psi_reduce_genus0(e, vertex, half, (2, 3))
        else:
            psi_reduce_genus1(e, vertex, half)


def test_genus1_reduce_base_case():
    e = parse_bracket("<P^1(x1)>_1")
    out = psi_reduce_genus1(e, 0, half_by_label(e, "x1"))
    assert out == parse_bracket("1/12 * <x1 a a*>_0")
    (coeff, _dg), = out.terms()
    assert coeff == Fraction(1, 24)


def test_genus1_reduce_two_points():
    e = parse_bracket("<P^1(x1) x2>_1")
    out = psi_reduce_genus1(e, 0, half_by_label(e, "x1"))
    assert out == parse_bracket("<x1 x2 a>_0 <a*>_1 + 1/12 * <x1 x2 a a*>_0")


def test_genus1_reduce_matches_two_point_identity():
    # iterating on the squared exponent reproduces the three-point identity
    lhs = eliminate_all_psi(parse_bracket("<P^2(x1) x2 x3>_1"))
    rhs = parse_bracket(
        "<x1 x2 a>_0 <a* x3 b>_0 <b*>_1 + 1/12 * <P^1(x1) x2 x3 a a*>_0")
    assert certified_zero(lhs - eliminate_all_psi(rhs))


def test_seven_term_tail_cancellation():
    tail = parse_bracket(
        "- <V1 V2 P^1(U2) a>_0 <a* P^1(U1)>_1"
        " + <V1 V2 a>_0 <a* U2 b>_0 <b* P^1(U1)>_1")
    assert eliminate_all_psi(tail).is_zero()


def test_eliminate_rejects_decorated_high_genus():
    with pytest.raises(ValueError):
        eliminate_all_psi(parse_bracket("<P^1(x1) x2>_2"))


def test_eliminate_psi_free_identity():
    e = parse_bracket(fixture_text("f"))
    assert eliminate_all_psi(e) == e


def test_eliminate_double_psi_five_points():
    out = eliminate_all_psi(parse_bracket("<P^1(x1) P^1(x2) x3 x4 x5>_0"))
    expected = parse_bracket("2 * <x1 x2 a*>_0 <a x3 b*>_0 <b x4 x5>_0")
    assert psi_free(out)
    assert certified_zero(out - expected)


# ---------------------------------------------------------------------------
# psi elimination against the graph-level rule
#
# The references below are the rewrite rule, the site choice and the partner
# pair as they ran on graphs rebuilt from keys, before elimination ran on key
# records.  The partner pair ranks extra legs after named legs, as the record
# rule does; the graph rule raised KeyError on them.


def reference_psi_terms(dg, vertex, half, away):
    g = dg.graph
    exponents = list(dg.exponents)
    exponents[half] -= 1
    lowered = DecoratedGraph(g, tuple(exponents))
    genus_v = g.genera[vertex]
    out = [(1, split_vertex(lowered, vertex, side, 0, genus_v))
           for side in reduce._sides(g.halves_at(vertex), (half,), away)]
    if genus_v == 1:
        loop = builder_copy_of(lowered)
        loop.genera[vertex] = 0
        loop.add_edge(vertex, vertex)
        out.append((Fraction(1, 24), loop.build()))
    return out


def reference_choose_partner_pair(dg, vertex, half):
    g = dg.graph

    def rank(h):
        lab = g.labels[h]
        if lab is None:
            return (4, (), h)
        order = {"frozen": 0, "regular": 1, "named": 2, "extra": 3}[leg_kind(lab)]
        return (order, label_sort_key(lab), h)

    candidates = sorted((h for h in g.halves_at(vertex) if h != half), key=rank)
    legs = [h for h in candidates if g.labels[h] is not None]
    if len(legs) >= 2:
        return legs[0], legs[1]
    if len(legs) == 1:
        internal = [h for h in candidates if g.labels[h] is None]
        return legs[0], internal[0]
    for a, b in itertools.combinations(candidates, 2):
        if g.involution[a] != b:
            return a, b
    return candidates[0], candidates[1]


def reference_reduction_site(dg):
    g = dg.graph
    best = None
    for h in range(g.n_half_edges):
        e = dg.exponents[h]
        if e <= 0:
            continue
        v = g.vertex_of[h]
        if g.genera[v] >= 2:
            raise ValueError("psi elimination on genus >= 2 vertices is unsupported")
        priority = (0 if g.genera[v] == 1 else 1, -e, v, h)
        if best is None or priority < best[0]:
            best = (priority, v, h)
    if best is None:
        return None
    return best[1], best[2]


def reference_eliminate_all_psi(expr):
    """Psi elimination on rebuilt graphs that always rewrites the least
    pending key, so it may rewrite a key again when a later rewrite adds to
    it."""
    ambient = expr.ambient
    work = dict(expr._terms)
    done = {}
    while work:
        key = min(work)
        coeff = work.pop(key)
        dg = graph_from_key(key)
        site = reference_reduction_site(dg)
        if site is None:
            done[key] = done.get(key, Fraction(0)) + coeff
            continue
        v, h = site
        away = reference_choose_partner_pair(dg, v, h) if dg.graph.genera[v] == 0 else ()
        reduced = Expression(ambient, [(coeff * f, t)
                                       for f, t in reference_psi_terms(dg, v, h, away)])
        for k, c in reduced._terms.items():
            work[k] = work.get(k, Fraction(0)) + c
            if work[k] == 0:
                del work[k]
    return Expression(ambient, _raw={k: c for k, c in done.items() if c != 0})


def typed_terms(expr):
    return {k: (c, type(c)) for k, c in expr._terms.items()}


def graph_partner_pair(expr, vertex, half):
    """``choose_partner_pair`` on the key of a one-term ``expr``, as half-edges
    of the graph ``expr.terms()`` gives."""
    (key,) = expr.support()
    (_c, dg), = expr.terms()
    halves = dg.graph.halves_at(vertex)
    pair = choose_partner_pair(half_edges(*key_records(key), vertex), halves.index(half))
    return tuple(halves[n] for n in pair)


ELIMINATION_FIXTURES = sorted(name[:-len(".bracket")] for name in os.listdir(FIXTURES))
# the classes whose psi elimination the benchmark pools run
POOL_CLASSES = [(0, 4, (1, 1, 1, 1)), (0, 5, (1, 1, 2)), (1, 2, (2, 1, 1)),
                (1, 2, (1, 1, 1)), (1, 3, (1, 1, 1)), (1, 3, (2, 1)),
                (1, 2, (1, 1, 1, 1))]


@pytest.mark.parametrize("name", ELIMINATION_FIXTURES)
def test_elimination_matches_reference_on_fixtures(name):
    expr = parse_bracket(fixture_text(name))
    got = eliminate_all_psi(expr)
    assert got == reference_eliminate_all_psi(expr)
    assert all(isinstance(c, Fraction) for c in got._terms.values())


@pytest.mark.parametrize("g, m, d", POOL_CLASSES)
def test_elimination_matches_reference_on_pool_classes(g, m, d):
    expr = weighted_tree_class(g, m, d)
    assert eliminate_all_psi(expr) == reference_eliminate_all_psi(expr)


@pytest.mark.parametrize("g, m, d", POOL_CLASSES)
def test_rewritten_graphs_are_valid_terms(g, m, d, monkeypatch):
    """Elimination keys the rewritten graphs without validating them, so every
    graph it keeps must be a valid, stable term of the ambient."""
    expr = weighted_tree_class(g, m, d)
    rewrites = []
    psi_terms = reduce._psi_terms

    def recording_psi_terms(base, edges, vertex, halves, half, away):
        out = psi_terms(base, edges, vertex, halves, half, away)
        rewrites.append((graph_from_key(_canonical_search(base, edges)[0]), out))
        return out

    monkeypatch.setattr(reduce, "_psi_terms", recording_psi_terms)
    eliminate_all_psi(expr)
    kept = 0
    for dg, out in rewrites:
        for _factor, records in out:
            term = graph_from_key(_canonical_search(*records)[0])
            assert _base_overweight(records[0]) == vertex_overweight(term)
            if vertex_overweight(term):
                continue
            kept += 1
            assert valid_term(term)
            assert genus(term.graph) == expr.ambient.genus
            assert tuple(term.graph.leg_labels()) == expr.ambient.labels
            assert term.graph.n_edges() == dg.graph.n_edges() + 1
            assert sum(term.exponents) == sum(dg.exponents) - 1
    assert kept > 0


def test_elimination_builds_one_expression(monkeypatch):
    expr = weighted_tree_class(1, 2, (2, 1, 1))
    built = []
    init = Expression.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Expression, "__init__", counting_init)
    reduced = eliminate_all_psi(expr)
    assert not psi_free(expr) and psi_free(reduced)
    assert len(built) == 1


def test_elimination_builds_no_graph(monkeypatch):
    expr = weighted_tree_class(1, 2, (2, 1, 1))

    def no_build(self):
        raise AssertionError("psi elimination built a graph")

    monkeypatch.setattr(GraphBuilder, "build", no_build)
    caches = (canonical_key, graph_from_key, automorphism_order)
    before = [f.cache_info() for f in caches]
    reduced = eliminate_all_psi(expr)
    assert not psi_free(expr) and psi_free(reduced)
    assert [f.cache_info() for f in caches] == before


def test_elimination_looks_up_each_reduction_site_once(monkeypatch):
    looked_up = []
    site = reduce._reduction_site

    def recording_site(base, edges):
        looked_up.append(_canonical_search(base, edges)[0])
        return site(base, edges)

    monkeypatch.setattr(reduce, "_reduction_site", recording_site)
    eliminate_all_psi(weighted_tree_class(1, 2, (2, 1, 1)))
    assert looked_up and len(looked_up) == len(set(looked_up))


def test_elimination_lists_each_psi_site_once(monkeypatch):
    """The site's listing of half-edges serves the partner pair and the
    rewrite: one listing per rewritten key."""
    listings, rewrites = [], []
    listing, psi_terms = reduce.half_edges, reduce._psi_terms

    def counting_listing(base, edges, at=None):
        listings.append(at)
        return listing(base, edges, at)

    def counting_psi_terms(*args):
        rewrites.append(args[2])
        return psi_terms(*args)

    monkeypatch.setattr(reduce, "half_edges", counting_listing)
    monkeypatch.setattr(reduce, "_psi_terms", counting_psi_terms)
    eliminate_all_psi(weighted_tree_class(1, 2, (1, 1, 1, 1)))
    assert len(rewrites) == 2016
    assert listings == rewrites


def test_partner_pair_prefers_frozen_then_legs():
    e = parse_bracket("<V1 V2 P^1(U2) a>_0 <a* P^2(U1)>_1")
    (_c, dg), = e.terms()
    target = dg.graph.leg_with_label("U2")
    pair = graph_partner_pair(e, 0, target)
    labels = {dg.graph.labels[h] for h in pair}
    assert labels == {"V1", "V2"}


def test_partner_pair_avoids_loop_halves():
    e = parse_bracket("<P^1(x1) b a a*>_0 <b* x2 x3>_0")
    (_c, dg), = e.terms()
    target = dg.graph.leg_with_label("x1")
    pair = graph_partner_pair(e, 0, target)
    assert dg.graph.involution[pair[0]] != pair[1]


@pytest.mark.parametrize("text, labels", [
    ("<P^1(U1) U2 U3 U4 U5 W>_0", ("U2", "U3")),
    ("<P^1(U1) x W W a>_0 <a* U2 U3>_0", ("x", EXTRA)),
    ("<P^1(U1) W a b>_0 <a* b* U2>_0", (EXTRA, None)),
])
def test_partner_pair_ranks_extra_legs_after_named_legs(text, labels):
    e = parse_bracket(text)
    (_c, dg), = e.terms()
    target = dg.graph.leg_with_label("U1")
    v = dg.graph.vertex_of[target]
    pair = graph_partner_pair(e, v, target)
    assert tuple(dg.graph.labels[h] for h in pair) == labels
    assert pair == reference_choose_partner_pair(dg, v, target)


def elimination_input(rng):
    """A one-term expression from ``conftest.random_decorated_graph`` that psi
    elimination accepts, or None.

    Psi powers on genus >= 2 vertices are cleared, and the leg U2, when drawn,
    becomes the named leg ``x`` half of the time.
    """
    dg = random_decorated_graph(rng)
    g = dg.graph
    name = "x" if rng.random() < 0.5 else "U2"
    labels = tuple(name if lab == "U2" else lab for lab in g.labels)
    exps = tuple(0 if g.genera[v] >= 2 else e for v, e in zip(g.vertex_of, dg.exponents))
    return single_term(DecoratedGraph(
        DualGraph(g.genera, g.vertex_of, g.involution, labels), exps))


def psi_features(expr):
    """What the psi sites of a one-term ``expr`` exercise."""
    (_c, dg), = expr.terms()
    g = dg.graph
    found = set()
    for h, e in enumerate(dg.exponents):
        if not e:
            continue
        v = g.vertex_of[h]
        found.add("leg psi" if g.labels[h] is not None else "edge-end psi")
        if g.genera[v] == 1:
            found.add("genus-1 loop term")
        at_v = [g.labels[x] for x in g.halves_at(v)]
        if any(g.vertex_of[g.involution[x]] == v and g.involution[x] != x
               for x in g.halves_at(v)):
            found.add("loop at the split vertex")
        for lab in at_v:
            if lab is not None:
                found.add(leg_kind(lab) + " leg at a psi vertex")
    return found


def check_elimination(rng):
    """Elimination on records against the graph reference, on one random
    input; returns the features its psi sites exercise."""
    expr = elimination_input(rng)
    if expr is None or psi_free(expr):
        return set()
    got = eliminate_all_psi(expr)
    assert psi_free(got)
    assert typed_terms(got) == typed_terms(reference_eliminate_all_psi(expr))
    return psi_features(expr)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_elimination_matches_graph_reference_on_random_graphs(rng):
    check_elimination(rng)


def test_random_elimination_inputs_cover_every_site_feature():
    found = set()
    for seed in range(200):
        found |= check_elimination(random.Random(seed))
    assert found == {"leg psi", "edge-end psi", "genus-1 loop term",
                     "loop at the split vertex", "regular leg at a psi vertex",
                     "frozen leg at a psi vertex", "named leg at a psi vertex",
                     "extra leg at a psi vertex"}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_record_site_and_partner_pair_match_graph_references(rng):
    expr = elimination_input(rng)
    if expr is None:
        return
    (key,) = expr.support()
    (_c, dg), = expr.terms()
    base, edges = key_records(key)
    site = reduce._reduction_site(base, edges)
    if site is None:
        assert reference_reduction_site(dg) is None
    else:
        v, n, halves = site
        assert reference_reduction_site(dg) == (v, dg.graph.halves_at(v)[n])
        assert halves == half_edges(base, edges, v)
    for v in range(dg.graph.n_vertices):
        halves = dg.graph.halves_at(v)
        if len(halves) < 3:
            continue
        for h in halves:
            assert graph_partner_pair(expr, v, h) == \
                reference_choose_partner_pair(dg, v, h)


# ---------------------------------------------------------------------------
# distribute and WDVV generation


def test_distribute_two_factors():
    e = parse_bracket("<x1 x2 a>_0 <a* x3 x4>_0")
    out = distribute(e, "x5")
    assert out == parse_bracket(
        "<x1 x2 x5 a>_0 <a* x3 x4>_0 + <x1 x2 a>_0 <a* x3 x4 x5>_0")


def test_distribute_single_factor_and_collision():
    e = parse_bracket("<x1 x2 x3 x4>_0")
    assert distribute(e, "x5") == parse_bracket("<x1 x2 x3 x4 x5>_0")
    with pytest.raises(ValueError):
        distribute(e, "x1")


def test_distribute_extra_leg():
    e = parse_bracket("<x1 x2 a>_0 <a* x3 x4>_0")
    assert distribute(e, EXTRA) == parse_bracket(
        "<x1 x2 W a>_0 <a* x3 x4>_0 + <x1 x2 a>_0 <a* x3 x4 W>_0")
    with pytest.raises(ValueError, match="already used"):
        distribute(parse_bracket("<x1 x2 W a>_0 <a* x3 x4>_0"), EXTRA)


def test_distributed_four_point_difference_is_five_point_relation():
    lhs = distribute(parse_bracket("<x1 x2 a>_0 <a* x3 x4>_0"), "x5")
    rhs = distribute(parse_bracket("<x1 x3 a>_0 <a* x2 x4>_0"), "x5")
    diff = lhs - rhs
    support = parse_bracket("<x1 x2 a>_0 <a* x3 x4 x5>_0").support()
    basis = closure(support, 1)
    sigs = {tuple(sorted(rel.items())) for rel in as_expressions(basis)}
    assert tuple(sorted(diff.items())) in sigs or \
        tuple(sorted(diff.scale(-1).items())) in sigs


def test_wdvv_four_points():
    support = parse_bracket("<x1 x2 a>_0 <a* x3 x4>_0").support()
    basis = closure(support, 1)
    assert len(basis.relations) == 2
    assert all(len(rel) == 2 for rel in basis.relations)
    # the relations identify all three pairings of the four labels
    d12 = parse_bracket("<x1 x2 a>_0 <a* x3 x4>_0")
    d13 = parse_bracket("<x1 x3 a>_0 <a* x2 x4>_0")
    d14 = parse_bracket("<x1 x4 a>_0 <a* x2 x3>_0")
    assert certified_zero(d12 - d13, budget=1)
    assert certified_zero(d12 - d14, budget=1)


def test_wdvv_empty_support():
    basis = closure(frozenset(), 2)
    assert basis.relations == []


def test_chain_class_is_symmetric_modulo_relations():
    chain = parse_bracket("<x1 x2 a>_0 <a* x3 b>_0 <b* x4 x5>_0")
    for sigma in [{"x1": "x3", "x3": "x1"}, {"x2": "x5", "x5": "x2"},
                  {"x1": "x2", "x2": "x3", "x3": "x1"}]:
        assert certified_zero(chain - relabel_legs(chain, sigma), budget=2)


def test_span_budget_escalation():
    chain = parse_bracket("<x1 x2 a>_0 <a* x3 b>_0 <b* x4 x5>_0")
    swapped = relabel_legs(chain, {"x2": "x5", "x5": "x2"})
    diff = chain - swapped
    assert not span_zero_test(diff, budget=1).zero
    cert = span_zero_test(diff, budget=3)
    assert cert.zero and cert.budget_spent == 2


def test_relations_pair_to_zero():
    support = parse_bracket("<x1 x2 a>_0 <a* x3 x4 x5>_0").support()
    basis = closure(support, 1)
    for rel in as_expressions(basis)[:10]:
        assert all(v == 0 for _b, v in pair_with_psi_monomials(rel))


def test_relations_with_genus1_spectators_pair_to_zero():
    from tautrel.treeclass import weighted_tree_class
    reduced = eliminate_all_psi(weighted_tree_class(1, 2, (2, 1)))
    basis = closure(reduced.support(), 1)
    assert basis.relations
    for rel in as_expressions(basis)[:20]:
        assert all(v == 0 for _b, v in pair_with_psi_monomials(rel))


def test_eliminate_preserves_nonzero_pairings():
    e = parse_bracket("<P^1(x1) P^1(x2) x3 x4 x5>_0")
    assert pair_with_psi_monomials(e) == pair_with_psi_monomials(eliminate_all_psi(e))
    g1 = parse_bracket("<P^2(x1) P^1(x2) x3 x4>_1")
    assert pair_with_psi_monomials(g1) == pair_with_psi_monomials(eliminate_all_psi(g1))


@pytest.mark.parametrize("g, m, d", [
    (1, 3, (1, 1, 1)), (1, 3, (2, 1)), (0, 5, (1, 1, 1)), (1, 3, (2, 1, 1)),
    (0, 4, (1, 1, 1, 1)), (0, 5, (1, 1, 2)), (1, 2, (2, 1, 1)), (1, 2, (1, 1, 1))])
def test_raw_and_psi_free_classes_pair_alike(g, m, d):
    """A pairing is an intersection number and psi elimination rewrites a
    class into an equal one, so the vanishing check may pair the raw class
    in place of the psi-free one: every monomial pairs alike."""
    raw = weighted_tree_class(g, m, d)
    assert pair_with_psi_monomials(raw) == pair_with_psi_monomials(eliminate_all_psi(raw))


def test_genus1_integral_literals():
    table = {
        (1,): Fraction(1, 24),
        (2, 0): Fraction(1, 24),
        (1, 1): Fraction(1, 24),
        (3, 0, 0): Fraction(1, 24),
        (2, 1, 0): Fraction(1, 12),
        (1, 1, 1): Fraction(1, 12),
        (2, 2, 0, 0): Fraction(1, 6),
    }
    for exps, value in table.items():
        assert vertex_integral(1, exps) == value


# ---------------------------------------------------------------------------
# span certification


def test_span_certifies_residue_fixture():
    cert = span_zero_test(parse_bracket(fixture_text("f")), budget=3)
    assert cert.zero and cert.reason == "wdvv-span"


def test_span_certificate_resubstitution():
    target = parse_bracket(fixture_text("f"))
    cert = span_zero_test(target, budget=3)
    total = None
    for coeff, rel in cert.combination:
        piece = Expression(target.ambient,
                           _raw={k: Fraction(n) for k, n in rel.items()}).scale(coeff)
        total = piece if total is None else total + piece
    assert total == target


def test_certificate_is_self_contained(monkeypatch):
    """A proved certificate lists its relations over keys and keeps no
    closure alive; its relations times their coefficients sum to the
    target."""
    made = []

    class Recorded(RelationBasis):
        def __init__(self, support):
            super().__init__(support)
            made.append(weakref.ref(self))

    monkeypatch.setattr(reduce, "RelationBasis", Recorded)
    target = parse_bracket(fixture_text("f"))
    cert = span_zero_test(target, budget=2)
    assert cert.zero
    gc.collect()
    assert made and all(ref() is None for ref in made)
    total = {}
    for coeff, rel in cert.combination:
        for key, n in rel.items():
            total[key] = total.get(key, 0) + coeff * n
    assert {key: v for key, v in total.items() if v} == target._terms


def test_span_single_divisor_unknown():
    e = parse_bracket("<x1 x2 a>_0 <a* x3 x4 x5>_0")
    cert = span_zero_test(e, budget=2)
    assert not cert.zero
    assert cert.reason == "unknown"


@pytest.mark.parametrize("name,solves", [("divisor", 1), ("i", 1), ("h", 3)])
def test_span_test_solves_only_after_a_round_that_adds_relations(name, solves):
    # the divisor's and i's closures close in round 2, so rounds 2 and 3 add
    # nothing; h's closure has 312, 450 and 454 relations after rounds 1-3
    if name == "divisor":
        expr = parse_bracket("<x1 x2 a>_0 <a* x3 x4 x5>_0")
    else:
        expr = eliminate_all_psi(parse_bracket(fixture_text(name)))
    calls = []

    def spy(relations, target):
        calls.append(len(relations))
        return _solve_exact(relations, target)

    with mock.patch.object(reduce, "_solve_exact", spy):
        cert = span_zero_test(expr, budget=3)
    assert (cert.zero, cert.reason, cert.budget_spent) == (False, "unknown", 3)
    assert len(calls) == solves
    if name == "h":
        assert calls == [312, 450, 454]


def test_span_test_of_zero_runs_no_closure(monkeypatch):
    def raise_on_call(*args, **kwargs):
        raise AssertionError("relation closure on the zero expression")

    monkeypatch.setattr(reduce, "generate_wdvv_relations", raise_on_call)
    ambient = parse_bracket("<x1 x2 x3 x4>_0").ambient
    cert = span_zero_test(zero(ambient), budget=3)
    assert cert.zero and cert.reason == "normalizes to zero"
    assert cert.budget_spent == 0 and cert.combination == ()


def closure_only_span_test(expr, budget=3):
    """The closure-only span test, a reference for ``span_zero_test``:
    closure rounds and exact solves up to ``budget``, with no pairing check
    and no certificate.  The zero flag and the rounds spent."""
    basis = RelationBasis(expr.support())
    target = {basis.ids[key]: v for key, v in expr._terms.items()}
    for rounds in range(1, budget + 1):
        count = len(basis.relations)
        generate_wdvv_relations(basis)
        if len(basis.relations) == count:
            continue
        if not set().union(*basis.relations).issuperset(target):
            continue
        if _solve_exact(basis.relations, target) is not None:
            return True, rounds
    return False, budget


PROVED_CLASSES = [(g, m, d) for g, m, weights in
                  [(0, 4, (1, 1, 1, 1)), (1, 2, (2, 1, 1)), (1, 2, (1, 1, 1))]
                  for d in sorted(set(itertools.permutations(weights)))] + [
    (0, 5, (1, 1, 2)), (1, 3, (2, 1, 1))]


def assert_pairs_to_zero(expr):
    """A class the span test proves zero must never have a nonzero pairing:
    the pairing check would end its test before the closure."""
    pairings = pair_with_psi_monomials(eliminate_all_psi(expr))
    assert pairings and all(value == 0 for _b, value in pairings)


@pytest.mark.parametrize("g, m, d", PROVED_CLASSES)
def test_proved_classes_pair_to_zero_with_every_monomial(g, m, d):
    assert_pairs_to_zero(weighted_tree_class(g, m, d))


@pytest.mark.parametrize("name", ["f", "h0i0_combined", "h1", "i1"])
def test_span_proved_fixtures_pair_to_zero_with_every_monomial(name):
    assert_pairs_to_zero(parse_bracket(fixture_text(name)))


@pytest.mark.parametrize("d", [(2, 1), (1, 2), (1, 1, 1)])
def test_closure_alone_also_ends_unknown_on_nonzero_pairings(d):
    """Without the pairing check the full budget ends unknown as well, so the
    check changes no outcome on these classes, only its cost."""
    expr = eliminate_all_psi(weighted_tree_class(1, 3, d))
    assert any(value for _b, value in pair_with_psi_monomials(expr))
    assert closure_only_span_test(expr, budget=3) == (False, 3)
    assert span_zero_test(expr, budget=3).reason == "unknown"


def test_closure_only_reference_proves_what_the_span_test_proves():
    expr = parse_bracket(fixture_text("f"))
    cert = span_zero_test(expr, budget=3)
    assert closure_only_span_test(expr, budget=3) == (cert.zero, cert.budget_spent)
    assert cert.zero


def test_span_rejects_psi_terms():
    with pytest.raises(ValueError, match="psi-free support"):
        span_zero_test(parse_bracket("<P^1(x1) x2 x3 x4>_0"))


def test_span_test_adds_its_seconds_to_the_callers_stages():
    """The closure and solve seconds go into the ``stages`` the caller passes,
    those spent before a budget overflow too; neither the certificate nor
    the error carries seconds."""
    assert [f.name for f in dataclasses.fields(reduce.ZeroCertificate)] == [
        "zero", "combination", "budget_spent", "reason"]
    b122 = eliminate_all_psi(weighted_tree_class(1, 2, (2, 1, 1)))
    proved = {}
    assert span_zero_test(b122, stages=proved).zero
    assert proved["closure_s"] > 0 and proved["solve_s"] > 0
    unknown = {}
    cert = span_zero_test(eliminate_all_psi(weighted_tree_class(1, 3, (2, 1, 1))),
                          budget=1, stages=unknown)
    assert cert.reason == "unknown" and set(unknown) == {"closure_s", "solve_s"}
    overflow = {}
    with pytest.raises(OverflowError) as info:
        span_zero_test(b122, max_relations=10, stages=overflow)
    assert overflow["closure_s"] > 0
    assert not hasattr(info.value, "closure_s")


@pytest.mark.parametrize("text", ["<P^1(x1) x2 x3 x4>_0",
                                  "<x1 x2 a>_0 <P^1(a*) x3 x4 x5>_0",
                                  "<x1 x2 a>_0 <a* x3 x4 x5>_0 + <P^1(x1) x2 x3 x4 x5>_0"])
def test_relation_closure_rejects_a_psi_decorated_support(text):
    """A psi power at a leg or an edge end, in any key of the support."""
    with pytest.raises(ValueError, match="psi-free support"):
        RelationBasis(parse_bracket(text).support())


def test_reduction_path_independence_modulo_relations():
    e = parse_bracket("<P^1(x1) x2 x3 x4 x5>_0")
    (_c, dg), = e.terms()
    h = {lab: dg.graph.leg_with_label(lab) for lab in ("x1", "x2", "x3", "x4", "x5")}
    seen = []
    for pair in [(h["x2"], h["x3"]), (h["x3"], h["x4"]), (h["x4"], h["x5"])]:
        seen.append(psi_reduce_genus0(e, 0, h["x1"], pair))
    for a, b in itertools.combinations(seen, 2):
        assert certified_zero(a - b, budget=2)


# ---------------------------------------------------------------------------
# integration


def test_integrate_point_moduli():
    assert integrate(parse_bracket("<x1 x2 x3>_0")) == 1


def test_integrate_psi_on_one_pointed_genus1():
    assert integrate(parse_bracket("<P^1(x1)>_1")) == Fraction(1, 24)


def test_integrate_genus0_closed_form_example():
    assert integrate(parse_bracket("<P^2(x1) x2 x3 x4 x5>_0")) == 1


@pytest.mark.parametrize("text", ["<P^1(U1) U2 U3 U4 W>_0", "<P^1(U1) W>_1",
                                  "<P^1(U1) U2 U3 a>_0 <P^1(a*) W>_1"])
def test_integrate_counts_extra_legs(text):
    # a vertex with extra legs is below its dimension, so the class integrates
    # to zero; each vertex integral reads the extras as zero exponents
    expr = parse_bracket(text)
    assert expr.degree() == expr.ambient.dimension
    assert integrate(expr) == 0
    total = Fraction(0)
    for coeff, dg in expr.terms():
        g = dg.graph
        value = coeff
        for v in range(g.n_vertices):
            exps = tuple(sorted(dg.exponents[h] for h in g.halves_at(v)))
            value *= (genus0_integral_by_string if g.genera[v] == 0
                      else genus1_integral_by_string_dilaton)(exps)
        total += value
    assert total == 0


def test_integrate_requires_top_degree():
    with pytest.raises(ValueError):
        integrate(parse_bracket("<x1 x2 x3 x4>_0"))


def top_degree_inputs(g, n):
    """Every sorted exponent tuple of n points in the top degree 3g - 3 + n."""
    return [e for e in itertools.combinations_with_replacement(range(3 * g - 2 + n), n)
            if sum(e) == 3 * g - 3 + n]


def test_genus0_closed_form_matches_string_recursion():
    # the DVV recursion, the closed form it replaced and the string recursion
    checked = 0
    for n in range(3, 10):
        for exps in top_degree_inputs(0, n):
            assert vertex_integral(0, exps) == genus0_closed_form(exps) == \
                genus0_integral_by_string(exps)
            checked += 1
    assert checked == 30


def test_genus1_recursion_matches_string_dilaton():
    # the DVV recursion, the splitting recursion it replaced and string + dilaton
    checked = 0
    for n in range(1, 10):
        for exps in top_degree_inputs(1, n):
            assert vertex_integral(1, exps) == genus1_splitting_recursion(exps) == \
                genus1_integral_by_string_dilaton(exps)
            checked += 1
    assert checked == 96


def test_vertex_integral_anchors():
    assert vertex_integral(0, (0, 0, 0)) == 1
    assert vertex_integral(1, (1,)) == Fraction(1, 24)
    assert vertex_integral(2, (4,)) == Fraction(1, 1152)
    assert vertex_integral(2, (2, 3)) == Fraction(29, 5760)
    assert vertex_integral(2, (3, 2)) == Fraction(29, 5760)
    assert vertex_integral(2, (2, 2, 2)) == Fraction(7, 240)
    assert vertex_integral(3, (7,)) == Fraction(1, 82944)
    for g in range(1, 6):
        assert vertex_integral(g, (3 * g - 2,)) == Fraction(1, 24**g * math.factorial(g))


def test_vertex_integral_is_zero_off_the_top_degree_and_when_unstable():
    assert vertex_integral(2, (3,)) == 0
    assert vertex_integral(2, (2, 2)) == 0
    assert vertex_integral(0, (0, 0)) == 0
    assert vertex_integral(1, ()) == 0
    assert vertex_integral(2, ()) == 0


def test_vertex_integral_string_and_dilaton_equations_at_genus_2_and_3():
    checked = 0
    for g in (2, 3):
        for n in range(1, 5):
            for exps in top_degree_inputs(g, n):
                lowered = sum(vertex_integral(g, exps[:j] + (d - 1,) + exps[j + 1:])
                              for j, d in enumerate(exps) if d)
                assert vertex_integral(g, (0,) + exps) == lowered
                assert vertex_integral(g, (1,) + exps) == \
                    (2 * g - 2 + n) * vertex_integral(g, exps)
                checked += 1
    assert checked == 63


def odd_factorial(m):
    return math.prod(range(m, 0, -2))


def dvv_right_side(g, exps, i):
    """The DVV recursion for <tau_{exps}>_g peeling point i, whatever its
    exponent, with ``vertex_integral`` for the smaller integrals."""
    k, rest = exps[i] - 1, exps[:i] + exps[i + 1:]
    total = Fraction(0)
    for j, d in enumerate(rest):
        if d + k >= 0:
            total += Fraction(odd_factorial(2 * (d + k) + 1), odd_factorial(2 * d - 1)) \
                * vertex_integral(g, rest[:j] + (d + k,) + rest[j + 1:])
    for r in range(k):
        s = k - 1 - r
        half = Fraction(odd_factorial(2 * r + 1) * odd_factorial(2 * s + 1), 2)
        if g:
            total += half * vertex_integral(g - 1, (r, s) + rest)
        for g1 in range(g + 1):
            for size in range(len(rest) + 1):
                for one in itertools.combinations(range(len(rest)), size):
                    two = [rest[t] for t in range(len(rest)) if t not in one]
                    total += half * vertex_integral(g1, (r, *(rest[t] for t in one))) \
                        * vertex_integral(g - g1, (s, *two))
    return total / odd_factorial(2 * k + 3)


def test_vertex_integral_does_not_depend_on_the_peeled_point():
    # the recursion peels the least exponent; the Virasoro constraints say
    # that peeling any other point gives the same number
    checked = 0
    for g, n_max in ((1, 4), (2, 4), (3, 3)):
        for n in range(2, n_max + 1):
            for exps in top_degree_inputs(g, n):
                for i in range(1, n):
                    if exps[i] != exps[i - 1]:
                        assert dvv_right_side(g, exps, i) == vertex_integral(g, exps)
                        checked += 1
    assert checked == 64


def test_integrate_at_genus_2():
    assert integrate(parse_bracket("<P^4(x1)>_2")) == Fraction(1, 1152)
    assert integrate(parse_bracket("<P^2(x1) P^3(x2)>_2")) == Fraction(29, 5760)
    # a genus-1 and a genus-2 vertex joined by one edge, each in its top degree
    expr = parse_bracket("<P^2(x1) a>_1 <a* P^5(x2)>_2")
    assert expr.degree() == expr.ambient.dimension
    ((_key, coeff),) = expr.items()
    assert integrate(expr) == coeff * Fraction(1, 24) * Fraction(1, 1152) != 0


@pytest.mark.parametrize("d, count", [((5,), 3), ((4, 1), 10), ((3, 2), 10)])
def test_genus2_classes_at_the_bound_pair_to_zero(d, count):
    # a necessary condition for B^2_{2,d} = 0, not a proof of it
    pairings = pair_with_psi_monomials(weighted_tree_class(2, 2, d))
    assert len(pairings) == count
    assert all(value == 0 for _monomial, value in pairings)


def test_genus2_class_below_the_bound_pairs_nonzero():
    pairings = pair_with_psi_monomials(weighted_tree_class(2, 2, (4,)))
    assert len(pairings) == 6
    assert sum(1 for _monomial, value in pairings if value) == 3


def pairings_by_multiplication(expr):
    """The pairings as they were computed before they read the exponents off
    the keys: each monomial multiplied in by ``multiply_by_leg_psi``, which
    re-keys every term and drops the overweight ones, then integrated.  Also
    the number of terms dropped over all monomials."""
    labels = expr.ambient.labels
    codim = expr.ambient.dimension - expr.degree()
    out, dropped = [], 0
    for combo in itertools.combinations_with_replacement(range(len(labels)), codim):
        b = tuple(combo.count(i) for i in range(len(labels)))
        padded = expr
        for label, power in zip(labels, b):
            padded = multiply_by_leg_psi(padded, label, power)
        out.append((b, integrate(padded)))
        dropped += len(expr) - len(padded)
    return out, dropped


@pytest.mark.parametrize("name", ["h", "i", "b2_2_4"])
def test_pairings_equal_integrals_of_multiplied_classes(name):
    expr = (weighted_tree_class(2, 2, (4,)) if name == "b2_2_4"
            else parse_bracket(fixture_text(name)))
    pairings = pair_with_psi_monomials(expr)
    reference, dropped = pairings_by_multiplication(expr)
    assert pairings == reference
    assert any(value for _monomial, value in pairings)
    assert dropped > 0             # some monomial makes some vertex overweight


def test_single_reduction_steps_preserve_pairings():
    cases = [
        ("<P^1(x1) x2 x3 x4>_0", "genus0"),
        ("<P^2(x1) x2 x3 x4 x5>_0", "genus0"),
        ("<P^1(x1) x2>_1", "genus1"),
        ("<P^2(x1) x2 x3>_1", "genus1"),
        ("<x1 x2 a>_0 <a* P^1(x3) x4 x5>_0", "genus0"),
    ]
    for text, kind in cases:
        e = parse_bracket(text)
        (_c, dg), = e.terms()
        target = next(h for h in range(dg.graph.n_half_edges)
                      if dg.exponents[h] > 0)
        v = dg.graph.vertex_of[target]
        if kind == "genus0":
            out = psi_reduce_genus0(e, v, target, graph_partner_pair(e, v, target))
        else:
            out = psi_reduce_genus1(e, v, target)
        assert pair_with_psi_monomials(e) == pair_with_psi_monomials(out)


def test_zero_expression_pairs_to_zero():
    e = parse_bracket("<x1 x2 x3 x4>_0")
    assert all(v == 0 for _b, v in pair_with_psi_monomials(e - e))


# ---------------------------------------------------------------------------
# exact span solver against a left-looking reference


def reference_solve_exact(columns, target):
    """Reference oracle: the exact span solver in Fractions that the modular
    solver replaced.  Solves sum_i x_i * columns_i = target over the rationals.

    Right-looking sparse Gaussian elimination on the row (= graph key)
    equations.  The next pivot row is the active row of least Markowitz cost
    (Markowitz 1957), but a row always pivots on its lowest column index, so
    the pivot columns are the leading positions of an echelon basis of the
    row space whatever the row order.  With free variables set to zero, the
    solution therefore depends on the system alone.  Returns a dict
    column-index -> coefficient, or None when inconsistent.
    """
    keys = sorted(set(target).union(*columns))
    rank_of = {key: r for r, key in enumerate(keys)}
    rows = [{} for _ in keys]
    for j, col in enumerate(columns):
        for key, val in col.items():
            rows[rank_of[key]][j] = Fraction(val)
    rhs = [target.get(key, Fraction(0)) for key in keys]
    rows_of = {}                   # column -> active rows containing it
    for r, row in enumerate(rows):
        if not row and rhs[r] != 0:
            return None
        for j in row:
            rows_of.setdefault(j, set()).add(r)

    def cost(r):
        row = rows[r]
        c = min(row)
        return ((len(row) - 1) * (len(rows_of[c]) - 1), len(row), r)

    heap = [cost(r) for r, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots = []                    # (column, normalized row, rhs)
    while heap:
        entry = heapq.heappop(heap)
        r = entry[2]
        row = rows[r]
        if not row:                # already pivoted or emptied
            continue
        current = cost(r)
        if current != entry:       # stale entry: requeue at its current cost
            heapq.heappush(heap, current)
            continue
        rows[r] = None
        for j in row:
            rows_of[j].discard(r)
        c = min(row)
        lead = row[c]
        prow = {j: v / lead for j, v in row.items()}
        prhs = rhs[r] / lead
        pivots.append((c, prow, prhs))
        # eliminate c from the active rows that contain it
        for r2 in rows_of.pop(c):
            row2 = rows[r2]
            f = -row2.pop(c)
            for j, v in prow.items():
                if j == c:
                    continue
                if j in row2:
                    val = row2[j] + f * v
                    if val == 0:
                        del row2[j]
                        rows_of[j].discard(r2)
                    else:
                        row2[j] = val
                else:
                    row2[j] = f * v
                    rows_of[j].add(r2)
            rhs[r2] += f * prhs
            if row2:
                heapq.heappush(heap, cost(r2))
            elif rhs[r2] != 0:
                return None
    # back substitution in reverse pivot order, free variables set to zero
    solution = {}
    for c, prow, prhs in reversed(pivots):
        value = prhs
        for j, v in prow.items():
            if j != c:
                value -= v * solution.get(j, 0)
        solution[c] = value
    return {j: v for j, v in solution.items() if v != 0}



def reference_relation_signature(rel):
    """Reference oracle: the Fraction normalization of a relation, entries in
    sorted order divided by the first, that the integer signature replaced."""
    items = sorted(rel.items())
    lead = Fraction(items[0][1])
    return tuple((k, c / lead) for k, c in items)


def left_looking_solve(columns, target):
    """Reference oracle: rows in sorted key order, each reduced against every
    earlier pivot, pivoting on its lowest column index."""
    rows = {}
    for j, col in enumerate(columns):
        for key, val in col.items():
            rows.setdefault(key, {})[j] = Fraction(val)
    pivots = []
    for key in sorted(set(rows) | set(target)):
        row = dict(rows.get(key, {}))
        rhs = target.get(key, Fraction(0))
        for var, prow, prhs in pivots:
            if var in row:
                f = row.pop(var)
                for j, val in prow.items():
                    if j == var:
                        continue
                    row[j] = row.get(j, Fraction(0)) - f * val
                    if row[j] == 0:
                        del row[j]
                rhs -= f * prhs
        if not row:
            if rhs != 0:
                return None
            continue
        var = min(row)
        lead = row[var]
        pivots.append((var, {j: v / lead for j, v in row.items()}, rhs / lead))
    solution = {}
    for var, prow, prhs in reversed(pivots):
        value = prhs
        for j, v in prow.items():
            if j != var:
                value -= v * solution.get(j, Fraction(0))
        solution[var] = value
    return {j: v for j, v in solution.items() if v != 0}


def rebuild(columns, solution):
    acc = {}
    for j, x in solution.items():
        for key, val in columns[j].items():
            acc[key] = acc.get(key, Fraction(0)) + x * val
    return {k: v for k, v in acc.items() if v != 0}


def assert_exact_witness(columns, target, witnesses):
    """The witness of a None result, checked exactly over the keys: y . A = 0
    and y . b != 0.  It is the one recorded witness-system solution, or,
    when a target key is untouched and no system was built, that key's unit
    vector."""
    untouched = sorted({key for key, v in target.items() if v} - set().union(*columns))
    if untouched:
        assert not witnesses
        y = {untouched[0]: 1}
    else:
        assert len(witnesses) == 1
        y = witnesses[0]
    for col in columns:
        assert sum(y.get(k, 0) * v for k, v in col.items()) == 0
    assert sum(v * target.get(k, 0) for k, v in y.items()) != 0


def assert_valid(columns, target, got):
    """A solution rebuilds the target exactly, and None comes with an exact
    witness (see ``assert_exact_witness``)."""
    if got is not None:
        assert rebuild(columns, got) == target
        return
    again, witnesses = solve_recording_witnesses(columns, target)
    assert again is None
    assert_exact_witness(columns, target, witnesses)


def shuffled_dict(d, rng):
    items = list(d.items())
    rng.shuffle(items)
    return dict(items)


ENTRY = st.sampled_from([0, 0, 0, -2, -1, 1, 2])


@st.composite
def sparse_systems(draw):
    """(columns, target) with integer entries in -2..2 and a rational target.

    The target is either A*x (consistent), arbitrary, or A*x broken on a row
    that repeats the sum of two others, or on a key no column touches (both
    inconsistent).  A row that sums two others and a column that is the
    difference of two others make the system rank-deficient.
    """
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(0, 8))
    matrix = [[draw(ENTRY) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n_rows)))[:2]
        matrix.append([x + y for x, y in zip(matrix[a], matrix[b])])
    if n_cols >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n_cols)))[:2]
        for row in matrix:
            row.append(row[a] - row[b])
    n_rows, n_cols = len(matrix), len(matrix[0])
    kind = draw(st.sampled_from(["image", "arbitrary", "broken", "untouched"]))
    if kind == "arbitrary":
        rhs = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
               for _ in range(n_rows)]
    else:
        x = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
             for _ in range(n_cols)]
        rhs = [sum((row[j] * x[j] for j in range(n_cols)), Fraction(0))
               for row in matrix]
        if kind == "broken":
            a, b = (0, 1) if n_rows >= 2 else (0, 0)
            matrix.append([p + q for p, q in zip(matrix[a], matrix[b])])
            rhs.append(rhs[a] + rhs[b] + 1)
        elif kind == "untouched":
            matrix.append([0] * n_cols)
            rhs.append(Fraction(draw(st.sampled_from([-2, -1, 1, 2]))))
    # distinct keys whose sorted order is not the generation order
    keys = draw(st.permutations(range(len(matrix))))
    columns = [{keys[i]: row[j] for i, row in enumerate(matrix) if row[j]}
               for j in range(n_cols)]
    target = {keys[i]: v for i, v in enumerate(rhs) if v != 0}
    return columns, target, kind


@settings(max_examples=300, deadline=None)
@given(system=sparse_systems(), seed=st.integers(0, 2**32 - 1))
def test_solve_exact_matches_left_looking_oracle(system, seed):
    """Min-column pivots may return another solution than the oracles'
    lowest-column one, but whether one exists is the system's own property."""
    columns, target, kind = system
    expected = left_looking_solve(columns, target)
    assert reference_solve_exact(columns, target) == expected
    got = _solve_exact(columns, target)
    assert (got is None) == (expected is None)
    if kind == "image":
        assert got is not None
    if kind in ("broken", "untouched"):
        assert got is None
    assert_valid(columns, target, got)
    # the insertion order of keys changes nothing
    rng = random.Random(seed)
    shuffled = [shuffled_dict(col, rng) for col in columns]
    assert _solve_exact(shuffled, shuffled_dict(target, rng)) == got
    # renaming the keys permutes the rows: still a valid, equally consistent result
    keys = sorted(set(target).union(*columns))
    renamed = dict(zip(keys, rng.sample(keys, len(keys))))
    columns = [{renamed[k]: v for k, v in col.items()} for col in columns]
    target = {renamed[k]: v for k, v in target.items()}
    again = _solve_exact(columns, target)
    assert (again is None) == (got is None)
    assert_valid(columns, target, again)


@settings(max_examples=200, deadline=None)
@given(system=sparse_systems(), data=st.data())
def test_zero_target_entries_are_ignored(system, data):
    columns, target, _kind = system
    expected = _solve_exact(columns, target)
    # a key that some column touches and the target leaves out, and a key
    # that no column touches
    free = sorted(set().union(*columns) - set(target))
    untouched = max(set(target).union(*columns), default=0) + 1
    zeros = [untouched] + ([data.draw(st.sampled_from(free))] if free else [])
    for key in zeros:
        assert _solve_exact(columns, {**target, key: Fraction(0)}) == expected


@pytest.mark.parametrize("name", ["f", "h1", "i1"])
@pytest.mark.parametrize("rounds", [1, 2])
def test_solve_exact_matches_oracle_on_wdvv_systems(name, rounds):
    expr = parse_bracket(fixture_text(name))
    basis = closure(expr.support(), rounds)
    columns = keyed_relations(basis)
    target = dict(expr._terms)
    expected = left_looking_solve(columns, target)
    assert expected is not None and reference_solve_exact(columns, target) == expected
    solution = _solve_exact(columns, target)
    assert solution is not None
    assert rebuild(columns, solution) == target
    shuffled = [shuffled_dict(col, random.Random(rounds)) for col in columns]
    assert _solve_exact(shuffled, target) == solution


def reachable_relations(basis, target_keys):
    """Relations in the target's component of the key-relation incidence graph.

    The span test once solved over these relations only; it is kept as the
    reference that solving over the whole closure gives the same solution.
    """
    relations = as_expressions(basis)
    by_key = {}
    for i, rel in enumerate(relations):
        for key in rel.support():
            by_key.setdefault(key, []).append(i)
    seen_keys = set()
    seen_rels = set()
    frontier = [k for k in target_keys]
    while frontier:
        key = frontier.pop()
        if key in seen_keys:
            continue
        seen_keys.add(key)
        for i in by_key.get(key, ()):
            if i not in seen_rels:
                seen_rels.add(i)
                frontier.extend(relations[i].support())
    return sorted(seen_rels)


def solve_over_component(basis, expr):
    """The solution restricted to the target's component, by relation index."""
    usable = reachable_relations(basis, expr.support())
    relations = keyed_relations(basis)
    solution = _solve_exact([relations[i] for i in usable], dict(expr._terms))
    if solution is None:
        return None
    return {usable[j]: v for j, v in solution.items()}


# b1211, the psi-free (1, 2, 1,1,1) class, has relations outside the
# target's component (6 of 536 in round 1); the fixtures have none.
@pytest.mark.parametrize("name", ["f", "h1", "i1", "b1211"])
@pytest.mark.parametrize("rounds", [1, 2])
def test_whole_closure_solves_like_target_component(name, rounds):
    if name == "b1211":
        expr = eliminate_all_psi(weighted_tree_class(1, 2, (1, 1, 1)))
    else:
        expr = parse_bracket(fixture_text(name))
    basis = closure(expr.support(), rounds)
    whole = _solve_exact(keyed_relations(basis), dict(expr._terms))
    assert whole is not None
    assert whole == solve_over_component(basis, expr)


def test_whole_closure_and_component_agree_on_inconsistent_system():
    expr = eliminate_all_psi(weighted_tree_class(1, 3, (2, 1)))
    basis = closure(expr.support(), 2)
    assert len(reachable_relations(basis, expr.support())) < len(basis.relations)
    assert _solve_exact(keyed_relations(basis), dict(expr._terms)) is None
    assert solve_over_component(basis, expr) is None


# ---------------------------------------------------------------------------
# modular elimination: bad primes, CRT and inconsistency witnesses


def is_probable_prime(n):
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_primes_are_the_largest_below_2_to_the_61():
    assert PRIMES[0] == 2**61 - 1
    assert list(PRIMES) == sorted(PRIMES, reverse=True)
    assert all(is_probable_prime(p) for p in PRIMES)
    between = [n for n in range(PRIMES[-1] + 1, 2**61) if n not in PRIMES]
    assert not any(is_probable_prime(n) for n in between)


def solve_recording_eliminations(columns, target):
    """_solve_exact, with the (rows, rhs, p, result) of each elimination it
    ran, in order."""
    calls = []
    eliminate = reduce._eliminate

    def spy(rows, rhs, p):
        result = eliminate(rows, rhs, p)
        calls.append((rows, rhs, p, result))
        return result

    with mock.patch.object(reduce, "_eliminate", spy):
        return _solve_exact(columns, target), calls


def solve_recording_primes(columns, target):
    """_solve_exact, with the primes each elimination ran at, in order."""
    got, calls = solve_recording_eliminations(columns, target)
    return got, [p for _rows, _rhs, p, _result in calls]


P = PRIMES[0]


def test_entry_equal_to_the_first_prime_moves_to_the_next_prime():
    # mod P the first column vanishes and the second would solve the row
    columns = [{"a": P}, {"a": 1}]
    target = {"a": Fraction(1)}
    got, seen = solve_recording_primes(columns, target)
    assert got == reference_solve_exact(columns, target) == {0: Fraction(1, P)}
    # 1/P needs three primes past the first to reconstruct
    assert seen == list(PRIMES[:4])


def test_target_denominator_equal_to_the_first_prime_moves_to_the_next_prime():
    columns = [{"a": 1, "b": 1}, {"b": 1}]
    target = {"a": Fraction(1, P), "b": Fraction(2)}
    got, seen = solve_recording_primes(columns, target)
    assert got == reference_solve_exact(columns, target)
    assert got == {0: Fraction(1, P), 1: 2 - Fraction(1, P)}
    assert seen[0] == P and len(seen) > 1


def test_large_denominator_is_combined_over_two_primes():
    d = 2**40 + 15
    assert d > isqrt(P // 2)
    columns = [{"a": d, "b": 1}, {"b": 1}]
    target = {"a": Fraction(1)}
    got, seen = solve_recording_primes(columns, target)
    assert got == reference_solve_exact(columns, target)
    assert got == {0: Fraction(1, d), 1: Fraction(-1, d)}
    assert seen == list(PRIMES[:2])


def test_prime_dividing_a_pivot_minor_is_kept_apart():
    # the columns are dependent mod P only, so P finds other pivot columns
    columns = [{"a": 1, "b": 1}, {"a": 1, "b": 1 + P}]
    target = {"a": Fraction(1), "b": Fraction(1 + P)}
    got, seen = solve_recording_primes(columns, target)
    assert got == reference_solve_exact(columns, target) == {1: Fraction(1)}
    assert seen == list(PRIMES[:2])


def test_inconsistency_mod_the_first_prime_is_only_a_hint():
    # inconsistent mod P, where the transposed system gives y = (-1, 1),
    # which fails the exact check on the second column
    columns = [{"a": 1, "b": 1}, {"a": 1, "b": 1 + P}]
    target = {"a": Fraction(1), "b": Fraction(2)}
    got = _solve_exact(columns, target)
    assert got == reference_solve_exact(columns, target)
    assert got == {0: 1 - Fraction(1, P), 1: Fraction(1, P)}


@pytest.mark.parametrize("content", [Fraction(10**100), Fraction(1, 10**100),
                                     Fraction(2**100, 3**60)])
def test_target_content_is_divided_out(content):
    """A common factor of the target that no list of primes could
    reconstruct leaves the solution a multiple of the scaled one."""
    columns = [{"a": 1, "b": 1}, {"b": 1}]
    target = {"a": content, "b": 3 * content}
    got, seen = solve_recording_primes(columns, target)
    assert got == reference_solve_exact(columns, target) == {0: content, 1: 2 * content}
    assert seen == [P]


def test_exhausted_prime_list_raises():
    # the content is 1/every, so the scaled target still needs b = every
    every = 1
    for p in PRIMES:
        every *= p
    with pytest.raises(ArithmeticError):
        _solve_exact([{"a": 1}, {"b": 1}],
                     {"a": Fraction(1, every), "b": Fraction(1)})


@pytest.mark.parametrize("name", ["f", "h1", "b13_211"])
def test_eliminate_ignores_row_order_on_span_systems(name):
    """Rows as given, reversed and shuffled give valid, equally consistent
    results; the pivots, and so the residues, may differ, since ties go to
    the lowest row index.  Shuffled row dicts give the same residues.  The
    span systems are the round-2 systems of fixtures f and h1, which solve,
    and the round-1 system of the psi-free (1, 3, 2,1,1) class, which is
    inconsistent, with its witness system."""
    if name == "b13_211":
        expr, rounds = eliminate_all_psi(weighted_tree_class(1, 3, (2, 1, 1))), 1
    else:
        expr, rounds = parse_bracket(fixture_text(name)), 2
    basis = closure(expr.support(), rounds)
    target = {basis.ids[key]: v for key, v in expr._terms.items()}
    got, calls = solve_recording_eliminations(basis.relations, target)
    results = [result for _rows, _rhs, _p, result in calls]
    if name == "b13_211":
        assert got is None
        assert results[0] is reduce._INCONSISTENT and isinstance(results[1], dict)
    else:
        assert got is not None and isinstance(results[0], dict)
    rng = random.Random(1)
    for rows, rhs, p, result in calls[:2]:
        shuffled = reduce._eliminate([shuffled_dict(row, rng) for row in rows], rhs, p)
        assert shuffled == result
        if isinstance(result, dict):
            assert list(shuffled) == list(result)      # the same pivot order
        order = list(range(len(rows)))
        for perm in (order[::-1], rng.sample(order, len(order))):
            got = reduce._eliminate([rows[i] for i in perm], [rhs[i] for i in perm], p)
            if result is reduce._INCONSISTENT:
                assert got is reduce._INCONSISTENT
                continue
            assert isinstance(got, dict)
            assert all(sum(v * got.get(j, 0) for j, v in row.items()) % p == b % p
                       for row, b in zip(rows, rhs))


def test_min_column_pivots_on_a_hand_built_system():
    """Column 2 is held by one row, the fewest, though columns 0 and 1 are
    lower.  It pivots first, on row 1; that leaves row 0 alone in column 0,
    whose stale count 2 goes back as 1 and pivots next.  Columns 1 and 3 are
    then free, where the lowest-column rule leaves columns 2 and 3 free."""
    rows = [{0: 1, 1: 1, 3: 1}, {0: 1, 1: 2, 2: 1, 3: 1}]
    rhs = [1, 2]
    got = reduce._eliminate(rows, rhs, P)
    assert got == {0: 1, 2: 1}
    assert list(got) == [0, 2]                 # reverse pivot order: 2, then 0
    columns = [{"a": 1, "b": 1}, {"a": 1, "b": 2}, {"b": 1}, {"a": 1, "b": 1}]
    target = {"a": Fraction(1), "b": Fraction(2)}
    assert _solve_exact(columns, target) == {0: 1, 2: 1}
    assert left_looking_solve(columns, target) == {1: 1}


def test_eliminate_is_deterministic_on_a_span_system():
    """Two calls on the witness system of the inconsistent round-1 system of
    the psi-free (1, 3, 2,1,1) class give identical residues, pivot order
    included."""
    expr = eliminate_all_psi(weighted_tree_class(1, 3, (2, 1, 1)))
    basis = closure(expr.support(), 1)
    target = {basis.ids[key]: v for key, v in expr._terms.items()}
    _got, calls = solve_recording_eliminations(basis.relations, target)
    rows, rhs, p, result = calls[1]
    assert isinstance(result, dict)
    again = reduce._eliminate(rows, rhs, p)
    assert list(again.items()) == list(result.items())


def reference_eliminate(rows, rhs, p):
    """A set-based elimination, with a set of active rows per column, a dict
    per pivot row and a mod-p copy of every row, and the same min-column
    pivots, ties and lazy heap as ``_eliminate``, which must return the same
    residues in the same order."""
    rows = [{j: v % p for j, v in row.items()} for row in rows]
    if any(0 in row.values() for row in rows):
        return None
    rhs = [b % p for b in rhs]
    rows_of = {}                   # column -> active rows containing it
    for r, row in enumerate(rows):
        if not row and rhs[r]:
            return reduce._INCONSISTENT
        for j in row:
            rows_of.setdefault(j, set()).add(r)
    heap = [(len(active), c) for c, active in rows_of.items()]
    heapq.heapify(heap)
    pivots = []                    # (column, normalized rest of the row, rhs)
    while heap:
        count, c = heapq.heappop(heap)
        active = rows_of[c]
        if not active:
            continue
        if len(active) != count:
            heapq.heappush(heap, (len(active), c))
            continue
        del rows_of[c]
        r = min(active, key=lambda i: (len(rows[i]), i))
        active.remove(r)
        row, rows[r] = rows[r], None
        inverse = pow(row.pop(c), -1, p)
        for j in row:
            rows_of[j].discard(r)
        prow = {j: v * inverse % p for j, v in row.items()}
        prhs = rhs[r] * inverse % p
        pivots.append((c, prow, prhs))
        # eliminate c from the other active rows that contain it
        for r2 in active:
            row2 = rows[r2]
            f = p - row2.pop(c)
            for j, v in prow.items():
                if j in row2:
                    val = (row2[j] + f * v) % p
                    if val:
                        row2[j] = val
                    else:
                        del row2[j]
                        rows_of[j].discard(r2)
                else:
                    row2[j] = f * v % p
                    rows_of[j].add(r2)
            rhs[r2] = (rhs[r2] + f * prhs) % p
            if not row2 and rhs[r2]:
                return reduce._INCONSISTENT
    # back substitution in reverse pivot order
    solution = {}
    for c, prow, prhs in reversed(pivots):
        solution[c] = (prhs - sum(v * solution.get(j, 0) for j, v in prow.items())) % p
    return solution


def assert_eliminates_like_reference(rows, rhs, p):
    """``_eliminate`` gives the reference's residues, pivot order included,
    or the same None or ``_INCONSISTENT``, and leaves the caller's rows and
    right-hand sides as they were."""
    before = copy.deepcopy((rows, rhs))
    expected = reference_eliminate(rows, rhs, p)
    got = reduce._eliminate(rows, rhs, p)
    assert (rows, rhs) == before
    if isinstance(expected, dict):
        assert list(got.items()) == list(expected.items())
    else:
        assert got is expected
    return got


@pytest.mark.parametrize("g, m, d", [(0, 4, (1, 1, 1, 1)), (0, 5, (1, 1, 2)),
                                     (1, 2, (2, 1, 1)), (1, 2, (1, 1, 1)),
                                     (1, 3, (2, 1, 1))])
def test_eliminate_matches_reference_on_span_systems(g, m, d, monkeypatch):
    """Every elimination of the span test, witness systems included, on the
    classes that the ``prove`` benchmark proves and on both rounds of the
    psi-free (1, 3, 2,1,1) class, whose round 1 is inconsistent."""
    calls = []
    eliminate = reduce._eliminate

    def recording(rows, rhs, p):
        calls.append((rows, rhs, p))
        return eliminate(rows, rhs, p)

    monkeypatch.setattr(reduce, "_eliminate", recording)
    assert span_zero_test(eliminate_all_psi(weighted_tree_class(g, m, d))).zero
    monkeypatch.undo()
    results = [assert_eliminates_like_reference(*call) for call in calls]
    assert isinstance(results[-1], dict)
    if d == (2, 1, 1) and m == 3:
        assert reduce._INCONSISTENT in results


@st.composite
def systems_mod_7(draw):
    """(rows, rhs) with small entries, which cancel often mod 7, so that an
    update drops a column from a row and a later one adds it back; now and
    then an entry is a multiple of 7, where the elimination returns None."""
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 7))
    rows = []
    for _ in range(n_rows):
        order = draw(st.permutations(range(n_cols)))
        entries = [draw(st.sampled_from([0, 0, 1, 2, 3, -1, -2, -3])) for _ in order]
        rows.append({j: v for j, v in zip(order, entries) if v})
    if draw(st.integers(0, 9)) == 0 and rows[0]:
        j = next(iter(rows[0]))
        rows[0][j] *= 7
    rhs = [draw(st.integers(-3, 3)) for _ in rows]
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(system=systems_mod_7())
def test_eliminate_matches_reference_mod_a_small_prime(system):
    rows, rhs = system
    assert_eliminates_like_reference(rows, rhs, 7)


def test_eliminate_reads_a_column_list_with_a_stale_and_a_live_entry():
    """Pivot column 3 (row 1) cancels column 1 from row 3, pivot column 0
    (row 0) puts it back, and column 1 pivots last, on row 3, which its list
    holds twice."""
    rows = [{0: -3, 1: 2}, {3: -1, 2: -3, 1: 3}, {0: -3, 1: -1, 2: -2},
            {1: 3, 0: -2, 3: -1, 2: 2}]
    got = assert_eliminates_like_reference(rows, [1, -1, 2, 2], 7)
    assert list(got.items()) == [(1, 5), (2, 6), (0, 3), (3, 5)]


def solve_recording_witnesses(columns, target):
    """_solve_exact, with every solution of a witness system that passed the
    exact check.  The primal system is the first one built; any later one
    is the witness system."""
    systems, witnesses = [], []

    class Recording(reduce._System):
        def __init__(self, rows, rhs):
            super().__init__(rows, rhs)
            systems.append(self)

        def satisfied_by(self, x):
            ok = super().satisfied_by(x)
            if ok and self is not systems[0]:
                witnesses.append(x)
            return ok

    with mock.patch.object(reduce, "_System", Recording):
        return _solve_exact(columns, target), witnesses


@settings(max_examples=200, deadline=None)
@given(system=sparse_systems())
def test_inconsistency_is_reported_only_with_an_exact_witness(system):
    columns, target, kind = system
    got, witnesses = solve_recording_witnesses(columns, target)
    if kind == "image":
        assert got is not None and rebuild(columns, got) == target
    if kind in ("broken", "untouched"):
        assert got is None
    if got is None:
        assert_exact_witness(columns, target, witnesses)
    else:
        assert not witnesses


@pytest.mark.parametrize("name,budget,proved", [("f", 2, True), ("b13_211", 1, False)])
def test_span_solves_never_mutate_the_rows_they_share(name, budget, proved, monkeypatch):
    # the primal system shares its rows with nothing but _solve_exact's
    # transpose; the witness system of an inconsistent round holds the
    # closure's relation dicts themselves
    if name == "b13_211":
        expr = eliminate_all_psi(weighted_tree_class(1, 3, (2, 1, 1)))
    else:
        expr = parse_bracket(fixture_text(name))
    systems, solves = [], []

    class Recording(reduce._System):
        def __init__(self, rows, rhs):
            super().__init__(rows, rhs)
            systems.append(self)

    def checked(columns, target):
        before = copy.deepcopy((columns, target))
        got = _solve_exact(columns, target)
        solves.append(got)
        assert (columns, target) == before
        return got

    monkeypatch.setattr(reduce, "_System", Recording)
    monkeypatch.setattr(reduce, "_solve_exact", checked)
    cert = span_zero_test(expr, budget=budget)
    assert cert.zero is proved and len(solves) == 1
    # one system per solve, plus the witness system of an inconsistent one
    assert len(systems) == (1 if proved else 2)
    if not proved:
        assert solves == [None]


def test_system_holds_its_rows_as_given():
    shared = {0: 2, 2: -1}
    system = reduce._System([shared, {0: 3, 1: -4}], [0, 5])
    assert system.rows[0] is shared
    assert system.rows[1:] == [{0: 3, 1: -4}] and system.rhs == [0, 5]
    assert system.solve_mod(P) is not None
    assert shared == {0: 2, 2: -1}
    # column 0 pivots on row 0 and updates row 1, which ends alone in column 1
    rows = [{0: 2, 1: -1}, {0: 3, 1: -4}]
    system = reduce._System(rows, [1, 5])
    assert system.solve_mod(P) == {0: Fraction(-1, 5), 1: Fraction(-7, 5)}
    assert rows == [{0: 2, 1: -1}, {0: 3, 1: -4}] and system.rhs == [1, 5]


def test_untouched_target_key_ends_the_solve_before_any_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("a span system was built or eliminated")

    monkeypatch.setattr(reduce, "_System", refuse)
    monkeypatch.setattr(reduce, "_eliminate", refuse)
    columns = [{"a": 1, "b": 1}, {"b": -1}]
    assert _solve_exact(columns, {"a": Fraction(1), "c": Fraction(1, 2)}) is None
    assert _solve_exact([], {"a": Fraction(3)}) is None


@pytest.mark.parametrize("g, m, d", [(0, 4, (1, 1, 1, 1)), (0, 5, (1, 1, 2)),
                                     (1, 2, (2, 1, 1)), (1, 2, (1, 1, 1))])
def test_span_systems_hold_only_int_entries(g, m, d, monkeypatch):
    """The span test hands ``_System`` only ``int`` entries and right-hand
    sides on the classes that the ``prove`` benchmark proves, the witness
    system of the inconsistent round 1 of (0, 5, 1,1,2) among them."""
    systems = []

    class Recording(reduce._System):
        def __init__(self, rows, rhs):
            systems.append((rows, rhs))
            super().__init__(rows, rhs)

    monkeypatch.setattr(reduce, "_System", Recording)
    assert span_zero_test(eliminate_all_psi(weighted_tree_class(g, m, d))).zero
    assert len(systems) == (3 if (g, m, d) == (0, 5, (1, 1, 2)) else 1)
    for rows, rhs in systems:
        assert all(type(v) is int for row in rows for v in row.values())
        assert all(type(b) is int for b in rhs)


# ---------------------------------------------------------------------------
# incremental relation closure and trusted relation assembly


def closure_target(name):
    if name == "b131":
        return eliminate_all_psi(weighted_tree_class(1, 3, (1, 1, 1)))
    if name == "b1211":
        return eliminate_all_psi(weighted_tree_class(1, 2, (1, 1, 1)))
    return parse_bracket(fixture_text(name))


def relation_lists(basis):
    """Every relation as its (key, coefficient) list, in stored order."""
    return [list(rel.items()) for rel in keyed_relations(basis)]


def supported_keys(basis):
    """The keys of the basis's support, mapped back through its key table."""
    return frozenset(basis.keys[i] for i in basis.support)


def keyed_relations_at(key, vertex):
    """``wdvv_relations_at`` over a fresh key table, mapped back to keys."""
    basis = RelationBasis(())
    relations = wdvv_relations_at(key, vertex, basis)
    return [{basis.keys[i]: n for i, n in rel.items()} for rel in relations]


def reference_keyed_closure(support, rounds):
    """The relation closure as it ran before it numbered keys: relations,
    signatures and support over graph keys.  The relations and the support
    after each round."""
    known = set(support)
    frontier = set(support)
    processed, signatures, relations, after = set(), set(), [], []
    for _ in range(rounds):
        sources = set()
        for key in frontier:
            base, edges = key_records(key)
            for i, (v1, _e1, v2, _e2) in enumerate(edges):
                if v1 != v2:
                    skey = _canonical_search(*contract_records(base, edges, i))[0]
                    if skey not in processed:
                        sources.add(skey)
        frontier = set()
        for skey in sorted(sources):
            processed.add(skey)
            for v in range(len(skey[0])):
                for rel in keyed_relations_at(skey, v):
                    sig = reduce._relation_signature(rel)
                    if sig not in signatures:
                        signatures.add(sig)
                        relations.append(rel)
                        frontier.update(key for key in rel if key not in known)
                        known.update(rel)
        after.append((list(relations), frozenset(known)))
        if not frontier:
            break
    return after


@pytest.mark.parametrize("name", ["f", "h1", "i1", "b131"])
def test_key_table_closure_matches_reference_keyed_closure(name):
    expr = closure_target(name)
    support = sorted(expr.support())
    after = reference_keyed_closure(support, 3)
    for rounds in (1, 2, 3):
        basis = closure(expr.support(), rounds)
        relations, keys = after[min(rounds, len(after)) - 1]
        assert relation_lists(basis) == [list(rel.items()) for rel in relations]
        assert supported_keys(basis) == keys
        # one id per key, dense, the support first in key order
        assert list(basis.keys[:len(support)]) == support
        assert len(set(basis.keys)) == len(basis.keys)
        assert basis.ids == {key: i for i, key in enumerate(basis.keys)}
        assert list(basis.ids) == list(basis.keys)
        used = set(basis.support).union(*basis.relations)
        assert used <= set(range(len(basis.keys)))


def test_interning_keeps_the_key_table_and_shares_parts(monkeypatch):
    expr = closure_target("h1")
    basis = closure(expr.support(), 2)
    monkeypatch.setattr(reduce, "_interned", lambda key, parts: key)
    plain = closure(expr.support(), 2)
    assert basis.keys == plain.keys and list(basis.ids) == list(plain.ids)
    assert basis.relations == plain.relations and basis.processed == plain.processed
    assert not plain.parts
    # every key the closure stored holds the table's copy of each part, so
    # equal records of two stored keys are one object; without the table
    # they are not
    stored = basis.keys[len(expr.support()):]
    assert stored and all(basis.parts[part] is part for key in stored
                          for part in (*key[0], *key[1]))
    pairs = [(key, other) for key, other in zip(stored, stored[1:])
             if set(key[1]) & set(other[1])]
    assert pairs
    key, other = pairs[0]
    rec = min(set(key[1]) & set(other[1]))
    assert key[1][key[1].index(rec)] is other[1][other[1].index(rec)]
    plain_key, plain_other = (plain.keys[plain.ids[k]] for k in pairs[0])
    assert plain_key[1][plain_key[1].index(rec)] is not \
        plain_other[1][plain_other[1].index(rec)]


def overflow_round(expr, max_relations):
    """First round of 1..3 whose closure exceeds max_relations, or None."""
    basis = RelationBasis(expr.support())
    for rounds in (1, 2, 3):
        try:
            generate_wdvv_relations(basis, max_relations)
        except OverflowError:
            return rounds
    return None


@pytest.mark.parametrize("name", ["f", "h1", "i1", "b131"])
def test_resumed_closure_equals_fresh_closure(name):
    expr = closure_target(name)
    fresh = [closure(expr.support(), r) for r in (1, 2, 3)]
    basis = RelationBasis(expr.support())
    for expected in fresh:
        assert generate_wdvv_relations(basis) is basis
        assert relation_lists(basis) == relation_lists(expected)
        assert basis.relations == expected.relations
        assert basis.keys == expected.keys
        assert basis.support == expected.support
        assert basis.rounds == expected.rounds
    first, second = len(fresh[0].relations), len(fresh[1].relations)
    assert overflow_round(expr, first // 2) == 1
    grows = 2 if second > first else None
    assert overflow_round(expr, first) == grows


def test_a_round_on_a_closed_closure_changes_nothing():
    expr = closure_target("i1")
    basis = closure(expr.support(), 1)
    assert basis.rounds == 1 and not basis.frontier
    relations, keys, support = list(basis.relations), list(basis.keys), set(basis.support)
    assert generate_wdvv_relations(basis) is basis
    assert basis.relations == relations and basis.rounds == 1
    assert basis.keys == keys and basis.support == support
    assert closure(expr.support(), 3).rounds == 1


@pytest.mark.parametrize("name", ["f", "h1", "i1", "b1211"])
@pytest.mark.parametrize("rounds", [1, 2])
def test_int_closure_keeps_the_reference_signature_relations(name, rounds, monkeypatch):
    expr = closure_target(name)
    basis = closure(expr.support(), rounds)
    monkeypatch.setattr(reduce, "_relation_signature", reference_relation_signature)
    reference = closure(expr.support(), rounds)
    assert relation_lists(basis) == relation_lists(reference)
    assert basis.support == reference.support


def contracted_sources(keys):
    """Keys of the graphs made by contracting one non-loop edge of a graph
    with a key in ``keys``, by graph surgery on rebuilt graphs."""
    sources = set()
    for key in keys:
        dg = graph_from_key(key)
        for h, p in dg.graph.edges():
            if dg.graph.vertex_of[h] != dg.graph.vertex_of[p]:
                sources.add(canonical_key(contract_edge(dg, h)))
    return sources


def graph_wdvv_relations_at(dg, vertex):
    """The basis relations at a vertex, split by graph surgery on ``dg``."""
    g = dg.graph
    halves = g.halves_at(vertex)
    if g.genera[vertex] != 0 or len(halves) < 4:
        return []
    key_of_side = {}

    def split_keys(pair_a, pair_b):
        for side in reduce._sides(halves, pair_a, pair_b):
            if side not in key_of_side:
                key_of_side[side] = canonical_key(split_vertex(dg, vertex, side, 0, 0))
            yield key_of_side[side]

    ordered = sorted(halves)
    out = []
    for quad, e in reduce._local_basis(len(halves)):
        relation = reduce._exchange_relation(split_keys, [ordered[n] for n in quad], e)
        if relation:
            out.append(relation)
    return out


def graph_closure(support, rounds):
    """The relation closure on rebuilt graphs, as it ran before it worked on
    key records: the relations and the support after each round."""
    known = set(support)
    frontier = set(support)
    processed, signatures, relations, after = set(), set(), [], []
    for _ in range(rounds):
        sources = contracted_sources(frontier) - processed
        frontier = set()
        for skey in sorted(sources):
            processed.add(skey)
            source = graph_from_key(skey)
            for v in range(source.graph.n_vertices):
                for rel in graph_wdvv_relations_at(source, v):
                    sig = reduce._relation_signature(rel)
                    if sig not in signatures:
                        signatures.add(sig)
                        relations.append(rel)
                        frontier.update(key for key in rel if key not in known)
                        known.update(rel)
        after.append((list(relations), frozenset(known)))
        if not frontier:
            break
    return after


@pytest.mark.parametrize("name", ["f", "h1", "i1", "b131"])
def test_record_closure_matches_graph_closure(name):
    expr = closure_target(name)
    after = graph_closure(expr.support(), 3)
    for rounds in (1, 2, 3):
        basis = closure(expr.support(), rounds)
        relations, support = after[min(rounds, len(after)) - 1]
        assert relation_lists(basis) == [list(rel.items()) for rel in relations]
        assert supported_keys(basis) == support


def split_sum_reference(dg, vertex, pair_a, pair_b):
    g = dg.graph
    pool = [h for h in g.halves_at(vertex)
            if h not in pair_a and h not in pair_b]
    terms = []
    for r in range(len(pool) + 1):
        for companions in itertools.combinations(pool, r):
            side = frozenset({*pair_a, *companions})
            terms.append((Fraction(1), split_vertex(dg, vertex, side, 0, 0)))
    return terms


def wdvv_relations_reference(dg, vertex):
    """Reference oracle: every term goes through the validating constructor."""
    g = dg.graph
    halves = g.halves_at(vertex)
    if g.genera[vertex] != 0 or len(halves) < 4:
        return []
    ambient = make_ambient(genus(g), g.leg_labels())
    out = []
    for a, b, c, d in itertools.combinations(sorted(halves), 4):
        base = split_sum_reference(dg, vertex, (a, b), (c, d))
        for other in ((a, c), (b, d)), ((a, d), (b, c)):
            swapped = split_sum_reference(dg, vertex, *other)
            rel = Expression(ambient, base) - Expression(ambient, swapped)
            if not rel.is_zero():
                out.append(rel)
    return out


def reference_exchange(dg, vertex, quad, e):
    """Exchange relation ``e`` of one quadruple, built as the reference does."""
    g = dg.graph
    ambient = make_ambient(genus(g), g.leg_labels())
    a, b, c, d = quad
    base = split_sum_reference(dg, vertex, (a, b), (c, d))
    swapped = split_sum_reference(dg, vertex, *(((a, c), (b, d)), ((a, d), (b, c)))[e])
    return Expression(ambient, base) - Expression(ambient, swapped)


def exact_rank(rows):
    """Rank of key -> number dicts over the rationals, by exact elimination."""
    echelon = {}
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        while row:
            c = min(row)
            if c not in echelon:
                echelon[c] = row
                break
            f = row[c] / echelon[c][c]
            for k, v in echelon[c].items():
                row[k] = row.get(k, 0) - f * v
                if not row[k]:
                    del row[k]
    return len(echelon)


@pytest.mark.parametrize("name", ["f", "h1", "i1"])
def test_trusted_relations_match_validating_construction(name):
    """The kept relations are the reference's at the basis indices, in order,
    and they span every reference relation at their vertex exactly."""
    expr = parse_bracket(fixture_text(name))
    checked = dropped = 0
    for skey in sorted(contracted_sources(expr.support())):
        source = graph_from_key(skey)
        for v in range(source.graph.n_vertices):
            if source.graph.genera[v] != 0:
                continue
            halves = source.graph.halves_at(v)
            raw = keyed_relations_at(skey, v)
            everything = wdvv_relations_reference(source, v)
            ordered = sorted(halves)
            indexed = {(quad, e): reference_exchange(source, v, [ordered[n] for n in quad], e)
                       for quad in itertools.combinations(range(len(halves)), 4)
                       for e in (0, 1)}
            assert [r for r in indexed.values() if not r.is_zero()] == everything
            expected = [indexed[pair] for pair in reduce._local_basis(len(halves))
                        if not indexed[pair].is_zero()]
            assert all(type(n) is int for r in raw for n in r.values())
            ambient = make_ambient(genus(source.graph), source.graph.leg_labels())
            got = [Expression(ambient, _raw={k: Fraction(n) for k, n in r.items()})
                   for r in raw]
            assert got == expected
            assert [list(r._terms.items()) for r in got] == \
                [list(r._terms.items()) for r in expected]
            assert all(isinstance(c, Fraction) for r in got for c in r._terms.values())
            assert exact_rank(raw + [r._terms for r in everything]) == exact_rank(raw)
            checked += len(got)
            dropped += len(everything) - len(got)
    assert checked > 0 and dropped > 0


def abstract_exchange_relations(k):
    """All 2*C(k,4) exchange relations among k points, in generation order,
    keyed by (quadruple, exchange index), over the splittings of the points,
    each named by its side holding 0."""
    points = frozenset(range(k))

    def splittings(pair_a, pair_b):
        rest = sorted(points - {*pair_a, *pair_b})
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                side = {*pair_a, *extra}
                yield tuple(sorted(side if 0 in side else points - side))

    out = {}
    for quad in itertools.combinations(range(k), 4):
        a, b, c, d = quad
        for e, other in enumerate((((a, c), (b, d)), ((a, d), (b, c)))):
            rel = {}
            for s in splittings((a, b), (c, d)):
                rel[s] = rel.get(s, 0) + 1
            for s in splittings(*other):
                rel[s] = rel.get(s, 0) - 1
            out[quad, e] = rel
    return out


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 9, 10])
def test_local_basis_spans_every_abstract_exchange_relation(k):
    basis = list(reduce._local_basis(k))
    assert len(basis) == k * (k - 3) // 2
    assert len(set(basis)) == len(basis) and basis == sorted(basis)
    everything = abstract_exchange_relations(k)
    assert len(everything) == 2 * comb(k, 4)
    kept = [everything[pair] for pair in basis]
    assert exact_rank(kept) == len(kept)
    assert exact_rank(list(everything.values())) == len(kept)


@pytest.mark.parametrize("k", [0, 3, 4, 5, 6, 7, 8, 9])
def test_local_basis_is_the_basis_found_by_elimination(k):
    assert list(reduce._local_basis(k)) == local_basis_by_elimination(k)
