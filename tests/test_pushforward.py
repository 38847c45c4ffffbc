import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tautrel.graphs import EXTRA, DecoratedGraph
from tautrel import pushforward, treeclass
from tautrel.expressions import (
    Expression,
    _base_overweight,
    from_terms,
    make_ambient,
    parse_bracket,
)
from tautrel.pushforward import d_set, forget_extra_legs, forget_frozen_legs, string_table
from tautrel.reduce import integrate
from tautrel.treeclass import weighted_tree_class

from conftest import (
    builder_copy_of,
    genus0_integral_by_string,
    random_decorated_graph,
    relabel_legs,
    valid_term,
)


# ---------------------------------------------------------------------------
# the reference path: forget on graphs, one copy per pick from the tables


def reference_push_at_vertices(coeff, dg, counts, drop):
    """Forget ``counts[v]`` bare points at each vertex ``v`` by its string
    table over the half-edges left there, and delete the half-edges in
    ``drop``."""
    g = dg.graph
    choices = []
    for v, count in sorted(counts.items()):
        slots = [h for h in g.halves_at(v) if h not in drop]
        table = string_table(tuple(dg.exponents[h] for h in slots), count)
        choices.append((slots, table))
    out = []
    for picks in itertools.product(*(t for _s, t in choices)):
        mult = 1
        exponents = list(dg.exponents)
        for (slots, _t), (residual, m) in zip(choices, picks):
            mult *= m
            for h, e in zip(slots, residual):
                exponents[h] = e
        b = builder_copy_of(DecoratedGraph(g, tuple(exponents)), drop=drop)
        out.append((coeff * mult, b.build()))
    return out


def reference_forget(expr, ambient, doomed):
    """Push forward to ``ambient`` along the map forgetting every leg whose
    label is in ``doomed``, vertex by vertex, on graphs."""
    out = []
    for coeff, dg in expr.terms():
        g = dg.graph
        drop = [h for h in range(g.n_half_edges) if g.labels[h] in doomed]
        for h in drop:
            if dg.exponents[h] != 0:
                raise ValueError(
                    "cannot forget leg %s carrying a psi exponent" % g.labels[h])
        counts = Counter(g.vertex_of[h] for h in drop)
        for v, count in counts.items():
            if 2 * g.genera[v] - 2 + len(g.halves_at(v)) - count <= 0:
                raise ValueError(
                    "vertex %d becomes unstable after forgetting legs" % v)
        out.extend(reference_push_at_vertices(coeff, dg, counts, set(drop)))
    return Expression(ambient, out)


def reference_forget_frozen_legs(expr, count):
    doomed = set(expr.ambient.frozen_labels()[-count:])
    ambient = make_ambient(expr.ambient.genus,
                           [lab for lab in expr.ambient.labels if lab not in doomed])
    return reference_forget(expr, ambient, doomed)


def outcome(forget, expr):
    """The pushed-forward terms with their coefficient types, or the error text."""
    try:
        out = forget(expr)
    except ValueError as exc:
        return "error", str(exc)
    return out.ambient, {k: (type(c), c) for k, c in out._terms.items()}


def one_term(dg):
    """``dg`` as a one-term expression, or None when it is no valid term."""
    if not valid_term(dg):
        return None
    return from_terms([(1, dg)])


def check_forgetful_maps(dg):
    """Both forgetful maps of ``dg`` equal the graph references; returns the
    reference outcomes, or None when ``dg`` is no valid term."""
    expr = one_term(dg)
    if expr is None:
        return None
    outcomes = [outcome(forget_extra_legs, expr)]
    assert outcomes[0] == outcome(lambda e: reference_forget(e, e.ambient, (EXTRA,)), expr)
    if expr.ambient.frozen_labels():
        outcomes.append(outcome(lambda e: forget_frozen_legs(e, 1), expr))
        assert outcomes[1] == outcome(lambda e: reference_forget_frozen_legs(e, 1), expr)
    return expr, outcomes


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_forgetful_maps_match_graph_reference_on_random_graphs(rng):
    check_forgetful_maps(random_decorated_graph(rng))


def test_random_forget_inputs_cover_every_feature():
    """The seeded inputs of the check above, and the same graphs without psi,
    reach extra legs, frozen legs with and without psi, loops, edge-end psi,
    both errors and nonzero results."""
    seen = Counter()
    for seed in range(300):
        drawn = random_decorated_graph(random.Random(seed))
        bare = DecoratedGraph(drawn.graph, (0,) * len(drawn.exponents))
        for dg in (drawn, bare):
            checked = check_forgetful_maps(dg)
            if checked is None or checked[0].is_zero():
                continue
            g = dg.graph
            seen["extras"] += EXTRA in g.labels
            seen["loop"] += any(g.vertex_of[h] == g.vertex_of[p] for h, p in g.edges())
            seen["edge psi"] += any(dg.exponents[h] for h, p in g.edges())
            if "V1" in g.labels:
                seen["V1 psi" if dg.exponents[g.labels.index("V1")] else "V1"] += 1
            for result in checked[1]:
                if result[0] == "error":
                    seen[result[1].split()[0]] += 1
                elif result[1]:
                    seen["nonzero"] += 1
    for feature in ("extras", "loop", "edge psi", "V1", "V1 psi", "cannot", "vertex",
                    "nonzero"):
        assert seen[feature] > 0, feature


@pytest.mark.parametrize("g,m,l,d", [(1, 2, 1, (2, 1)), (0, 2, 1, (1, 1)),
                                     (1, 1, 2, (2, 1, 1)), (1, 2, 2, (2, 1, 1)),
                                     (0, 3, 1, (1, 1, 1)), (0, 3, 2, (1, 1, 2))])
def test_forget_frozen_matches_graph_reference_on_classes(g, m, l, d):
    expr = weighted_tree_class(g, m + l, d)
    assert outcome(lambda e: forget_frozen_legs(e, l), expr) == \
        outcome(lambda e: reference_forget_frozen_legs(e, l), expr)


def test_forget_extra_matches_graph_reference_on_fixtures():
    expr = parse_bracket("<V1 V2 W1 P^1(a)>_0 <a* W1 P^2(U1) P^1(U2)>_1"
                         " + <V1 V2 W1 a>_0 <a* W1 W2 P^3(U1) P^1(U2)>_1")
    want = outcome(lambda e: reference_forget(e, e.ambient, (EXTRA,)), expr)
    assert want[1] and outcome(forget_extra_legs, expr) == want


def test_d_set_examples():
    assert d_set((2, 1), 1) == {(1, 1), (2, 0)}
    assert d_set((1, 1), 2) == {(0, 0)}
    assert d_set((1,), 2) == set()


def test_string_table_examples():
    assert string_table((2,), 1) == [((1,), 1)]
    assert string_table((1, 1), 1) == [((0, 1), 1), ((1, 0), 1)]
    assert string_table((0,), 1) == []
    # three bare points on exponents (0,2,1): only the full drop survives
    assert string_table((0, 2, 1), 3) == [((0, 0, 0), 3)]


def test_forget_extra_two_vertex_example():
    e = parse_bracket("<V1 V2 a>_0 <a* W1 P^2(U1) P^1(U2)>_1")
    out = forget_extra_legs(e)
    assert out == parse_bracket(
        "<V1 V2 a>_0 <a* P^2(U1) U2>_1 + <V1 V2 a>_0 <a* P^1(U1) P^1(U2)>_1")


def test_forget_extra_three_legs_coefficient():
    e = parse_bracket("<V1 V2 P^2(a)>_1 <a* W1 W2 W3 P^2(U1) P^1(U2)>_0")
    out = forget_extra_legs(e)
    assert out == parse_bracket("3 * <V1 V2 P^2(a)>_1 <a* U1 U2>_0")


def test_forget_extra_no_extras_identity():
    e = parse_bracket("<V1 V2 a>_0 <a* P^2(U1) U2>_1")
    assert forget_extra_legs(e) == e


def test_forget_extra_nondegeneracy_error():
    ok = parse_bracket("<V1 V2 W1 a>_0 <a* U1 P^1(U2)>_1")
    forget_extra_legs(ok)
    bad = parse_bracket("<V1 W1 a>_0 <a* U1 P^1(U2) U3>_1")
    with pytest.raises(ValueError):
        forget_extra_legs(bad)


def test_forget_frozen_basic():
    e = parse_bracket("<V1 V2 V3 P^1(U1)>_0")
    out = forget_frozen_legs(e, 1)
    assert out == parse_bracket("<V1 V2 U1>_0")


def test_forget_frozen_zero_exponents_push_to_zero():
    e = parse_bracket("<V1 V2 V3 U1>_1")
    assert forget_frozen_legs(e, 1).is_zero()


def test_forget_frozen_chain_shift():
    e = parse_bracket("<V1 V2 V3 P^2(a)>_0 <a* U1 U2 U3>_0")
    out = forget_frozen_legs(e, 1)
    assert out == parse_bracket("<V1 V2 P^1(a)>_0 <a* U1 U2 U3>_0")


def test_forget_frozen_rejects_decorated_targets():
    e = parse_bracket("<V1 V2 P^1(V3) U1>_1")
    with pytest.raises(ValueError):
        forget_frozen_legs(e, 1)


def test_forget_frozen_stability_error():
    e = parse_bracket("<V1 V2 P^1(U1)>_0")
    with pytest.raises(ValueError):
        forget_frozen_legs(e, 1)


def test_joint_equals_sequential_forgetting():
    e = parse_bracket("<V1 V2 V3 V4 P^2(U1) P^1(U2)>_0")
    joint = forget_frozen_legs(e, 2)
    seq = forget_frozen_legs(forget_frozen_legs(e, 1), 1)
    assert joint == seq
    assert not joint.is_zero()


def test_degree_bookkeeping():
    e = parse_bracket("<V1 V2 V3 P^1(a)>_0 <a* P^2(U1) U2>_1")
    before = e.degree()
    out = forget_frozen_legs(e, 1)
    assert out.degree() == before - 1
    extras = parse_bracket("<V1 V2 a>_0 <a* W1 W2 P^2(U1) P^1(U2)>_1")
    assert forget_extra_legs(extras).degree() == extras.degree() - 2


def test_forget_agrees_with_integration_oracle():
    # one genus-0 vertex at top degree, forgetting bare points
    e = parse_bracket("<x1 x2 x3 P^2(x4) P^1(x5) x6>_0")
    value_before = integrate(e)
    out = forget_frozen_legs(relabel_legs(e, {"x6": "V1"}), 1)
    assert integrate(out) == value_before
    assert value_before == genus0_integral_by_string((0, 0, 0, 2, 1, 0))


# Classes whose assembly and frozen-leg forgets the string table runs on.
NO_OVERWEIGHT_GRID = [(0, 3, (1, 1, 1)), (0, 4, (1, 1, 1, 1)), (0, 5, (1, 1, 2)),
                      (1, 1, (2, 1, 1)), (1, 2, (2, 1)), (1, 2, (1, 1, 1)),
                      (1, 2, (2, 1, 1)), (1, 2, (1, 1, 1, 1)), (1, 3, (1, 1, 1)),
                      (1, 3, (2, 1)), (1, 3, (2, 1, 1)), (2, 1, (1, 1, 1, 1)),
                      (2, 0, (2, 2, 1, 1)), (2, 1, (2, 1, 1))]


def test_forgetful_pushforwards_leave_no_vertex_overweight(monkeypatch):
    """``_push_at_vertices`` keeps every pick of its tables: forgetting k
    points lowers a vertex's psi load and its dimension both by k, and a
    shape assignment's bounds hold every vertex within its dimension."""
    pushed = []
    push = pushforward._push_at_vertices

    def recording(*args):
        for mult, key in push(*args):
            pushed.append(key)
            yield mult, key

    monkeypatch.setattr(pushforward, "_push_at_vertices", recording)
    monkeypatch.setattr(treeclass, "_push_at_vertices", recording)
    for g, m, d in NO_OVERWEIGHT_GRID:
        raw = weighted_tree_class(g, m, d)
        if m >= 3:
            assert not forget_frozen_legs(raw, 1).is_zero()
    assert len(pushed) > 3000
    assert not any(_base_overweight(key[0]) for key in pushed)
