import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautrel.graphs import (
    GraphBuilder,
    automorphism_order,
    canonical_key,
    genus,
    is_stable,
    leg_kind,
    validate,
)
from tautrel.expressions import (
    Ambient,
    Expression,
    attach_vertex,
    dumps,
    expression_from_json,
    expression_to_json,
    from_terms,
    make_ambient,
    parse_bracket,
    render_bracket,
    render_latex,
    zero,
)
from tautrel.reduce import eliminate_all_psi
from tautrel.treeclass import weighted_tree_class

from conftest import brute_force_automorphism_order, fixture_text, random_decorated_graph


def test_add_cancels_and_scale_zero():
    a = parse_bracket("<V1 V2 a>_0 <a* P^2(U1) U2>_1")
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert (a + zero(a.ambient)) == a
    assert (a + a.scale(-1)).is_zero()


def test_negative_exponent_terms_drop():
    b = GraphBuilder()
    b.add_vertex(1)
    b.add_leg(0, "U1", -1)
    b.add_leg(0, "V1")
    amb = make_ambient(1, ["U1", "V1"])
    assert Expression(amb, [(1, b.build())]).is_zero()


def test_dimension_vanishing_drop():
    assert parse_bracket("<P^1(x1) x2 x3>_0").is_zero()


def test_mixed_degree_rejected():
    t1 = parse_bracket("<x1 x2 x3 x4>_0")
    t2 = parse_bracket("<P^1(x1) x2 x3 x4>_0")
    with pytest.raises(ValueError):
        Expression(t1.ambient, t1.terms() + t2.terms())


def test_normalize_idempotent_and_algebra():
    base = weighted_tree_class(1, 2, (2, 1)).terms()
    rng = random.Random(3)
    amb = weighted_tree_class(1, 2, (2, 1)).ambient

    def rand_expr():
        return Expression(amb, [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), dg)
                                for _c, dg in base if rng.random() < 0.7])

    for _ in range(25):
        a, b, c = rand_expr(), rand_expr(), rand_expr()
        assert Expression(amb, a.terms()) == a          # idempotent
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert (a + b).scale(s) == a.scale(s) + b.scale(s)


def test_multiply_by_leg_psi_example():
    e = parse_bracket("<V1 V2 a>_0 <a* U1 U2>_0")
    out = e.multiply_by_leg_psi("U1", 1)
    assert out == parse_bracket("<V1 V2 a>_0 <a* P^1(U1) U2>_0")


def test_multiply_by_leg_psi_dimension_kill_and_identity():
    e = parse_bracket("<x1 x2 x3>_0")
    assert e.multiply_by_leg_psi("x1", 1).is_zero()
    assert e.multiply_by_leg_psi("x1", 0) == e


def test_multiply_commutes_between_legs():
    e = parse_bracket("<V1 V2 a>_0 <a* U1 U2>_1")
    ab = e.multiply_by_leg_psi("U1", 1).multiply_by_leg_psi("U2", 2)
    ba = e.multiply_by_leg_psi("U2", 2).multiply_by_leg_psi("U1", 1)
    assert ab == ba


def test_parse_aut_normalization():
    e = parse_bracket("<x1 a a*>_0")
    (coeff, dg), = e.terms()
    assert brute_force_automorphism_order(dg) == 2
    assert automorphism_order(dg) == 2
    assert coeff == Fraction(1, 2)
    assert render_bracket(e) == "<x1 g1 g1*>_0"


def test_roundtrip_three_vertex_chain():
    text = "<x1 x2 a>_0 <a* x3 b>_0 <b* x4 x5>_0"
    e = parse_bracket(text)
    assert parse_bracket(render_bracket(e)) == e
    assert render_bracket(parse_bracket(render_bracket(e))) == render_bracket(e)


@pytest.mark.parametrize("name", ["b21_raw", "b21_g0", "f", "h", "i", "h1", "i1",
                                  "h0_times12", "i0_times12", "h0i0_combined"])
def test_roundtrip_fixtures(name):
    e = parse_bracket(fixture_text(name))
    assert parse_bracket(render_bracket(e)) == e


def test_roundtrip_generated_graphs():
    from tautrel.reduce import (
        eliminate_all_psi,
        generate_wdvv_relations,
        relation_expression,
    )
    reduced = eliminate_all_psi(weighted_tree_class(1, 2, (1, 1, 1)))
    basis = generate_wdvv_relations(reduced.support(), reduced.ambient, rounds=1)
    seen = 0
    for rel in (relation_expression(basis.ambient, r) for r in basis.relations):
        assert parse_bracket(render_bracket(rel)) == rel
        seen += len(rel)
        if seen > 400:
            break


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_bracket("<x1 a* x2>_0")           # unmatched star
    with pytest.raises(ValueError):
        parse_bracket("<x1 x1 x2>_0")           # duplicate leg label
    with pytest.raises(ValueError):
        parse_bracket("<P^-1(x1) x2 x3>_0")     # malformed exponent
    with pytest.raises(ValueError):
        parse_bracket("<a a a*>_0")             # a name used three times
    with pytest.raises(ValueError):
        parse_bracket("0")                      # ambient cannot be inferred


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_bracket("1/0 * <a b c>_0")


def test_malformed_text_fails_before_symmetries_are_counted(monkeypatch):
    # n bare vertices would cost n! orders in the symmetry count
    def fail(dg):
        raise AssertionError("automorphism_order called on unvalidated text")
    monkeypatch.setattr("tautrel.expressions.automorphism_order", fail)
    with pytest.raises(ValueError, match="unstable ambient"):
        parse_bracket("<>_1 " * 12)
    with pytest.raises(ValueError, match="disconnected"):
        parse_bracket("<U1>_1 " + "<>_1 " * 11, ambient=make_ambient(1, ["U1"]))


def test_extra_leg_names_may_repeat():
    # rendering numbers extra legs per vertex, so W1 can occur on two vertices
    expr = parse_bracket("<U1 W1 a>_0 <a* U2 W1 V1>_0")
    assert expr == parse_bracket("<U1 W1 a>_0 <a* U2 W2 V1>_0")
    assert parse_bracket(render_bracket(expr)) == expr


def test_parse_zero_with_ambient():
    amb = make_ambient(0, ["x1", "x2", "x3"])
    assert parse_bracket("0", ambient=amb).is_zero()


def test_coefficient_grammar():
    e = parse_bracket("3/2 * <x1 x2 x3>_0 - <x1 x2 x3>_0")
    (coeff, _dg), = e.terms()
    assert coeff == Fraction(1, 2)


def test_relabel_legs():
    e = parse_bracket("<V1 V2 V3 P^1(U1)>_0")
    out = e.relabel_legs({"V3": "U2"})
    assert out == parse_bracket("<V1 V2 U2 P^1(U1)>_0")


def test_attach_vertex_matches_textual_product():
    e = parse_bracket("<r U1 a>_0 <a* U2 U3>_0")
    glued = attach_vertex(e, "r", 0, [("V1", 0), ("V2", 0)])
    assert glued == parse_bracket("<r U1 a>_0 <a* U2 U3>_0 <r* V1 V2>_0")


def test_json_roundtrip_bit_exact():
    e = weighted_tree_class(1, 2, (2, 1))
    blob = dumps(e)
    back = expression_from_json(json.loads(blob))
    assert back == e
    assert dumps(back) == blob


def graph_to_json(dg):
    """The JSON object of a graph, written from the graph itself: the
    reference for the graph objects ``expression_to_json`` writes from keys."""
    g = dg.graph
    legs = []
    for h in range(g.n_half_edges):
        lab = g.labels[h]
        if lab is None:
            continue
        kind = leg_kind(lab)
        entry = {"id": h, "kind": kind}
        if kind in ("regular", "frozen"):
            entry["index"] = int(lab[1:])
        elif kind == "named":
            entry["name"] = lab
        legs.append(entry)
    return {
        "vertices": [{"id": v, "genus": g.genera[v]} for v in range(g.n_vertices)],
        "half_edges": [{"id": h, "vertex": g.vertex_of[h], "exponent": dg.exponents[h]}
                       for h in range(g.n_half_edges)],
        "involution": [[h, p] for h, p in g.edges()],
        "legs": legs,
    }


def reference_expression_json(expr):
    return {
        "ambient": {"genus": expr.ambient.genus, "labels": list(expr.ambient.labels)},
        "terms": [
            {"coefficient": {"num": c.numerator, "den": c.denominator},
             "graph": graph_to_json(dg)}
            for c, dg in expr.terms()
        ],
    }


def assert_json_matches_reference(expr):
    got = json.dumps(expression_to_json(expr), sort_keys=True)
    assert got == json.dumps(reference_expression_json(expr), sort_keys=True)
    assert expression_from_json(json.loads(got)) == expr


@pytest.mark.parametrize("name", ["b21_g0", "b21_raw", "bfv12", "f", "h", "h0_times12",
                                  "h0i0_combined", "h1", "i", "i0_times12", "i1"])
def test_json_from_keys_matches_graph_json_on_fixtures(name):
    assert_json_matches_reference(parse_bracket(fixture_text(name)))


@pytest.mark.parametrize("g,m,d,psi_free", [(2, 1, (1, 1, 1, 1), False),
                                            (2, 0, (2, 2, 1, 1), False),
                                            (1, 2, (1, 1, 1, 1), True)])
def test_json_from_keys_matches_graph_json_on_pool_classes(g, m, d, psi_free):
    expr = weighted_tree_class(g, m, d)
    assert_json_matches_reference(eliminate_all_psi(expr) if psi_free else expr)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_json_from_keys_matches_graph_json_on_random_keys(rng):
    dg = random_decorated_graph(rng)
    expr = Expression(Ambient(genus(dg.graph), tuple(dg.graph.leg_labels())),
                      _raw={canonical_key(dg): Fraction(rng.randint(-5, 5) or 1,
                                                        rng.randint(1, 4))})
    got = json.dumps(expression_to_json(expr), sort_keys=True)
    assert got == json.dumps(reference_expression_json(expr), sort_keys=True)


def test_latex_render_smoke():
    e = parse_bracket("1/12 * <x1 a a*>_0")
    tex = render_latex(e)
    assert r"\frac{1}{12}" in tex and r"\gamma" in tex and r"\right>_{0}" in tex
    e2 = parse_bracket("<V1 V2 P^2(U1) P^1(U2)>_1")
    assert r"\Psi^{2}(U_{1})" in render_latex(e2)


def random_expression(rng):
    """A random sum of nonzero stable terms on one ambient and in one degree."""
    def signature(dg):
        return genus(dg.graph), dg.graph.leg_labels(), dg.degree()

    terms = []
    for _ in range(12):
        dg = random_decorated_graph(rng)
        g = dg.graph
        if validate(g) or not is_stable(dg) or 2 * genus(g) - 2 + len(g.leg_labels()) <= 0:
            continue
        if terms and signature(dg) != signature(terms[0][1]):
            continue
        if from_terms([(1, dg)]).is_zero():
            continue
        num = rng.choice([n for n in range(-6, 7) if n])
        terms.append((Fraction(num, rng.randint(1, 4)), dg))
    return from_terms(terms) if terms else None


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_render_parse_roundtrip_property(rng):
    expr = random_expression(rng)
    if expr is None:
        return
    assert parse_bracket(render_bracket(expr), ambient=expr.ambient) == expr


_GRAMMAR_CHARS = "<>_()^+-*/# \n0123PUVWabg"
_GRAMMAR_TOKENS = ["<", ">", "_", "(", ")", "^", "+", "-", "*", "/", "0", "1", "2",
                   "12", "P", "U1", "U2", "V1", "W", "W1", "a", "a*", "b", "b*", "g1"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet=_GRAMMAR_CHARS, max_size=80),
    st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=80).map(" ".join)))
def test_bracket_text_parses_or_raises_value_error(text):
    try:
        parse_bracket(text)
    except ValueError:
        pass
