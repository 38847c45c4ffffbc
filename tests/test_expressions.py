import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautrel import expressions
from tautrel.graphs import (
    EXTRA,
    GraphBuilder,
    automorphism_order,
    canonical_key,
    graph_from_key,
    label_sort_key,
    leg_kind,
)
from tautrel.expressions import (
    Ambient,
    Expression,
    attach_vertex,
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

from conftest import (
    brute_force_automorphism_order,
    closure,
    distribute,
    fixture_text,
    genus,
    graph_automorphism_order,
    multiply_by_leg_psi,
    random_decorated_graph,
    relabel_legs,
    relabeled,
    relation_expression,
    valid_term,
)


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
    out = multiply_by_leg_psi(e, "U1", 1)
    assert out == parse_bracket("<V1 V2 a>_0 <a* P^1(U1) U2>_0")


def test_multiply_by_leg_psi_dimension_kill_and_identity():
    e = parse_bracket("<x1 x2 x3>_0")
    assert multiply_by_leg_psi(e, "x1", 1).is_zero()
    assert multiply_by_leg_psi(e, "x1", 0) == e


def test_multiply_commutes_between_legs():
    e = parse_bracket("<V1 V2 a>_0 <a* U1 U2>_1")
    ab = multiply_by_leg_psi(multiply_by_leg_psi(e, "U1", 1), "U2", 2)
    ba = multiply_by_leg_psi(multiply_by_leg_psi(e, "U2", 2), "U1", 1)
    assert ab == ba


def test_parse_aut_normalization():
    e = parse_bracket("<x1 a a*>_0")
    (coeff, dg), = e.terms()
    assert brute_force_automorphism_order(dg) == 2
    assert automorphism_order(canonical_key(dg)) == 2
    assert coeff == Fraction(1, 2)
    assert render_bracket(e) == "<x1 g1 g1*>_0"


@pytest.mark.parametrize("text,order", [
    ("<U1 a b>_0 <a*>_1 <b*>_1", 2),                 # two equal tails
    ("<U1 a b c>_0 <a*>_1 <b*>_1 <c*>_1", 6),        # three equal tails
    ("<a b c>_1 <a* b* c*>_1", 12),                  # theta: vertices and edges
    ("<U1 a b>_0 <a* c c*>_0 <b* d d*>_0", 8),       # two tails with a loop each
])
def test_parse_divides_by_vertex_symmetries(text, order):
    (coeff, dg), = parse_bracket(text).terms()
    assert brute_force_automorphism_order(dg) == order
    assert coeff == Fraction(1, order)
    assert render_bracket(parse_bracket(text)) == render_bracket(parse_bracket(
        render_bracket(parse_bracket(text))))


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
    reduced = eliminate_all_psi(weighted_tree_class(1, 2, (1, 1, 1)))
    basis = closure(reduced.support(), 1)
    seen = 0
    for rel in (relation_expression(basis, i) for i in range(len(basis.relations))):
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
    # n bare vertices would cost n! orders in the symmetry count, and no
    # printed term is keyed before every one is checked
    def fail(base, edges):
        raise AssertionError("canonical search on unchecked text")
    monkeypatch.setattr(expressions, "_canonical_search", fail)
    with pytest.raises(ValueError, match="disconnected"):
        parse_bracket("<>_1 " * 12)
    with pytest.raises(ValueError, match="disconnected"):
        parse_bracket("<U1>_1 " + "<>_1 " * 11, ambient=make_ambient(1, ["U1"]))
    with pytest.raises(ValueError, match="unstable graph in term"):
        parse_bracket("<U1 U2 U3 U4>_0 + <U1 U2 U3 a>_0 <a* U4>_0")
    with pytest.raises(ValueError, match="mixed cohomological degrees 0 and 1"):
        parse_bracket("<U1 U2 U3 U4>_0 + 0 * <P^1(U1) U2 U3 U4>_0")


@pytest.mark.parametrize("text,message", [
    ("<U1 U2 U3>_0 + <P^5(U1) U2 U3 U4>_0 <U5 U6 U7>_0", "disconnected"),
    # a disconnected first term is reported before the ambient is inferred
    # from it
    ("<U1 U2 U3>_0 <x y z>_0", "^invalid graph in term: disconnected$"),
    ("<U1 U2 a>_0 <a* U3 U4>_0 <x>_0", "^invalid graph in term: disconnected$"),
    ("<P^1(U1) U2 U3 U4>_0 + <P^9(U1) U2 U3 U4>_1",
     "term genus 1 does not match ambient genus 0"),
    ("<U1 U2 U3 U4>_0 + 0 * <U1 U2>_0", "unstable graph in term"),
    ("0 * <U1 U2 U3 U4>_0 + <U1 U2 U3 U4 U5>_1", "term genus 1 does not match"),
])
def test_zero_and_overweight_printed_terms_are_checked(text, message):
    with pytest.raises(ValueError, match=message):
        parse_bracket(text)


def three_legged_vertex(genus_v, *others):
    """A vertex of genus ``genus_v`` with legs U1, U2, U3, and one more
    vertex of genus 0 with legs ``others`` when some are given, not joined
    to it."""
    b = GraphBuilder()
    b.add_vertex(genus_v)
    for label in ("U1", "U2", "U3"):
        b.add_leg(0, label)
    if others:
        b.add_vertex(0)
        for label in others:
            b.add_leg(1, label)
    return b.build()


def test_from_terms_reports_the_first_term_before_the_ambient():
    with pytest.raises(ValueError, match="^invalid graph in term: disconnected$"):
        from_terms([(1, three_legged_vertex(0, "x", "y", "z"))])
    with pytest.raises(ValueError, match="^invalid graph in term: negative genus$"):
        from_terms([(1, three_legged_vertex(-1))])


def test_zero_and_overweight_printed_terms_drop_after_their_check():
    kept = parse_bracket("<P^1(U1) U2 U3 a>_0 <a* U4 U5>_0")
    assert parse_bracket("<P^1(U1) U2 U3 a>_0 <a* U4 U5>_0 + <P^1(U1) U2 a>_0 <a* U3 U4 U5>_0"
                         " + 0 * <U1 U2 a>_0 <a* U3 b>_0 <b* U4 U5>_0") == kept
    assert parse_bracket("0 * <U1 U2 U3 U4 U5 U6>_0") == zero(make_ambient(0, [
        "U1", "U2", "U3", "U4", "U5", "U6"]))


def test_parse_searches_once_per_printed_term(monkeypatch):
    searches = []
    search = expressions._canonical_search

    def counting(base, edges):
        searches.append(len(base))
        return search(base, edges)

    monkeypatch.setattr(expressions, "_canonical_search", counting)
    automorphism_order.cache_clear()
    graph_from_key.cache_clear()
    expr = parse_bracket(fixture_text("b21_raw"))          # seven printed terms
    assert len(searches) == len(expr) == 7
    assert automorphism_order.cache_info().currsize == 0
    render_bracket(expr)
    render_latex(expr)
    assert graph_from_key.cache_info().currsize == 0
    searches.clear()
    twice = parse_bracket("<x1 a a*>_0 + 2 * <x1 b b*>_0")
    assert len(searches) == 2 and twice == parse_bracket("3 * <x1 a a*>_0")


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


@pytest.mark.parametrize("text,twin", [
    ("3 / 2 * < P ^ 2 ( x* ) x > _ 1", "3/2 * <P^2(x*) x>_1"),
    ("<x1 x2 # a comment\n x3> # another\n _0 # the end", "<x1 x2 x3>_0"),
    ("<P  P*>_0", "<P P*>_0"),
    ("<P ^1(P*)P>_0", "<P^1(P*) P>_0"),
    ("< x_0 x_0* >_ 1", "<x_0 x_0*>_1"),
    ("<>_1<>_1", "<>_1 <>_1"),
    ("+<x>_0", "<x>_0"),
    ("-<x>_0-2*<x>_0", "- <x>_0 - 2 * <x>_0"),
    ("- 0", "0"),
    ("+0 # nothing\n", "0"),
    ("0*<x>_0", "0 * <x>_0"),
])
def test_grammar_corner_cases_read_as_their_plain_twins(text, twin):
    assert expressions._printed_terms(text) == expressions._printed_terms(twin)


def test_grammar_reads_names_exponents_and_genera():
    assert expressions._printed_terms("-3/2 * <P P^2(x*) x_0>_1 <>_2 + <P*>_0") == [
        (Fraction(-3, 2), [(1, [("P", 0), ("x*", 2), ("x_0", 0)]), (2, [])]),
        (Fraction(1), [(0, [("P*", 0)])])]
    assert parse_bracket("<P x1 x2>_0 <P* x3 x4>_0") == parse_bracket(
        "<x1 x2 x_0>_0 <x_0* x3 x4>_0")


@pytest.mark.parametrize("text,message", [
    ("<x1 x2>_0 3 * <x1>_0", "expected '+' or '-' at position 9"),
    ("3 <x>_0", "expected '*' at position 1"),
    ("3/ * <x>_0", "expected '*' at position 1"),
    ("3/0 <x>_0", "zero denominator in coefficient"),
    ("* <x>_0", "expected '<' at position 0"),
    ("", "expected '<' at position 0"),
    ("<x>_0 + # no term\n", "expected '<' at position 7"),
    ("<x1 x2", "expected a half-edge name or '>_' and a genus at position 6"),
    ("<x1 x2> 0", "expected a half-edge name or '>_' and a genus at position 6"),
    ("<x1>_ x", "expected a half-edge name or '>_' and a genus at position 3"),
    ("<P^(x1)>_0", "expected a half-edge name or '>_' and a genus at position 2"),
    ("<P^1 x1>_0", "expected a half-edge name or '>_' and a genus at position 2"),
    ("<x1 x2>_0 # fine\n @", "bad character '@' at position 18"),
])
def test_grammar_errors_name_a_position(text, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_bracket(text)


@pytest.mark.parametrize("text,position", [
    ("<x1 x2 x3>_\u0660", 11),          # an Arabic-Indic zero as the genus
    ("\u0663 * <x1 x2 x3>_0", 0),       # an Arabic-Indic three as a coefficient
    ("<x1\u00a0x2 x3>_0", 3),           # a no-break space between names
    ("<x1 x2 x3>_0\u00a0", 12),         # a trailing no-break space
])
def test_grammar_is_ascii_only(text, position):
    message = "bad character %r at position %d" % (text[position], position)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_bracket(text)


def test_relabel_legs():
    e = parse_bracket("<V1 V2 V3 P^1(U1)>_0")
    out = relabel_legs(e, {"V3": "U2"})
    assert out == parse_bracket("<V1 V2 U2 P^1(U1)>_0")


def test_attach_vertex_matches_textual_product():
    e = parse_bracket("<r U1 a>_0 <a* U2 U3>_0")
    glued = attach_vertex(e, "r", 0, [("V1", 0), ("V2", 0)])
    assert glued == parse_bracket("<r U1 a>_0 <a* U2 U3>_0 <r* V1 V2>_0")


@pytest.mark.parametrize("genus_v,legs,product", [
    (0, [("V1", 0), ("V2", 0)], "<r* V1 V2>_0"),
    (1, [("W", 0), ("V1", 1)], "<r* W P^1(V1)>_1"),
    (1, [], "<r*>_1"),
], ids=["genus0", "genus1-extra-leg", "genus1-bare"])
def test_attach_vertex_glues_the_zero_class(genus_v, legs, product):
    """The ambient of the glued class comes from the input's, so the zero
    class glues to the zero class on the ambient of the textual product."""
    e = parse_bracket("<r U1 a>_0 <a* U2 U3>_0")
    glued = parse_bracket("<r U1 a>_0 <a* U2 U3>_0 " + product)
    assert attach_vertex(e, "r", genus_v, legs) == glued
    assert attach_vertex(zero(e.ambient), "r", genus_v, legs) == zero(glued.ambient)
    with pytest.raises(ValueError, match="no leg labeled 'x'"):
        attach_vertex(zero(e.ambient), "x", genus_v, legs)


def test_json_roundtrip_bit_exact():
    e = weighted_tree_class(1, 2, (2, 1))
    blob = json.dumps(expression_to_json(e), sort_keys=True)
    back = expression_from_json(json.loads(blob))
    assert back == e
    assert json.dumps(expression_to_json(back), sort_keys=True) == blob


def three_leg_point(labels):
    b = GraphBuilder()
    v = b.add_vertex(0)
    for lab in labels:
        b.add_leg(v, lab)
    return b.build()


def test_leg_kinds_follow_the_grammar():
    kinds = {lab: leg_kind(lab) for lab in
             ["U0", "U1", "U12", "V3", "U01", "V00", "U²", "U٣", "U", "Ua",
              "W", "W1", "W01", "W*", "W1*", "Wa", "x"]}
    assert kinds == {"U0": "regular", "U1": "regular", "U12": "regular", "V3": "frozen",
                     "U01": "named", "V00": "named", "U²": "named", "U٣": "named",
                     "U": "named", "Ua": "named", "W": "extra", "W1": "extra",
                     "W01": "extra", "W*": "named", "W1*": "named", "Wa": "named",
                     "x": "named"}


def test_leading_zero_label_is_named_and_round_trips_through_json():
    e = parse_bracket("<U01 U2 U3>_0")
    assert e.ambient.labels == ("U2", "U3", "U01")
    blob = expression_to_json(e)
    legs = blob["terms"][0]["graph"]["legs"]
    assert [leg.get("name") for leg in legs if leg["kind"] == "named"] == ["U01"]
    assert expression_from_json(json.loads(json.dumps(blob))) == e
    assert parse_bracket(render_bracket(e)) == e


def test_non_ascii_digit_label_is_named():
    e = from_terms([(Fraction(1), three_leg_point(["U1", "U2", "U²"]))])
    assert e.ambient.labels == ("U1", "U2", "U²")
    assert expression_from_json(json.loads(json.dumps(expression_to_json(e)))) == e


def test_pinned_extra_name_is_rejected_as_an_ambient_label():
    with pytest.raises(ValueError, match="extra legs cannot be ambient labels"):
        from_terms([(Fraction(1), three_leg_point(["U1", "U2", "W1"]))])
    with pytest.raises(ValueError, match="extra legs cannot be ambient labels"):
        make_ambient(0, ["U1", "U2", "W1"])


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
    blob = expression_to_json(expr)
    assert type(blob["terms"]) is list     # the library form is plain JSON values
    got = json.dumps(blob, sort_keys=True)
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
        if not valid_term(dg):
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
        expr = parse_bracket(text)
    except ValueError:
        return
    assert parse_bracket(render_bracket(expr), ambient=expr.ambient) == expr


# ---------------------------------------------------------------------------
# the graph-level renderer, JSON reader and automorphism order, as references
# for the ones that work on key records


_DISPLAY_KIND = {"frozen": 0, "regular": 1, "named": 2}


def reference_display_layout(dg):
    """Deterministic per-vertex item lists for rendering.

    Internal edges get fresh names g1, g2, ... (skipping any that collide
    with a pinned label); extras are shown as W1, W2, ... per vertex.
    """
    g = dg.graph
    used = {lab for lab in g.labels if lab not in (None, EXTRA)}
    fresh = (name for i in itertools.count(1)
             if (name := "g%d" % i) not in used and name + "*" not in used)
    edge_names = {}
    for h, p in g.edges():
        # unstarred half on the lower vertex id; for loops, higher exponent first
        v1, v2 = g.vertex_of[h], g.vertex_of[p]
        if (v1, -dg.exponents[h]) <= (v2, -dg.exponents[p]):
            first, second = h, p
        else:
            first, second = p, h
        name = next(fresh)
        edge_names[first] = name
        edge_names[second] = name + "*"
    vertices = []
    for v in range(g.n_vertices):
        items = []
        n_extras = 0
        for h in g.halves_at(v):
            lab = g.labels[h]
            if lab == EXTRA:
                n_extras += 1
            elif lab is not None:
                key = (0, _DISPLAY_KIND[leg_kind(lab)], label_sort_key(lab))
                items.append((key, lab, dg.exponents[h]))
            else:
                items.append(((1, 0, (edge_names[h],)), edge_names[h], dg.exponents[h]))
        for j in range(n_extras):
            items.append(((0, 3, ("W", j)), "W%d" % (j + 1), 0))
        items.sort(key=lambda t: t[0])
        vertices.append([(name, exp) for _k, name, exp in items])
    return vertices


def reference_render(expr, factor, item, prefix):
    """The renderer that laid out the graph of every term."""
    if expr.is_zero():
        return "0"
    chunks = []
    for coeff, dg in expr.terms():
        shown = coeff * graph_automorphism_order(dg)
        body = " ".join(
            factor(" ".join(item(name, exp) for name, exp in items), dg.graph.genera[v])
            for v, items in enumerate(reference_display_layout(dg)))
        mag = abs(shown)
        if mag != 1:
            body = prefix(mag) + body
        chunks.append(("-" if shown < 0 else "+", body))
    sign, first = chunks[0]
    out = ("-" if sign == "-" else "") + first
    for sign, body in chunks[1:]:
        out += " %s %s" % (sign, body)
    return out


def reference_render_bracket(expr):
    return reference_render(expr, lambda items, genus_v: "<%s>_%d" % (items, genus_v),
                            expressions._item_str,
                            lambda mag: expressions._coefficient_str(mag) + " * ")


def reference_render_latex(expr):
    return reference_render(
        expr, lambda items, genus_v: r"\left< %s \right>_{%d}" % (items, genus_v),
        expressions._latex_item, expressions._latex_prefix)


def reference_graph_from_json(data):
    b = GraphBuilder()
    ids = {}
    for entry in data["vertices"]:
        ids[entry["id"]] = b.add_vertex(entry["genus"])
    labels = {}
    for entry in data["legs"]:
        if entry["kind"] == "regular":
            labels[entry["id"]] = "U%d" % entry["index"]
        elif entry["kind"] == "frozen":
            labels[entry["id"]] = "V%d" % entry["index"]
        elif entry["kind"] == "extra":
            labels[entry["id"]] = EXTRA
        else:
            labels[entry["id"]] = entry["name"]
    paired = {h for pair in data["involution"] for h in pair}
    remap = {}
    for entry in sorted(data["half_edges"], key=lambda e: e["id"]):
        h = entry["id"]
        if h in paired:
            remap[h] = b.add_half(ids[entry["vertex"]], entry["exponent"])
        else:
            remap[h] = b.add_leg(ids[entry["vertex"]], labels[h], entry["exponent"])
    for h, p in data["involution"]:
        b.pair(remap[h], remap[p])
    return b.build()


def assert_render_matches_reference(expr):
    for key in expr.support():
        assert automorphism_order(key) == graph_automorphism_order(graph_from_key(key))
    assert render_bracket(expr) == reference_render_bracket(expr)
    assert render_latex(expr) == reference_render_latex(expr)


def _pinned_g_names():
    """Legs named g1 and g2* beside two edges: the fresh names skip g1, g2."""
    b = GraphBuilder()
    b.add_vertex(0)
    b.add_vertex(1)
    b.add_leg(0, "g1")
    b.add_leg(0, "U1")
    b.add_leg(1, "g2*", 1)
    b.add_edge(0, 1)
    b.add_edge(1, 1, 1, 0)
    return from_terms([(Fraction(3, 2), b.build())])


RENDER_CASES = {
    "pinned g-names": _pinned_g_names,
    "loop with unequal exponents": lambda: parse_bracket("<U1 U2 P^1(a) a*>_0"),
    "ten edges at a vertex": lambda: parse_bracket(
        "<U1 %s>_0 %s" % (" ".join("a%d" % i for i in range(10)),
                          " ".join("<a%d* P^1(x%d)>_1" % (i, i) if i < 3 else "<a%d*>_1" % i
                                   for i in range(10)))),
    "extras on two vertices": lambda: parse_bracket(
        "2/5 * <U1 W W a>_0 <a* U2 U3 W>_0 - <U1 W a>_0 <a* U2 U3 W W>_0"),
}


@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_render_from_keys_matches_graph_render_on_cases(case):
    expr = RENDER_CASES[case]()
    assert not expr.is_zero()
    assert_render_matches_reference(expr)


def test_render_cases_cover_their_features():
    names = render_bracket(RENDER_CASES["pinned g-names"]())
    assert "g1 " in names and "g2*" in names and "g3" in names and "g4*" in names
    assert render_bracket(RENDER_CASES["loop with unequal exponents"]()) == \
        "<U1 U2 P^1(g1) g1*>_0"
    assert "g10 g2 g3" in render_bracket(RENDER_CASES["ten edges at a vertex"]())


def _leg_outside_the_grammar():
    b = GraphBuilder()
    b.add_vertex(0)
    for label in ("U1", "U2", "U²"):
        b.add_leg(0, label)
    return from_terms([(1, b.build())])


@pytest.mark.parametrize("build, message", [
    (_leg_outside_the_grammar, "bad character '²' at position 8"),
    (_pinned_g_names, "unmatched half-edge star 'g2\\*'"),
])
def test_bracket_text_round_trips_only_labels_the_grammar_reads(build, message):
    """A leg label built in code that no bracket name spells renders as
    given, so the text does not parse back; JSON round-trips it."""
    expr = build()
    with pytest.raises(ValueError, match=message):
        parse_bracket(render_bracket(expr))
    assert expression_from_json(expression_to_json(expr)) == expr


@pytest.mark.parametrize("name", ["b21_raw", "f", "h", "h0i0_combined"])
def test_render_from_keys_matches_graph_render_on_fixtures(name):
    assert_render_matches_reference(parse_bracket(fixture_text(name)))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_render_from_keys_matches_graph_render_on_random_graphs(rng):
    dg = random_decorated_graph(rng)
    key = canonical_key(dg)
    assert automorphism_order(key) == graph_automorphism_order(dg)
    expr = Expression(Ambient(genus(dg.graph), tuple(dg.graph.leg_labels())),
                      _raw={key: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))})
    assert_render_matches_reference(expr)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_json_reader_matches_graph_reader_on_random_graphs(rng):
    expr = random_expression(rng)
    if expr is None:
        return
    data = {"ambient": {"genus": expr.ambient.genus, "labels": list(expr.ambient.labels)},
            "terms": [{"coefficient": {"num": c.numerator, "den": c.denominator},
                       "graph": graph_to_json(relabeled(dg, rng))}
                      for c, dg in expr.terms()]}
    assert expression_from_json(data) == expr == Expression(expr.ambient, [
        (Fraction(t["coefficient"]["num"], t["coefficient"]["den"]),
         reference_graph_from_json(t["graph"])) for t in data["terms"]])


def test_program_paths_build_no_graph(monkeypatch):
    from tautrel.reduce import (
        integrate,
        pair_with_psi_monomials,
        psi_reduce_genus0,
        psi_reduce_genus1,
    )

    def no_build(self):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(GraphBuilder, "build", no_build)
    caches = (canonical_key, graph_from_key)
    before = [f.cache_info() for f in caches]
    raw = weighted_tree_class(1, 2, (2, 1))
    reduced = eliminate_all_psi(raw)
    for expr in (raw, reduced):
        assert parse_bracket(render_bracket(expr)) == expr
        assert render_latex(expr).count(r"\left<") == render_bracket(expr).count("<")
        assert expression_from_json(expression_to_json(expr)) == expr
    assert len(pair_with_psi_monomials(raw)) == 4
    assert integrate(multiply_by_leg_psi(raw, "U1", 1)) == 0
    assert relabel_legs(raw, {"V2": "V3"}).ambient.labels == ("U1", "U2", "V1", "V3")
    assert not attach_vertex(raw, "V2", 0, [("V3", 0), ("V4", 0)]).is_zero()
    assert len(distribute(parse_bracket("<U1 U2 a>_0 <a* U3 U4>_0"), "U5")) == 2
    # legs are numbered first, in label order: x1 is half-edge 0
    assert len(psi_reduce_genus0(parse_bracket("<P^1(x1) x2 x3 x4>_0"), 0, 0, (2, 3))) == 1
    assert len(psi_reduce_genus1(parse_bracket("<P^1(U1) U2>_1"), 0, 0)) == 2
    assert [f.cache_info() for f in caches] == before


def test_negative_vertex_genus_is_rejected():
    # genus -1 and 0 on a four-edge banana: 1 + 4 - 2 - 1 = 2 overall
    b = GraphBuilder()
    b.add_vertex(-1)
    b.add_vertex(0)
    for _ in range(4):
        b.add_edge(0, 1)
    b.add_leg(0, "U1")
    with pytest.raises(ValueError, match="invalid graph in term: negative genus"):
        Expression(make_ambient(2, ["U1"]), [(1, b.build())])


def test_extra_leg_psi_is_rejected_with_one_message():
    with pytest.raises(ValueError, match="^extra legs cannot carry psi exponents$"):
        parse_bracket("<U1 U2 a>_0 <a* U3 P^1(W)>_0")
    b = GraphBuilder()
    v = b.add_vertex(0)
    for lab in ("U1", "U2", "U3"):
        b.add_leg(v, lab)
    b.add_leg(v, EXTRA, 1)
    with pytest.raises(ValueError, match="^extra legs cannot carry psi exponents$"):
        from_terms([(Fraction(1), b.build())])


def replace_first_leg(**fields):
    """An edit that gives a term's first leg ``fields`` beside its id."""
    def edit(term):
        legs = term["graph"]["legs"]
        legs[0] = {"id": legs[0]["id"], **fields}
    return edit


@pytest.mark.parametrize("edit", [
    lambda term: term["graph"]["involution"][0].__setitem__(1, 99),
    lambda term: term["graph"]["legs"][0].pop("kind"),
    lambda term: term["coefficient"].__setitem__("den", 0),
    lambda term: term["graph"]["involution"][1].__setitem__(
        0, term["graph"]["involution"][0][0]),
    lambda term: term["coefficient"].__setitem__("den", "3"),
    replace_first_leg(kind="bogus", name="x"),
    replace_first_leg(kind="regular", index=-1),
    replace_first_leg(kind="named", name="U1"),
    replace_first_leg(kind="regular", index=1.5),
], ids=["unknown-half-edge", "leg-without-kind", "zero-denominator",
        "half-edge-paired-twice", "string-denominator", "unknown-kind",
        "negative-index", "regular-label-as-named", "fractional-index"])
def test_malformed_expression_json_raises_value_error(edit):
    blob = expression_to_json(parse_bracket("<U1 U2 a>_0 <a* U3 b>_0 <b* U4 U5>_0"))
    edit(blob["terms"][0])
    with pytest.raises(ValueError, match="^malformed expression JSON: "):
        expression_from_json(blob)
