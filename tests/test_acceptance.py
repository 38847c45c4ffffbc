"""Acceptance suite: every criterion is an exact identity, no tolerances.

Each test prints one PASS line when its criterion holds; a pytest failure is
the FAIL signal.  Certified equality means the difference either normalizes
to zero or carries an exact relation-span certificate.
"""

import itertools
import json
import random
from fractions import Fraction

from tautrel.cli import main
from tautrel.expressions import (
    Expression,
    attach_vertex,
    expression_from_json,
    parse_bracket,
)
from tautrel.graphs import canonical_key, half_edges, key_records
from tautrel.pushforward import d_set, forget_frozen_legs
from tautrel.reduce import (
    choose_partner_pair,
    eliminate_all_psi,
    integrate,
    pair_with_psi_monomials,
    psi_reduce_genus0,
    psi_reduce_genus1,
    span_zero_test,
    vertex_integral,
)
from tautrel.treeclass import enumerate_shapes, weighted_tree_class

from conftest import (
    brute_force_shape_keys,
    fixture_text,
    genus0_integral_by_string,
    halves_at,
    random_decorated_graph,
    relabeled,
)
from math import factorial


def certified_zero(expr, budget=3):
    reduced = eliminate_all_psi(expr)
    if reduced.is_zero():
        return True
    return span_zero_test(reduced, budget=budget).zero


def prove_vanishing(g, m, d, budget=3):
    expr = weighted_tree_class(g, m, d)
    if expr.is_zero():
        return True, "normalizes-to-zero"
    if expr.degree() == expr.ambient.dimension:
        return integrate(expr) == 0, "top-degree-integral"
    reduced = eliminate_all_psi(expr)
    if reduced.is_zero():
        return True, "psi-elimination"
    cert = span_zero_test(reduced, budget=budget)
    return cert.zero, "wdvv-span"


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def replay_certificate(cert_json, target_json):
    """Independent replay: the stated combination must rebuild the target."""
    target = expression_from_json(target_json)
    total = target.scale(0)
    for entry in cert_json["combination"]:
        coeff = Fraction(entry["coefficient"]["num"], entry["coefficient"]["den"])
        total = total + expression_from_json(entry["relation"]).scale(coeff)
    return total == target


def test_criterion_1_vanishing_weights_2_1(capsys):
    code, report = run_cli_json(capsys, "verify", "--g", "1", "--m", "2",
                                "--d", "2,1")
    assert code == 0 and report["outcome"]["proved"] is True
    cert = report["outcome"]["certificate"]
    assert replay_certificate(cert, cert["target"])

    raw = weighted_tree_class(1, 2, (2, 1))
    golden = parse_bracket(fixture_text("b21_raw"))
    assert raw == golden
    coeffs = sorted(c for c, _g in raw.terms())
    assert coeffs == [-3, -1, -1, -1, 1, 1, 3]

    scaled = raw.scale(12)
    g0 = parse_bracket(fixture_text("b21_g0"))
    assert len(g0) == 5
    assert eliminate_all_psi(scaled - g0).is_zero()

    residue = parse_bracket(fixture_text("bfv12"))
    assert certified_zero(scaled - residue)

    f_cert = span_zero_test(parse_bracket(fixture_text("f")), budget=3)
    assert f_cert.zero
    print("ACCEPTANCE 1 PASS: weights (2,1) class vanishes with replayable certificate")


def test_criterion_2_vanishing_weights_1_1_1(capsys):
    code, report = run_cli_json(capsys, "verify", "--g", "1", "--m", "2",
                                "--d", "1,1,1")
    assert code == 0 and report["outcome"]["proved"] is True

    raw = weighted_tree_class(1, 2, (1, 1, 1))
    grouped = parse_bracket(fixture_text("h")) + attach_vertex(
        parse_bracket(fixture_text("i")), "r", 0, [("V1", 0), ("V2", 0)])
    assert certified_zero(raw - grouped)

    assert span_zero_test(parse_bracket(fixture_text("h1")), budget=3).zero
    assert span_zero_test(parse_bracket(fixture_text("i1")), budget=3).zero

    half = Fraction(1, 2)
    combo = parse_bracket(fixture_text("h0_times12")).scale(half) + attach_vertex(
        parse_bracket(fixture_text("i0_times12")), "r", 0,
        [("V1", 0), ("V2", 0)]).scale(half)
    assert certified_zero(combo)
    print("ACCEPTANCE 2 PASS: weights (1,1,1) class vanishes; all four golden checks hold")


def test_criterion_3_genus_zero_family():
    checked = 0
    for m in (2, 3):
        for total in (m - 1, m):
            for n in (1, 2, 3):
                for d in itertools.product(range(total + 1), repeat=n):
                    if sum(d) != total:
                        continue
                    proved, method = prove_vanishing(0, m, d)
                    assert proved, (m, d, method)
                    checked += 1
    assert checked == 41
    print("ACCEPTANCE 3 PASS: all %d genus-0 classes vanish" % checked)


def test_criterion_4_top_degree_and_pairings():
    b3 = weighted_tree_class(1, 2, (3,))
    assert b3.degree() == b3.ambient.dimension
    assert integrate(b3) == 0
    for d in ((2, 1), (1, 1, 1)):
        expr = weighted_tree_class(1, 2, d)
        pairings = pair_with_psi_monomials(expr)
        assert pairings and all(v == 0 for _b, v in pairings)
    print("ACCEPTANCE 4 PASS: top-degree integral and all psi pairings vanish")


def test_criterion_5_pushforward_identity():
    for g, m, l, d in [(0, 2, 1, (1, 1)), (1, 2, 1, (2, 1)), (0, 2, 2, (2, 1))]:
        lhs = forget_frozen_legs(weighted_tree_class(g, m + l, d), l)
        rhs = lhs.scale(0)
        for k in sorted(d_set(d, l)):
            coeff = Fraction(factorial(l))
            for di, ki in zip(d, k):
                coeff /= factorial(di - ki)
            rhs = rhs + weighted_tree_class(g, m, k).scale(coeff)
        assert (lhs - rhs).is_zero(), (g, m, l, d)
    # iterated single forgetting agrees with the joint two-point formula
    big = weighted_tree_class(0, 4, (2, 1))
    assert forget_frozen_legs(big, 2) == \
        forget_frozen_legs(forget_frozen_legs(big, 1), 1)
    print("ACCEPTANCE 5 PASS: forgetful pushforward matches the weighted sum exactly")


PSI_IDENTITIES = [
    # five-point double psi
    ("<P^1(x1) P^1(x2) x3 x4 x5>_0",
     "2 * <x1 x2 a*>_0 <a x3 b*>_0 <b x4 x5>_0"),
    # four-point genus 1, exponents (2,1)
    ("<P^2(x1) P^1(x2) x3 x4>_1",
     "<x1 x3 a*>_0 <a x4 b*>_0 <b P^1(x2)>_1"
     " + 2 * <x1 x2 a*>_0 <a x3 b*>_0 <b x4 c*>_0 <c>_1"
     " + 1/12 * <P^1(x1) P^1(x2) x3 x4 d* d>_0"),
    # three-point genus 1, exponent 2
    ("<P^2(x1) x2 x3>_1",
     "<x1 x2 a*>_0 <a x3 b*>_0 <b>_1 + 1/12 * <P^1(x1) x2 x3 d* d>_0"),
    # three-point genus 1, exponents (1,1)
    ("<P^1(x1) P^1(x2) x3>_1",
     "<x1 x3 a*>_0 <a P^1(x2)>_1 + <x1 x2 a*>_0 <a x3 b*>_0 <b>_1"
     " + 1/12 * <x1 P^1(x2) x3 d* d>_0"),
    # six-point double psi against the glued loop
    ("<P^1(U1) P^1(U2) V1 V2 c* c>_0",
     "2 * <U1 c* a*>_0 <a P^1(U2) c V1 V2>_0"
     " + 2 * <U1 U2 a*>_0 <a c* b*>_0 <b c V1 V2>_0"
     " + <U1 c* c a*>_0 <a U2 b*>_0 <b V1 V2>_0"
     " + <U1 P^1(U2) c* c a*>_0 <a V1 V2>_0"),
]


def test_criterion_6_psi_reduction_identities():
    for lhs_text, rhs_text in PSI_IDENTITIES:
        lhs = parse_bracket(lhs_text)
        rhs = parse_bracket(rhs_text)
        assert certified_zero(lhs - rhs), lhs_text
        # pairings agree directly as well
        assert pair_with_psi_monomials(lhs) == pair_with_psi_monomials(rhs)
    # single reduction steps preserve pairings
    for text in ("<P^2(x1) x2 x3 x4 x5>_0", "<P^2(x1) x2 x3>_1"):
        e = parse_bracket(text)
        (_c, dg), = e.terms()
        target = next(h for h in range(dg.graph.n_half_edges)
                      if dg.exponents[h] > 0)
        v = dg.graph.vertex_of[target]
        if dg.graph.genera[v] == 0:
            (key,) = e.support()
            halves = halves_at(dg.graph, v)
            pair = choose_partner_pair(half_edges(*key_records(key), v),
                                       halves.index(target))
            out = psi_reduce_genus0(e, v, target, [halves[n] for n in pair])
        else:
            out = psi_reduce_genus1(e, v, target)
        assert pair_with_psi_monomials(e) == pair_with_psi_monomials(out)
    print("ACCEPTANCE 6 PASS: all five psi-reduction identities certify")


def test_criterion_7_oracle_anchors():
    checked = 0
    for n in range(3, 8):
        for exps in itertools.product(range(n - 2), repeat=n):
            if sum(exps) != n - 3:
                continue
            assert vertex_integral(0, exps) == genus0_integral_by_string(exps)
            checked += 1
    assert checked == 1 + 4 + 15 + 56 + 210
    assert integrate(parse_bracket("<P^1(x1)>_1")) == Fraction(1, 24)
    print("ACCEPTANCE 7 PASS: %d genus-0 anchors and the 1/24 anchor hold" % checked)


def test_criterion_8_property_suites(capsys):
    rng = random.Random(99)
    for _ in range(1000):
        dg = random_decorated_graph(rng)
        assert canonical_key(dg) == canonical_key(relabeled(dg, rng))

    expr = weighted_tree_class(1, 2, (2, 1))
    assert Expression(expr.ambient, expr.terms()) == expr      # idempotence
    half = expr.scale(Fraction(1, 2))
    assert half + half == expr
    assert (expr - expr).is_zero()

    before = expr.degree()
    extended = weighted_tree_class(1, 3, (2, 1))
    assert forget_frozen_legs(extended, 1).degree() == extended.degree() - 1
    assert before == sum((2, 1))

    for g, n, m in [(0, 1, 2), (1, 1, 2), (1, 2, 2)]:
        ours = {s.key() for s in enumerate_shapes(g, n, m)
                if len(s.genera) <= 4}
        brute = {k for k in brute_force_shape_keys(g, n, m)
                 if len(k[0]) <= 4}
        assert ours == brute

    code, report = run_cli_json(capsys, "verify", "--g", "1", "--m", "2",
                                "--d", "2,1")
    cert = report["outcome"]["certificate"]
    assert replay_certificate(cert, cert["target"])
    print("ACCEPTANCE 8 PASS: property suites and certificate replay hold")
