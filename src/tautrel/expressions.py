"""Formal rational linear combinations of decorated dual graphs.

A term is an exact rational coefficient times a decorated graph; the
semantics of a term is the raw clutching pushforward of the product of psi
monomials on the vertex moduli, *without* the 1/|Aut| normalization.  The
angle-bracket notation carries that normalization, so parsing divides a
printed coefficient by the automorphism order and rendering multiplies it
back; everything in between works with unit multiplicities.

Terms with a negative exponent, or with a vertex whose total psi degree
exceeds the dimension of its moduli factor, are zero and are dropped during
normalization.  Every expression is homogeneous: edge count plus total psi
degree is the same in all terms.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    EXTRA,
    DecoratedGraph,
    GraphBuilder,
    automorphism_order,
    canonical_key,
    genus,
    graph_from_key,
    is_stable,
    label_sort_key,
    leg_kind,
    validate,
)


@dataclass(frozen=True)
class Ambient:
    """Target moduli space: a genus and the ordered pinned leg labels."""

    genus: int
    labels: tuple

    @property
    def dimension(self):
        return 3 * self.genus - 3 + len(self.labels)

    def is_stable(self):
        return 2 * self.genus - 2 + len(self.labels) > 0

    def frozen_labels(self):
        return [lab for lab in self.labels if leg_kind(lab) == "frozen"]


def make_ambient(genus_value, labels):
    if genus_value < 0:
        raise ValueError("negative genus %d" % genus_value)
    labels = tuple(sorted(labels, key=label_sort_key))
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate ambient labels")
    for lab in labels:
        if leg_kind(lab) == "extra":
            raise ValueError("extra legs cannot be ambient labels")
    amb = Ambient(genus_value, labels)
    if not amb.is_stable():
        raise ValueError("unstable ambient space (genus %d with %d legs)"
                         % (genus_value, len(labels)))
    return amb


def _vertex_overweight(dg):
    g = dg.graph
    degree = [0] * g.n_vertices
    load = [0] * g.n_vertices
    for h in range(g.n_half_edges):
        degree[g.vertex_of[h]] += 1
        load[g.vertex_of[h]] += dg.exponents[h]
    return any(load[v] > 3 * g.genera[v] - 3 + degree[v] for v in range(g.n_vertices))


def _base_overweight(base):
    """``_vertex_overweight`` over the base classes of a graph's records."""
    return any(sum(e for _label, e in legs) + sum(intexp) >
               3 * genus_v - 3 + len(legs) + len(intexp) + extras
               for genus_v, extras, legs, intexp in base)


def _psi_power(key):
    """Total psi power of the graph a key describes, read off its base classes."""
    return sum(sum(e for _label, e in legs) + sum(intexp)
               for _g, _x, legs, intexp in key[0])


class Expression:
    """Normalized formal sum. Terms are stored as canonical key -> coefficient."""

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient, terms=(), _raw=None):
        self.ambient = ambient
        if _raw is not None:
            self._terms = _raw
            return
        acc = {}
        degree_seen = None
        for coeff, dg in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if any(e < 0 for e in dg.exponents):
                continue
            if _vertex_overweight(dg):
                continue
            problems = validate(dg.graph)
            if problems:
                raise ValueError("invalid graph in term: %s" % "; ".join(problems))
            if not is_stable(dg):
                raise ValueError("unstable graph in term")
            if genus(dg.graph) != ambient.genus:
                raise ValueError("term genus %d does not match ambient genus %d"
                                 % (genus(dg.graph), ambient.genus))
            if tuple(dg.graph.leg_labels()) != ambient.labels:
                raise ValueError("term legs %r do not match ambient labels %r"
                                 % (dg.graph.leg_labels(), list(ambient.labels)))
            d = dg.degree()
            if degree_seen is None:
                degree_seen = d
            elif d != degree_seen:
                raise ValueError("mixed cohomological degrees %d and %d"
                                 % (degree_seen, d))
            key = canonical_key(dg)
            acc[key] = acc.get(key, Fraction(0)) + coeff
        self._terms = {k: c for k, c in acc.items() if c != 0}

    # -- basic views --------------------------------------------------------

    def items(self):
        """(key, coefficient) pairs in deterministic order."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0][1]), kv[0]))

    def terms(self):
        """(coefficient, canonical graph) pairs in deterministic order."""
        return [(c, graph_from_key(k)) for k, c in self.items()]

    def support(self):
        return frozenset(self._terms)

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def degree(self):
        """Common cohomological degree, or None for the zero expression."""
        for key in self._terms:
            return len(key[1]) + _psi_power(key)
        return None

    def psi_free(self):
        return all(_psi_power(k) == 0 for k in self._terms)

    def __eq__(self, other):
        return (isinstance(other, Expression) and self.ambient == other.ambient
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ambient, frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "<Expression 0 on M(%d,%d)>" % (self.ambient.genus, len(self.ambient.labels))
        return "<Expression %d terms, degree %d on M(%d,%d)>" % (
            len(self._terms), self.degree(), self.ambient.genus, len(self.ambient.labels))

    # -- algebra -------------------------------------------------------------

    def _check_same_ambient(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient spaces differ")

    def __add__(self, other):
        self._check_same_ambient(other)
        if not self.is_zero() and not other.is_zero():
            if self.degree() != other.degree():
                raise ValueError("mixed cohomological degrees in sum")
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, Fraction(0)) + c
        return Expression(self.ambient, _raw={k: c for k, c in acc.items() if c != 0})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Expression(self.ambient, _raw={})
        return Expression(self.ambient, _raw={k: c * v for k, v in self._terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def multiply_by_leg_psi(self, label, power):
        """Multiply by the psi class of an ambient leg, raised to ``power``."""
        if label not in self.ambient.labels:
            raise ValueError("leg %r is not an ambient label" % label)
        if power < 0:
            raise ValueError("negative psi power")
        if power == 0:
            return self
        out = []
        for coeff, dg in self.terms():
            h = dg.graph.leg_with_label(label)
            exps = list(dg.exponents)
            exps[h] += power
            out.append((coeff, DecoratedGraph(dg.graph, tuple(exps))))
        return Expression(self.ambient, out)

    def relabel_legs(self, mapping):
        """Rename pinned legs; the ambient is rebuilt from the new labels."""
        new_labels = [mapping.get(lab, lab) for lab in self.ambient.labels]
        ambient = make_ambient(self.ambient.genus, new_labels)
        out = []
        for coeff, dg in self.terms():
            g = dg.graph
            labels = tuple(mapping.get(lab, lab) if lab is not None else None
                           for lab in g.labels)
            out.append((coeff, DecoratedGraph(
                type(g)(g.genera, g.vertex_of, g.involution, labels), dg.exponents)))
        return Expression(ambient, out)


def attach_vertex(expr, leg_label, genus_v, legs):
    """Glue a fresh vertex onto the named leg of every term.

    The pinned leg ``leg_label`` becomes one half of a new edge whose other
    half sits on a new vertex of genus ``genus_v`` carrying ``legs`` (pairs
    of label and exponent).  This realizes formal multiplication by a single
    extra bracket factor.
    """
    out = []
    for coeff, dg in expr.terms():
        g = dg.graph
        if leg_label not in g.labels:
            raise ValueError("no leg labeled %r" % leg_label)
        glue = g.labels.index(leg_label)
        b = GraphBuilder.copy_of(dg, drop=(glue,))
        new_v = b.add_vertex(genus_v)
        b.add_edge(g.vertex_of[glue], new_v, dg.exponents[glue], 0)
        for label, exp in legs:
            b.add_leg(new_v, label, exp)
        out.append((coeff, b.build()))
    return from_terms(out)


def zero(ambient):
    return Expression(ambient, _raw={})


def _summed(ambient, terms):
    """The expression of (coefficient, canonical key) pairs, summed in
    ``Fraction``s; the keys are trusted, so nothing is validated."""
    acc = {}
    for c, key in terms:
        acc[key] = acc.get(key, 0) + c
    return Expression(ambient, _raw={k: Fraction(c) for k, c in acc.items() if c})


def from_terms(terms, ambient=None):
    """Build an expression, inferring the ambient from the first term."""
    terms = list(terms)
    if ambient is None:
        if not terms:
            raise ValueError("cannot infer the ambient of an empty expression")
        first = terms[0][1]
        ambient = make_ambient(genus(first.graph), first.graph.leg_labels())
    return Expression(ambient, terms)


# ---------------------------------------------------------------------------
# bracket grammar


_TOKEN = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*\*?)
  | (?P<sym>[<>_()^+\-*/])
""", re.VERBOSE)


def _tokens(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("bad character %r at position %d" % (text[pos], pos))
        pos = m.end()
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group()))
    return out


class _Parser:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, tok = self.next()
        if tok != value:
            raise ValueError("expected %r, found %r" % (value, tok))
        return tok

    def parse_expression(self):
        terms = []
        sign = 1
        kind, tok = self.peek()
        if tok in ("+", "-"):
            self.next()
            sign = -1 if tok == "-" else 1
        if self.peek() == ("number", "0") and self.i + 1 == len(self.toks):
            self.next()
            return []
        while True:
            terms.append(self.parse_term(sign))
            kind, tok = self.peek()
            if tok is None:
                return terms
            if tok not in ("+", "-"):
                raise ValueError("expected '+' or '-', found %r" % tok)
            self.next()
            sign = -1 if tok == "-" else 1

    def parse_term(self, sign):
        coeff = Fraction(sign)
        kind, tok = self.peek()
        if kind == "number":
            self.next()
            num = int(tok)
            den = 1
            if self.peek()[1] == "/":
                self.next()
                kind2, tok2 = self.next()
                if kind2 != "number":
                    raise ValueError("malformed rational coefficient")
                den = int(tok2)
                if den == 0:
                    raise ValueError("zero denominator in coefficient")
            coeff *= Fraction(num, den)
            self.expect("*")
        factors = [self.parse_factor()]
        while self.peek()[1] == "<":
            factors.append(self.parse_factor())
        return coeff, factors

    def parse_factor(self):
        self.expect("<")
        items = []
        while True:
            kind, tok = self.peek()
            if tok == ">":
                self.next()
                break
            if kind != "name":
                raise ValueError("expected a half-edge name, found %r" % tok)
            self.next()
            if tok == "P" and self.peek()[1] == "^":
                self.next()
                kind2, tok2 = self.next()
                if kind2 != "number":
                    raise ValueError("malformed exponent after P^")
                exp = int(tok2)
                self.expect("(")
                kind3, name = self.next()
                if kind3 != "name":
                    raise ValueError("expected a name inside P^k(...)")
                self.expect(")")
                items.append((name, exp))
            else:
                items.append((tok, 0))
        self.expect("_")
        kind, tok = self.next()
        if kind != "number":
            raise ValueError("malformed genus subscript")
        return int(tok), items


_EXTRA_NAME = re.compile(r"^W\d*$")


def _term_graph(factors):
    b = GraphBuilder()
    for genus_v, _items in factors:
        b.add_vertex(genus_v)
    occurrences = {}
    for v, (_genus_v, items) in enumerate(factors):
        for name, exp in items:
            if not _EXTRA_NAME.match(name):
                occurrences.setdefault(_pair_base(name), []).append((v, name, exp))
            elif exp != 0:
                raise ValueError("extra leg %r cannot carry an exponent" % name)
            else:
                # extra legs are anonymous, so one W-name may recur
                b.add_leg(v, EXTRA, 0)
    for base, occ in sorted(occurrences.items()):
        if len(occ) == 1:
            v, name, exp = occ[0]
            if name.endswith("*"):
                raise ValueError("unmatched half-edge star %r" % name)
            b.add_leg(v, name, exp)
        elif len(occ) == 2:
            (v1, n1, e1), (v2, n2, e2) = occ
            if {n1, n2} != {base, base + "*"}:
                raise ValueError("duplicate leg label %r" % n1)
            b.add_edge(v1, v2, e1, e2)
        else:
            raise ValueError("name %r occurs more than twice" % base)
    return b.build()


def _pair_base(name):
    return name[:-1] if name.endswith("*") else name


def parse_bracket(text, ambient=None):
    """Parse the angle-bracket grammar into an expression.

    Bracket coefficients are Aut-normalized; the stored internal coefficient
    of each parsed term is the printed prefix divided by the automorphism
    order of its graph.  The printed terms are validated and collected first,
    so malformed text fails before any symmetry is counted; equal keys have
    equal automorphism orders, so dividing the collected sums is the same.
    """
    parsed = _Parser(text).parse_expression()
    terms = [(coeff, _term_graph(factors)) for coeff, factors in parsed]
    if not terms:
        if ambient is None:
            raise ValueError("cannot infer the ambient of an empty expression")
        return zero(ambient)
    printed = from_terms(terms, ambient)
    return Expression(printed.ambient, _raw={
        key: coeff / automorphism_order(graph_from_key(key))
        for key, coeff in printed._terms.items()})


_DISPLAY_KIND = {"frozen": 0, "regular": 1, "named": 2}


def _display_layout(dg):
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


def _coefficient_str(coeff):
    if coeff.denominator == 1:
        return str(coeff.numerator)
    return "%d/%d" % (coeff.numerator, coeff.denominator)


def _render(expr, factor, item, prefix):
    """Shared body of the bracket and LaTeX renderers.

    ``factor(items, genus)`` prints one vertex from its joined items,
    ``item(name, exponent)`` prints one half-edge, and ``prefix(magnitude)``
    prints a coefficient magnitude other than 1 in front of its term.
    """
    if expr.is_zero():
        return "0"
    chunks = []
    for coeff, dg in expr.terms():
        shown = coeff * automorphism_order(dg)
        body = " ".join(
            factor(" ".join(item(name, exp) for name, exp in items), dg.graph.genera[v])
            for v, items in enumerate(_display_layout(dg)))
        mag = abs(shown)
        if mag != 1:
            body = prefix(mag) + body
        chunks.append(("-" if shown < 0 else "+", body))
    sign, first = chunks[0]
    out = ("-" if sign == "-" else "") + first
    for sign, body in chunks[1:]:
        out += " %s %s" % (sign, body)
    return out


def render_bracket(expr):
    """Render in the ASCII bracket grammar with Aut-normalized coefficients."""
    return _render(expr, lambda items, genus_v: "<%s>_%d" % (items, genus_v),
                   _item_str, lambda mag: _coefficient_str(mag) + " * ")


def _item_str(name, exp):
    return name if exp == 0 else "P^%d(%s)" % (exp, name)


_LATEX_NAME = re.compile(r"^([A-Za-z]+)(\d*)(\*?)$")


def _latex_name(name):
    m = _LATEX_NAME.match(name)
    if not m:
        return name
    stem, digits, star = m.groups()
    if stem == "g":
        stem = r"\gamma"
    out = stem
    if digits:
        out += "_{%s}" % digits
    if star:
        out += "^*"
    return out


def render_latex(expr):
    return _render(expr, lambda items, genus_v: r"\left< %s \right>_{%d}" % (items, genus_v),
                   _latex_item, _latex_prefix)


def _latex_prefix(mag):
    if mag.denominator == 1:
        return "%d \\, " % mag.numerator
    return "\\frac{%d}{%d} \\, " % (mag.numerator, mag.denominator)


def _latex_item(name, exp):
    tex = _latex_name(name)
    return tex if exp == 0 else r"\Psi^{%d}(%s)" % (exp, tex)


# ---------------------------------------------------------------------------
# JSON serialization


def _leg_json(h, label):
    kind = leg_kind(label)
    entry = {"id": h, "kind": kind}
    if kind in ("regular", "frozen"):
        entry["index"] = int(label[1:])
    elif kind == "named":
        entry["name"] = label
    return entry


def _key_json(key):
    """The JSON object of ``graph_from_key(key)``, written from the key in
    that graph's numbering: the legs vertex by vertex, then two halves per
    edge record, then the extra legs vertex by vertex."""
    vpart, recs = key
    halves = [(v, e, label) for v, (_g, _x, legs, _i) in enumerate(vpart)
              for label, e in legs]
    first = len(halves)
    for (v1, e1), (v2, e2) in recs:
        halves += [(v1, e1, None), (v2, e2, None)]
    halves += [(v, 0, EXTRA) for v, (_g, extras, _l, _i) in enumerate(vpart)
               for _ in range(extras)]
    return {
        "vertices": [{"id": v, "genus": part[0]} for v, part in enumerate(vpart)],
        "half_edges": [{"id": h, "vertex": v, "exponent": e}
                       for h, (v, e, _label) in enumerate(halves)],
        "involution": [[h, h + 1] for h in range(first, first + 2 * len(recs), 2)],
        "legs": [_leg_json(h, label) for h, (_v, _e, label) in enumerate(halves)
                 if label is not None],
    }


def graph_from_json(data):
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


def expression_to_json(expr):
    return {
        "ambient": {"genus": expr.ambient.genus, "labels": list(expr.ambient.labels)},
        "terms": [
            {"coefficient": {"num": c.numerator, "den": c.denominator},
             "graph": _key_json(key)}
            for key, c in expr.items()
        ],
    }


def expression_from_json(data):
    ambient = make_ambient(data["ambient"]["genus"], data["ambient"]["labels"])
    terms = [(Fraction(t["coefficient"]["num"], t["coefficient"]["den"]),
              graph_from_json(t["graph"]))
             for t in data["terms"]]
    return Expression(ambient, terms)


def dumps(expr, **kwargs):
    return json.dumps(expression_to_json(expr), sort_keys=True, **kwargs)
