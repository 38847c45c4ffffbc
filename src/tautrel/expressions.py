"""Formal rational linear combinations of decorated dual graphs.

A term is an exact rational coefficient times a decorated graph; the
semantics of a term is the raw clutching pushforward of the product of psi
monomials on the vertex moduli, *without* the 1/|Aut| normalization.  The
angle-bracket notation carries that normalization, so parsing divides a
printed coefficient by the automorphism order and rendering multiplies it
back; everything in between works with unit multiplicities.

An expression maps the canonical key of each term to its coefficient, and
every operation here works on the records a key holds; graph objects appear
only as input and in ``Expression.terms``.  Each term from outside is
checked by ``_checked``.  Terms with a negative exponent, or with a vertex
whose total psi degree exceeds the dimension of its moduli factor, are zero
and are dropped after that check.  Every expression is homogeneous: edge
count plus total psi degree is the same in all terms.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from fractions import Fraction

from .graphs import (
    EXTRA,
    _canonical_search,
    _records,
    automorphism_order,
    base_classes,
    graph_from_key,
    half_edges,
    key_records,
    label_sort_key,
    leg_kind,
    leg_rank,
    symmetry_order,
    validate,
)


class Ambient(namedtuple("Ambient", "genus labels")):
    """Target moduli space: a genus and the ordered pinned leg labels."""

    __slots__ = ()

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


def _base_overweight(base):
    """Whether some vertex's psi load exceeds the dimension of its moduli
    factor, read off the base classes of a graph's records."""
    return any(sum(e for _label, e in legs) + sum(intexp) >
               3 * genus_v - 3 + len(legs) + len(intexp)
               for genus_v, legs, intexp in base)


def _exponents(base):
    """The psi exponents of a graph's legs and edge ends, read off its base classes."""
    for _g, legs, intexp in base:
        for _label, e in legs:
            yield e
        yield from intexp


def _connected(n_vertices, edges):
    reached, size = {0}, 0
    while size < len(reached):     # some edge reached a new vertex last pass
        size = len(reached)
        for v1, _e1, v2, _e2 in edges:
            if v1 in reached or v2 in reached:
                reached |= {v1, v2}
    return len(reached) == n_vertices


def _check_graph(base, edges):
    """Raise unless the records are connected with vertices of nonnegative
    genus."""
    problems = ["negative genus"] if any(part[0] < 0 for part in base) else []
    if not _connected(len(base), edges):
        problems.append("disconnected")
    if problems:
        raise ValueError("invalid graph in term: %s" % "; ".join(problems))


def _records_genus(base, edges):
    """The genus of a connected graph given by its records."""
    return 1 + len(edges) - len(base) + sum(part[0] for part in base)


def _checked(ambient, terms):
    """The nonzero terms of (coefficient, base, edges) terms from outside.

    Every term is checked first: it must be connected, its vertices stable
    and of nonnegative genus, its genus and legs those of the ambient, and
    its degree that of the other terms.  Only then are the terms dropped
    whose coefficient is zero or whose graph is zero: a negative exponent,
    or an overweight vertex.
    """
    degree_seen = None
    for _coeff, base, edges in terms:
        _check_graph(base, edges)
        if any(2 * genus_v - 2 + len(legs) + len(intexp) <= 0
               for genus_v, legs, intexp in base):
            raise ValueError("unstable graph in term")
        genus_t = _records_genus(base, edges)
        if genus_t != ambient.genus:
            raise ValueError("term genus %d does not match ambient genus %d"
                             % (genus_t, ambient.genus))
        labels = sorted((label for part in base for label, _e in part[1]
                         if label != EXTRA), key=label_sort_key)
        if tuple(labels) != ambient.labels:
            raise ValueError("term legs %r do not match ambient labels %r"
                             % (labels, list(ambient.labels)))
        d = len(edges) + sum(_exponents(base))
        if degree_seen is None:
            degree_seen = d
        elif d != degree_seen:
            raise ValueError("mixed cohomological degrees %d and %d" % (degree_seen, d))
    return [(Fraction(coeff), base, edges) for coeff, base, edges in terms
            if coeff and min(_exponents(base), default=0) >= 0
            and not _base_overweight(base)]


def _graph_records(dg):
    """The records of a graph given as input, after its structural check."""
    problems = validate(dg.graph)
    if problems:
        raise ValueError("invalid graph in term: %s" % "; ".join(problems))
    return _records(dg)


def _term_order(key):
    """The sort key of a term's graph key: edge count, then the key."""
    return len(key[1]), key


class Expression:
    """Normalized formal sum. Terms are stored as canonical key -> coefficient."""

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient, terms=(), _raw=None):
        self.ambient = ambient
        self._terms = from_terms(terms, ambient)._terms if _raw is None else _raw

    # -- basic views --------------------------------------------------------

    def items(self):
        """(key, coefficient) pairs in deterministic order."""
        return sorted(self._terms.items(), key=lambda kv: _term_order(kv[0]))

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
            return len(key[1]) + sum(_exponents(key[0]))
        return None

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
        return _summed(self.ambient, ((c, k) for terms in (self._terms, other._terms)
                                      for k, c in terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Expression(self.ambient, _raw={})
        return Expression(self.ambient, _raw={k: c * v for k, v in self._terms.items()})

    def __neg__(self):
        return self.scale(-1)


def attach_vertex(expr, leg_label, genus_v, legs):
    """Glue a fresh vertex onto the named leg of every term.

    The pinned leg ``leg_label`` becomes one half of a new edge whose other
    half sits on a new vertex of genus ``genus_v`` carrying ``legs`` (pairs
    of label and exponent).  This realizes formal multiplication by a single
    extra bracket factor.  The result's ambient comes from the input's, so
    the zero class glues too.
    """
    new_vertex = base_classes([genus_v], [(0, *leg) for leg in legs] + [(0, None, 0)])[0]
    if leg_label not in expr.ambient.labels:
        raise ValueError("no leg labeled %r" % leg_label)
    ambient = make_ambient(expr.ambient.genus + genus_v,
                           [label for label in expr.ambient.labels if label != leg_label]
                           + [label for label, _e in legs if label != EXTRA])
    out = []
    for key, coeff in expr.items():
        base, edges = key_records(key)
        (v, exp), = [(v, e) for v, part in enumerate(base) for label, e in part[1]
                     if label == leg_label]
        g, vlegs, intexp = base[v]
        base[v] = (g, tuple(leg for leg in vlegs if leg[0] != leg_label),
                   tuple(sorted(intexp + (exp,))))
        base.append(new_vertex)
        out.append((coeff, base, edges + [(v, exp, len(base) - 1, 0)]))
    return _from_records(out, ambient)


def zero(ambient):
    return Expression(ambient, _raw={})


def _summed(ambient, terms):
    """The expression of (coefficient, canonical key) pairs, summed in
    ``Fraction``s; the keys are trusted, so nothing is validated."""
    acc = {}
    for c, key in terms:
        acc[key] = acc.get(key, 0) + c
    return Expression(ambient, _raw={k: Fraction(c) for k, c in acc.items() if c})


def _ambient_of(terms):
    """The genus and legs of the first of (coefficient, base, edges) terms."""
    if not terms:
        raise ValueError("cannot infer the ambient of an empty expression")
    _coeff, base, edges = terms[0]
    _check_graph(base, edges)
    return make_ambient(_records_genus(base, edges), [
        label for part in base for label, _e in part[1] if label != EXTRA])


def _from_records(terms, ambient=None):
    """The expression of (coefficient, base, edges) terms from outside, each
    checked by ``_checked``; the ambient defaults to the first term's."""
    if ambient is None:
        ambient = _ambient_of(terms)
    return _summed(ambient, ((c, _canonical_search(base, edges)[0])
                             for c, base, edges in _checked(ambient, terms)))


def from_terms(terms, ambient=None):
    """Build an expression, inferring the ambient from the first term."""
    return _from_records([(coeff, *_graph_records(dg)) for coeff, dg in terms], ambient)


# ---------------------------------------------------------------------------
# bracket grammar


_COMMENT = re.compile(r"#[^\n]*")
# the grammar is ASCII-only: re.ASCII keeps \d and \s from matching other
# Unicode digits and spaces
_BAD_CHARACTER = re.compile(r"[^\s\dA-Za-z<>_()^+\-*/]", re.ASCII)
_NAME = r"[A-Za-z][A-Za-z0-9_]*\*?"
# one anchored pattern per grammar level, each allowing whitespace before it
_SIGN = re.compile(r"\s*(?P<sign>[+-])", re.ASCII)
_COEFFICIENT = re.compile(r"\s*(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?(?P<times>\s*\*)?",
                          re.ASCII)
_OPEN = re.compile(r"\s*<", re.ASCII)
_ITEM = re.compile(r"\s*(?:P\s*\^\s*(?P<exp>\d+)\s*\(\s*(?P<leg>%s)\s*\)|(?P<name>%s))"
                   % (_NAME, _NAME), re.ASCII)
_CLOSE = re.compile(r"\s*>\s*_\s*(?P<genus>\d+)", re.ASCII)


def _expected(what, pos):
    raise ValueError("expected %s at position %d" % (what, pos))


def _printed_terms(text):
    """The (coefficient, [(genus, [(name, exponent), ...]), ...]) of each
    printed term.  Comments become spaces of their length, so positions
    index the input; one scan finds a bad character, then the patterns
    above read the text, in which a bare ``0`` is the empty sum."""
    text = _COMMENT.sub(lambda m: " " * len(m.group()), text).rstrip(" \t\n\r\f\v")
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise ValueError("bad character %r at position %d" % (bad.group(), bad.start()))
    sign = _SIGN.match(text)
    pos = sign.end() if sign else 0
    if text[pos:].strip() == "0":
        return []
    terms = []
    while True:
        coeff = Fraction(-1 if sign and sign["sign"] == "-" else 1)
        m = _COEFFICIENT.match(text, pos)
        if m:
            if m["den"] and int(m["den"]) == 0:
                raise ValueError("zero denominator in coefficient")
            if not m["times"]:
                _expected("'*'", m.end())
            coeff *= Fraction(int(m["num"]), int(m["den"] or 1))
            pos = m.end()
        factors = []
        m = _OPEN.match(text, pos) or _expected("'<'", pos)
        while m:
            pos, items = m.end(), []
            while m := _ITEM.match(text, pos):
                items.append((m["leg"], int(m["exp"])) if m["leg"] else (m["name"], 0))
                pos = m.end()
            m = _CLOSE.match(text, pos) or _expected(
                "a half-edge name or '>_' and a genus", pos)
            factors.append((int(m["genus"]), items))
            pos = m.end()
            m = _OPEN.match(text, pos)
        terms.append((coeff, factors))
        if pos == len(text):
            return terms
        sign = _SIGN.match(text, pos) or _expected("'+' or '-'", pos)
        pos = sign.end()


def _term_records(factors):
    """The records of a printed term, built from its factors: a name and its
    starred twin make an edge, any other name a leg, and W-names extra legs."""
    halves = []
    occurrences = {}
    for v, (_genus_v, items) in enumerate(factors):
        for name, exp in items:
            if leg_kind(name) != "extra":
                occurrences.setdefault(_pair_base(name), []).append((v, name, exp))
            else:
                # extra legs are anonymous, so one W-name may recur;
                # ``base_classes`` rejects an exponent on one
                halves.append((v, EXTRA, exp))
    edges = []
    for stem, occ in sorted(occurrences.items()):
        if len(occ) == 1:
            v, name, exp = occ[0]
            if name.endswith("*"):
                raise ValueError("unmatched half-edge star %r" % name)
            halves.append(occ[0])
        elif len(occ) == 2:
            (v1, n1, e1), (v2, n2, e2) = occ
            if {n1, n2} != {stem, stem + "*"}:
                raise ValueError("duplicate leg label %r" % n1)
            edges.append((v1, e1, v2, e2))
            halves += [(v1, None, e1), (v2, None, e2)]
        else:
            raise ValueError("name %r occurs more than twice" % stem)
    return base_classes([genus_v for genus_v, _items in factors], halves), edges


def _pair_base(name):
    return name[:-1] if name.endswith("*") else name


def parse_bracket(text, ambient=None):
    """Parse the angle-bracket grammar into an expression.

    Each printed term's records are built straight from its factors; the
    ambient defaults to the first term's genus and legs.  Every printed term
    is checked (see ``_checked``) before any is keyed, so malformed text
    fails before any symmetry is counted.  Bracket coefficients are
    Aut-normalized: one canonical search keys each term, and its tied vertex
    orders give the automorphism order that divides the printed coefficient.
    """
    terms = [(coeff, *_term_records(factors))
             for coeff, factors in _printed_terms(text)]
    if ambient is None:
        ambient = _ambient_of(terms)
    out = []
    for coeff, base, edges in _checked(ambient, terms):
        key, ties = _canonical_search(base, edges)
        out.append((coeff / symmetry_order(key, ties), key))
    return _summed(ambient, out)


def _layout(key):
    """Deterministic per-vertex item lists for rendering the graph of a key.

    A vertex shows its legs (frozen, regular, named), its extra legs as W1,
    W2, ..., then its edge ends by name.  Edge records get fresh names g1,
    g2, ... (skipping any that collide with a pinned label); the unstarred
    end is on the lower vertex, or on a loop the one of higher exponent.
    """
    base, edges = key
    halves = half_edges(base, edges)
    used = {label for _v, label, _e, _end in halves if label not in (None, EXTRA)}
    fresh = (name for i in itertools.count(1)
             if (name := "g%d" % i) not in used and name + "*" not in used)
    names = {}
    for i, (v1, e1, v2, e2) in enumerate(edges):
        name = next(fresh)
        stars = ("", "*") if (v1, -e1) <= (v2, -e2) else ("*", "")
        names[i, 0], names[i, 2] = name + stars[0], name + stars[1]
    legs = [[] for _ in base]
    ends = [[] for _ in base]
    for v, label, exp, end in halves:
        if end is not None:
            ends[v].append((names[end], exp))
        elif label != EXTRA:
            legs[v].append((leg_rank(label), label, exp))
    return [[(label, exp) for _k, label, exp in sorted(legs[v])]
            + [("W%d" % j, 0) for j in range(1, part[1].count((EXTRA, 0)) + 1)]
            + sorted(ends[v])
            for v, part in enumerate(base)]


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


# Per text format: a vertex from its items and genus, the name of a
# half-edge, a half-edge from its psi exponent and name, and a coefficient
# magnitude other than 1 before its term, whole or as a fraction.
_TEXT_FORMATS = {
    "bracket": ("<%s>_%d", str, "P^%d(%s)", "%d * ", "%d/%d * "),
    "latex": (r"\left< %s \right>_{%d}", _latex_name, r"\Psi^{%d}(%s)", r"%d \, ",
              r"\frac{%d}{%d} \, "),
}


def _render(expr, fmt):
    """The text of ``expr`` in the format ``fmt`` of ``_TEXT_FORMATS``, one
    piece per term, made when it is read.  Each piece starts with the sign
    that joins it to the term before, or "-" on a negative first term."""
    if expr.is_zero():
        yield "0"
        return
    vertex, name_of, psi, whole, fraction = _TEXT_FORMATS[fmt]
    for i, (key, coeff) in enumerate(expr.items()):
        shown = coeff * automorphism_order(key)
        piece = (" - " if shown < 0 else " + ") if i else "-" * (shown < 0)
        mag = abs(shown)
        if mag.denominator != 1:
            piece += fraction % (mag.numerator, mag.denominator)
        elif mag != 1:
            piece += whole % mag.numerator
        yield piece + " ".join(
            vertex % (" ".join(psi % (exp, name_of(name)) if exp else name_of(name)
                               for name, exp in items), key[0][v][0])
            for v, items in enumerate(_layout(key)))


def render_bracket(expr):
    """Render in the ASCII bracket grammar with Aut-normalized coefficients."""
    return "".join(_render(expr, "bracket"))


def render_latex(expr):
    return "".join(_render(expr, "latex"))


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
    """The JSON object of ``graph_from_key(key)``, written from the key's
    records in the numbering of ``half_edges``."""
    halves = half_edges(*key)
    return {
        "vertices": [{"id": v, "genus": part[0]} for v, part in enumerate(key[0])],
        "half_edges": [{"id": h, "vertex": v, "exponent": e}
                       for h, (v, _label, e, _end) in enumerate(halves)],
        "involution": [[h, h + 1] for h, (_v, _label, _e, end) in enumerate(halves)
                       if end and end[1] == 0],
        "legs": [_leg_json(h, label) for h, (_v, label, _e, _end) in enumerate(halves)
                 if label is not None],
    }


def _json_int(value):
    """``value``, which must be a JSON integer: a float or a bool is not one."""
    if type(value) is not int:
        raise TypeError("expected an integer, got %r" % (value,))
    return value


def _json_pair(entry):
    """The two half-edge ids of an involution entry, which must be a pair."""
    if type(entry) is not list or len(entry) != 2:
        raise TypeError("expected a pair, got %r" % (entry,))
    return map(_json_int, entry)


def _json_label(entry):
    """The label of a JSON leg, which must be the leg ``_leg_json`` writes."""
    kind = entry["kind"]
    if kind in ("regular", "frozen"):
        label = "%s%d" % ("U" if kind == "regular" else "V", _json_int(entry["index"]))
    else:
        label = EXTRA if kind == "extra" else entry["name"]
    if _leg_json(entry["id"], label) != entry:
        raise ValueError("malformed expression JSON: leg %r" % (entry,))
    return label


def _json_records(data):
    """The records of a JSON graph object: paired half-edges make the edges,
    the legs are the rest."""
    vertex = {_json_int(entry["id"]): v for v, entry in enumerate(data["vertices"])}
    labels = {_json_int(entry["id"]): _json_label(entry) for entry in data["legs"]}
    at = {_json_int(entry["id"]): (vertex[_json_int(entry["vertex"])],
                                   _json_int(entry["exponent"]))
          for entry in data["half_edges"]}
    edges = [at.pop(h) + at.pop(p) for h, p in map(_json_pair, data["involution"])]
    if set(at) != set(labels):
        raise ValueError("legs and involution fixed points disagree")
    halves = [(v, labels[h], e) for h, (v, e) in at.items()]
    halves += [(v, None, e) for v1, e1, v2, e2 in edges for v, e in ((v1, e1), (v2, e2))]
    return base_classes([_json_int(entry["genus"]) for entry in data["vertices"]],
                        halves), edges


def _coefficient_json(c):
    """The JSON object of a rational coefficient."""
    return {"num": c.numerator, "den": c.denominator}


def _terms_json(ambient, items):
    """The JSON object of a sum on ``ambient`` of the (key, coefficient) pairs
    ``items``, in their order.  Its terms are an iterator: each term object,
    graph and all, is made when it is read."""
    return {
        "ambient": {"genus": ambient.genus, "labels": list(ambient.labels)},
        "terms": ({"coefficient": _coefficient_json(c),
                   "graph": _key_json(key)} for key, c in items),
    }


def _listed(data):
    """A JSON object of ``_terms_json`` with its terms in a list."""
    return dict(data, terms=list(data["terms"]))


def expression_to_json(expr):
    return _listed(_terms_json(expr.ambient, expr.items()))


def expression_from_json(data):
    """The expression of a JSON object as ``expression_to_json`` writes it; a
    missing entry, an entry of the wrong type (an id, genus, exponent, index or
    coefficient part that is not a JSON integer, or an involution entry that
    is not a pair) or a zero denominator raises ``ValueError``."""
    try:
        ambient = make_ambient(_json_int(data["ambient"]["genus"]),
                               data["ambient"]["labels"])
        terms = [(Fraction(_json_int(t["coefficient"]["num"]),
                           _json_int(t["coefficient"]["den"])),
                  *_json_records(t["graph"])) for t in data["terms"]]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError("malformed expression JSON: %r" % exc) from None
    return _from_records(terms, ambient)
