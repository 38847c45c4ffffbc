"""String-equation pushforwards along forgetful maps.

Forgetting ``l`` undecorated marked points on one vertex turns the psi
monomial with exponents ``q`` into a weighted sum over all componentwise
drops ``p <= q`` with ``|p| = |q| - l``; the weight is ``l!`` divided by the
factorials of the drops.  Forgetting acts vertex by vertex: psi classes on
other vertices ride along untouched, and a forgetful step that would leave an
unstable vertex is an error, never a silent contraction.
"""

from __future__ import annotations

import itertools
from math import factorial

from .graphs import EXTRA, GraphBuilder
from .expressions import Expression, make_ambient


def d_set(exponents, count):
    """All drops of ``exponents`` by a total of ``count``, componentwise bounded."""
    out = set()
    for p in itertools.product(*(range(q + 1) for q in exponents)):
        if sum(p) == sum(exponents) - count:
            out.add(p)
    return out


def string_table(exponents, count):
    """The pushforward table for forgetting ``count`` bare points.

    Returns a list of (residual exponents, integer multiplier); empty when
    ``count`` exceeds the total exponent.
    """
    if count <= 0:
        raise ValueError("must forget a positive number of points")
    table = []
    for p in sorted(d_set(exponents, count)):
        mult = factorial(count)
        for q, r in zip(exponents, p):
            mult //= factorial(q - r)
        table.append((p, mult))
    return table


def _push_at_vertices(coeff, dg, forget_by_vertex):
    """Distribute the per-vertex string tables and delete the forgotten legs."""
    out = []
    g = dg.graph
    choices = []
    for v, forgotten in sorted(forget_by_vertex.items()):
        slots = [h for h in g.halves_at(v) if h not in forgotten]
        exps = tuple(dg.exponents[h] for h in slots)
        table = string_table(exps, len(forgotten))
        choices.append((slots, table))
    all_forgotten = {h for hs in forget_by_vertex.values() for h in hs}
    for picks in itertools.product(*(t for _s, t in choices)):
        mult = 1
        exponents = list(dg.exponents)
        for (slots, _t), (residual, m) in zip(choices, picks):
            mult *= m
            for h, e in zip(slots, residual):
                exponents[h] = e
        b = GraphBuilder.copy_of(dg, exponents=exponents, drop=all_forgotten)
        out.append((coeff * mult, b.build()))
    return out


def _forget(expr, ambient, doomed):
    """Push forward to ``ambient`` along the map forgetting every leg whose
    label is in ``doomed``, vertex by vertex."""
    out = []
    for coeff, dg in expr.terms():
        g = dg.graph
        by_vertex = {}
        for h in range(g.n_half_edges):
            if g.labels[h] in doomed:
                if dg.exponents[h] != 0:
                    raise ValueError(
                        "cannot forget leg %s carrying a psi exponent" % g.labels[h])
                by_vertex.setdefault(g.vertex_of[h], []).append(h)
        if not by_vertex:
            out.append((coeff, dg))
            continue
        for v, hs in by_vertex.items():
            residual = len(g.halves_at(v)) - len(hs)
            if 2 * g.genera[v] - 2 + residual <= 0:
                raise ValueError(
                    "vertex %d becomes unstable after forgetting legs" % v)
        out.extend(_push_at_vertices(coeff, dg, by_vertex))
    return Expression(ambient, out)


def forget_extra_legs(expr):
    """Push forward along the map forgetting every extra leg, vertex by vertex."""
    return _forget(expr, expr.ambient, (EXTRA,))


def forget_frozen_legs(expr, count):
    """Forget the last ``count`` frozen labels of the ambient space."""
    if count <= 0:
        raise ValueError("must forget a positive number of legs")
    frozen = expr.ambient.frozen_labels()
    if len(frozen) < count:
        raise ValueError("ambient has only %d frozen legs" % len(frozen))
    doomed = set(frozen[-count:])
    ambient = make_ambient(expr.ambient.genus,
                           [lab for lab in expr.ambient.labels if lab not in doomed])
    return _forget(expr, ambient, doomed)
