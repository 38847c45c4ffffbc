"""String-equation pushforwards along forgetful maps.

Forgetting ``l`` undecorated marked points on one vertex turns the psi
monomial with exponents ``q`` into a weighted sum over all componentwise
drops ``p <= q`` with ``|p| = |q| - l``; the weight is ``l!`` divided by the
factorials of the drops.  Forgetting acts vertex by vertex: psi classes on
other vertices ride along untouched, and a forgetful step that would leave an
unstable vertex is an error, never a silent contraction.  The same tables
give the class of a tree shape in ``treeclass``, where the forgotten extra
legs are never built, so there is nothing to delete.
"""

from __future__ import annotations

import itertools
from collections import Counter
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


def _push_at_vertices(coeff, dg, counts, drop):
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
        b = GraphBuilder.copy_of(dg, exponents=exponents, drop=drop)
        out.append((coeff * mult, b.build()))
    return out


def _forget(expr, ambient, doomed):
    """Push forward to ``ambient`` along the map forgetting every leg whose
    label is in ``doomed``, vertex by vertex."""
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
        out.extend(_push_at_vertices(coeff, dg, counts, set(drop)))
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
