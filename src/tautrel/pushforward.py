"""String-equation pushforwards along forgetful maps.

Forgetting ``l`` undecorated marked points on one vertex turns the psi
monomial with exponents ``q`` into a weighted sum over all componentwise
drops ``p <= q`` with ``|p| = |q| - l``; the weight is ``l!`` divided by the
factorials of the drops.  Forgetting acts vertex by vertex: psi classes on
other vertices ride along untouched, and a forgetful step that would leave an
unstable vertex is an error, never a silent contraction.  One body applies
the tables on the records of a graph (see ``graphs.key_records``) and keys
each result by the canonical search, building no graph.  The forgetful maps
delete the forgotten legs from the records first; the class of a tree shape
in ``treeclass`` never builds its extra legs, so there is nothing to delete.
"""

from __future__ import annotations

import itertools
from math import factorial

from .graphs import EXTRA, _canonical_search, half_edges, key_records
from .expressions import _summed, make_ambient


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


def _push_at_vertices(coeff, base, edges, counts):
    """Forget ``counts[v]`` bare points at each vertex ``v`` of the graph with
    records (base, edges) by the string table over the half-edges there.

    Yields a (coefficient, key) pair per pick from the tables, its residual
    exponents written back into the legs, the edge records and the edge-end
    exponents of each vertex.  No pick leaves a vertex overweight: forgetting
    k points at a vertex lowers its psi load and its dimension both by k, the
    expressions that ``_forget`` takes hold no overweight vertex, and a tree
    shape's assignments are bounded so that every vertex stays within its
    dimension after its extras are forgotten.
    """
    choices = []
    for v, count in sorted(counts.items()):
        halves = half_edges(base, edges, v)
        choices.append((v, halves, string_table(tuple(half[2] for half in halves), count)))
    for picks in itertools.product(*(table for _v, _h, table in choices)):
        mult = coeff
        new_base, new_edges = list(base), [list(rec) for rec in edges]
        for (v, halves, _table), (residual, m) in zip(choices, picks):
            mult *= m
            genus_v, legs, _intexp = base[v]
            n = len(legs)
            for (_v, _label, _e, end), e in zip(halves[n:], residual[n:]):
                new_edges[end[0]][end[1] + 1] = e
            new_base[v] = (genus_v,
                           tuple((label, e) for (label, _e), e in zip(legs, residual)),
                           tuple(sorted(residual[n:])))
        yield mult, _canonical_search(new_base, new_edges)[0]


def _forget(expr, ambient, doomed):
    """Push forward to ``ambient`` along the map forgetting every leg whose
    label is in ``doomed``, vertex by vertex; ``EXTRA`` in ``doomed`` forgets
    every extra leg, as any label forgets its legs."""
    out = []
    for key, coeff in expr.items():
        base, edges = key_records(key)
        counts = {}
        for v, (genus_v, legs, intexp) in enumerate(base):
            for label, e in legs:
                if label in doomed and e:
                    raise ValueError("cannot forget leg %s carrying a psi exponent" % label)
            kept = tuple(leg for leg in legs if leg[0] not in doomed)
            if len(kept) < len(legs):
                counts[v] = len(legs) - len(kept)
                base[v] = (genus_v, kept, intexp)
        for v in counts:
            genus_v, legs, intexp = base[v]
            if 2 * genus_v - 2 + len(legs) + len(intexp) <= 0:
                raise ValueError("vertex %d becomes unstable after forgetting legs" % v)
        out.extend(_push_at_vertices(coeff, base, edges, counts))
    return _summed(ambient, out)


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
