"""Psi-class elimination, WDVV relations, span certification and integration.

On a genus-0 vertex with at least four half-edges, one power of psi at a
target half-edge equals the sum of all splittings that separate the target
(plus a nonempty companion set) from a chosen partner pair.  On a genus-1
vertex, one power of psi at the target equals the sum of splittings moving
the target and a nonempty companion set onto a genus-0 vertex, plus 1/12
times the bracket class of the vertex with a fresh loop edge, which is 1/24
in the unnormalized internal representation.  Both rewrites and the WDVV
relations below split a vertex along the sides that ``_sides`` generates.

WDVV relations arise by splitting a genus-0 vertex of a one-edge-contracted
graph in the inequivalent ways that separate a quadruple of its half-edges.
Of the 2*C(k, 4) such exchange relations at a vertex with k half-edges, only
a basis is emitted, written down in closed form: the k(k-3)/2 relations of
the quadruples (0, 1, i, j) that ``_local_basis`` lists, the dimension of
the relations among the boundary divisors of M_{0,k} (Keel 1992), which by
linearity span the rest.  Neither psi elimination nor the closure builds a
graph: they lower exponents, contract edges, split vertices and close loops
on the base classes and edge records that a canonical key holds, and key the
results with the same search as ``canonical_key``.  Each relation is an
integer combination of graph keys, and their exact rational span certifies
vanishing.  The span is solved modulo primes and every answer is checked
exactly.  Zero certificates are proofs; an Unknown outcome is not a
nonzeroness claim.  Integrals and pairings read exponents off the keys.  A
class with a nonzero psi pairing is outside the span of the relations; the
CLI pairs the class before psi elimination and ends there, so the span test
itself does not pair.
"""

from __future__ import annotations

import heapq
import itertools
import time
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from operator import mul

from .graphs import (
    _canonical_search,
    contract_records,
    half_edges,
    leg_kind,
    split_records,
)
from . import graphs
from .expressions import Expression, _base_overweight, _summed


# ---------------------------------------------------------------------------
# single reduction steps


def _only_term(expr):
    """The coefficient and the records of a one-term expression."""
    if len(expr) != 1:
        raise ValueError("expected a single-term expression")
    ((key, coeff),) = expr._terms.items()
    return coeff, *key


def _sides(halves, stay, away):
    """Sides of the splittings of a vertex with half-edges ``halves``: ``stay``
    plus any subset of the other half-edges outside ``away``, kept when it has
    at least two half-edges, which makes its genus-0 vertex stable."""
    pool = [h for h in halves if h not in stay and h not in away]
    for r in range(max(0, 2 - len(stay)), len(pool) + 1):
        for companions in itertools.combinations(pool, r):
            yield frozenset({*stay, *companions})


def _psi_terms(base, edges, vertex, halves, half, away):
    """One psi power at ``half`` on a genus-0 or genus-1 vertex, rewritten on
    the records of a graph.

    ``halves`` is ``graphs.half_edges(base, edges, vertex)``, listed once by
    the caller, and ``half`` and ``away`` are positions in it.  Returns
    (factor, records) pairs: the
    lowered records split along every side that keeps ``half`` and none of
    ``away``, the side on a genus-0 vertex and the rest keeping the vertex's
    genus, and on a genus-1 vertex also the loop term with factor 1/24: the
    vertex drops to genus 0 and gains a loop without psi powers.  ``away`` is
    the partner pair on genus 0, which keeps the rest stable, and empty on
    genus 1.  Each graph is then stable, has the genus and legs of the input,
    one more edge and one psi power fewer, by construction.
    """
    genus_v, legs, intexp = base[vertex]
    _v, label, exp, end = halves[half]
    base, edges = list(base), list(edges)
    if end is None:
        legs = legs[:half] + ((label, exp - 1),) + legs[half + 1:]
    else:
        i, j = end
        rec = list(edges[i])
        rec[j + 1] -= 1
        edges[i] = rec
        rest = list(intexp)
        rest.remove(exp)
        intexp = tuple(sorted(rest + [exp - 1]))
    base[vertex] = (genus_v, legs, intexp)
    halves = list(halves)
    halves[half] = (vertex, label, exp - 1, end)
    out = [(1, split_records(base, edges, vertex, halves, side, genus_v))
           for side in _sides(range(len(halves)), (half,), away)]
    if genus_v == 1:
        loop = list(base)
        loop[vertex] = (0, legs, tuple(sorted(intexp + (0, 0))))
        out.append((Fraction(1, 24), (loop, edges + [(vertex, 0, vertex, 0)])))
    return out


def _psi_keys(base, edges, vertex, halves, half, away):
    """(factor, key) pairs of the rewrites of ``_psi_terms`` that are not
    overweight, keyed by the canonical search on their records."""
    for factor, (b, e) in _psi_terms(base, edges, vertex, halves, half, away):
        if not _base_overweight(b):
            yield factor, _canonical_search(b, e)[0]


def _rewrite_one(expr, vertex, half, genus, partner_pair=()):
    """The rewrite of one psi power at ``half`` on the genus ``genus`` vertex
    ``vertex`` of a one-term ``expr``, after the checks of both rewrites.  The
    half-edges, numbered as in ``half_edges`` (so as in the graph that
    ``expr.terms()`` gives), become positions at the vertex here only."""
    coeff, base, edges = _only_term(expr)
    halves = half_edges(base, edges)
    if not 0 <= vertex < len(base):
        raise ValueError("no vertex numbered %r" % (vertex,))
    if not 0 <= half < len(halves):
        raise ValueError("no half-edge numbered %r" % (half,))
    exp = halves[half][2]
    at = [h for h, x in enumerate(halves) if x[0] == vertex]
    if base[vertex][0] != genus:
        raise ValueError("target vertex must have genus %d" % genus)
    if genus == 0 and len(at) < 4:
        raise ValueError("genus-0 reduction needs at least 4 half-edges"
                         " (3-pointed psi classes vanish by dimension)")
    if exp < 1:
        raise ValueError("target half-edge carries no psi class")
    if genus == 0:
        x1, x2 = partner_pair      # a pair of another length fails to unpack
        partner_pair = (x1, x2)
    site = (half, *partner_pair)
    if len(set(site)) != len(site) or not set(site) <= set(at):
        raise ValueError("target half-edge is not at the vertex" if genus else
                         "partner pair must be two other half-edges of the vertex")
    h, *away = [at.index(n) for n in site]
    return _summed(expr.ambient, (
        (coeff * factor, k) for factor, k
        in _psi_keys(base, edges, vertex, [halves[n] for n in at], h, away)))


def psi_reduce_genus0(expr, vertex, half, partner_pair):
    """Trade one psi power on a genus-0 vertex for boundary splittings.

    The vertex must carry at least four half-edges; ``partner_pair`` names
    the two half-edges kept away from the target on the old vertex.  Every
    choice of partner pair yields an expression equal to the input as a
    class; different choices differ by WDVV relations.
    """
    return _rewrite_one(expr, vertex, half, 0, partner_pair)


def psi_reduce_genus1(expr, vertex, half):
    """Trade one psi power on a genus-1 vertex for splittings plus the loop term.

    The loop term carries the bracket coefficient 1/12, hence 1/24 internally
    because attaching the loop doubles the automorphism count.
    """
    return _rewrite_one(expr, vertex, half, 1)


def choose_partner_pair(halves, half):
    """Deterministic partner pair for a psi power at ``half`` on a genus-0
    vertex whose half-edges ``graphs.half_edges(base, edges, vertex)``
    lists as ``halves``: frozen legs first, then regular, named and extra
    legs, then edge ends, avoiding the two ends of one loop whenever
    possible.  Half-edges are positions in ``halves``."""

    def rank(n):
        label = halves[n][1]
        if label is None:
            return (4, (), n)
        return (graphs.FROZEN_FIRST[leg_kind(label)], graphs.label_sort_key(label), n)

    candidates = sorted((n for n in range(len(halves)) if n != half), key=rank)
    for a, b in itertools.combinations(candidates, 2):
        # not the two ends of one loop (a leg ends no edge)
        if halves[a][1] is not None or halves[a][3][0] != halves[b][3][0]:
            return a, b
    return candidates[0], candidates[1]


def _reduction_site(base, edges):
    """Deterministic choice of (vertex, half, halves) to reduce, or None when
    psi-free.

    Genus-1 vertices take priority, highest exponent first, then genus-0
    vertices, the lowest vertex first; on the vertex, the first half-edge
    with that exponent, as a position in ``halves``, the vertex's listing
    ``graphs.half_edges(base, edges, vertex)``, which the rewrite reuses.
    Positive exponents on genus >= 2 vertices are unsupported.
    """
    best = None
    for v, (genus_v, legs, intexp) in enumerate(base):
        top = max([e for _label, e in legs] + list(intexp), default=0)
        if top <= 0:
            continue
        if genus_v >= 2:
            raise ValueError("psi elimination on genus >= 2 vertices is unsupported")
        priority = (0 if genus_v == 1 else 1, -top, v)
        if best is None or priority < best:
            best = priority
    if best is None:
        return None
    v, top = best[2], -best[1]
    halves = half_edges(base, edges, v)
    return v, next(n for n, half in enumerate(halves) if half[2] == top), halves


def eliminate_all_psi(expr):
    """Rewrite until no half-edge carries a positive exponent.

    Every rewrite trades one psi power for one edge, so taking the pending
    keys in increasing edge count rewrites each key once, with its whole
    coefficient, and no key has more edges than the degree.  The rewrites
    run on the records of each key and are keyed by the canonical search;
    no graph is built.
    """
    levels = [{} for _ in range((expr.degree() or 0) + 1)]   # edge count -> pending
    for key, coeff in expr._terms.items():
        levels[len(key[1])][key] = coeff
    done = {}
    for work in levels:
        for key, coeff in work.items():
            if coeff == 0:
                continue
            base, edges = key
            site = _reduction_site(base, edges)
            if site is None:
                done[key] = coeff
                continue
            v, h, halves = site
            away = choose_partner_pair(halves, h) if base[v][0] == 0 else ()
            for factor, k in _psi_keys(base, edges, v, halves, h, away):
                pending = levels[len(k[1])]
                pending[k] = pending.get(k, Fraction(0)) + coeff * factor
    return Expression(expr.ambient, _raw=done)


# ---------------------------------------------------------------------------
# WDVV relations


# the relations a closure may hold before it raises ``OverflowError``
MAX_RELATIONS = 200000
# the relation-closure rounds of a span test when none are given
DEFAULT_ROUNDS = 3


class RelationBasis:
    """A relation closure of an initial support, grown in place one round at
    a time by ``generate_wdvv_relations``.

    Graph keys are nested tuples whose hash Python recomputes on every dict
    or set operation, so ``id_of`` numbers each key once, in a key table:
    ``keys[i]`` is the key with id i, and ``ids`` maps each key back to its
    id.  The initial support comes first, in key order, and then each key in
    the order the closure's splittings first produce it.  Each relation is
    held once: ``relations`` maps its signature, the flat tuple that
    ``_relation_signature`` normalizes it to, to the integer scale that
    restores it (see ``_restored``), in the order the relations were kept;
    relation i is the i-th item.  ``rows`` grows the span system's rows as
    each relation is kept: key id -> {relation index: entry}, with the
    entries in increasing relation index.  Its keys are the support: the
    initial support, with empty rows at first, and each key from when its
    row gets its first entry.  ``processed`` holds the keys of the
    contracted source graphs already instantiated, and ``frontier`` the ids
    that joined the support in the last round, the whole support before the
    first; ``rounds`` counts the rounds run.  An empty frontier after a round
    means the closure is closed.  ``parts`` holds one copy of each base class
    and edge record of the keys that the closure stores (see ``_interned``).
    A support with a psi power raises ``ValueError``; contractions and
    splittings add none, so every key that the closure reaches is psi-free.
    """

    def __init__(self, support):
        for base, edges in support:
            if any(e for _g, legs, _i in base for _label, e in legs) or \
                    any(e1 or e2 for _v1, e1, _v2, e2 in edges):
                raise ValueError("WDVV relations need a psi-free support")
        self.keys, self.ids, self.parts = [], {}, {}
        self.rows = {self.id_of(key): {} for key in sorted(support)}
        self.frontier = set(self.rows)
        self.relations = {}
        self.rounds = 0
        self.processed = set()

    def id_of(self, key):
        """The id of ``key``; a key without one gets the next id and is
        stored rebuilt from the shared parts (see ``_interned``)."""
        i = self.ids.get(key)
        if i is None:
            key = _interned(key, self.parts)
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return i


def _interned(key, parts):
    """``key`` rebuilt from the copies that ``parts`` holds of its base
    classes and edge records; a part not there yet is added as it is.  The
    canonical search builds fresh tuples for every key, so the keys a closure
    stores would otherwise each hold their own copies of the same few parts.
    The key stays equal and hashes the same."""
    base, edges = key
    return (tuple([parts.setdefault(b, b) for b in base]),
            tuple([parts.setdefault(r, r) for r in edges]))


def _exchange_relation(split, quad, e):
    """Exchange relation ``e`` of the quadruple a < b < c < d, as a dict.

    ``split(pair_a, pair_b)`` lists the splittings that separate pair_a from
    pair_b, one entry each.  The relation is the splittings separating {a, b}
    from {c, d}, minus those separating {a, c} from {b, d} (e = 0) or {a, d}
    from {b, c} (e = 1), with zero entries dropped.
    """
    a, b, c, d = quad
    acc = {}
    for key in split((a, b), (c, d)):
        acc[key] = acc.get(key, 0) + 1
    for key in split(*(((a, c), (b, d)), ((a, d), (b, c)))[e]):
        acc[key] = acc.get(key, 0) - 1
    return {k: n for k, n in acc.items() if n}


def _local_basis(k):
    """A basis of the exchange relations among k points, as (quadruple,
    exchange index) pairs in generation order: each quadruple (0, 1, i, j)
    with 2 <= i < j < k, in lexicographic order, with exchange 0, and with
    exchange 1 too when i = 2.

    Over the abstract splittings of k points, a side and its complement being
    one splitting, these k(k-3)/2 relations are the first that are
    independent of those before them, among all 2*C(k, 4) in lexicographic
    order with exchanges 0 and 1, and they span them all: the dimension of
    the relations among the boundary divisors of M_{0,k} (Keel 1992).
    """
    for i, j in itertools.combinations(range(2, k), 2):
        yield (0, 1, i, j), 0
        if i == 2:
            yield (0, 1, i, j), 1


def wdvv_relations_at(key, vertex, basis):
    """A basis of the WDVV relations from one genus-0 vertex of the graph with
    key ``key``, as id -> int dicts over the key table of the closure
    ``basis``, which numbers each splitting's key (``RelationBasis.id_of``).

    The half-edges at the vertex are numbered as ``graph_from_key`` numbers
    them (see ``half_edges``).  Of the two exchange relations of each
    unordered quadruple of them, only the (quadruple, exchange) pairs that
    ``_local_basis`` yields are emitted: k(k-3)/2 of them for k half-edges,
    in generation order.  Pushing the splittings of the vertex into the graph
    is linear, so they span every exchange relation there.  Every relation
    is an integer combination of graph keys that vanishes as a class.
    Splitting a stable, psi-free genus-0 vertex (every key of a closure is
    psi-free) so that each side keeps two of the quadruple yields valid
    stable graphs of the same genus and legs, so the relations are assembled
    from the canonical keys of the split records directly.
    """
    base, edges = key
    genus_v, legs, intexp = base[vertex]
    k = len(legs) + len(intexp)
    if genus_v != 0 or k < 4:
        return []
    halves = half_edges(base, edges, vertex)
    id_of_side = {}

    def split_ids(pair_a, pair_b):
        """Key ids of the splittings separating pair_a from pair_b."""
        for side in _sides(range(k), pair_a, pair_b):
            split_id = id_of_side.get(side)
            if split_id is None:
                split_id = id_of_side[side] = basis.id_of(_canonical_search(
                    *split_records(base, edges, vertex, halves, side, 0))[0])
            yield split_id

    out = []
    for quad, e in _local_basis(k):
        relation = _exchange_relation(split_ids, quad, e)
        if relation:
            out.append(relation)
    return out


def _relation_signature(relation):
    """The relation's proportionality class and its scale: a flat tuple (id,
    n, id, n, ...) in increasing id order, the entries divided by their gcd
    and signed so that the entry of the least key id is positive, and that
    gcd, signed alike, which ``_restored`` multiplies back."""
    scale = gcd(*relation.values())
    if relation[min(relation)] < 0:
        scale = -scale
    return tuple([x for k in sorted(relation) for x in (k, relation[k] // scale)]), scale


def _restored(signature, scale):
    """The relation ``scale`` times ``signature``, as an id -> int dict."""
    return {signature[k]: scale * signature[k + 1] for k in range(0, len(signature), 2)}


def generate_wdvv_relations(basis, max_relations=MAX_RELATIONS):
    """Grow the closure ``basis`` by one round of exchange relations, in place,
    and return it; a closed closure comes back unchanged.

    A round contracts one edge of every graph that joined the support in
    the previous round (older graphs were contracted before) and
    instantiates the exchange relations at every genus-0 vertex of each new
    contraction; graphs appearing in new relations join the support and
    form the frontier of the next round.  A relation proportional to one
    already kept is dropped; a kept one adds its entries to the rows.  Keys
    are numbered in the key table of the basis as they first appear, and
    everything after that works on their ids.  More than ``max_relations``
    relations raise ``OverflowError``.
    """
    if basis.rounds and not basis.frontier:
        return basis
    basis.rounds += 1
    keys, relations, rows = basis.keys, basis.relations, basis.rows
    sources = set()
    for i in basis.frontier:
        base, edges = keys[i]
        for j, (v1, _e1, v2, _e2) in enumerate(edges):
            # skip loops, and records equal to the one before (records
            # are sorted), whose contraction is already keyed
            if v1 == v2 or (j and edges[j - 1] == edges[j]):
                continue
            skey = _canonical_search(*contract_records(base, edges, j))[0]
            if skey not in basis.processed:
                sources.add(skey)
    frontier = basis.frontier = set()
    for skey in sorted(sources):
        basis.processed.add(_interned(skey, basis.parts))
        for v in range(len(skey[0])):
            for rel in wdvv_relations_at(skey, v, basis):
                sig, scale = _relation_signature(rel)
                if sig in relations:
                    continue
                r = len(relations)
                relations[sig] = scale
                if r >= max_relations:
                    raise OverflowError(
                        "relation budget exceeded (%d)" % max_relations)
                for i, n in rel.items():
                    row = rows.get(i)
                    if row is None:
                        row = rows[i] = {}
                        frontier.add(i)
                    row[r] = n
    return basis


# ---------------------------------------------------------------------------
# exact span membership


class ZeroCertificate(namedtuple("ZeroCertificate", "zero combination budget_spent reason")):
    """A span test's outcome; its seconds go to the caller's ``stages``.
    ``combination`` is ((coefficient, {key: int} relation), ...)."""

    __slots__ = ()


# The moduli of the span solver, tried in this order: the eight largest primes
# below 2**61, the first being the Mersenne prime 2**61 - 1.
PRIMES = tuple(2**61 - d for d in (1, 31, 45, 229, 259, 283, 339, 391))

_INCONSISTENT = "inconsistent"


def _eliminate(rows, rhs, p):
    """Solve the integer row system mod p; free variables are set to zero.

    Right-looking sparse Gaussian elimination with min-column pivots, which
    keep fill-in low (Markowitz 1957, reduced to column counts): the next
    pivot column is the active column held by the fewest active rows, ties
    to the lowest column index, and of those rows the shortest pivots, ties
    to the lowest row index.  The counts sit in a heap that is refreshed
    lazily: a column popped with a stale count goes back with its current
    one, so a column whose count fell since it was pushed waits at its old
    count.  A column's exact count is the length of its append-only list of
    rows less the entries gone stale as rows lost it or pivoted.  A row is
    copied when it is first updated, so the caller's rows are never mutated.
    A final pivot row is packed into flat lists, and the pivots' columns,
    starts in them and right-hand sides go into three more, no tuple per
    pivot.  A pivot depends only on the reduced system's structure and on
    indices, so the same system and prime give the same pivots on every run.
    Returns the residues of the pivot columns' values, ``_INCONSISTENT``
    when the system has no solution mod p, or None when p divides an entry,
    which would change its shape.
    """
    if any(not v % p for row in rows for v in row.values()):
        return None
    rhs = [b % p for b in rhs]
    work = list(rows)              # the input row, its updated copy, or () once pivoted
    held = {}                      # column -> the rows that took it on, in order
    for r, row in enumerate(rows):
        if not row and rhs[r]:
            return _INCONSISTENT
        for j in row:
            held.setdefault(j, []).append(r)
    gone = dict.fromkeys(held, 0)  # column -> entries of its list that went stale
    heap = [(len(rs), c) for c, rs in held.items()]
    heapq.heapify(heap)
    pivots, starts, prhss = [], array("q"), array("q")   # column, start in packed, rhs
    packed, values = [], array("q")
    while heap:
        n, c = heapq.heappop(heap)
        count = len(held[c]) - gone[c]
        if count != n:
            if count:
                heapq.heappush(heap, (count, c))
            continue
        active = [r for r in dict.fromkeys(held.pop(c)) if c in work[r]]
        r = min(active, key=lambda i: (len(work[i]), i))
        active.remove(r)
        row, work[r] = work[r], ()
        inverse = pow(row[c], -1, p)
        cols = [j for j in row if j != c]
        vals = [row[j] * inverse % p for j in cols]
        prhs = rhs[r] * inverse % p
        for j in cols:
            gone[j] += 1
        # eliminate c from the other active rows that contain it
        for r2 in active:
            row2 = work[r2]
            if row2 is rows[r2]:
                row2 = work[r2] = dict(row2)
            f = p - row2.pop(c)
            for j, v in zip(cols, vals):
                if j in row2:
                    val = (row2[j] + f * v) % p
                    if val:
                        row2[j] = val
                    else:
                        del row2[j]
                        gone[j] += 1
                else:
                    row2[j] = f * v % p
                    held[j].append(r2)
            rhs[r2] = (rhs[r2] + f * prhs) % p
            if not row2 and rhs[r2]:
                return _INCONSISTENT
        pivots.append(c)
        starts.append(len(packed))
        prhss.append(prhs)
        packed += cols
        values.extend(vals)
    # back substitution in reverse pivot order
    solution, end = {}, len(packed)
    for c, start, prhs in zip(reversed(pivots), reversed(starts), reversed(prhss)):
        known = map(solution.get, packed[start:end], itertools.repeat(0))
        solution[c], end = (prhs - sum(map(mul, values[start:end], known))) % p, start
    return solution


def _rational(a, m):
    """The n/d with |n|, d <= sqrt(m/2) and n = a*d mod m, or None (Wang 1981)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


class _System:
    """The integer row system rows . x = rhs, solved prime by prime.

    Each row maps unknowns to ``int`` entries and each right-hand side is an
    ``int``; the rows are held as given, and neither the system nor
    ``_eliminate`` mutates one.  ``_eliminate`` sets free variables to zero,
    so the primes that give the same pivot columns give residues of one
    solution; these are combined by CRT, and a solution is reconstructed
    from them and accepted only when it satisfies every row exactly.
    """

    def __init__(self, rows, rhs):
        self.rows, self.rhs = rows, rhs
        self.lifts = {}            # pivot columns -> (modulus, residues)

    def satisfied_by(self, x):
        """The exact check row . x == rhs on every row."""
        return all(sum(v * x[j] for j, v in row.items() if j in x) == b
                   for row, b in zip(self.rows, self.rhs))

    def solve_mod(self, p):
        """An exactly checked solution from the residues so far, None when
        this prime settles nothing, or ``_INCONSISTENT`` (a hint only)."""
        residues = _eliminate(self.rows, self.rhs, p)
        if residues is None or residues is _INCONSISTENT:
            return residues
        pivots = frozenset(residues)
        if pivots in self.lifts:
            m, old = self.lifts[pivots]
            inverse = pow(m, -1, p)
            residues = {j: a + m * ((residues[j] - a) * inverse % p)
                        for j, a in old.items()}
            p *= m
        self.lifts[pivots] = (p, residues)
        x = {}
        for j, a in residues.items():
            value = _rational(a, p)
            if value is None:
                return None
            if value:
                x[j] = value
        return x if self.satisfied_by(x) else None


def _solve_exact(rows, target, columns):
    """Solve sum_j x_j * column_j = target exactly over the rationals.

    The system comes by rows, as a closure grows them (``RelationBasis``):
    ``rows`` maps each key to its row, column index -> ``int`` entry, and
    the target maps keys to numbers; zero target entries are dropped.
    ``columns`` iterates over the columns, key -> ``int`` dicts in column
    order, and is read only when a witness system is built.  The target is
    divided by its content (the gcd of its numerators over the lcm of its
    denominators), which leaves it integral, and the solution multiplied
    back, so a large common factor of the target does not outrun the primes.
    A target key without a row entry ends the solve at once: its unit
    vector y is an exact witness, y . A = 0 and y . b != 0.  The
    equations are the rows in sorted key order; the span test names its
    keys by id, so the sort is over small ints.
    Elimination runs mod each prime of ``PRIMES`` in turn (see
    ``_eliminate``); with free variables set to zero and the rows in key
    order, the same system and target give the same solution on every run.
    The answer comes from the first prime whose residues, combined by CRT
    with those of earlier primes that have the same pivot columns,
    reconstruct to an exact solution.  An inconsistency mod p
    counts only when the same routine yields a witness y over the keys whose
    rows are the columns, each equal to 0, and the target, equal to 1:
    exactly y . A = 0 and y . b = 1.  Returns a dict column-index ->
    coefficient, or None when inconsistent.
    """
    target = {key: v for key, v in target.items() if v}
    content = Fraction(gcd(*(v.numerator for v in target.values())),
                       lcm(*(v.denominator for v in target.values()))) or 1
    target = {key: (v / content).numerator for key, v in target.items()}
    if not all(rows.get(key) for key in target):
        return None                # an untouched target key: a unit witness
    keys = sorted(rows)
    system = _System([rows[key] for key in keys], [target.get(key, 0) for key in keys])
    dual = None
    for p in PRIMES:
        x = system.solve_mod(p)
        if x is None:
            continue
        if x is not _INCONSISTENT:
            return {j: v * content for j, v in x.items()}
        if dual is None:
            columns = [*columns, target]
            dual = _System(columns, [0] * (len(columns) - 1) + [1])
        y = dual.solve_mod(p)
        if y is not None and y is not _INCONSISTENT:
            return None            # an exact witness: y . A = 0, y . b = 1
    raise ArithmeticError("no prime of the list settles the span system")


def _timed(stages, name, fn, *args):
    """``fn(*args)``, its wall seconds added to ``stages[name]``, a raise's too."""
    clock = time.perf_counter()
    try:
        return fn(*args)
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - clock


def span_zero_test(expr, budget=DEFAULT_ROUNDS, max_relations=MAX_RELATIONS, stages=None):
    """Certify that a psi-free expression is a combination of WDVV relations.

    The expression comes after psi elimination (``RelationBasis`` rejects a
    psi power).  One relation closure of its support grows by a round at a
    time, up to ``budget`` rounds, and the span is solved after each round
    that adds a relation; a returned Zero certificate lists the relations it
    uses over keys, not ids, each restored from its signature, and is
    re-verified by substitution before being reported.  The seconds of the closure rounds and of the solves are added
    to ``stages["closure_s"]`` and ``stages["solve_s"]``, those spent before
    a budget overflow too; the dict only collects them.
    Unknown is a budget-bounded outcome, not a nonzeroness proof.  The test
    does not pair the expression with psi monomials: a nonzero pairing puts
    it outside the span at every budget, and the CLI checks that before psi
    elimination.
    """
    if expr.is_zero():
        return ZeroCertificate(True, (), 0, "normalizes to zero")
    stages = {} if stages is None else stages
    basis = RelationBasis(expr.support())
    target = {basis.ids[key]: v for key, v in expr._terms.items()}
    for rounds in range(1, budget + 1):
        count = len(basis.relations)
        _timed(stages, "closure_s", generate_wdvv_relations, basis, max_relations)
        if len(basis.relations) == count:
            continue               # no new relation: the last outcome stands
        # Relations sharing no key with the target's component are separate
        # blocks with a zero right-hand side; they keep their own pivot
        # columns and solve to zero, so they need not be filtered out.
        solution = _timed(stages, "solve_s", _solve_exact, basis.rows, target,
                          itertools.starmap(_restored, basis.relations.items()))
        if solution is None:
            continue
        used = {i: _restored(*item) for i, item in enumerate(basis.relations.items())
                if i in solution}
        combination = tuple((v, {basis.keys[k]: n for k, n in used[i].items()})
                            for v, i in sorted((v, i) for i, v in solution.items()))
        # re-substitution check: the certificate must reproduce the input
        acc = {}
        for c, rel in combination:
            for key, n in rel.items():
                acc[key] = acc.get(key, 0) + c * n
        if {key: v for key, v in acc.items() if v} != expr._terms:
            raise AssertionError("certificate failed re-substitution")
        return ZeroCertificate(True, combination, rounds, "wdvv-span")
    return ZeroCertificate(False, (), budget, "unknown")


# ---------------------------------------------------------------------------
# integration


def _odd_factorial(m):
    """m!! for odd m >= -1, with (-1)!! = 1."""
    return prod(range(m, 0, -2))


@lru_cache(maxsize=None)
def vertex_integral(genus, exponents):
    """The psi integral <tau_{a1} ... tau_{an}>_g over M_{g,n}, exactly.

    The DVV (Virasoro) recursion (Dijkgraaf-Verlinde-Verlinde 1991; Witten
    1991) peels the least exponent a1 = k + 1 of the sorted input.  For
    k = -1 it is the string equation and for k = 0 the dilaton equation, so
    genus <= 1 inputs never reach the genus-lowering or splitting sums.  The
    anchors are <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24; an input off the
    dimension 3g - 3 + n, or of an unstable (g, n), integrates to 0.
    """
    exps = sorted(exponents)
    n = len(exps)
    if 2 * genus - 2 + n <= 0 or sum(exps) != 3 * genus - 3 + n:
        return Fraction(0)
    if (genus, n) == (0, 3):
        return Fraction(1)
    if (genus, n) == (1, 1):
        return Fraction(1, 24)
    k, rest = exps[0] - 1, exps[1:]
    total = Fraction(0)
    for j, d in enumerate(rest):
        if d + k >= 0:
            moved = (*rest[:j], d + k, *rest[j + 1:])
            total += (_odd_factorial(2 * (d + k) + 1) // _odd_factorial(2 * d - 1)
                      * vertex_integral(genus, moved))
    for r in range(k):             # r + s = k - 1
        s = k - 1 - r
        half = Fraction(_odd_factorial(2 * r + 1) * _odd_factorial(2 * s + 1), 2)
        if genus:
            total += half * vertex_integral(genus - 1, (r, s, *rest))
        for g1 in range(genus + 1):
            for mask in itertools.product((0, 1), repeat=len(rest)):
                one = tuple(d for d, m in zip(rest, mask) if m)
                two = tuple(d for d, m in zip(rest, mask) if not m)
                total += (half * vertex_integral(g1, (r, *one))
                          * vertex_integral(genus - g1, (s, *two)))
    return total / _odd_factorial(2 * k + 3)


def integrate(expr):
    """Integrate a top-degree expression over its ambient space."""
    if expr.is_zero():
        return Fraction(0)
    if expr.degree() != expr.ambient.dimension:
        raise ValueError("degree %d is not the ambient dimension %d"
                         % (expr.degree(), expr.ambient.dimension))
    return next(_pairings(expr))[1]


def _pairings(expr):
    """The pairings of a nonzero expression of degree at most the ambient
    dimension against the complementary psi monomials: (exponent tuple over
    ambient legs, integral) pairs, the monomials in
    ``combinations_with_replacement`` order of the legs, zeros included.

    A vertex integrates to nonzero only at its dimension, so the terms are
    walked once, and each adds only to the monomials that raise the
    exponents of each of its vertices' ambient legs by exactly what the
    vertex lacks of its dimension: the coefficient times the integrals of
    its vertices, read off the base classes of its key and multiplied as
    integer numerators and denominators.  Numerators are summed per
    monomial and denominator, and a monomial, its ambient leg positions
    sorted with repetition, makes one ``Fraction`` per denominator."""
    labels = expr.ambient.labels
    position = {label: i for i, label in enumerate(labels)}
    acc = {}
    for key, coeff in expr._terms.items():
        choices = []               # per vertex: (leg positions, integral) pairs
        for genus_v, legs, intexp in key[0]:
            lack = (3 * genus_v - 3 + len(legs) + len(intexp)
                    - sum(e for _label, e in legs) - sum(intexp))
            if lack < 0:
                break
            at = [n for n, (label, _e) in enumerate(legs) if label in position]
            ways = []
            for raised in itertools.combinations_with_replacement(at, lack):
                exps = [e + raised.count(n) for n, (_label, e) in enumerate(legs)]
                value = vertex_integral(genus_v, tuple(sorted(exps + [*intexp])))
                if value:
                    ways.append(([position[legs[n][0]] for n in raised], value))
            if not ways:
                break
            choices.append(ways)
        else:
            for pick in itertools.product(*choices):
                num, den, monomial = coeff.numerator, coeff.denominator, []
                for raised, value in pick:
                    num *= value.numerator
                    den *= value.denominator
                    monomial += raised
                by_den = acc.setdefault(tuple(sorted(monomial)), {})
                by_den[den] = by_den.get(den, 0) + num
    codim = expr.ambient.dimension - expr.degree()
    for combo in itertools.combinations_with_replacement(range(len(labels)), codim):
        yield (tuple(combo.count(i) for i in range(len(labels))),
               sum([Fraction(n, d) for d, n in acc.get(combo, {}).items()], Fraction(0)))


def pair_with_psi_monomials(expr):
    """All pairings of the expression against complementary psi monomials.

    Returns (exponent tuple over ambient legs, integral) pairs; a zero class
    pairs to zero against everything.  Each term adds to the monomials that
    bring its vertices to their dimensions (see ``_pairings``), without
    keying the product.  A pairing is an intersection
    number, so psi elimination, which rewrites a class into an equal one,
    leaves every pairing as it was.
    """
    if expr.is_zero():
        return [((0,) * len(expr.ambient.labels), Fraction(0))]
    if expr.degree() > expr.ambient.dimension:
        raise ValueError("expression degree exceeds the ambient dimension")
    return list(_pairings(expr))
