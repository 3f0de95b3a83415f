"""Labeled rational simple polytopes in H-representation.

A polytope is a finite list of facets (primitive integer outward normal,
rational offset, positive integer label); the point set is
{x : <normal, x> <= offset for every facet}.  All computations are exact.

A polytope read from input, or an affine unimodular image of one, is
walked from scratch: an exact phase-1 simplex finds one vertex (or
certifies that the region is empty), then a walk over the vertex-edge
graph carries an integer tableau, the adjugate of the active basis and its
products with every normal, from each simple vertex to the next by one
fraction-free exchange; a ratio test scans one column.  An edge that no
facet blocks is an unbounded ray; the region is bounded when no vertex has
one.

Every polytope derived by one half-space or hyperplane (cut, blow-up,
slice) takes its structure from its parent's edge graph instead, by the
double-description step (Motzkin; Fukuda-Prodon 1996): the parent's
vertices on the kept side stay, and each edge or ray that strictly crosses
the hyperplane gives one new vertex, whose active set is the facets holding
that edge plus the new one.  Edges are paired by that set of holding
facets, so no ratio test is run; a crossing edge is met from its cut-off
end, and the edges at a crossing of a simple vertex's edge come in closed
form (see `_crossing_edges`).  A step leaves out the facets that no
vertex of its child holds, and dropping the facets that stay redundant
carries the structure over unchanged.  Each polytope built ends in one
call of the same finishing code, and the derived structure is equal to
the one a fresh walk would give.

A facet is checked once (`_check_facet`): when a polytope is built from
input, or when a step adds it.  A derived polytope is built by `_derived`
from facets already checked and in canonical order: a half-space step
gates its one new facet and inserts it where `_order_key` puts it,
dropping facets keeps a subsequence, and a slice or an image sorts the
facets it computed from checked ones.

Every value of that exact arithmetic is an integer.  Vertices are kept as
integer rows over one positive denominator, and facet offsets as integer
pairs (num, den), both in lowest terms, so equal values have equal
integers.  A `Fraction` is built only at parse, by the `Facet.offset` and
`Vertex.point` accessors, and in values handed back to callers.

That code reads everything else off the edge records, by facts that hold
for every pointed polyhedron, simple or not (Schrijver 1986, section 8):
the extreme rays of the recession cone are the unbounded edges, the edges
at a vertex span the affine hull, and the edges at a vertex that lie in a
facet span that facet's face.  A simple vertex answers n and n - 1 with no
elimination; only a non-simple vertex takes a rank, and its tangent cone
takes the double-description step one active facet at a time.

Unbounded but pointed H-representations are tolerated by the operations
that need them (cutting a half-infinite region down to a compact one);
`validate` still rejects them.
"""
from __future__ import annotations

import bisect
import json
import math
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    EmptyResult,
    InputError,
    NotRegularLevel,
    NotSimple,
    PreconditionError,
)
from .lattice import (
    IntVector,
    _format_ratio,
    _is_int,
    _primitive,
    _sequence,
    adjugate_int,
    content,
    dot,
    exact,
    exchange,
    format_rational,
    generic_direction,
    independent_rows,
    inverse_unimodular,
    over_common_denominator,
    parse_rational,
    rank_int,
    transpose,
)

# The cone step takes polynomial time, but the output still grows: a cube's
# vertex count doubles per dimension (n = 12: 4 096 vertices in about 1 s on
# a shared Xeon core), and the cross-polytope's 2^n facets multiply the cost
# by 2 to 3 per dimension (n = 12: 13-16 s); a 40-facet 20-cube would take minutes.
MAX_DIM = 8

Row = tuple[IntVector, int]     # the point num / den, den > 0, in lowest terms


class Facet(namedtuple("Facet", "normal num den label")):
    """The half-space <normal, x> <= num / den, with a label.

    normal is a primitive integer vector, num / den the offset in lowest
    terms with den > 0, and label a positive integer.  Facet(normal, offset,
    label=1) takes the offset as an int or a Fraction, and `offset` gives it
    back as a Fraction.  An offset of any other type is kept as num, with
    den None, for the facet gate (`_check_facet`) to refuse.  Facets are
    ordered by the value of their offsets (see `_order_key`), never as
    tuples.
    """

    __slots__ = ()

    def __new__(cls, normal: IntVector, offset: Fraction, label: int = 1) -> "Facet":
        if isinstance(offset, Fraction) or _is_int(offset):
            return _facet(normal, offset.numerator, offset.denominator, label)
        return tuple.__new__(cls, (normal, offset, None, label))

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    @property
    def offset(self) -> Fraction:
        return Fraction(self.num, self.den)

    def key(self) -> tuple:
        return (self.normal, self.offset, self.label)


def _facet(normal: IntVector, num: int, den: int, label: int) -> Facet:
    """The facet <normal, x> <= num / den (den nonzero), put in lowest terms."""
    g = math.gcd(num, den) * (-1 if den < 0 else 1)
    return tuple.__new__(Facet, (normal, num // g, den // g, label))


def _order_key(facets: Sequence[Facet]) -> Callable[[Facet], tuple]:
    """The sort key of the canonical facet order, by normal, offset and
    label, for these facets: offsets compare as integers over their lcm."""
    lcm = math.lcm(*(f.den for f in facets))
    return lambda f: (f.normal, f.num * (lcm // f.den), f.label)


class Vertex(namedtuple("Vertex", "row active")):
    """A vertex: its point as an integer row (num, den) and its active
    facets, a frozenset.  `point` builds the point's Fractions when first
    asked, and keeps them in the instance dict: no `__slots__`."""

    @cached_property
    def point(self) -> tuple[Fraction, ...]:
        return _point(self.row)


def _check_facet(i: int, f: Facet, dim: int) -> None:
    """The one gate of a facet's values, run once on every facet a polytope
    is given; i names the facet in a refusal (its input position)."""
    # bools are ints to Python, but not to JSON
    if type(f.normal) is not tuple or not {int}.issuperset(map(type, f.normal)):
        raise InputError(f"facet {i}: normal must be a tuple of integers, got {f.normal!r}")
    if f.den is None:
        raise InputError(f"facet {i}: offset must be an integer or a Fraction, got {f.num!r}")
    if type(f.label) is not int or f.label < 1:
        raise InputError(f"facet {i}: label must be a positive integer, got {f.label!r}")
    g = math.gcd(*f.normal)
    if g == 0:
        raise InputError(f"facet {i}: zero normal")
    if g != 1:
        raise InputError(
            f"facet {i}: normal {list(f.normal)} is not primitive; "
            f"use {[x // g for x in f.normal]} with offset "
            f"{format_rational(f.offset / g)}")
    if len(f.normal) != dim:
        raise InputError(f"facet {i}: normal has length {len(f.normal)}, expected {dim}")


class LabeledPolytope:
    """Immutable H-representation; geometric structure is computed lazily."""

    # kept with the polytope when first computed: its Structure, edge graph
    # (see _edge_graph), vertices and polytope_hash
    _structure = _graph = _vertices = _hash = None

    def __init__(self, dim: int, facets: Iterable[Facet]):
        if not _is_int(dim):
            raise InputError(f"dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        facets = tuple(facets)
        if not facets:
            raise InputError("a polytope needs at least one facet")
        for i, f in enumerate(facets):
            _check_facet(i, f, dim)
        self.dim = dim
        # canonical facet order keeps indices stable across serialization
        self.facets = tuple(sorted(facets, key=_order_key(facets)))

    def __repr__(self) -> str:
        return f"LabeledPolytope(dim={self.dim}, facets={len(self.facets)})"

    def structure(self) -> "Structure":
        if self._structure is None:
            self._structure = _compute_structure(self)
        return self._structure


def _derived(dim: int, facets: Sequence[Facet], order: bool = False) -> LabeledPolytope:
    """The private build path: a polytope on facets that are already checked
    and in canonical order, or that the engine built from checked ones and
    puts in that order (`order`); no facet is gated again."""
    P = object.__new__(LabeledPolytope)
    P.dim, P.facets = dim, tuple(sorted(facets, key=_order_key(facets)) if order else facets)
    return P


class Structure(namedtuple("Structure", "points simple rays bounded full_dim "
                                        "redundant affine_rank edges dets")):
    """Everything the walk over the vertex-edge graph learns about one
    H-representation.

    points are the vertices, as integer rows (num, den), with their active
    facet sets, sorted by point, so that x1 never decreases along them (the
    profile and `critical_values` read the levels in this order);
    edges[k] holds the primitive edge directions at points[k], in
    sorted(active) order at a simple vertex (entry i relaxes the i-th active
    facet) and the extreme rays of the tangent cone at a non-simple one.
    The rest is read off these edge records: rays are the unbounded edges in
    order of first appearance, affine_rank is the rank of the edges at the
    first vertex, and a facet is redundant when no vertex holds it or the
    edges at its first vertex that lie in it span fewer than n - 1
    dimensions.  dets[k] is |det G_v| for the rows edges[k] of G_v at a
    simple vertex, None at another, read by the volume and the profile; it
    comes with the edges (`_simple_edges`, `_crossing_edges`, `slice_at`).
    The cached property lives in the instance dict: no `__slots__`.
    """

    @cached_property
    def index_by_active(self) -> dict[frozenset[int], int]:
        return {act: k for k, (_, act) in enumerate(self.points)}


def _row(num: Sequence[int], den: int) -> Row:
    """The point num / den (den nonzero) in lowest terms, den > 0."""
    g = math.gcd(den, *num) * (-1 if den < 0 else 1)
    return tuple(x // g for x in num), den // g


def _scaled_rows(facets: Sequence[Facet]) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Clear offset denominators: returns (normals, scaled offsets, scale L)."""
    lcm = math.lcm(*(f.den for f in facets))
    return [f.normal for f in facets], [f.num * (lcm // f.den) for f in facets], lcm


def _combine(e: IntVector, re: int, g: IntVector, rg: int) -> tuple[IntVector, int]:
    """primitive(v) and its gcd for v = |rg| e - sgn(rg) re g, which pairs to
    zero with a when re = <a, e> and rg = <a, g> != 0: a half-space step's."""
    v = [abs(rg) * x - (1 if rg > 0 else -1) * re * y for x, y in zip(e, g)]
    c = math.gcd(*v)
    return (tuple(v) if c == 1 else tuple([x // c for x in v])), c


def _simple_edges(cols, det: int, n: int) -> tuple[tuple[IntVector, ...], int]:
    """A simple vertex's edges, its oriented tableau's columns over their gcds
    g_l, and |det G_v| = |det adj B| / prod g_l = |det B|^(n-1) / prod g_l."""
    es = [c[:n] for c in cols]
    gs = [math.gcd(*e) for e in es]
    return (tuple([tuple(e) if g == 1 else tuple([x // g for x in e]) for e, g in zip(es, gs)]),
            (-det) ** (n - 1) // math.prod(gs))


def _edge_directions(normals, act: list[int], n: int):
    """The extreme rays of the tangent cone {d : <a_j, d> <= 0} at a vertex
    with sorted active facets act, primitive, and |det G_v| or None.

    Ray k of the first n independent active facets is column k of their
    basis's adjugate, signed to pair negatively with its own normal; at a
    simple vertex it relaxes act[k].  Each further facet is added by the
    double-description step (Motzkin et al. 1953; Fukuda-Prodon 1996): rays
    with <a_j, d> <= 0 stay, and two rays across it combine when no third
    ray's zero set holds their common zero set.  A non-simple vertex's rays are
    sorted by the greedy basis of their zero sets, the order in which the
    (n-1)-subsets of act first give them; a zero set has rank n - 1, and its
    elimination stops there.
    """
    rows = [normals[j] for j in act]
    basis = range(n) if len(act) == n else independent_rows(rows)
    adj, det = adjugate_int([list(rows[i]) for i in basis])
    cols = [c if det < 0 else [-x for x in c] for c in zip(*adj)]
    if len(act) == n:
        return _simple_edges(cols, -abs(det), n)
    # each ray with the bit mask of the rows it pairs to zero with so far
    rays = [(_primitive(col), sum(1 << j for j in basis if j != i)) for i, col in zip(basis, cols)]
    for i in sorted(set(range(len(act))).difference(basis)):
        r = [dot(rows[i], e) for e, _ in rays]
        new = [(_combine(e, re, g, rg)[0], ze & zg | 1 << i)
               for (e, ze), re in zip(rays, r) if re > 0
               for (g, zg), rg in zip(rays, r) if rg < 0
               if sum(ze & zg & z == ze & zg for _, z in rays) == 2]
        rays = [(e, z | 1 << i if re == 0 else z) for (e, z), re in zip(rays, r) if re <= 0] + new

    def greedy_basis(ray) -> list[int]:
        zero = [i for i in range(len(act)) if ray[1] >> i & 1]
        return [zero[k] for k in independent_rows([rows[i] for i in zero], n - 1)]
    return tuple(e for e, _ in sorted(rays, key=greedy_basis)), None


def _ratio_test(slack: list[int], r: list[int]) -> Optional[tuple[int, int, list[int]]]:
    """How far a point can move along d before a row stops it: (p, q, the
    rows attaining it) for p/q the least slack_j / r_j over the rows with
    r_j = <a_j, d> > 0, or None when no row blocks d (an unbounded edge)."""
    p, q, ties = None, 1, []
    for j, (s, rj) in enumerate(zip(slack, r)):
        if rj > 0:
            if p is None or s * q < p * rj:
                p, q, ties = s, rj, [j]
            elif s * q == p * rj:
                ties.append(j)
    return None if p is None else (p, q, ties)


def _advance(num: list[int], den: int, slack: list[int], v: list[int], p: int, q: int):
    """num/den + (p / (q den)) d and its slacks, reduced, for v = d followed
    by the r_j of `_ratio_test`.  The gcd takes the last slack, t in phase 1."""
    nxt = [q * x + p * d for x, d in zip(num, v)]
    sl = [q * s - p * r for s, r in zip(slack, v[len(num):])]
    g = math.gcd(q * den, *nxt, sl[-1])
    return [x // g for x in nxt], q * den // g, [s // g for s in sl]


def _basis(normals, act: list[int]) -> tuple[list[list[int]], int]:
    """The oriented tableau of the sorted basis act by one fresh adjugate:
    per basis row l, column c_l followed by <a_j, c_l> for every facet j."""
    adj, det = adjugate_int([list(normals[j]) for j in act])
    s = -1 if det > 0 else 1
    return [[s * x for x in c] + [s * dot(a, c) for a in normals] for c in zip(*adj)], s * det


def _pivot(basis, act: list[int], k: int, r: int, n: int):
    """act with act[k] replaced by row r, and its tableau by one `exchange`,
    kept in sorted row order.  Reordering rows flips the signs of tableau
    and det alike, so the columns stay the edges, with det < 0."""
    cols, det = exchange(*basis, k, n + r)
    rest = act[:k] + act[k + 1:]
    i = sum(j < r for j in rest)
    cols.insert(i, cols.pop(k))
    return rest[:i] + [r] + rest[i:], (cols, det)


def _phase1(normals, offs, n: int):
    """(start, None) for the walk's first stack entry (num, den, slack,
    tableau) at a vertex, or (None, y) for a Farkas certificate that the
    region is empty: integers y >= 0, sum y_j a_j = 0, sum y_j o_j < 0;
    (None, None) when the normals do not span R^n (no vertex, not pointed).

    The first n independent facets, `rows`, give the vertex when their
    basic solution is feasible.  Otherwise phase 1 minimises t >= 0 over
    <a_j, x> - t <= o_j (j not in rows) and <a_i, x> <= o_i (i in rows)
    from rows plus the most violated facet, by Bland's rule with the row
    t >= 0 first.  Its oriented tableau has one more column, the row of t last.
    """
    m = len(normals)
    rows = independent_rows(normals)
    if len(rows) < n:
        return None, None
    cols, det = _basis(normals, rows)
    v = [dot([offs[i] for i in rows], e) for e in zip(*cols)]
    g = math.gcd(det, *v[:n]) * (-1 if det < 0 else 1)
    num, den = [x // g for x in v[:n]], det // g
    slack = [(o * det - x) // g for o, x in zip(offs, v[n:])]
    worst = min(range(m), key=slack.__getitem__)
    if slack[worst] >= 0:
        return (num, den, slack, (cols, det)), None
    # the row of facet j is (a_j, -1) off `rows`; the row of t is (0, -1)
    shifted = [j not in rows for j in range(m)]
    t = -slack[worst]
    cols = [c[:n] + [x - s * c[n + worst] for x, s in zip(c[n:], shifted)] + [-c[n + worst]]
            for c in cols] + [[0] * n + [det * s for s in shifted] + [det]]
    act = sorted(rows + [worst])
    cols.insert(act.index(worst), cols.pop())
    slack = [x + t * s for x, s in zip(slack, shifted)] + [t]
    basis = (cols, det)
    while True:
        # edge k changes t by minus its last entry; take the first that lowers it
        k = next((k for k, c in enumerate(basis[0]) if c[-1] > 0), None)
        if k is None:
            at = dict(zip(act, basis[0]))
            return None, [-at[j][-1] if j in at else 0 for j in range(m)]
        v = basis[0][k]
        p, q, ties = _ratio_test(slack, v[n:])
        r = m if ties[-1] == m else ties[0]
        num, den, slack = _advance(num, den, slack, v, p, q)
        act, basis = _pivot(basis, act, k, r, n)
        if r == m:
            return (num, den, slack[:-1], ([c[:-1] for c in basis[0][:-1]], basis[1])), None


def _edge_keys(normals, act: list[int], edges, n: int) -> list[frozenset[int]]:
    """The facets holding each edge at a vertex with sorted active set act.

    These are all the facets that contain the edge, so the two ends of a
    bounded edge give it the same key and an unbounded ray has it at one
    vertex only.  At a simple vertex edge k relaxes act[k] alone.
    """
    if len(act) == n:
        return [frozenset(act[:k] + act[k + 1:]) for k in range(n)]
    return [frozenset(j for j in act if dot(normals[j], e) == 0) for e in edges]


def _pair_edges(normals, n: int, points, edges) -> list[list[tuple[Optional[int], frozenset[int]]]]:
    """Per vertex and per edge at it: the index of the vertex at the other
    end (None on an unbounded ray) and the edge's key."""
    keys = [_edge_keys(normals, sorted(act), es, n) for (_, act), es in zip(points, edges)]
    ends: dict[frozenset[int], list[int]] = defaultdict(list)
    for k, ks in enumerate(keys):
        for key in ks:
            ends[key].append(k)
    return [[(next((w for w in ends[key] if w != k), None), key) for key in ks]
            for k, ks in enumerate(keys)]


def _walk(normals, n, start) -> list[tuple]:
    """Every vertex of a pointed region, by a walk over its edge graph from
    `start` (see `_phase1`).  The vertices and bounded edges of a pointed
    polyhedron form a connected graph, so the walk reaches all of them.

    Returns (num, den, active, edges, det, unbounded) per vertex: the point
    num/den of the scaled system, its active facets (sorted), its edge
    directions, |det G_v| and the set of edges that no facet blocks.  An
    edge is walked once; its key, the facets that stay tight along it, and
    the facets that block it are the active set at its far end.  A simple
    vertex reached from a simple one through one blocking facet gets its
    tableau by one exchange; ratio tests scan its columns.
    """
    found = []
    walked: set[frozenset[int]] = set()
    act = [j for j, s in enumerate(start[2]) if s == 0]
    seen = {frozenset(act)}
    stack = [(*start, act)]
    while stack:
        num, den, slack, basis, act = stack.pop()
        simple = len(act) == n
        if simple:
            basis = basis or _basis(normals, act)
            moves = basis[0]
            edges, det = _simple_edges(*basis, n)
        else:
            edges, det = _edge_directions(normals, act, n)
            moves = [list(e) + [dot(a, e) for a in normals] for e in edges]
        unbounded = set()
        for k, (e, v, tight) in enumerate(zip(edges, moves, _edge_keys(normals, act, edges, n))):
            if tight in walked:
                continue
            walked.add(tight)
            step = _ratio_test(slack, v[n:])
            if step is None:
                unbounded.add(e)
                continue
            p, q, ties = step
            nxt_active = tight.union(ties)
            if nxt_active in seen:
                continue
            seen.add(nxt_active)
            nxt_basis = _pivot(basis, act, k, ties[0], n)[1] if simple and len(ties) == 1 else None
            stack.append((*_advance(num, den, slack, v, p, q), nxt_basis, sorted(nxt_active)))
        found.append((num, den, act, edges, det, unbounded))
    return found


def _compute_structure(P: LabeledPolytope) -> Structure:
    """The from-scratch walk, for a polytope with no parent structure."""
    n = P.dim
    normals, offs, lcm = _scaled_rows(P.facets)
    start = _phase1(normals, offs, n)[0]
    walk = _walk(normals, n, start) if start else []
    # num/den solves the system scaled by lcm; unscale
    return _finish(normals, n, [(_row(num, den * lcm), frozenset(act), *rest)
                                for num, den, act, *rest in walk])


def _finish(normals, n: int, records) -> Structure:
    """The Structure of a region from its vertex records, shared by the walk
    and the derived steps.

    A record is (row, active set, edges, |det G_v|, unbounded edges); the
    last is None when not known, and then edges are paired by their keys.
    Rows are sorted by their numerators over the common denominator, the
    order of their points.
    Rays, rank and redundancy are read off the edges, as in every pointed
    polyhedron, simple or not: the extreme rays of the recession cone are
    the unbounded edges, the edges at a vertex span the affine hull, and
    those lying in a facet span that facet's face.  A simple vertex gives n
    and n - 1 by its facet count; only a non-simple one takes a rank.  Each
    polytope a walk or a step builds is finished once.
    """
    common = math.lcm(*(den for (_, den), *_ in records))
    records = sorted(records, key=lambda r: [x * (common // r[0][1]) for x in r[0][0]])
    rows, acts, edges, dets, unbounded = list(zip(*records)) or [()] * 5
    points = tuple(zip(rows, acts))
    if None in unbounded:
        unbounded = [{e for e, (w, _) in zip(es, ends) if w is None}
                     for es, ends in zip(edges, _pair_edges(normals, n, points, edges))]
    rays = tuple(dict.fromkeys(e for es, unb in zip(edges, unbounded) if unb for e in es if e in unb))

    def span(es, facet=None) -> int:
        """The rank of the edges at a non-simple vertex, or of those lying in
        `facet`; a simple vertex has n independent edges, n - 1 in each facet."""
        return rank_int([e for e in es if facet is None or dot(normals[facet], e) == 0])

    affine_rank = -1 if not points else n if len(acts[0]) == n else span(edges[0])
    redundant: set[int] = set()
    if affine_rank == n:
        # the first vertex holding each facet, as the last one written
        first = {i: k for k in range(len(acts) - 1, -1, -1) for i in acts[k]}
        redundant = {i for i in range(len(normals)) if i not in first
                     or len(acts[first[i]]) > n and span(edges[first[i]], i) < n - 1}

    return Structure(
        points=points,
        simple=max(map(len, acts), default=n) == n,     # a vertex holds n facets or more
        rays=rays,
        bounded=bool(points) and not rays,
        full_dim=affine_rank == n,
        redundant=frozenset(redundant),
        affine_rank=affine_rank,
        edges=edges,
        dets=dets,
    )


# ---------------------------------------------------------------------------
# derived structures: one half-space step, and dropping facets
# ---------------------------------------------------------------------------

def _edge_graph(P: LabeledPolytope) -> list:
    """_pair_edges over P's structure; kept with P for its later children."""
    if P._graph is None:
        st = P.structure()
        P._graph = _pair_edges([f.normal for f in P.facets], P.dim, st.points, st.edges)
    return P._graph


def _crossing_edges(act: list[int], es, r: list[int], k: int, det: int):
    """Where edge k of a simple vertex with sorted active set act crosses the
    plane <a, x> = c (es its edges, r_i = <a, es[i]>, det its |det G_v|):
    the new vertex w's edge relaxing each facet but act[k], es[j] when r_j
    = 0 and else `_combine(es[j], r_j, es[k], r_k)`, over its gcd c_j; the
    new facet's (None) -sgn(r_k) es[k]; and |det G_w| = det |r_k|^#{j != k: r_j != 0} / prod c_j."""
    s, g, rk = (1 if r[k] > 0 else -1), es[k], r[k]
    relax, c = {None: tuple([-s * x for x in g])}, 1
    for j, e, rj in zip(act[:k] + act[k + 1:], es[:k] + es[k + 1:], r[:k] + r[k + 1:]):
        relax[j], cj = _combine(e, rj, g, rk) if rj else (e, 1)
        c *= cj
    return relax, det * abs(rk) ** (len(r) - r.count(0) - 1) // c


def _crossings(P: LabeledPolytope, normal: IntVector, p: int, q: int):
    """Where the hyperplane <normal, x> = p / q (q > 0) meets P's edge graph.

    Returns the slack p / q - <normal, v> of every vertex v of P, each
    scaled by a positive integer, and one (row, key, relax, det) per edge or
    unbounded ray of P that passes strictly from slack > 0 to slack < 0:
    key is the set of facets holding that edge, and (relax, det) are
    `_crossing_edges` at the new vertex, both None when the edge is met
    from a non-simple vertex.
    A bounded edge is met from its end with slack < 0, so a bounded P pairs
    the edges of its cut-off vertices only: a corner chop, its corner's.
    """
    st = P.structure()
    pairs = _edge_graph(P)
    slack = [p * den - q * dot(normal, num) for (num, den), _ in st.points]
    found = []
    for ((num, den), act), es, det, ends, sl in zip(st.points, st.edges, st.dets, pairs, slack):
        if sl == 0 or st.bounded and sl > 0:
            continue
        r = [dot(normal, e) for e in es]
        for k, (e, (w, key), rk) in enumerate(zip(es, ends, r)):
            # slack rises along e when r < 0: a bounded edge is met from its
            # end with slack < 0, a ray from its start, which has slack > 0
            # (only in an unbounded P) when r > 0.  The point is
            # num/den + sl / (q den r) e.
            if rk * sl > 0 and (w is None or sl < 0 < slack[w]):
                row = _row([q * rk * x + sl * c for x, c in zip(num, e)], q * den * rk)
                found.append((row, key, *(_crossing_edges(sorted(act), es, r, k, det)
                                          if len(act) == len(num) else (None, None))))
    return slack, found


def _halfspace_step(P: LabeledPolytope, facet: Facet) -> LabeledPolytope:
    """P intersected with {<facet.normal, x> <= facet.offset}, with its
    Structure derived from P's and finished once.

    When the new facet repeats one of P's (normal and offset), the region
    is P's and P itself is returned.  A parent with no vertex has no edge
    graph to step from, and its child is walked from scratch.  A child that
    keeps a point of P strictly inside is full-dimensional when P is, and
    leaves out the facets that none of its vertices holds: they are
    redundant.  `intersect_halfspace` prunes the rest.
    """
    # P's facets are checked and in order: gate the new one, and put it where
    # the canonical order does (past the repeats, no facet of P has its key)
    _check_facet(len(P.facets), facet, P.dim)
    if any(f.normal == facet.normal and f.num == facet.num and f.den == facet.den
           for f in P.facets):
        return P
    pos = bisect.bisect(P.facets, (key := _order_key(P.facets + (facet,)))(facet), key=key)
    st = P.structure()
    if not st.points:
        return _derived(P.dim, P.facets[:pos] + (facet,) + P.facets[pos:])
    n = P.dim
    slack, crossings = _crossings(P, facet.normal, facet.num, facet.den)
    # the facets holding each kept vertex and the child's facets, by their
    # index in P, None for the new one
    kept = [(row, act if sl else act | {None}, es, det)
            for (row, act), es, det, sl in zip(st.points, st.edges, st.dets, slack) if sl >= 0]
    ids = [*range(pos), None, *range(pos, len(P.facets))]
    if st.full_dim and (crossings or max(slack) > 0):
        held = set().union(*(act for _, act, *_ in kept), *(key | {None} for _, key, *_ in crossings))
        ids = [j for j in ids if j in held]
    moved = {j: i for i, j in enumerate(ids)}
    child = _derived(n, tuple(facet if j is None else P.facets[j] for j in ids))
    normals = [f.normal for f in child.facets]
    unb = set() if st.bounded else None
    records = []
    for row, act, es, det in kept:
        q_act = frozenset(map(moved.__getitem__, act))
        if None in act:
            es, det = _edge_directions(normals, sorted(q_act), n)
        records.append((row, q_act, es, det, unb))
    for row, key, relax, det in crossings:
        act = sorted(map(moved.__getitem__, key | {None}))
        es, det = ((tuple(map({moved[j]: e for j, e in relax.items()}.__getitem__, act)), det)
                   if relax else _edge_directions(normals, act, n))
        records.append((row, frozenset(act), es, det, unb))
    child._structure = _finish(normals, n, records)
    return child


def _drop_facets(P: LabeledPolytope, drop: Iterable[int]) -> LabeledPolytope:
    """P without the facets in `drop`, none of which changes the region.

    The vertices and edges stay, so P's structure is carried over: active
    sets are renumbered, and only a vertex that lost a facet gets its edge
    directions and determinant again.
    """
    st = P.structure()
    drop = set(drop)
    keep = [i for i in range(len(P.facets)) if i not in drop]
    Q = _derived(P.dim, tuple(P.facets[i] for i in keep))
    new = {i: k for k, i in enumerate(keep)}
    normals = [f.normal for f in Q.facets]
    records = []
    for (pt, act), es, det in zip(st.points, st.edges, st.dets):
        q_act = frozenset(new[j] for j in act if j in new)
        if len(q_act) < len(act):
            es, det = _edge_directions(normals, sorted(q_act), P.dim)
        records.append((pt, q_act, es, det, set() if st.bounded else None))
    Q._structure = _finish(normals, P.dim, records)
    return Q


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _point(row: Row) -> tuple[Fraction, ...]:
    num, den = row
    return tuple(Fraction(x, den) for x in num)


def _format_row(row: Row) -> str:
    return f"({', '.join(map(format_rational, _point(row)))})"


def _simple_points(P: LabeledPolytope) -> tuple[tuple[Row, frozenset[int]], ...]:
    """P's vertex rows with their active sets; NotSimple at a vertex on more
    than dim facets."""
    st = P.structure()
    if not st.simple:
        row, act = next((row, act) for row, act in st.points if len(act) > P.dim)
        raise NotSimple(f"vertex {_format_row(row)} lies on {len(act)} facets")
    return st.points


def vertices(P: LabeledPolytope) -> list[Vertex]:
    """All vertices with their active facet sets, sorted by coordinates."""
    if P._vertices is None:
        P._vertices = [Vertex(row, act) for row, act in _simple_points(P)]
    return list(P._vertices)


def critical_values(P: LabeledPolytope) -> list[Fraction]:
    """Distinct first coordinates of the vertices, sorted: x1 never
    decreases along the points, so each new level is read off in order."""
    levels: list[Fraction] = []
    last = None
    for (num, den), _ in _simple_points(P):
        if last is None or num[0] * last[1] != last[0] * den:
            last = num[0], den
            levels.append(Fraction(*last))
    return levels


def dimension_failure(P: LabeledPolytope) -> Optional[str]:
    if P.dim > MAX_DIM:
        return f"dimension {P.dim} exceeds the supported maximum {MAX_DIM}"
    return None


def _empty_reason(P: LabeledPolytope) -> Optional[str]:
    """The facets of phase 1's certificate when P is empty and its normals
    span R^n; None otherwise (the region may hold a line)."""
    y = _phase1(*_scaled_rows(P.facets)[:2], P.dim)[1]
    return y and f"facets {', '.join(str(j) for j, yj in enumerate(y) if yj)} have no common point"


def require_bounded(P: LabeledPolytope, need: str) -> None:
    """Refuse an unbounded or vertex-less region; `need` ends the message."""
    st = P.structure()
    if st.rays:
        raise PreconditionError(
            f"the region is unbounded along {list(st.rays[0])}; {need}")
    require_vertices(P, need)


def require_vertices(P: LabeledPolytope, need: str) -> None:
    """Refuse a region with no vertex, naming why; `need` ends the message."""
    if not P.structure().points:
        reason = _empty_reason(P)
        raise PreconditionError(
            f"the region is empty: {reason}; {need}" if reason else
            f"the region has no vertex (it is empty or contains a line); {need}")


def require_regular(P: LabeledPolytope, a: Fraction) -> None:
    """Refuse a level a at which a vertex of P lies."""
    a = exact(a, "level")
    p, q = a.numerator, a.denominator
    if any(num[0] * q == p * den for (num, den), _ in _simple_points(P)):
        raise NotRegularLevel(f"a vertex lies at level {format_rational(a)}")


class ValidationReport(namedtuple("ValidationReport", "valid failures")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"valid": self.valid, "failures": list(self.failures)}


def validate(P: LabeledPolytope) -> ValidationReport:
    """Check boundedness, full dimension, simplicity and irredundancy."""
    failure = dimension_failure(P)
    if failure:
        return ValidationReport(False, (failure,))
    failures: list[str] = []

    seen: dict[IntVector, int] = {}
    for i, f in enumerate(P.facets):
        if f.normal in seen:
            failures.append(
                f"facets {seen[f.normal]} and {i} share the normal {list(f.normal)} "
                "(duplicate or parallel facet; one is redundant)")
        else:
            seen[f.normal] = i
    if failures:
        return ValidationReport(False, tuple(failures))

    st = P.structure()
    if not st.points:
        reason = _empty_reason(P)
        failures.append(f"empty: {reason}" if reason else
                        "no vertex: the region is empty or unbounded without vertices")
        return ValidationReport(False, tuple(failures))
    if not st.simple:
        for row, act in st.points:
            if len(act) > P.dim:
                failures.append(
                    f"not simple: vertex {_format_row(row)} lies on facets {sorted(act)}")
    if failures:
        return ValidationReport(False, tuple(failures))
    if not st.bounded:
        for r in st.rays:
            failures.append(f"unbounded along direction {list(r)}")
    if not st.full_dim:
        failures.append(f"not full-dimensional: affine rank {st.affine_rank} < {P.dim}")
    for i in sorted(st.redundant):
        f = P.facets[i]
        failures.append(f"facet {i} ({list(f.normal)} <= {_format_ratio(f.num, f.den)}) "
                        "is redundant")
    return ValidationReport(not failures, tuple(failures))


def volume(P: LabeledPolytope) -> Fraction:
    """Exact Euclidean volume (lattice normalization of Z^n) by Lawrence's
    vertex sum (Lawrence 1991; Brion 1988) over the edge records,

        vol(P) = (1/n!) sum_v <c, v>^n |det G_v| / prod_k (-<c, g_k>),

    G_v the edge generators g_k at v and c any vector with <c, g> != 0 for
    every edge generator, each paired once.  With v = num / q each term is an
    integer over q^n prod_k (-<c, g_k>), summed over one common denominator.
    """
    points = _simple_points(P)
    require_bounded(P, "volume needs a bounded polytope")
    n = P.dim
    st = P.structure()
    c, pairings = generic_direction([g for es in st.edges for g in es], n)
    total, den = 0, 1
    for k, (((num, q), _), det) in enumerate(zip(points, st.dets)):
        term = dot(c, num) ** n * det
        term_den = q ** n * math.prod(-x for x in pairings[k * n:(k + 1) * n])
        common = math.lcm(den, term_den)
        total = total * (common // den) + term * (common // term_den)
        den = common
    return Fraction(total, den * math.factorial(n))


def irredundant(P: LabeledPolytope) -> LabeledPolytope:
    """Drop repeated facets (same normal and offset; the first in canonical
    order stays), then redundant ones (exact face-dimension criterion).

    Neither changes the region, so the structure is carried over, not
    walked again.
    """
    first: dict[tuple, int] = {}
    repeated = [i for i, f in enumerate(P.facets)
                if first.setdefault((f.normal, f.num, f.den), i) != i]
    if repeated:
        P = _drop_facets(P, repeated)
    st = P.structure()
    return _drop_facets(P, st.redundant) if st.redundant else P


def intersect_halfspace(P: LabeledPolytope, facet: Facet) -> LabeledPolytope:
    """P intersected with {<facet.normal, x> <= facet.offset}, without
    repeated or redundant facets; EmptyResult when no vertex is left."""
    Q = _halfspace_step(P, facet)
    if not Q.structure().points:
        raise EmptyResult("the region has no vertices (empty intersection)")
    return irredundant(Q)


def canonical_key(P: LabeledPolytope) -> tuple:
    """The (normal, offset, label) of P's irredundant facets, in canonical
    order; equal regions with equal labels have equal keys."""
    return tuple(f.key() for f in irredundant(P).facets)


def canonical_equal(P: LabeledPolytope, Q: LabeledPolytope) -> bool:
    """canonical_key(P) == canonical_key(Q), compared on the integers."""
    return P.dim == Q.dim and irredundant(P).facets == irredundant(Q).facets


def canonical_mismatch(candidate: Sequence[Facet], P: LabeledPolytope) -> Optional[str]:
    """None when the candidate facets cut out P with P's labels, that is
    when canonical_equal(LabeledPolytope(P.dim, candidate), P) holds, for P
    pointed, full-dimensional and without repeated or redundant facets;
    otherwise the candidate facet or the facet of P that differs.  The
    candidate takes no structure of its own.

    P is the convex hull of its vertices plus the cone of its rays, so the
    candidate's region holds P exactly when every candidate facet holds at
    every vertex of P and pairs to <= 0 with every ray, and lies in P when
    every facet of P is a candidate facet.  Equal regions have the same
    irredundant facets, and `irredundant` keeps the first of repeated ones
    in canonical order, whose label must then be P's.
    """
    candidate = sorted(candidate, key=_order_key(candidate))
    st = P.structure()

    def fails(h: Facet, where: str) -> str:
        return f"candidate facet {list(h.normal)} <= {_format_ratio(h.num, h.den)} fails {where}"
    for h in candidate:
        for (num, den), _ in st.points:
            if dot(h.normal, num) * h.den > h.num * den:
                return fails(h, f"at the vertex {_format_row((num, den))}")
        for r in st.rays:
            if dot(h.normal, r) > 0:
                return fails(h, f"along the ray {list(r)}")
    label: dict[tuple, int] = {}
    for h in candidate:
        label.setdefault((h.normal, h.num, h.den), h.label)
    for f in P.facets:
        got = label.get((f.normal, f.num, f.den))
        if got != f.label:
            facet = f"facet {list(f.normal)} <= {_format_ratio(f.num, f.den)}"
            return (f"{facet} is not a candidate facet" if got is None else
                    f"{facet} has label {f.label}, the candidate's {got}")
    return None


def polytope_hash(P: LabeledPolytope) -> str:
    """The first 12 hex digits of the SHA-256 of P's sorted JSON; kept with
    P, so the blow-ups of one P serialize it once."""
    if P._hash is None:
        import hashlib  # only the ledger hashes; loading it costs a process ~4 ms
        payload = json.dumps(to_json_dict(P), sort_keys=True).encode()
        P._hash = hashlib.sha256(payload).hexdigest()[:12]
    return P._hash


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

class Slice(namedtuple("Slice", "polytope degenerate inducing")):
    """Result of intersecting with {x_1 = s}, in coordinates (x_2 .. x_n).

    polytope is None when the slice is empty or lower-dimensional; the
    degenerate flag distinguishes the two.  inducing[i] is the index of the
    facet of the source polytope that produced facet i of the slice.
    """

    __slots__ = ()

    @property
    def empty(self) -> bool:
        return self.polytope is None


def slice_facet(f: Facet, s: Fraction) -> Facet:
    """Facet f restricted to {x1 = s}, in coordinates (x2 .. xn): the tail
    of its normal made primitive, offset - nu_1 s divided alike.  The tail
    must not be zero.  With s = p / q and the offset num / den that offset
    is (num q - nu_1 p den) / (den q g), g the content of the tail."""
    tail = f.normal[1:]
    g = content(tail)
    p, q = s.numerator, s.denominator
    return _facet(tuple(t // g for t in tail), f.num * q - f.normal[0] * p * f.den,
                  f.den * q * g, f.label)


def slice_at(P: LabeledPolytope, s: Fraction) -> Slice:
    if P.dim < 2:
        raise DimensionMismatch("slicing needs dimension >= 2")
    s = exact(s, "level")
    p, q = s.numerator, s.denominator
    st = P.structure()
    candidate_idx = range(len(P.facets))
    if st.points:
        # the slice's vertices: P's vertices on {x1 = s} and the points where
        # P's edges cross it, with the facets of P holding each; every facet
        # of a nonempty slice holds one of them
        slack, crossings = _crossings(P, (1,) + (0,) * (P.dim - 1), p, q)
        met = [(row, act, None, None) for (row, act), sl in zip(st.points, slack) if sl == 0]
        met += crossings
        candidate_idx = sorted(set().union(*(act for _, act, *_ in met)))

    facets: list[Facet] = []
    source: dict[tuple, int] = {}         # (normal, num, den) of the slice -> first facet of P
    induced: dict[int, tuple] = {}        # facet of P -> its facet of the slice
    for i in candidate_idx:
        f = P.facets[i]
        if not any(f.normal[1:]):
            if f.num * q < f.normal[0] * p * f.den:
                return Slice(None, False, ())
            continue
        h = slice_facet(f, s)
        key = (h.normal, h.num, h.den)
        if key not in source:
            source[key] = i
            facets.append(h)
        induced[i] = key

    if not facets:
        return Slice(None, False, ())
    Q = _derived(P.dim - 1, facets, order=True)
    keys = [(f.normal, f.num, f.den) for f in Q.facets]
    if st.points:
        # project the points met to (x2 .. xn); a crossing's edges other
        # than the one off the plane have first coordinate 0, and keep their
        # facets unless two of those induce one facet of the slice; |det G|
        # loses the off-plane edge's first coordinate, its column's one entry
        at = {key: k for k, key in enumerate(keys)}
        q_index = {i: at[key] for i, key in induced.items()}
        normals = [f.normal for f in Q.facets]
        records = []
        for (num, den), act, relax, det in met:
            q_act = frozenset(q_index[j] for j in act if j in q_index)
            by = {q_index[j]: e[1:] for j, e in (relax or {}).items() if j in q_index}
            es, det = ((tuple(by[j] for j in sorted(q_act)), det // abs(relax[None][0]))
                       if len(by) == Q.dim else _edge_directions(normals, sorted(q_act), Q.dim))
            records.append((_row(num[1:], den), q_act, es, det, set() if st.bounded else None))
        Q._structure = _finish(normals, Q.dim, records)
    qst = Q.structure()
    if not qst.points:
        return Slice(None, False, ())
    if not qst.full_dim:
        return Slice(None, True, ())
    R = _drop_facets(Q, qst.redundant) if qst.redundant else Q
    return Slice(R, False, tuple(source[key] for k, key in enumerate(keys)
                                 if k not in qst.redundant))


# ---------------------------------------------------------------------------
# affine unimodular transforms
# ---------------------------------------------------------------------------

def transform(P: LabeledPolytope, A: Sequence[Sequence[int]],
              b: Sequence[Fraction]) -> LabeledPolytope:
    """Image polytope {Ax + b : x in P} for integer A with |det A| = 1."""
    n = P.dim
    A, b = _sequence(A, "matrix"), _sequence(b, "shift")
    if len(A) != n or any(len(_sequence(row, "matrix row")) != n for row in A) or len(b) != n:
        raise DimensionMismatch("transform shape mismatch")
    if not all(_is_int(x) for row in A for x in row):
        raise InputError(f"matrix entries must be integers, got {A!r}")
    a_inv_t = transpose(inverse_unimodular(A))
    # b = b_num / b_den, and the offset of eta x <= num / den + <eta, b> over g
    b_num, b_den = over_common_denominator([exact(x, "shift") for x in b])
    new_facets = []
    for f in P.facets:
        eta = tuple(dot(row, f.normal) for row in a_inv_t)
        g = content(eta)
        new_facets.append(_facet(tuple(x // g for x in eta),
                                 f.num * b_den + f.den * dot(eta, b_num), f.den * b_den * g,
                                 f.label))
    return _derived(n, new_facets, order=True)


def reversed_polytope(P: LabeledPolytope) -> LabeledPolytope:
    """Image under x1 -> -x1; all first-coordinate pairings change sign."""
    n = P.dim
    A = [[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return transform(P, A, (0,) * n)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def to_json_dict(P: LabeledPolytope) -> dict:
    facets = P.facets  # already canonically sorted
    return {
        "dim": P.dim,
        "facets": [
            {"normal": list(f.normal), "offset": _format_ratio(f.num, f.den), "label": f.label}
            for f in facets
        ],
    }


def dumps(P: LabeledPolytope) -> str:
    return json.dumps(to_json_dict(P), indent=2, sort_keys=True) + "\n"


def from_json_dict(obj: dict) -> LabeledPolytope:
    if not isinstance(obj, dict) or "dim" not in obj or "facets" not in obj:
        raise InputError('polytope file must be {"dim": n, "facets": [...]}')
    dim = obj["dim"]
    if not _is_int(dim):
        raise InputError(f'"dim" must be an integer, got {dim!r}')
    if not isinstance(obj["facets"], list):
        raise InputError(f'"facets" must be a list, got {obj["facets"]!r}')
    facets = []
    for i, fo in enumerate(obj["facets"]):
        if not isinstance(fo, dict):
            raise InputError(f'facet {i} must be an object with "normal" and '
                             f'"offset", got {fo!r}')
        normal = fo.get("normal")
        if (not isinstance(normal, list) or not normal
                or not all(_is_int(x) for x in normal)):
            raise InputError(f"facet {i}: normal must be a list of integers, got {normal!r}")
        off = fo.get("offset")
        if isinstance(off, float):
            raise InputError(
                f"facet {i}: offset {off!r} is a float; offsets must be exact "
                f'rational strings such as "{format_rational(Fraction(off).limit_denominator(10**6))}"')
        if isinstance(off, str):
            off = parse_rational(off)
        elif not _is_int(off):
            raise InputError(f"facet {i}: offset must be an integer or a rational string")
        label = fo.get("label", 1)
        if not _is_int(label):
            raise InputError(f"facet {i}: label must be a positive integer, got {label!r}")
        facets.append(Facet(tuple(normal), off, label))
    return LabeledPolytope(dim, facets)


def loads(text: str) -> LabeledPolytope:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return from_json_dict(obj)
