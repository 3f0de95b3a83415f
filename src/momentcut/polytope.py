"""Labeled rational simple polytopes in H-representation.

A polytope is a finite list of facets (primitive integer outward normal,
rational offset, positive integer label); the point set is
{x : <normal, x> <= offset for every facet}.  All computations are exact.

A polytope read from input is walked from scratch: an exact phase-1
simplex finds one vertex (or certifies that the region is empty), then a
walk over the vertex-edge graph carries an integer tableau, the adjugate
of the active basis and its products with every normal, from each simple
vertex to the next by one fraction-free exchange; a ratio test scans one
column.  An edge that no facet blocks is an unbounded ray; the region is
bounded when no vertex has one.

Every polytope derived by one half-space or hyperplane (cut, blow-up,
slice) takes its structure from its parent's edge graph instead, by the
double-description step (Motzkin; Fukuda-Prodon 1996): the parent's
vertices on the kept side stay, and each edge or ray that strictly crosses
the hyperplane gives one new vertex, whose active set is the facets holding
that edge plus the new one.  Edges are paired by that set of holding
facets, so no ratio test is run, and the edges at a crossing of a simple
vertex's edge come in closed form (see `_crossing_edges`).  Dropping
redundant facets carries the structure over unchanged, and an affine
unimodular image maps it.  All paths end in the same finishing code, and
the derived structure is equal to the one a fresh walk would give.

Vertices are kept as integer rows over one positive denominator, in lowest
terms, so equal points have equal rows; `vertices` builds their `Fraction`
points once per polytope.

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

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
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
    adjugate_int,
    content,
    det_int,
    dot,
    exchange,
    format_rational,
    generic_direction,
    independent_rows,
    inverse_unimodular,
    over_common_denominator,
    parse_rational,
    primitive,
    rank_int,
    transpose,
)

# The cone step takes polynomial time, but the output still grows: a cube's
# vertex count doubles per dimension (n = 12: 4 096 vertices in about 1 s on
# a shared Xeon core), and the cross-polytope's 2^n facets multiply the cost
# by 2 to 3 per dimension (n = 12: 13-16 s); a 40-facet 20-cube would take minutes.
MAX_DIM = 8

Row = tuple[IntVector, int]     # the point num / den, den > 0, in lowest terms


@dataclass(frozen=True)
class Facet:
    normal: IntVector
    offset: Fraction
    label: int = 1

    def key(self) -> tuple:
        return (self.normal, self.offset, self.label)


@dataclass(frozen=True)
class Vertex:
    point: tuple[Fraction, ...]
    active: frozenset[int]


class LabeledPolytope:
    """Immutable H-representation; geometric structure is computed lazily."""

    def __init__(self, dim: int, facets: Iterable[Facet]):
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        facets = tuple(facets)
        if not facets:
            raise InputError("a polytope needs at least one facet")
        # the one check of facet values, in the caller's order: i is the input position
        for i, f in enumerate(facets):
            if f.label < 1:
                raise InputError(f"facet {i}: label must be a positive integer, got {f.label}")
            if not any(f.normal):
                raise InputError(f"facet {i}: zero normal")
            g = content(f.normal)
            if g != 1:
                raise InputError(
                    f"facet {i}: normal {list(f.normal)} is not primitive; "
                    f"use {[x // g for x in f.normal]} with offset "
                    f"{format_rational(Fraction(f.offset) / g)}")
            if len(f.normal) != dim:
                raise InputError(f"facet {i}: normal has length {len(f.normal)}, expected {dim}")
        self.dim = dim
        # canonical facet order keeps indices stable across serialization
        self.facets = tuple(sorted(facets, key=Facet.key))
        self._structure: Optional[Structure] = None
        # maps a parent's structure to this one's when first asked (transform)
        self._derive: Optional[Callable[[LabeledPolytope], Structure]] = None
        self._graph: Optional[list] = None      # see _edge_graph
        self._vertices: Optional[list[Vertex]] = None

    def __repr__(self) -> str:
        return f"LabeledPolytope(dim={self.dim}, facets={len(self.facets)})"

    def structure(self) -> "Structure":
        if self._structure is None:
            if self._derive is None:
                self._structure = _compute_structure(self)
            else:
                self._structure, self._derive = self._derive(self), None
        return self._structure


@dataclass(frozen=True)
class Structure:
    """Everything the walk over the vertex-edge graph learns about one
    H-representation.

    points are the vertices, as integer rows (num, den), with their active
    facet sets, sorted by point;
    edges[k] holds the primitive edge directions at points[k], in
    sorted(active) order at a simple vertex (entry i relaxes the i-th active
    facet) and the extreme rays of the tangent cone at a non-simple one.
    The rest is read off these edge records: rays are the unbounded edges in
    order of first appearance, affine_rank is the rank of the edges at the
    first vertex, and a facet is redundant when no vertex holds it or the
    edges at its first vertex that lie in it span fewer than n - 1
    dimensions.
    """

    points: tuple[tuple[Row, frozenset[int]], ...]
    simple: bool
    rays: tuple[IntVector, ...]          # primitive unbounded edge directions
    bounded: bool
    full_dim: bool
    redundant: frozenset[int]
    affine_rank: int
    edges: tuple[tuple[IntVector, ...], ...]

    @cached_property
    def edges_by_active(self) -> dict[frozenset[int], tuple[IntVector, ...]]:
        return {act: es for (_, act), es in zip(self.points, self.edges)}


def _row(num: Sequence[int], den: int) -> Row:
    """The point num / den (den nonzero) in lowest terms, den > 0."""
    g = math.gcd(den, *num) * (-1 if den < 0 else 1)
    return tuple(x // g for x in num), den // g


def _scaled_rows(facets: Sequence[Facet]) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Clear offset denominators: returns (normals, scaled offsets, scale L)."""
    lcm = 1
    for f in facets:
        d = Fraction(f.offset).denominator
        lcm = lcm * d // math.gcd(lcm, d)
    normals = [tuple(f.normal) for f in facets]
    offs = [int(Fraction(f.offset) * lcm) for f in facets]
    return normals, offs, lcm


def _combine(e: IntVector, re: int, g: IntVector, rg: int) -> IntVector:
    """primitive(|rg| e - sgn(rg) re g), which pairs to zero with a when
    re = <a, e> and rg = <a, g> != 0: the new direction of a half-space step."""
    s = 1 if rg > 0 else -1
    return primitive([abs(rg) * x - s * re * y for x, y in zip(e, g)])


def _edge_directions(normals, act: list[int], n: int) -> tuple[IntVector, ...]:
    """Primitive edge directions at a vertex whose active facets are `act`
    (sorted): the extreme rays of its tangent cone {d : <a_j, d> <= 0}.

    Ray k of the first n independent active facets is column k of their
    basis's adjugate, signed to pair negatively with its own normal; at a
    simple vertex it relaxes act[k].  Each further facet is added by the
    double-description step (Motzkin et al. 1953; Fukuda-Prodon 1996): rays
    with <a_j, d> <= 0 stay, and two rays across it combine when no third
    ray's zero set holds their common zero set.  A non-simple vertex's rays are
    sorted by the greedy basis of their zero sets, the order in which the
    (n-1)-subsets of act first give them.
    """
    rows = [normals[j] for j in act]
    basis = independent_rows(rows)
    adj, det = adjugate_int([list(rows[i]) for i in basis])
    # each ray with the bit mask of the rows it pairs to zero with so far
    rays = [(primitive(col if det < 0 else [-x for x in col]), sum(1 << j for j in basis if j != i))
            for i, col in zip(basis, zip(*adj))]
    for i in sorted(set(range(len(act))).difference(basis)):
        r = [dot(rows[i], e) for e, _ in rays]
        new = [(_combine(e, re, g, rg), ze & zg | 1 << i)
               for (e, ze), re in zip(rays, r) if re > 0
               for (g, zg), rg in zip(rays, r) if rg < 0
               if sum(ze & zg & z == ze & zg for _, z in rays) == 2]
        rays = [(e, z | 1 << i if re == 0 else z) for (e, z), re in zip(rays, r) if re <= 0] + new

    def greedy_basis(ray) -> list[int]:
        zero = [i for i in range(len(act)) if ray[1] >> i & 1]
        return [zero[k] for k in independent_rows([rows[i] for i in zero])]
    return tuple(e for e, _ in (sorted(rays, key=greedy_basis) if len(act) > n else rays))


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
    """The tableau of the sorted basis act by one fresh adjugate: per basis
    row l, adjugate column c_l followed by <a_j, c_l> for every facet j."""
    adj, det = adjugate_int([list(normals[j]) for j in act])
    return [list(c) + [dot(a, c) for a in normals] for c in zip(*adj)], det


def _pivot(basis, act: list[int], k: int, r: int, n: int):
    """act with act[k] replaced by row r, and its tableau by one `exchange`,
    kept in sorted row order.  Reordering rows flips the signs of tableau
    and det alike, which keeps every edge -sign(det) c_l."""
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
    t >= 0 first.  Its tableau has one more column, and the row of t last.
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
        cols, det = basis
        sign = -1 if det > 0 else 1
        # edge k changes t by -sign * cols[k][-1]; take the first that lowers it
        k = next((k for k, c in enumerate(cols) if sign * c[-1] > 0), None)
        if k is None:
            at = dict(zip(act, cols))
            return None, [-sign * at[j][-1] if j in at else 0 for j in range(m)]
        v = [sign * x for x in cols[k]]
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

    Returns (num, den, active, edges, unbounded) per vertex: the point
    num/den of the scaled system, its active facets (sorted), its edge
    directions and the set of those that no facet blocks.  An edge is walked
    once; its key is the set of facets that stay tight along it.  A simple
    vertex reached from a simple one through one blocking facet gets its
    tableau by one exchange, and ratio tests scan the tableau's columns.
    """
    found = []
    walked: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()
    stack = [start]
    while stack:
        num, den, slack, basis = stack.pop()
        act = [j for j, s in enumerate(slack) if s == 0]
        seen.add(frozenset(act))
        simple = len(act) == n
        if simple:
            basis = basis or _basis(normals, act)
            sign = -1 if basis[1] > 0 else 1
            moves = [[sign * x for x in c] for c in basis[0]]
            edges = tuple(primitive(v[:n]) for v in moves)
        else:
            edges = _edge_directions(normals, act, n)
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
            stack.append((*_advance(num, den, slack, v, p, q), nxt_basis))
        found.append((num, den, act, edges, unbounded))
    return found


def _compute_structure(P: LabeledPolytope) -> Structure:
    """The from-scratch walk, for a polytope with no parent structure."""
    n = P.dim
    normals, offs, lcm = _scaled_rows(P.facets)
    start = _phase1(normals, offs, n)[0]
    walk = _walk(normals, n, start) if start else []
    # num/den solves the system scaled by lcm; unscale
    return _finish(normals, n, [(_row(num, den * lcm), frozenset(act), es, unb)
                                for num, den, act, es, unb in walk])


def _finish(normals, n: int, records) -> Structure:
    """The Structure of a region from its vertex records, shared by the walk
    and the derived steps.

    A record is (row, active set, edge directions, unbounded edges); the
    last is None when not known, and then edges are paired by their keys.
    Rows are sorted by their numerators over the common denominator, the
    order of their points.
    Rays, rank and redundancy are read off the edges, as in every pointed
    polyhedron, simple or not: the extreme rays of the recession cone are
    the unbounded edges, the edges at a vertex span the affine hull, and
    those lying in a facet span that facet's face.
    """
    common = math.lcm(*(den for (_, den), *_ in records))
    records = sorted(records, key=lambda r: [x * (common // r[0][1]) for x in r[0][0]])
    points = tuple((pt, act) for pt, act, _, _ in records)
    edges = tuple(es for _, _, es, _ in records)

    unbounded = [unb for *_, unb in records]
    if None in unbounded:
        unbounded = [{e for e, (w, _) in zip(es, ends) if w is None}
                     for es, ends in zip(edges, _pair_edges(normals, n, points, edges))]
    rays: list[IntVector] = []
    for es, unb in zip(edges, unbounded):
        rays += [e for e in es if e in unb and e not in rays]

    def span(act, es, facet=None) -> int:
        """The rank of the edges at a vertex, or of those lying in `facet`:
        a simple vertex has n independent edges, n - 1 in each active facet."""
        if len(act) == n:
            return n if facet is None else n - 1
        return rank_int([e for e in es if facet is None or dot(normals[facet], e) == 0])

    affine_rank = span(points[0][1], edges[0]) if points else -1
    redundant: set[int] = set()
    if affine_rank == n:
        first: dict[int, tuple] = {}
        for (_, act), es in zip(points, edges):
            for i in act:
                first.setdefault(i, (act, es))
        redundant = {i for i in range(len(normals))
                     if i not in first or span(*first[i], i) < n - 1}

    return Structure(
        points=points,
        simple=all(len(act) == n for _, act in points),
        rays=tuple(rays),
        bounded=bool(points) and not rays,
        full_dim=affine_rank == n,
        redundant=frozenset(redundant),
        affine_rank=affine_rank,
        edges=edges,
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


def _crossing_edges(es, r: list[int], k: int) -> list[IntVector]:
    """The edge directions where edge k of a simple vertex crosses the
    hyperplane <a, x> = c, for es its edges and r_i = <a, es[i]>.

    Entry k relaxes the new facet: -sgn(r_k) es[k], back across the plane.
    Entry j relaxes what es[j] relaxes, and stays on the plane and on the
    other facets: `_combine(es[j], r_j, es[k], r_k)`.
    """
    s, g = (1 if r[k] > 0 else -1), es[k]
    return [tuple(-s * x for x in g) if j == k else e if rj == 0 else _combine(e, rj, g, r[k])
            for j, (e, rj) in enumerate(zip(es, r))]


def _crossings(P: LabeledPolytope, normal: IntVector, offset: Fraction):
    """Where the hyperplane <normal, x> = offset meets P's edge graph.

    Returns the slack offset - <normal, v> of every vertex v of P, each
    scaled by a positive integer, and one (row, key, relax) per edge or
    unbounded ray of P that passes strictly from slack > 0 to slack < 0:
    key is the set of facets holding that edge, and relax maps each facet
    of key, and None for the new one, to the edge at the new vertex that
    relaxes it; relax is None when the edge starts at a non-simple vertex.
    """
    st = P.structure()
    pairs = _edge_graph(P)
    offset = Fraction(offset)
    p, q = offset.numerator, offset.denominator
    slack = [p * den - q * dot(normal, num) for (num, den), _ in st.points]
    found = []
    for ((num, den), act), es, ends, sl in zip(st.points, st.edges, pairs, slack):
        if sl == 0 or sl < 0 and st.bounded:
            continue
        r = [dot(normal, e) for e in es]
        for k, (e, (w, key), rk) in enumerate(zip(es, ends, r)):
            # slack falls along e when r > 0; a bounded edge is met from
            # its kept end, a ray (none in a bounded P) from wherever it
            # starts.  The point is num/den + sl / (q den r) e.
            if (rk > 0 and sl > 0 and (w is None or slack[w] < 0)
                    or rk < 0 and sl < 0 and w is None):
                row = _row([q * rk * x + sl * c for x, c in zip(num, e)], q * den * rk)
                relax = None
                if len(act) == len(num):
                    # the facet es[k] relaxed holds no more; the new one does
                    facets = sorted(act)
                    facets[k] = None
                    relax = dict(zip(facets, _crossing_edges(es, r, k)))
                found.append((row, key, relax))
    return slack, found


def _halfspace_step(P: LabeledPolytope, facet: Facet) -> LabeledPolytope:
    """P intersected with {<facet.normal, x> <= facet.offset}, with its
    Structure derived from P's (not pruned; see `intersect_halfspace`).

    When the new facet repeats one of P's (normal and offset), the region
    is P's and P itself is returned.  A parent with no vertex has no edge
    graph to step from, and its child is walked from scratch.
    """
    if any(f.normal == facet.normal and f.offset == facet.offset for f in P.facets):
        return P
    child = LabeledPolytope(P.dim, P.facets + (facet,))
    st = P.structure()
    if not st.points:
        return child
    n = P.dim
    # the constructor's canonical order keeps P's facets in order around
    # the new one
    pos = child.facets.index(facet)
    normals = [f.normal for f in child.facets]
    unb = set() if st.bounded else None

    def moved(j):
        return pos if j is None else j + (j >= pos)

    slack, crossings = _crossings(P, facet.normal, facet.offset)
    records = []
    for (row, act), es, sl in zip(st.points, st.edges, slack):
        if sl > 0:
            records.append((row, frozenset(map(moved, act)), es, unb))
        elif sl == 0:
            act = frozenset(map(moved, act)) | {pos}
            records.append((row, act, _edge_directions(normals, sorted(act), n), unb))
    for row, key, relax in crossings:
        act = frozenset(map(moved, key)) | {pos}
        if relax is None:
            es = _edge_directions(normals, sorted(act), n)
        else:
            by = {moved(j): e for j, e in relax.items()}
            es = tuple(by[j] for j in sorted(act))
        records.append((row, act, es, unb))
    child._structure = _finish(normals, n, records)
    return child


def _drop_facets(P: LabeledPolytope, drop: Iterable[int]) -> LabeledPolytope:
    """P without the facets in `drop`, none of which changes the region.

    The vertices and edges stay, so P's structure is carried over: active
    sets are renumbered, and only a vertex that lost a facet gets its edge
    directions again.
    """
    st = P.structure()
    drop = set(drop)
    keep = [i for i in range(len(P.facets)) if i not in drop]
    Q = LabeledPolytope(P.dim, [P.facets[i] for i in keep])
    new = {i: k for k, i in enumerate(keep)}
    normals = [f.normal for f in Q.facets]
    records = []
    for (pt, act), es in zip(st.points, st.edges):
        q_act = frozenset(new[j] for j in act if j in new)
        if len(q_act) < len(act):
            es = _edge_directions(normals, sorted(q_act), P.dim)
        records.append((pt, q_act, es, set() if st.bounded else None))
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
        P._vertices = [Vertex(_point(row), act) for row, act in _simple_points(P)]
    return list(P._vertices)


def critical_values(P: LabeledPolytope) -> list[Fraction]:
    """Distinct first coordinates of the vertices, sorted."""
    return sorted({v.point[0] for v in vertices(P)})


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
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    if any(num[0] * q == p * den for (num, den), _ in _simple_points(P)):
        raise NotRegularLevel(f"a vertex lies at level {format_rational(a)}")


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[str, ...]

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
        failures.append(f"facet {i} ({list(P.facets[i].normal)} <= "
                        f"{format_rational(P.facets[i].offset)}) is redundant")
    return ValidationReport(not failures, tuple(failures))


def volume(P: LabeledPolytope) -> Fraction:
    """Exact Euclidean volume (lattice normalization of Z^n) by Lawrence's
    vertex sum (Lawrence 1991; Brion 1988) over the edge records,

        vol(P) = (1/n!) sum_v <c, v>^n |det G_v| / prod_k (-<c, g_k>),

    G_v the edge generators g_k at the vertex v and c any vector with
    <c, g> != 0 for every edge generator.  With v = num / q each term is an
    integer over q^n prod_k (-<c, g_k>), summed over one common denominator.
    """
    points = _simple_points(P)
    require_bounded(P, "volume needs a bounded polytope")
    n = P.dim
    edges = P.structure().edges
    c = generic_direction([g for es in edges for g in es], n)
    total, den = 0, 1
    for ((num, q), _), es in zip(points, edges):
        term = dot(c, num) ** n * abs(det_int([list(g) for g in es]))
        term_den = q ** n * math.prod(-dot(c, g) for g in es)
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
                if first.setdefault((f.normal, f.offset), i) != i]
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
    Q = irredundant(P)
    return tuple(sorted(f.key() for f in Q.facets))


def canonical_equal(P: LabeledPolytope, Q: LabeledPolytope) -> bool:
    if P.dim != Q.dim:
        return False
    return canonical_key(P) == canonical_key(Q)


def canonical_mismatch(candidate: Sequence[Facet], P: LabeledPolytope) -> Optional[str]:
    """None when the candidate facets cut out P with P's labels, that is
    when canonical_equal(LabeledPolytope(P.dim, candidate), P) holds, for P
    bounded, full-dimensional and without repeated or redundant facets;
    otherwise the candidate facet or the facet of P that differs.  The
    candidate takes no structure of its own.

    P is the convex hull of its vertices, so the candidate's region holds P
    exactly when every candidate facet holds at every vertex of P, and lies
    in P when every facet of P is a candidate facet.  Equal regions have
    the same irredundant facets, and `irredundant` keeps the first of
    repeated ones in canonical order, whose label must then be P's.
    """
    candidate = sorted(candidate, key=Facet.key)
    rows = [row for row, _ in P.structure().points]
    for h in candidate:
        off = Fraction(h.offset)
        for num, den in rows:
            if dot(h.normal, num) * off.denominator > off.numerator * den:
                return (f"candidate facet {list(h.normal)} <= {format_rational(off)} fails "
                        f"at the vertex {_format_row((num, den))}")
    label: dict[tuple, int] = {}
    for h in candidate:
        label.setdefault((h.normal, h.offset), h.label)
    for f in P.facets:
        got = label.get((f.normal, f.offset))
        if got != f.label:
            facet = f"facet {list(f.normal)} <= {format_rational(f.offset)}"
            return (f"{facet} is not a candidate facet" if got is None else
                    f"{facet} has label {f.label}, the candidate's {got}")
    return None


def polytope_hash(P: LabeledPolytope) -> str:
    import hashlib  # only the ledger hashes; loading it costs a process ~4 ms
    payload = json.dumps(to_json_dict(P), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Slice:
    """Result of intersecting with {x_1 = s}, in coordinates (x_2 .. x_n).

    polytope is None when the slice is empty or lower-dimensional; the
    degenerate flag distinguishes the two.  inducing[i] is the index of the
    facet of the source polytope that produced facet i of the slice.
    """

    polytope: Optional[LabeledPolytope]
    degenerate: bool
    inducing: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return self.polytope is None


def slice_facet(f: Facet, s: Fraction) -> Facet:
    """Facet f restricted to {x1 = s}, in coordinates (x2 .. xn): the tail
    of its normal made primitive, offset - nu_1 s divided alike.  The tail
    must not be zero."""
    tail = f.normal[1:]
    g = content(tail)
    return Facet(tuple(t // g for t in tail), (Fraction(f.offset) - f.normal[0] * s) / g,
                 f.label)


def slice_at(P: LabeledPolytope, s: Fraction) -> Slice:
    if P.dim < 2:
        raise DimensionMismatch("slicing needs dimension >= 2")
    s = Fraction(s)
    st = P.structure()
    candidate_idx = range(len(P.facets))
    if st.points:
        # the slice's vertices: P's vertices on {x1 = s} and the points where
        # P's edges cross it, with the facets of P holding each; every facet
        # of a nonempty slice holds one of them
        slack, crossings = _crossings(P, (1,) + (0,) * (P.dim - 1), s)
        met = [(row, act, None) for (row, act), sl in zip(st.points, slack) if sl == 0]
        met += crossings
        candidate_idx = sorted(set().union(*(act for _, act, _ in met)))

    pairs: list[tuple[Facet, int]] = []
    induced: dict[int, tuple] = {}        # facet of P -> its facet of the slice
    seen: set[tuple] = set()
    for i in candidate_idx:
        f = P.facets[i]
        if not any(f.normal[1:]):
            if f.offset < f.normal[0] * s:
                return Slice(None, False, ())
            continue
        h = slice_facet(f, s)
        key = (h.normal, h.offset)
        if key not in seen:
            seen.add(key)
            pairs.append((h, i))
        induced[i] = key

    if not pairs:
        return Slice(None, False, ())
    # mirror the constructor's canonical order so indices stay aligned
    pairs.sort(key=lambda fi: fi[0].key())
    Q = LabeledPolytope(P.dim - 1, [f for f, _ in pairs])
    if st.points:
        # project the points met to (x2 .. xn); a crossing's edges other
        # than the one off the plane have first coordinate 0, and keep their
        # facets unless two of those induce one facet of the slice
        at = {(f.normal, f.offset): k for k, f in enumerate(Q.facets)}
        q_index = {i: at[key] for i, key in induced.items()}
        normals = [f.normal for f in Q.facets]
        records = []
        for (num, den), act, relax in met:
            q_act = frozenset(q_index[j] for j in act if j in q_index)
            by = {q_index[j]: e[1:] for j, e in (relax or {}).items() if j in q_index}
            es = (tuple(by[j] for j in sorted(q_act)) if len(by) == Q.dim
                  else _edge_directions(normals, sorted(q_act), Q.dim))
            records.append((_row(num[1:], den), q_act, es, set() if st.bounded else None))
        Q._structure = _finish(normals, Q.dim, records)
    qst = Q.structure()
    if not qst.points:
        return Slice(None, False, ())
    if not qst.full_dim:
        return Slice(None, True, ())
    R = _drop_facets(Q, qst.redundant) if qst.redundant else Q
    return Slice(R, False, tuple(i for k, (_, i) in enumerate(pairs)
                                 if k not in qst.redundant))


# ---------------------------------------------------------------------------
# affine unimodular transforms
# ---------------------------------------------------------------------------

def transform(P: LabeledPolytope, A: Sequence[Sequence[int]],
              b: Sequence[Fraction]) -> LabeledPolytope:
    """Image polytope {Ax + b : x in P} for integer A with |det A| = 1.

    Its structure is P's mapped (see `_mapped_structure`), when first asked.
    """
    n = P.dim
    if len(A) != n or any(len(row) != n for row in A) or len(b) != n:
        raise DimensionMismatch("transform shape mismatch")
    a_inv_t = transpose(inverse_unimodular(A))
    bq = [Fraction(x) for x in b]
    new_facets = []
    for f in P.facets:
        eta = tuple(dot(row, f.normal) for row in a_inv_t)
        g = content(eta)
        eta_p = tuple(x // g for x in eta)
        off = (Fraction(f.offset) + Fraction(dot(eta, bq))) / g
        new_facets.append(Facet(eta_p, off, f.label))
    Q = LabeledPolytope(n, new_facets)
    # the constructor's sort is stable: facet i of P is facet index[i] of Q
    index = [0] * len(new_facets)
    for k, i in enumerate(sorted(range(len(new_facets)), key=lambda i: new_facets[i].key())):
        index[i] = k
    Q._derive = partial(_mapped_structure, P, [list(row) for row in A], bq, index)
    return Q


def _mapped_structure(P: LabeledPolytope, A: list[list[int]], b: list[Fraction],
                      index: list[int], Q: LabeledPolytope) -> Structure:
    """The structure of Q = AP + b from P's: a row num / den goes to
    (A num + den b) / den, an edge e to Ae (primitive, as A is unimodular),
    and facet i to index[i].  A simple vertex's edges are put in the order
    of its renumbered facets; a non-simple vertex's tangent cone is taken
    again, so its edges come in the order a walk of Q would give."""
    st = P.structure()
    n = Q.dim
    normals = [f.normal for f in Q.facets]
    b_num, b_den = over_common_denominator(b)
    rays = {tuple(dot(row, e) for row in A) for e in st.rays}
    records = []
    for ((num, den), act), es in zip(st.points, st.edges):
        row = _row([b_den * dot(r, num) + den * t for r, t in zip(A, b_num)], den * b_den)
        q_act = frozenset(index[j] for j in act)
        if len(act) == n:
            by = {index[j]: tuple(dot(r, e) for r in A) for j, e in zip(sorted(act), es)}
            es = tuple(by[j] for j in sorted(q_act))
        else:
            es = _edge_directions(normals, sorted(q_act), n)
        records.append((row, q_act, es, rays.intersection(es)))
    return _finish(normals, n, records)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def to_json_dict(P: LabeledPolytope) -> dict:
    facets = P.facets  # already canonically sorted
    return {
        "dim": P.dim,
        "facets": [
            {"normal": list(f.normal), "offset": format_rational(f.offset), "label": f.label}
            for f in facets
        ],
    }


def dumps(P: LabeledPolytope) -> str:
    return json.dumps(to_json_dict(P), indent=2, sort_keys=True) + "\n"


def _is_int(x) -> bool:
    """A JSON integer; true and false are bools, not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


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
        if _is_int(off):
            offset = Fraction(off)
        elif isinstance(off, str):
            offset = parse_rational(off)
        else:
            raise InputError(f"facet {i}: offset must be an integer or a rational string")
        label = fo.get("label", 1)
        if not _is_int(label):
            raise InputError(f"facet {i}: label must be a positive integer, got {label!r}")
        facets.append(Facet(tuple(normal), offset, label))
    return LabeledPolytope(dim, facets)


def loads(text: str) -> LabeledPolytope:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return from_json_dict(obj)
