"""Polytope-level constructions for the first-coordinate circle action.

cut        intersect with a half-space at a regular level
reduce_at  slice at a regular level, with stabilizer bookkeeping
compactify cut from both sides
blowup     corner chop at a smooth or Z2 vertex, with class bookkeeping
add_fixed_points  cut just above 0 and chop every Z2 vertex on the new facet

The class ledger records, per blow-up, the exceptional facet and the
coefficient of its divisor class in units of the scale parameter t = 2*pi*d:
multiplier 1 at a smooth vertex, 1/2 at a Z2 vertex.
"""
from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    BlowupTooLarge,
    EmptyResult,
    InputError,
    InternalError,
    PreconditionError,
    VertexNotBlowable,
)
from .lattice import content, dot, exact, format_rational, over_common_denominator
from .polytope import (
    Facet,
    LabeledPolytope,
    Vertex,
    canonical_mismatch,
    critical_values,
    intersect_halfspace,
    polytope_hash,
    require_regular,
    slice_at,
    to_json_dict,
    vertices,
)
from .toric import VertexKind, circle_stabilizer_order, classify_vertex, weights_at_vertex


class CutSide(enum.Enum):
    BELOW = "below"
    ABOVE = "above"


def _level_facet(n: int, a: Fraction, side: CutSide) -> Facet:
    if not isinstance(side, CutSide):
        raise InputError(f"side must be a CutSide, got {side!r}")
    e1 = (1,) + (0,) * (n - 1)
    if side == CutSide.BELOW:
        return Facet(e1, a, 1)
    return Facet(tuple(-x for x in e1), -a, 1)


def restrict_halfspace(P: LabeledPolytope, a: Fraction,
                       side: CutSide = CutSide.BELOW) -> LabeledPolytope:
    """Plain intersection with a half-space, no regularity demanded.

    Vertices may lie on the boundary plane; tangent facets are pruned by the
    exact face-dimension rule.  `cut` is this at a regular level.
    """
    return intersect_halfspace(P, _level_facet(P.dim, exact(a, "level"), side))


def cut(P: LabeledPolytope, a: Fraction, side: CutSide = CutSide.BELOW) -> LabeledPolytope:
    """Intersect with {x1 <= a} (BELOW) or {x1 >= a} (ABOVE)."""
    require_regular(P, a)
    return restrict_halfspace(P, a, side)


# stabilizers: (facet index in the reduced polytope, inducing facet index
# in P, order) per facet
class ReduceResult(namedtuple("ReduceResult", "polytope level stabilizers")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "level": format_rational(self.level),
            "polytope": to_json_dict(self.polytope),
            "stabilizers": [
                {"facet": i, "inducing_facet": j, "order": o}
                for i, j, o in self.stabilizers
            ],
        }


def reduce_at(P: LabeledPolytope, a: Fraction) -> ReduceResult:
    """Reduced-space polytope at a regular level.

    Facet labels are inherited verbatim from the inducing facets; the
    stabilizer orders reported alongside carry the isotropy data that a
    fully reduced labeling would need.
    """
    require_regular(P, a)
    sl = slice_at(P, a)
    if sl.polytope is None:
        raise EmptyResult(f"level {format_rational(a)} is outside the moment image")
    stab = tuple(
        (i, j, circle_stabilizer_order(P, j))
        for i, j in enumerate(sl.inducing)
    )
    return ReduceResult(sl.polytope, a, stab)


def compactify(P: LabeledPolytope, a: Fraction, b: Fraction) -> LabeledPolytope:
    """cut from above at b, then from below at a; needs a < b, both regular."""
    a, b = exact(a, "lower level"), exact(b, "upper level")
    if not a < b:
        raise PreconditionError(f"need a < b, got {format_rational(a)} >= {format_rational(b)}")
    return cut(cut(P, b, CutSide.BELOW), a, CutSide.ABOVE)


# ---------------------------------------------------------------------------
# blow-ups and the class ledger
# ---------------------------------------------------------------------------

# multiplier: 1 for a smooth center, 1/2 for a Z2 center
class LedgerTerm(namedtuple("LedgerTerm", "normal offset multiplier depth z2")):
    __slots__ = ()


class ClassLedger(namedtuple("ClassLedger", "base terms", defaults=((),))):
    """Cohomology bookkeeping: base class minus multiplier * t per blow-up."""

    __slots__ = ()

    def with_term(self, term: LedgerTerm) -> "ClassLedger":
        return self._replace(terms=self.terms + (term,))

    def to_json(self, polytope: Optional[LabeledPolytope] = None) -> dict:
        index_of = {} if polytope is None else {
            (f.normal, f.num, f.den): i for i, f in enumerate(polytope.facets)}
        return {"base": self.base, "terms": [
            {"facet": index_of.get((t.normal, t.offset.numerator, t.offset.denominator)),
             "multiplier": format_rational(t.multiplier),
             "depth": format_rational(t.depth)}
            for t in self.terms]}


def fresh_ledger(P: LabeledPolytope) -> ClassLedger:
    return ClassLedger(base=polytope_hash(P))


# vertex: a Vertex, or its point as a tuple of Fractions
class BlowupParams(namedtuple("BlowupParams", "vertex depth")):
    __slots__ = ()


def _find_vertex(P: LabeledPolytope, v: Union[Vertex, Sequence[Fraction]]) -> int:
    """The index of the vertex v among vertices(P), found by its integer row."""
    if isinstance(v, Vertex):
        row = v.row
    elif not isinstance(v, (list, tuple)):
        raise InputError(f"vertex must be a Vertex, a list or a tuple, got {v!r}")
    else:
        # over the least common denominator, entries in lowest terms give a
        # row in lowest terms, as vertex rows are
        num, den = over_common_denominator([exact(x, "vertex coordinate") for x in v])
        row = (tuple(num), den)
    for k, w in enumerate(vertices(P)):
        if w.row == row:
            return k
    pt = v.point if isinstance(v, Vertex) else v
    raise PreconditionError(
        f"({', '.join(map(format_rational, pt))}) is not a vertex")


def blowup(P: LabeledPolytope, params: BlowupParams,
           ledger: Optional[ClassLedger] = None) -> tuple[LabeledPolytope, ClassLedger]:
    """Chop the corner at a smooth or Z2 vertex to rational depth d.

    The new facet is sum(eta_i, x) <= sum(eta_i, v) - d over the active
    normals, primitivized.  Depth validity demands that every other vertex
    satisfies the chop strictly, so only the corner is affected.
    """
    if not isinstance(params, BlowupParams):
        raise InputError(f"params must be a BlowupParams, got {params!r}")
    if ledger is None:
        ledger = fresh_ledger(P)
    d = exact(params.depth, "blow-up depth")
    if d <= 0:
        raise PreconditionError("blow-up depth must be positive")
    center = _find_vertex(P, params.vertex)
    verts = vertices(P)
    v = verts[center]
    cls = classify_vertex(P, v)
    if cls.kind == VertexKind.OTHER_ORBIFOLD:
        labels = [P.facets[i].label for i in sorted(v.active)]
        raise VertexNotBlowable(
            f"vertex has lattice index {cls.index} with labels {labels}; "
            "only smooth and Z2 vertices can be blown up")

    held = [P.facets[i] for i in sorted(v.active)]
    raw = tuple(sum(f.normal[k] for f in held) for k in range(P.dim))
    # the sum of the active offsets less d, as num / den
    den = math.lcm(d.denominator, *(f.den for f in held))
    num = sum(f.num * (den // f.den) for f in held) - d.numerator * (den // d.denominator)
    # vertex rows are in lowest terms: equal points, equal rows
    rows = [w.row for w in verts]
    for w, (x, q) in enumerate(rows):
        if w != center and dot(raw, x) * den >= num * q:
            raise BlowupTooLarge(
                f"depth {format_rational(d)} reaches the vertex "
                f"({', '.join(map(format_rational, verts[w].point))})")
    g = content(raw)
    offset = Fraction(num, den * g)
    exc = Facet(tuple(x // g for x in raw), offset, 1)
    result = intersect_halfspace(P, exc)

    rst = result.structure()
    if not rst.simple:
        raise BlowupTooLarge("chopped polytope is not simple")
    new_rows = {row for row, _ in rst.points}
    if rows[center] in new_rows:
        raise InternalError("blown-up vertex survived the chop")
    if not set(rows[:center] + rows[center + 1:]) <= new_rows:
        raise BlowupTooLarge("the chop removed a vertex other than the center")

    z2 = cls.kind == VertexKind.Z2_SINGULAR
    term = LedgerTerm(exc.normal, offset,
                      Fraction(1, 2) if z2 else Fraction(1), d, z2)
    return result, ledger.with_term(term)


# ---------------------------------------------------------------------------
# the add-fixed-points pipeline
# ---------------------------------------------------------------------------

class PipelineReport(namedtuple("PipelineReport", "eps z2_vertices smooth_vertices chops "
                                  "new_fixed_vertices agreement_below expected_weights "
                                  "weights_ok")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.agreement_below and self.weights_ok and (
            len(self.new_fixed_vertices) == len(self.z2_vertices))

    def to_json(self) -> dict:
        return {
            "eps": format_rational(self.eps),
            "z2_vertices_on_cut": [[format_rational(c) for c in p] for p in self.z2_vertices],
            "smooth_vertices_on_cut": [[format_rational(c) for c in p]
                                       for p in self.smooth_vertices],
            "new_fixed_vertices": [
                {"point": [format_rational(c) for c in p], "weights": list(w)}
                for p, w in self.new_fixed_vertices
            ],
            "agreement_on_lower_half": self.agreement_below,
            "expected_weights": list(self.expected_weights),
            "weights_ok": self.weights_ok,
            "ok": self.ok,
        }


def add_fixed_points(P: LabeledPolytope, eps: Fraction) -> tuple[
        LabeledPolytope, ClassLedger, PipelineReport]:
    """Cut below eps, then blow up every Z2 vertex on the cut facet by eps.

    The result agrees with P on {x1 <= 0} and gains one fixed vertex per Z2
    point, sitting in {x1 = 0} with weights (-2, 1, ..., 1).  The agreement
    is decided from candidate facets, the result's and x1 <= 0, against
    P's lower half (`canonical_mismatch`): the result is not cut again.
    """
    eps = exact(eps, "eps")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    require_regular(P, eps)
    require_regular(P, 0)
    # each vertex is fixed, and so is the least face through it that holds
    # e1 in the span of its normals: its fixed component, at its level
    level = next((c for c in critical_values(P) if 0 < c <= eps), None)
    if level is not None:
        raise PreconditionError(
            f"a fixed component sits at level {format_rational(level)} "
            f"inside (0, {format_rational(eps)}]")

    C = cut(P, eps, CutSide.BELOW)
    e1 = (1,) + (0,) * (P.dim - 1)
    cut_idx = next((i for i, f in enumerate(C.facets) if f.normal == e1
                    and f.num == eps.numerator and f.den == eps.denominator), None)
    if cut_idx is None:
        # the cut facet is redundant: all of P lies below eps
        top = max(v.point[0] for v in vertices(C))
        raise PreconditionError(
            f"eps = {format_rational(eps)} lies above the top "
            f"{format_rational(top)} of the moment image")

    z2_points: list[tuple[Fraction, ...]] = []
    smooth_points: list[tuple[Fraction, ...]] = []
    for v in vertices(C):
        if cut_idx not in v.active:
            continue
        cls = classify_vertex(C, v)
        if cls.kind == VertexKind.Z2_SINGULAR:
            z2_points.append(v.point)
        elif cls.kind == VertexKind.SMOOTH:
            smooth_points.append(v.point)
        else:
            raise PreconditionError(
                f"vertex ({', '.join(map(format_rational, v.point))}) on the cut "
                f"facet has lattice index {cls.index}; only smooth and Z2 allowed")

    result = C
    ledger = fresh_ledger(P)
    for p in z2_points:
        result, ledger = blowup(result, BlowupParams(p, eps), ledger)

    # result and P agree on {x1 <= 0} when result's facets and x1 <= 0 cut
    # out P's lower half; those candidate facets are no polytope of their own
    lower = restrict_halfspace(P, Fraction(0))
    agreement = canonical_mismatch(result.facets + (_level_facet(P.dim, 0, CutSide.BELOW),),
                                   lower) is None
    expected = tuple(sorted([-2] + [1] * (P.dim - 1)))
    new_fixed = []
    weights_ok = True
    for v in vertices(result):
        if v.row[0][0] == 0:
            w = weights_at_vertex(result, v)
            new_fixed.append((v.point, w))
            if w != expected:
                weights_ok = False

    report = PipelineReport(
        eps=eps,
        z2_vertices=tuple(z2_points),
        smooth_vertices=tuple(smooth_points),
        chops=ledger.terms,
        new_fixed_vertices=tuple(new_fixed),
        agreement_below=agreement,
        expected_weights=expected,
        weights_ok=weights_ok,
    )
    return result, ledger, report
