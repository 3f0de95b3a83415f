"""Polytope-level constructions for the first-coordinate circle action.

cut        intersect with a half-space at a regular level
reduce_at  slice at a regular level, with stabilizer bookkeeping
compactify cut from both sides
blowup     corner chop at a smooth or Z2 vertex, with class bookkeeping
add_fixed_points  cut just above 0 and chop every Z2 vertex on the new facet
reversed_polytope flip the circle direction (x1 -> -x1)

The class ledger records, per blow-up, the exceptional facet and the
coefficient of its divisor class in units of the scale parameter t = 2*pi*d:
multiplier 1 at a smooth vertex, 1/2 at a Z2 vertex.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    BlowupTooLarge,
    EmptyResult,
    InternalError,
    PreconditionError,
    VertexNotBlowable,
)
from .lattice import content, dot, format_rational
from .polytope import (
    Facet,
    LabeledPolytope,
    Vertex,
    canonical_equal,
    intersect_halfspace,
    polytope_hash,
    require_regular,
    slice_at,
    to_json_dict,
    transform,
    vertices,
)
from .toric import (
    VertexKind,
    circle_stabilizer_order,
    classify_vertex,
    fixed_components,
    weights_at_vertex,
)


class CutSide(enum.Enum):
    BELOW = "below"
    ABOVE = "above"


def _level_facet(n: int, a: Fraction, side: CutSide) -> Facet:
    e1 = (1,) + (0,) * (n - 1)
    if side == CutSide.BELOW:
        return Facet(e1, a, 1)
    return Facet(tuple(-x for x in e1), -a, 1)


def restrict_halfspace(P: LabeledPolytope, a: Fraction,
                       side: CutSide = CutSide.BELOW) -> LabeledPolytope:
    """Plain intersection with a half-space, no regularity demanded.

    Vertices may lie on the boundary plane; tangent facets are pruned by the
    exact face-dimension rule.  Used for agreement checks, where the half
    space passes exactly through the new fixed vertices.
    """
    return intersect_halfspace(P, _level_facet(P.dim, Fraction(a), side))


def cut(P: LabeledPolytope, a: Fraction, side: CutSide = CutSide.BELOW) -> LabeledPolytope:
    """Intersect with {x1 <= a} (BELOW) or {x1 >= a} (ABOVE)."""
    require_regular(P, a)
    return restrict_halfspace(P, a, side)


@dataclass(frozen=True)
class ReduceResult:
    polytope: LabeledPolytope
    level: Fraction
    # (facet index in the reduced polytope, inducing facet index in P, order)
    stabilizers: tuple[tuple[int, int, object], ...]

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
    a = Fraction(a)
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
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise PreconditionError(f"need a < b, got {format_rational(a)} >= {format_rational(b)}")
    return cut(cut(P, b, CutSide.BELOW), a, CutSide.ABOVE)


def reversed_polytope(P: LabeledPolytope) -> LabeledPolytope:
    """Image under x1 -> -x1; all first-coordinate pairings change sign."""
    n = P.dim
    A = [[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return transform(P, A, (Fraction(0),) * n)


# ---------------------------------------------------------------------------
# blow-ups and the class ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerTerm:
    normal: tuple[int, ...]
    offset: Fraction
    multiplier: Fraction      # 1 for a smooth center, 1/2 for a Z2 center
    depth: Fraction
    z2: bool


@dataclass(frozen=True)
class ClassLedger:
    """Cohomology bookkeeping: base class minus multiplier * t per blow-up."""

    base: str
    terms: tuple[LedgerTerm, ...] = ()

    def with_term(self, term: LedgerTerm) -> "ClassLedger":
        return replace(self, terms=self.terms + (term,))

    def to_json(self, polytope: Optional[LabeledPolytope] = None) -> dict:
        index_of = {} if polytope is None else {
            (f.normal, f.offset): i for i, f in enumerate(polytope.facets)}
        return {"base": self.base, "terms": [
            {"facet": index_of.get((t.normal, t.offset)),
             "multiplier": format_rational(t.multiplier),
             "depth": format_rational(t.depth)}
            for t in self.terms]}


def fresh_ledger(P: LabeledPolytope) -> ClassLedger:
    return ClassLedger(base=polytope_hash(P))


@dataclass(frozen=True)
class BlowupParams:
    vertex: Union[Vertex, tuple[Fraction, ...]]
    depth: Fraction


def _find_vertex(P: LabeledPolytope, v: Union[Vertex, Sequence[Fraction]]) -> int:
    """The index of the vertex v among vertices(P)."""
    pt = tuple(Fraction(c) for c in (v.point if isinstance(v, Vertex) else v))
    for k, w in enumerate(vertices(P)):
        if w.point == pt:
            return k
    raise PreconditionError(
        f"({', '.join(map(format_rational, pt))}) is not a vertex")


def blowup(P: LabeledPolytope, params: BlowupParams,
           ledger: Optional[ClassLedger] = None) -> tuple[LabeledPolytope, ClassLedger]:
    """Chop the corner at a smooth or Z2 vertex to rational depth d.

    The new facet is sum(eta_i, x) <= sum(eta_i, v) - d over the active
    normals, primitivized.  Depth validity demands that every other vertex
    satisfies the chop strictly, so only the corner is affected.
    """
    if ledger is None:
        ledger = fresh_ledger(P)
    d = Fraction(params.depth)
    if d <= 0:
        raise PreconditionError("blow-up depth must be positive")
    center = _find_vertex(P, params.vertex)
    v = vertices(P)[center]
    cls = classify_vertex(P, v)
    if cls.kind == VertexKind.OTHER_ORBIFOLD:
        labels = [P.facets[i].label for i in sorted(v.active)]
        raise VertexNotBlowable(
            f"vertex has lattice index {cls.index} with labels {labels}; "
            "only smooth and Z2 vertices can be blown up")

    act = sorted(v.active)
    raw = tuple(sum(P.facets[i].normal[k] for i in act) for k in range(P.dim))
    total = sum(Fraction(P.facets[i].offset) for i in act)
    rhs = total - d
    # vertex rows num / den are in lowest terms: equal points, equal rows
    rows = [row for row, _ in P.structure().points]
    for w, (num, den) in enumerate(rows):
        if w != center and dot(raw, num) * rhs.denominator >= rhs.numerator * den:
            raise BlowupTooLarge(
                f"depth {format_rational(d)} reaches the vertex "
                f"({', '.join(map(format_rational, vertices(P)[w].point))})")
    g = content(raw)
    exc = Facet(tuple(x // g for x in raw), rhs / g, 1)
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
    term = LedgerTerm(exc.normal, exc.offset,
                      Fraction(1, 2) if z2 else Fraction(1), d, z2)
    return result, ledger.with_term(term)


# ---------------------------------------------------------------------------
# the add-fixed-points pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineReport:
    eps: Fraction
    z2_vertices: tuple[tuple[Fraction, ...], ...]
    smooth_vertices: tuple[tuple[Fraction, ...], ...]
    chops: tuple[LedgerTerm, ...]
    new_fixed_vertices: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]
    agreement_below: bool
    expected_weights: tuple[int, ...]
    weights_ok: bool

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
    point, sitting in {x1 = 0} with weights (-2, 1, ..., 1).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    require_regular(P, eps)
    require_regular(P, 0)
    for comp in fixed_components(P):
        if 0 < comp.level <= eps:
            raise PreconditionError(
                f"a fixed component sits at level {format_rational(comp.level)} "
                f"inside (0, {format_rational(eps)}]")

    C = cut(P, eps, CutSide.BELOW)
    e1 = (1,) + (0,) * (P.dim - 1)
    cut_idx = next((i for i, f in enumerate(C.facets)
                    if f.normal == e1 and f.offset == eps), None)
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

    agreement = canonical_equal(restrict_halfspace(result, Fraction(0)),
                                restrict_halfspace(P, Fraction(0)))
    expected = tuple(sorted([-2] + [1] * (P.dim - 1)))
    new_fixed = []
    weights_ok = True
    for v in vertices(result):
        if v.point[0] == 0:
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
