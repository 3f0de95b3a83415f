"""Circle-action semantics on labeled polytopes.

The distinguished circle acts along the first coordinate direction e1.
Vertex classification, weights at fixed vertices, stabilizer orders over
facets and the fixed-point inventory are all exact lattice computations.
"""
from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import Optional, Sequence

from .errors import DegenerateVertex, DimensionMismatch, InputError
from .lattice import (
    IntVector,
    _is_int,
    _sequence,
    content,
    dot,
    format_rational,
    half_sum_integral,
)
from .polytope import LabeledPolytope, Vertex, _format_row, vertices

INFINITE = "infinite"


class VertexKind(enum.Enum):
    SMOOTH = "smooth"
    Z2_SINGULAR = "z2"
    OTHER_ORBIFOLD = "orbifold"


# index: the lattice index of the active normals (it shadows tuple.index)
class VertexClass(namedtuple("VertexClass", "kind index half_sum_integral")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "index": self.index,
            "half_sum_integral": self.half_sum_integral,
        }


def _record(P: LabeledPolytope, v: Vertex) -> tuple[tuple[IntVector, ...], int]:
    """The edge generators and |det G_v| of P's record of the simple vertex v;
    one of another polytope, whose facets meet in no vertex of P, is refused."""
    if not isinstance(v, Vertex):
        raise InputError(f"vertex must be a Vertex, got {v!r}")
    act = sorted(v.active)
    if len(act) != P.dim:
        raise DegenerateVertex(f"vertex has {len(act)} active facets, expected {P.dim}")
    st = P.structure()
    k = st.index_by_active.get(v.active)
    if k is None or st.points[k][0] != v.row:
        raise DegenerateVertex(f"facets {act} do not meet in a vertex at {_format_row(v.row)}")
    return st.edges[k], st.dets[k]


def classify_vertex(P: LabeledPolytope, v: Vertex) -> VertexClass:
    """Smooth / Z2 / other, from the lattice index of the active normals.

    A vertex incident to a facet with label > 1 is an orbifold point no
    matter what the normals generate, so labels enter the classification.
    The index is |det A_v| = prod_l |<a_l, g_l>| / |det G_v|, for the active
    normals A_v and the edge generators G_v of P's record: A_v G_v^T is diagonal.
    """
    gens, det = _record(P, v)
    normals = [P.facets[i].normal for i in sorted(v.active)]
    idx = math.prod(abs(dot(a, g)) for a, g in zip(normals, gens)) // det
    half = half_sum_integral(normals)
    labels_one = all(P.facets[i].label == 1 for i in v.active)
    if idx == 1 and labels_one:
        kind = VertexKind.SMOOTH
    elif idx == 2 and half and labels_one:
        kind = VertexKind.Z2_SINGULAR
    else:
        kind = VertexKind.OTHER_ORBIFOLD
    return VertexClass(kind, idx, half)


def edge_generators(P: LabeledPolytope, v: Vertex) -> list[IntVector]:
    """Primitive edge directions at a simple vertex, one per active facet.

    Entry k relaxes the k-th facet of sorted(v.active): it pairs to zero
    with every other active normal and strictly negatively with its own.
    They are read off the vertex-edge graph of P.structure().
    """
    return list(_record(P, v)[0])


def weights_at_vertex(P: LabeledPolytope, v: Vertex,
                      xi: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """Multiset (sorted tuple) of pairings of xi with the edge generators."""
    if xi is None:
        xi = (1,) + (0,) * (P.dim - 1)
    elif len(_sequence(xi, "xi")) != P.dim:
        raise DimensionMismatch(f"xi has {len(xi)} entries, expected {P.dim}")
    else:
        for k, x in enumerate(xi):
            if not _is_int(x):
                raise InputError(f"xi entry {k} must be an integer, got {x!r}")
        if not any(xi):
            raise InputError("xi is the zero vector, which generates no circle")
    return tuple(sorted(dot(xi, e) for e in edge_generators(P, v)))


def circle_stabilizer_order(P: LabeledPolytope, i: int):
    """Order of the stabilizer of the e1-circle over the interior of facet i.

    For the primitive normal nu and label k this is k * gcd(nu_2, ..., nu_n)
    (Lerman-Tolman 1997), or "infinite" when nu is parallel to e1 and the
    facet is fixed.
    """
    if not (_is_int(i) and 0 <= i < len(P.facets)):
        raise InputError(f"facet index must be an integer in 0..{len(P.facets) - 1}, got {i!r}")
    f = P.facets[i]
    g = content(f.normal[1:])
    return INFINITE if g == 0 else g * f.label


class FixedComponent(namedtuple("FixedComponent", "active level vertex_points")):
    """A face pointwise fixed by the e1-circle (constant first coordinate):
    its active facet set, its level and the points of its vertices."""

    __slots__ = ()

    @property
    def isolated(self) -> bool:
        return len(self.vertex_points) == 1

    def to_json(self) -> dict:
        return {
            "active_facets": sorted(self.active),
            "level": format_rational(self.level),
            "vertices": [[format_rational(c) for c in p] for p in self.vertex_points],
            "isolated": self.isolated,
        }


def fixed_components(P: LabeledPolytope) -> list[FixedComponent]:
    """Faces minimal (by active set) with e1 in the span of their normals.

    At a simple vertex v the face with active set S is spanned by the edge
    generators of the facets of v not in S, and e1 lies in the span of the
    normals of S exactly when it pairs to zero with all of those.  So the
    minimal fixed face through v is the set of active facets whose edge
    generator has a nonzero weight.
    """
    verts = vertices(P)
    minimal = {frozenset(i for i, e in zip(sorted(v.active), edge_generators(P, v))
                         if e[0] != 0)
               for v in verts}
    out = []
    for s in minimal:
        pts = tuple(v.point for v in verts if s <= v.active)
        out.append(FixedComponent(s, pts[0][0], pts))
    out.sort(key=lambda c: (c.level, sorted(c.active)))
    return out
