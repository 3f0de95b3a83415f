from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import momentcut.dh
import momentcut.ops
import momentcut.polytope
from momentcut.corpus import asymmetric_wedge, box, chopped_cube, delzant_corpus
from momentcut.dh import critical_values, wall_crossing_check
from momentcut.errors import (
    BlowupTooLarge,
    EmptyResult,
    MomentcutError,
    NotRegularLevel,
    PreconditionError,
    VertexNotBlowable,
)
from momentcut.lattice import dot
from momentcut.ops import (
    BlowupParams,
    CutSide,
    add_fixed_points,
    blowup,
    compactify,
    cut,
    fresh_ledger,
    reduce_at,
    restrict_halfspace,
    reversed_polytope,
)
from momentcut.polytope import (
    Facet,
    LabeledPolytope,
    canonical_equal,
    canonical_key,
    dumps,
    loads,
    slice_at,
    transform,
    vertices,
    volume,
)
from momentcut.toric import VertexKind, classify_vertex, edge_generators, weights_at_vertex

from conftest import keeping_x1, regular_levels, walked

F = Fraction


def half_strip():
    return LabeledPolytope(2, [Facet((-1, 0), F(0)), Facet((0, -1), F(0)),
                               Facet((0, 1), F(1))])


def vertex_at(P, point):
    point = tuple(F(c) for c in point)
    return next(v for v in vertices(P) if v.point == point)


# -- cut ----------------------------------------------------------------------

def test_cut_square_below(square):
    Q = cut(square, F(1, 2))
    assert canonical_equal(Q, box(F(1, 2), F(1)))


def test_cut_requires_regular_level(square):
    with pytest.raises(NotRegularLevel):
        cut(square, F(0))


def test_cut_empty(square):
    with pytest.raises(EmptyResult):
        cut(square, F(-1))


def test_cut_pex2_new_vertices(pex2):
    Q = cut(pex2, F(1, 4))
    pts = {v.point for v in vertices(Q)}
    assert pts == {(F(-1), F(0)), (F(1, 4), F(5, 8)), (F(1, 4), F(-5, 8))}
    # the old level-1 facet in the same direction is now redundant and gone
    assert all(f.offset == F(1, 4) for f in Q.facets if f.normal == (1, 0))


def test_cut_above(square):
    Q = cut(square, F(1, 4), CutSide.ABOVE)
    assert {v.point[0] for v in vertices(Q)} == {F(1, 4), F(1)}


def test_cut_compatibility_on_corpus():
    # slice(cut(P, a), s) equals slice(P, s) for regular s < a
    rng = random.Random(77)
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        for a in regular_levels(P, rng, 2):
            C = cut(P, a)
            for s in regular_levels(P, rng, 2, hi=a):
                left = slice_at(C, s).polytope
                right = slice_at(P, s).polytope
                assert canonical_equal(left, right), (name, a, s)


# -- reduce ---------------------------------------------------------------------

def test_reduce_square(square):
    res = reduce_at(square, F(1, 2))
    assert volume(res.polytope) == 1
    assert res.polytope.dim == 1


def test_reduce_delta3_triangle(d3):
    res = reduce_at(d3, F(-1, 2))
    pts = {v.point for v in vertices(res.polytope)}
    # edge-hyperplane oracle values
    assert pts == {(F(0), F(0)), (F(1, 4), F(0)), (F(0), F(1, 4))}


def test_reduce_delta3_quadrilateral(d3):
    res = reduce_at(d3, F(1, 2))
    assert len(vertices(res.polytope)) == 4


def test_reduce_reports_stabilizers(pex2):
    res = reduce_at(pex2, F(0))
    orders = {o for _, _, o in res.stabilizers}
    assert orders == {2}


def test_reduce_not_regular(square):
    with pytest.raises(NotRegularLevel):
        reduce_at(square, F(0))


# -- compactify -------------------------------------------------------------------

def test_compactify_half_strip():
    Q = compactify(half_strip(), F(1, 4), F(3, 4))
    want = LabeledPolytope(2, [Facet((-1, 0), F(-1, 4)), Facet((1, 0), F(3, 4)),
                               Facet((0, -1), F(0)), Facet((0, 1), F(1))])
    assert canonical_equal(Q, want)


def test_compactify_contained_is_identity(square):
    Q = compactify(square, F(-1, 2), F(3, 2))
    assert canonical_equal(Q, square)


def test_compactify_cut_order_commutes(square):
    a, b = F(1, 4), F(3, 4)
    other_order = cut(cut(square, a, CutSide.ABOVE), b, CutSide.BELOW)
    assert canonical_equal(compactify(square, a, b), other_order)


def test_compactify_order_check(square):
    with pytest.raises(PreconditionError):
        compactify(square, F(3, 4), F(1, 4))


# -- blowup -----------------------------------------------------------------------

def test_blowup_square_corner(square):
    Q, ledger = blowup(square, BlowupParams((F(0), F(0)), F(1, 4)))
    assert any(f.normal == (-1, -1) and f.offset == F(-1, 4) for f in Q.facets)
    assert len(ledger.terms) == 1
    assert ledger.terms[0].multiplier == 1 and not ledger.terms[0].z2


def test_blowup_z2_vertex(pex2):
    C = cut(pex2, F(1, 4))
    Q, ledger = blowup(C, BlowupParams((F(1, 4), F(5, 8)), F(1, 4)))
    assert any(f.normal == (0, 1) and f.offset == F(1, 2) for f in Q.facets)
    assert ledger.terms[0].multiplier == F(1, 2) and ledger.terms[0].z2


def test_blowup_depth_too_large(square):
    with pytest.raises(BlowupTooLarge):
        blowup(square, BlowupParams((F(0), F(0)), F(3)))


def test_blowup_rejects_orbifold_vertex(pex2):
    with pytest.raises(VertexNotBlowable):
        blowup(pex2, BlowupParams((F(-1), F(0)), F(1, 8)))


def test_blowup_rejects_labeled_vertex():
    P = LabeledPolytope(2, [Facet((-1, 0), F(0), 2), Facet((1, 0), F(1)),
                            Facet((0, -1), F(0)), Facet((0, 1), F(1))])
    with pytest.raises(VertexNotBlowable):
        blowup(P, BlowupParams((F(0), F(0)), F(1, 8)))


def test_blowup_removed_volume_smooth():
    # when <sum eta_i, e_j> = -1 for every edge, the chop removes d^n/n!
    for P, corner in [(box(F(1), F(1)), (0, 0)), (box(F(1), F(1), F(1)), (0, 0, 0))]:
        v = vertex_at(P, corner)
        raw = tuple(sum(P.facets[i].normal[k] for i in v.active)
                    for k in range(P.dim))
        assert all(dot(raw, e) == -1 for e in edge_generators(P, v))
        d = F(1, 5)
        Q, _ = blowup(P, BlowupParams(corner, d))
        assert volume(P) - volume(Q) == d ** P.dim / math.factorial(P.dim)


def test_blowup_removed_volume_z2_independent(pex2):
    # removed volume equals the volume of the chopped corner region,
    # built independently from the corner's active facets
    C = cut(pex2, F(1, 4))
    v = vertex_at(C, (F(1, 4), F(5, 8)))
    d = F(1, 4)
    Q, _ = blowup(C, BlowupParams(v.point, d))
    raw = tuple(sum(C.facets[i].normal[k] for i in v.active) for k in range(2))
    rhs = sum(F(C.facets[i].offset) for i in v.active) - d
    from momentcut.lattice import content

    g = content(raw)
    corner_facets = [C.facets[i] for i in sorted(v.active)]
    corner_facets.append(Facet(tuple(-x // g for x in raw), -rhs / g))
    removed = LabeledPolytope(2, corner_facets)
    assert volume(C) - volume(Q) == volume(removed)


def test_blowup_smoothing(pex2):
    # every vertex on the exceptional facet of a Z2 blow-up is smooth
    C = cut(pex2, F(1, 4))
    Q, ledger = blowup(C, BlowupParams((F(1, 4), F(5, 8)), F(1, 4)))
    exc = next(i for i, f in enumerate(Q.facets)
               if f.normal == ledger.terms[0].normal)
    for v in vertices(Q):
        if exc in v.active:
            assert classify_vertex(Q, v).kind == VertexKind.SMOOTH


def test_blowup_volume_decreases(square):
    Q, _ = blowup(square, BlowupParams((F(0), F(0)), F(1, 3)))
    assert volume(Q) < volume(square)


# -- add_fixed_points ----------------------------------------------------------

def test_pipeline_worked_example(pex2):
    Q, ledger, report = add_fixed_points(pex2, F(1, 4))
    assert report.ok
    assert set(report.z2_vertices) == {(F(1, 4), F(5, 8)), (F(1, 4), F(-5, 8))}
    assert {p for p, _ in report.new_fixed_vertices} == {
        (F(0), F(1, 2)), (F(0), F(-1, 2))}
    assert all(w == (-2, 1) for _, w in report.new_fixed_vertices)
    assert report.agreement_below
    assert [t.multiplier for t in ledger.terms] == [F(1, 2), F(1, 2)]
    # exact facet inventory of the result
    keys = {f.key() for f in Q.facets}
    assert keys == {
        ((-1, 2), F(1), 1), ((-1, -2), F(1), 1), ((1, 0), F(1, 4), 1),
        ((0, 1), F(1, 2), 1), ((0, -1), F(1, 2), 1)}


def test_pipeline_no_z2_vertices():
    P = LabeledPolytope(2, [Facet((-1, 0), F(1)), Facet((1, 0), F(1)),
                            Facet((0, -1), F(0)), Facet((0, 1), F(1))])
    Q, ledger, report = add_fixed_points(P, F(1, 2))
    assert not report.z2_vertices and not ledger.terms
    assert canonical_equal(Q, cut(P, F(1, 2)))


def test_pipeline_rejects_vertex_level(pex2):
    with pytest.raises(NotRegularLevel):
        add_fixed_points(pex2, F(1))


def test_pipeline_rejects_fixed_component_in_band(d3):
    # delta3 has an isolated fixed vertex at level 0; shifting it down puts
    # that vertex inside (0, eps]
    from momentcut.polytope import transform

    shifted = transform(d3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        (F(1, 8), F(0), F(0)))
    with pytest.raises(PreconditionError, match="fixed component"):
        add_fixed_points(shifted, F(1, 4))


def test_restrict_halfspace_at_vertex_level(pex2):
    Q, _, _ = add_fixed_points(pex2, F(1, 4))
    R = restrict_halfspace(Q, F(0))
    assert canonical_equal(R, restrict_halfspace(pex2, F(0)))


# -- reversed -------------------------------------------------------------------

def test_reversed_box(square):
    R = reversed_polytope(square)
    assert {v.point for v in vertices(R)} == {
        (F(0), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(-1), F(1))}


def test_reversed_involution(d3, pex2):
    for P in (d3, pex2):
        assert canonical_equal(reversed_polytope(reversed_polytope(P)), P)


def test_reversed_weights_negate(d3):
    R = reversed_polytope(d3)
    v = vertex_at(R, (0, 0, 0))
    assert weights_at_vertex(R, v) == (-1, -1, 1)


def test_reversed_cut_conjugation(d3):
    a = F(1, 2)
    left = cut(reversed_polytope(d3), -a, CutSide.BELOW)
    right = reversed_polytope(cut(d3, a, CutSide.ABOVE))
    assert canonical_equal(left, right)


def test_ledger_base_identity(square):
    ledger = fresh_ledger(square)
    assert len(ledger.base) == 12
    _, l2 = blowup(square, BlowupParams((F(0), F(0)), F(1, 8)), ledger)
    assert l2.base == ledger.base and len(l2.terms) == 1


# -- derived polytopes take their structure from the parent ---------------------

def test_derived_polytopes_take_no_walk(monkeypatch):
    # a surgery chain walks from scratch only for its parsed inputs; every
    # cut, slice, blow-up, transform image and irredundant form steps from
    # its parent's structure, and a wall check walks nothing
    walks, walked_for, parsed = Counter(), [], []
    walk, compute = momentcut.polytope._walk, momentcut.polytope._compute_structure

    def counting_walk(*args):
        walks["walk"] += 1
        return walk(*args)

    def recording(P):
        walked_for.append(P)
        return compute(P)

    monkeypatch.setattr(momentcut.polytope, "_walk", counting_walk)
    monkeypatch.setattr(momentcut.polytope, "_compute_structure", recording)

    derived, wall_checks = [], 0
    for P0 in (chopped_cube(), asymmetric_wedge()):
        P = loads(dumps(P0))
        parsed.append(P)
        crit = critical_values(P)
        lo, hi = [crit[0] + (crit[1] - crit[0]) * F(k, 3) for k in (1, 2)]
        T = momentcut.ops.transform(P, [[int(i == j) for j in range(P.dim)]
                                        for i in range(P.dim)],
                                    [-lo] + [F(0)] * (P.dim - 1))
        # the same surgery on P and on its image T, a derived polytope
        for R, shift in ((P, 0), (T, lo)):
            a, b = lo - shift, hi - shift
            derived += [cut(R, a), cut(R, a, CutSide.ABOVE), reduce_at(R, a).polytope,
                        compactify(R, a, b), reversed_polytope(R)]
            verts = vertices(R)
            for v in verts:
                act = sorted(v.active)
                raw = [sum(R.facets[i].normal[k] for i in act) for k in range(R.dim)]
                margin = min(sum(R.facets[i].offset for i in act) - dot(raw, w.point)
                             for w in verts if w is not v)
                try:
                    derived.append(blowup(R, BlowupParams(v.point, margin / 2))[0])
                except VertexNotBlowable:
                    pass
        Q = add_fixed_points(T, (crit[1] - lo) / 2)[0]
        derived.append(Q)
        for R in (P, Q):
            for c in critical_values(R)[1:-1]:
                before = len(walked_for)
                try:
                    wall_crossing_check(R, c)
                    wall_checks += 1
                except PreconditionError:
                    pass
                assert len(walked_for) == before
    assert wall_checks >= 2 and len(derived) >= 40
    assert walks["walk"] == len(walked_for) == 2
    assert all(Q is A for Q, A in zip(walked_for, parsed))

    walks.clear()
    keys = [canonical_key(D) for D in derived]
    assert not walks
    assert keys == [canonical_key(walked(D)) for D in derived]


# -- equivariance under unimodular maps that keep x1 ----------------------------

def _outcome(thunk):
    """What thunk returns, or the type of the MomentcutError it raises."""
    try:
        return thunk()
    except MomentcutError as exc:
        return type(exc)


def _agree(got, want) -> bool:
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return canonical_equal(got, want)


def _stabilizers(res, image=lambda f: f) -> dict:
    """Each facet of a reduced polytope, through `image`, with its order."""
    return {image(res.polytope.facets[i]): order for i, _, order in res.stabilizers}


_X1_CASES = [(name, P) for name, P in delzant_corpus() if P.dim <= 3]
_X1_CASES.append(("wedge", asymmetric_wedge()))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), case=st.sampled_from(_X1_CASES))
def test_operations_commute_with_maps_keeping_x1(seed, case):
    # y = Ax + b with A = [[1, 0], [c, B]] moves every level by b_1, so each
    # operation on the image at a + b_1 is the image of the operation at a
    rng = random.Random(seed)
    _, P = case
    n = P.dim
    A = keeping_x1(rng, n)
    b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    Q = transform(P, A, b)
    a = regular_levels(P, rng, 1)[0]

    for side in CutSide:
        assert _agree(_outcome(lambda: cut(Q, a + b[0], side)),
                      _outcome(lambda: transform(cut(P, a, side), A, b)))

    # the slice at x1 = a maps by x' -> Bx' + (a c + b')
    B = [row[1:] for row in A[1:]]
    shift = [row[0] * a + t for row, t in zip(A[1:], b[1:])]
    got, want = reduce_at(Q, a + b[0]), reduce_at(P, a)
    assert canonical_equal(got.polytope, transform(want.polytope, B, shift))
    assert _stabilizers(got) == _stabilizers(
        want, lambda f: transform(LabeledPolytope(n - 1, [f]), B, shift).facets[0])

    verts = vertices(P)
    v = rng.choice(verts)
    act = sorted(v.active)
    raw = [sum(P.facets[i].normal[k] for i in act) for k in range(n)]
    margin = min(sum(P.facets[i].offset for i in act) - dot(raw, w.point)
                 for w in verts if w is not v)
    depth = margin * F(rng.randint(1, 5), 4)       # too deep from 4/4 on
    w = tuple(dot(row, v.point) + t for row, t in zip(A, b))
    assert _agree(_outcome(lambda: blowup(Q, BlowupParams(w, depth))[0]),
                  _outcome(lambda: transform(blowup(P, BlowupParams(v.point, depth))[0], A, b)))

    # add_fixed_points works at level 0: move a there, and keep b_1 = 0
    P0 = transform(P, [[int(i == j) for j in range(n)] for i in range(n)],
                   [-a] + [F(0)] * (n - 1))
    top = min(x for x in critical_values(P) if x > a)
    eps = (top - a) * F(rng.randint(1, 3), 4)
    b0 = [F(0)] + b[1:]
    got = _outcome(lambda: add_fixed_points(transform(P0, A, b0), eps))
    want = _outcome(lambda: add_fixed_points(P0, eps))
    if isinstance(want, type):
        assert got is want
    else:
        assert canonical_equal(got[0], transform(want[0], A, b0))
        assert got[2].ok == want[2].ok
