from __future__ import annotations

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import momentcut.dh
import momentcut.ops
import momentcut.polytope
from momentcut.corpus import (asymmetric_wedge, box, chopped_cube, chopped_hypercube,
                               delta3, delzant_corpus)
from momentcut.dh import critical_values, dh_profile, wall_crossing_check
from momentcut.errors import (
    BlowupTooLarge,
    EmptyResult,
    InputError,
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
)
from momentcut.polytope import (
    Facet,
    LabeledPolytope,
    canonical_equal,
    canonical_key,
    dumps,
    intersect_halfspace,
    loads,
    reversed_polytope,
    slice_at,
    transform,
    vertices,
    volume,
)
from momentcut.toric import (VertexKind, circle_stabilizer_order, classify_vertex,
                             edge_generators, weights_at_vertex)

from conftest import (OPEN_WEDGE, agreement_by_restriction, chopped_box, keeping_x1,
                      random_unimodular, regular_levels, walked)

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


@st.composite
def _fixed_point_cases(draw):
    """(T, eps) for add_fixed_points: a corpus member, a wedge or a chopped
    box image moved so that a regular level between its two lowest
    critical values sits at 0, and an eps below the next one."""
    kind = draw(st.sampled_from(["corpus", "wedge", "box"]))
    if kind == "corpus":
        P = draw(st.sampled_from([P for _, P in delzant_corpus()]))
    elif kind == "wedge":
        P = draw(st.sampled_from([asymmetric_wedge(), OPEN_WEDGE]))
    else:
        n = draw(st.integers(2, 3))
        corners = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), unique=True, max_size=3))
        P = chopped_box(n, corners, draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 3)])))
        P = transform(P, keeping_x1(random.Random(draw(st.integers(0, 2 ** 16))), n), [0] * n)
    # the open wedge has one critical value, its apex at 1
    crit = [F(-1), F(1)] if P is OPEN_WEDGE else critical_values(P)
    m = crit[0] + (crit[1] - crit[0]) * F(draw(st.integers(1, 15)), 16)
    eps = (crit[1] - m) * F(draw(st.integers(1, 15)), 16)
    n = P.dim
    return transform(P, [[int(i == j) for j in range(n)] for i in range(n)],
                     [-m] + [0] * (n - 1)), eps


@settings(max_examples=60, deadline=None)
@given(case=_fixed_point_cases())
def test_agreement_matches_the_restriction_oracle(case):
    # the agreement is decided from candidate facets, with no polytope of
    # the result's lower half; the oracle cuts the result at 0 as before
    T, eps = case
    try:
        Q, _, report = add_fixed_points(T, eps)
    except PreconditionError:
        return      # an orbifold vertex on the cut facet
    assert report.agreement_below == agreement_by_restriction(Q, T)
    assert report.agreement_below


def _planted_cut(plant: str):
    """`cut` whose result differs from its input below x1 = 0."""
    def planted(P, a, side=CutSide.BELOW):
        C = cut(P, a, side)
        low = vertices(C)[0]
        if plant == "relabel":
            # the facets at the lowest vertex bound the lower half too
            i = min(low.active)
            return LabeledPolytope(C.dim, [Facet(f.normal, f.offset, f.label + (k == i))
                                           for k, f in enumerate(C.facets)])
        if plant == "chop":
            return blowup(C, BlowupParams(low.point, F(1, 64)))[0]
        # "floor" bounds an open lower half: it fails only along a ray
        return intersect_halfspace(C, Facet((-1,) + (0,) * (C.dim - 1), 5 - low.point[0]))
    return planted


@settings(max_examples=30, deadline=None)
@given(case=_fixed_point_cases(), plant=st.sampled_from(["relabel", "chop", "floor"]))
def test_planted_lower_half_fails_the_agreement(case, plant):
    T, eps = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(momentcut.ops, "cut", _planted_cut(plant))
        try:
            Q, _, report = add_fixed_points(T, eps)
        except PreconditionError:
            return
    if plant == "floor" and T.structure().bounded or plant == "chop" and min(
            critical_values(T)) > 0:
        return      # no vertex below 0 to chop, or no ray to floor
    assert not agreement_by_restriction(Q, T)
    assert not report.agreement_below and not report.ok


def test_open_wedge_agreement_reads_its_rays():
    # the lower half of the open wedge is unbounded: a floor at x1 = -5
    # holds at its vertices, and only its rays tell the regions apart
    Q, _, report = add_fixed_points(OPEN_WEDGE, F(1, 4))
    assert report.ok and len(report.new_fixed_vertices) == 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(momentcut.ops, "cut", _planted_cut("floor"))
        report = add_fixed_points(OPEN_WEDGE, F(1, 4))[2]
    assert not report.agreement_below


def _counting(monkeypatch, module, name: str, log: list):
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: log.append(args) or fn(*args))


def test_derived_steps_gate_only_their_new_facet(monkeypatch):
    # a parent's facets are gated once, when it is built from input; a step
    # gates only the facet it adds, and no derived polytope runs __init__
    P = chopped_hypercube()
    verts = vertices(P)
    gated, built = [], []
    _counting(monkeypatch, momentcut.polytope, "_check_facet", gated)
    init = LabeledPolytope.__init__
    monkeypatch.setattr(LabeledPolytope, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    Q, _ = blowup(P, BlowupParams(verts[0].point, F(1, 16)))
    assert len(gated) == 1 and gated[0][1] in Q.facets and gated[0][1] not in P.facets
    assert gated[0][0] == len(P.facets)
    C = cut(P, F(1, 2))
    K = compactify(P, F(1, 8), F(7, 8))
    R = reduce_at(P, F(1, 3)).polytope
    S = slice_at(Q, F(1, 3)).polytope
    assert [f for _, f, _ in gated[1:]] == [
        Facet((1, 0, 0, 0), F(1, 2)), Facet((1, 0, 0, 0), F(7, 8)), Facet((-1, 0, 0, 0), F(-1, 8))]
    assert not built
    for D in (Q, C, K, R, S):
        assert D.facets == LabeledPolytope(D.dim, D.facets).facets


def test_add_fixed_points_steps_nothing_from_its_result(monkeypatch):
    # the steps are the cut at eps, one chop per Z2 vertex and P's lower
    # half; the result is compared by its facets, and never cut at 0
    P = asymmetric_wedge()
    steps = []
    _counting(monkeypatch, momentcut.polytope, "_halfspace_step", steps)
    Q, _, report = add_fixed_points(P, F(1, 4))
    assert report.ok and len(report.z2_vertices) == 2
    assert len(steps) == 1 + 2 + 1
    assert all(R is not Q for R, _ in steps)
    assert steps[0] == (P, Facet((1, 0), F(1, 4))) and steps[-1] == (P, Facet((1, 0), F(0)))


def test_blowups_of_one_polytope_serialize_it_once(monkeypatch):
    # polytope_hash is kept with P: the ledgers of all its blow-ups share it
    P = chopped_cube()
    dumped = []
    _counting(monkeypatch, momentcut.polytope, "to_json_dict", dumped)
    bases = {blowup(P, BlowupParams(v.point, F(1, 32)))[1].base for v in vertices(P)}
    assert len(bases) == 1 and len(dumped) == 1


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

def test_derived_chain_builds_few_fractions():
    # the chain's exact arithmetic runs on integers: a Fraction is built
    # only for an input, by the Facet.offset and Vertex.point accessors, and
    # in the values handed back
    P = chopped_hypercube()
    half, center, depth, level = F(1, 2), (0, 0, 0, F(1, 4)), F(1, 16), F(3, 8)
    shift, eps, wall = (F(-1, 2), 0, 0, 0), F(1, 8), F(3, 4)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    code = Fraction.__new__.__code__
    built = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built["Fraction"] += 1
    before = sys.getprofile()
    sys.setprofile(count)
    try:
        C = cut(P, half)
        B, _ = blowup(C, BlowupParams(center, depth))
        reduced = reduce_at(B, level)
        report = add_fixed_points(transform(P, identity, shift), eps)[2]
        checked = wall_crossing_check(P, wall)
    finally:
        sys.setprofile(before)
    assert len(vertices(B)) == len(vertices(C)) + 3 and reduced.polytope is not None
    assert report.ok and checked.ok
    # the entry points take their levels as given, with no Fraction(x) copy
    assert built["Fraction"] == 127


def _x1_never_decreases(P: LabeledPolytope) -> bool:
    rows = [row for row, _ in P.structure().points]
    return all(a[0] * d <= c[0] * b for (a, b), (c, d) in zip(rows, rows[1:]))


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), picks=st.integers(0, 2**16 - 1), seed=st.integers(0, 2**32))
def test_x1_never_decreases_along_the_points(n, picks, seed):
    # dh_profile and critical_values read the levels in the order of
    # Structure.points, walked or derived: by a cut, a blow-up, a slice, a
    # half-space step and the facets it makes redundant, or a transform
    rng = random.Random(seed)
    corners = [c for k, c in enumerate(product((0, 1), repeat=n)) if picks >> k & 1]
    b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    P = transform(chopped_box(n, corners, F(1, 4)), random_unimodular(rng, n), b)
    crit = critical_values(P)
    level = crit[0] + (crit[-1] - crit[0]) * F(rng.randint(1, 15), 16)
    e1 = (1,) + (0,) * (n - 1)
    derived = [P, intersect_halfspace(P, Facet(e1, crit[-1] + 1)),
               intersect_halfspace(P, Facet(e1, level)),
               blowup(P, BlowupParams(rng.choice(vertices(P)).point, F(1, 16)))[0]]
    if level not in crit:
        derived += [cut(P, level), slice_at(P, level).polytope]
    for Q in derived:
        assert _x1_never_decreases(Q)


def test_derived_polytopes_take_no_walk(monkeypatch):
    # a surgery chain walks from scratch only for its parsed inputs and its
    # transform images, once each; every cut, slice, blow-up and irredundant
    # form steps from its parent's structure, and a wall check walks nothing
    walks, walked_for, inputs = Counter(), [], []
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
        crit = critical_values(P)
        lo, hi = [crit[0] + (crit[1] - crit[0]) * F(k, 3) for k in (1, 2)]
        T = momentcut.polytope.transform(P, [[int(i == j) for j in range(P.dim)]
                                             for i in range(P.dim)],
                                         [-lo] + [F(0)] * (P.dim - 1))
        inputs += [P, T]
        # the same surgery on P and on its image T
        for R, shift in ((P, 0), (T, lo)):
            a, b = lo - shift, hi - shift
            derived += [cut(R, a), cut(R, a, CutSide.ABOVE), reduce_at(R, a).polytope,
                        compactify(R, a, b)]
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
    assert walks["walk"] == len(walked_for) == 4
    assert all(Q is A for Q, A in zip(walked_for, inputs))

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


# -- exact numbers only at the entry points ----------------------------------

_NOT_EXACT = {"float": 0.5, "nan": float("nan"), "str": "1/2", "bool": True, "none": None}


def _entry_points(bad):
    """(name in the refusal, call) for each number a public op takes."""
    square, d3 = box(F(1), F(1)), delta3()
    center = vertices(square)[0]
    calls = [
        ("level", lambda: momentcut.polytope.require_regular(square, bad)),
        ("level", lambda: slice_at(square, bad)),
        ("level", lambda: cut(square, bad)),
        ("level", lambda: restrict_halfspace(square, bad, CutSide.ABOVE)),
        ("level", lambda: reduce_at(square, bad)),
        ("lower level", lambda: compactify(square, bad, F(1, 2))),
        ("upper level", lambda: compactify(square, F(1, 4), bad)),
        ("eps", lambda: add_fixed_points(square, bad)),
        ("blow-up depth", lambda: blowup(square, BlowupParams(center, bad))),
        ("vertex coordinate", lambda: blowup(square, BlowupParams((F(0), bad), F(1, 4)))),
        ("shift", lambda: transform(square, [[1, 0], [0, 1]], (0, bad))),
        ("level", lambda: wall_crossing_check(d3, bad)),
        ("level", lambda: dh_profile(d3).value(bad)),
    ]
    if bad is not None:
        # a window of None asks for the default one
        calls.append(("window", lambda: wall_crossing_check(d3, F(0), bad)))
    return calls


@pytest.mark.parametrize("kind", sorted(_NOT_EXACT))
def test_entry_points_refuse_inexact_numbers(kind):
    # a float is not taken as its binary value, a string is not parsed, and
    # True is not the level 1
    bad = _NOT_EXACT[kind]
    for what, call in _entry_points(bad):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == f"{what} must be an integer or a Fraction, got {bad!r}", what


@pytest.mark.parametrize("side", ["below", "above", None, 1])
def test_cut_side_must_be_a_cut_side(side):
    # any side that is not a CutSide was read as ABOVE: x1 >= 1/3 was kept
    square = box(F(1), F(1))
    for call in (lambda: cut(square, F(1, 3), side),
                 lambda: restrict_halfspace(square, F(1, 3), side)):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == f"side must be a CutSide, got {side!r}"


def _sequence_calls():
    """(refusal, call) for each sequence, index, vertex or parameter argument
    of a public op."""
    square = box(F(1), F(1))
    v, identity = vertices(square)[0], [[1, 0], [0, 1]]
    return [
        ("vertex must be a Vertex, a list or a tuple, got 0.5",
         lambda: blowup(square, BlowupParams(0.5, F(1, 4)))),
        ("matrix must be a list or a tuple, got 0.5", lambda: transform(square, 0.5, (0, 0))),
        ("matrix row must be a list or a tuple, got 0.5",
         lambda: transform(square, [0.5, [0, 1]], (0, 0))),
        ("matrix entries must be integers, got [[1.0, 0], [0, 1]]",
         lambda: transform(square, [[1.0, 0], [0, 1]], (0, 0))),
        ("shift must be a list or a tuple, got 0.5", lambda: transform(square, identity, 0.5)),
        ("xi must be a list or a tuple, got 0.5", lambda: weights_at_vertex(square, v, 0.5)),
    ] + [(f"facet index must be an integer in 0..3, got {i!r}",
          lambda i=i: circle_stabilizer_order(square, i)) for i in (-1, 4, True, 0.5)] + [
        ("vertex must be a Vertex, got (0, 0)", lambda: classify_vertex(square, (0, 0))),
        ("vertex must be a Vertex, got None", lambda: edge_generators(square, None)),
        ("vertex must be a Vertex, got (0, 0)", lambda: weights_at_vertex(square, (0, 0))),
        (f"params must be a BlowupParams, got {(v, F(1, 4))!r}",
         lambda: blowup(square, (v, F(1, 4)))),
    ]


@pytest.mark.parametrize("k", range(len(_sequence_calls())))
def test_sequence_and_index_arguments_refused_by_name(k):
    # a number where a sequence belongs is not left to a bare TypeError,
    # and a negative facet index does not read from the end
    message, call = _sequence_calls()[k]
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_entry_points_take_ints_as_exact():
    wide, d3 = box(F(3), F(1)), delta3()
    assert canonical_equal(cut(wide, 1), cut(wide, F(1)))
    assert canonical_equal(compactify(wide, 1, 2), compactify(wide, F(1), F(2)))
    assert reduce_at(wide, 1).to_json() == reduce_at(wide, F(1)).to_json()
    assert (wall_crossing_check(d3, 0, 1).to_json()
            == wall_crossing_check(d3, F(0), F(1)).to_json())
    assert dh_profile(d3).value(0) == dh_profile(d3).value(F(0))


# -- the centre of a blow-up ---------------------------------------------------

def test_blowup_centre_given_as_a_vertex(square):
    v = next(v for v in vertices(square) if v.point == (F(0), F(0)))
    by_vertex = blowup(square, BlowupParams(v, F(1, 4)))
    by_point = blowup(square, BlowupParams((F(0), F(0)), F(1, 4)))
    assert by_vertex[0].facets == by_point[0].facets and by_vertex[1] == by_point[1]


def test_blowup_refuses_a_point_that_is_not_a_vertex(square):
    with pytest.raises(PreconditionError) as err:
        blowup(square, BlowupParams((F(1, 2), F(0)), F(1, 4)))
    assert str(err.value) == "(1/2, 0) is not a vertex"
