from __future__ import annotations

import fractions
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import momentcut.polytope
from momentcut.corpus import asymmetric_wedge, box, chopped_hypercube, delzant_corpus, simplex
from momentcut.errors import (
    EmptyResult,
    InputError,
    NotRegularLevel,
    NotSimple,
    PreconditionError,
)
from momentcut.lattice import dot, independent_rows, primitive
from momentcut.polytope import (
    Facet,
    LabeledPolytope,
    Structure,
    _point,
    _scaled_rows,
    canonical_equal,
    canonical_mismatch,
    critical_values,
    dumps,
    from_json_dict,
    intersect_halfspace,
    irredundant,
    loads,
    require_regular,
    reversed_polytope,
    slice_at,
    slice_facet,
    to_json_dict,
    transform,
    validate,
    vertices,
    volume,
)
from momentcut.ops import (
    BlowupParams,
    CutSide,
    blowup,
    compactify,
    add_fixed_points,
    cut,
    restrict_halfspace,
)
from momentcut.toric import edge_generators

from conftest import (
    canonical_equal_by_walk,
    canonical_order_by_fractions,
    chopped_box,
    cut_8_cube,
    dets_by_elimination,
    edge_hyperplane_points,
    empty_8d_region,
    random_unimodular,
    rank_rational,
    regular_levels,
    slice_by_walk,
    slice_facet_by_fractions,
    solve_int,
    structure_by_subsets,
    tangent_rays,
    volume_by_triangulation,
    walked,
)

F = Fraction


def octahedron():
    return LabeledPolytope(3, [Facet((sx, sy, sz), F(1))
                               for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])


# -- validation --------------------------------------------------------------

def test_validate_square(square):
    assert validate(square).valid


def test_validate_octahedron_not_simple():
    rep = validate(octahedron())
    assert not rep.valid
    assert any("not simple" in f for f in rep.failures)


def test_validate_duplicate_facet(square):
    facets = list(square.facets) + [Facet((0, 1), F(1))]
    rep = validate(LabeledPolytope(2, facets))
    assert not rep.valid
    assert any("redundant" in f or "duplicate" in f for f in rep.failures)


def test_validate_redundant_facet(square):
    facets = list(square.facets) + [Facet((1, 1), F(5))]
    rep = validate(LabeledPolytope(2, facets))
    assert not rep.valid
    assert any("redundant" in f for f in rep.failures)


def test_validate_unbounded():
    rep = validate(LabeledPolytope(2, [Facet((-1, 0), F(0)), Facet((0, -1), F(0)),
                                       Facet((0, 1), F(1))]))
    assert not rep.valid
    assert any("unbounded" in f for f in rep.failures)


def test_validate_empty():
    rep = validate(LabeledPolytope(1, [Facet((1,), F(-1)), Facet((-1,), F(-1))]))
    assert not rep.valid


def test_validate_dimension_cap():
    facets = []
    for i in range(9):
        lo = tuple(-1 if j == i else 0 for j in range(9))
        hi = tuple(1 if j == i else 0 for j in range(9))
        facets += [Facet(lo, F(0)), Facet(hi, F(1))]
    rep = validate(LabeledPolytope(9, facets))
    assert not rep.valid
    assert "exceeds" in rep.failures[0]


def test_constructor_rejects_nonprimitive():
    with pytest.raises(InputError, match="primitive"):
        LabeledPolytope(2, [Facet((2, 4), F(1)), Facet((-1, 0), F(0)),
                            Facet((0, 1), F(1)), Facet((0, -1), F(0))])


def test_constructor_rejects_bad_label():
    with pytest.raises(InputError, match="label"):
        LabeledPolytope(1, [Facet((1,), F(1), 0), Facet((-1,), F(0))])


@pytest.mark.parametrize("bad", [
    Facet((0, 0), F(0)), Facet((-2, 4), F(0)), Facet((-1, 0), F(0), 0), Facet((-1,), F(0)),
], ids=["zero", "not-primitive", "label-0", "length-1"])
def test_facet_index_names_the_input_position(bad):
    # the bad facet comes second and sorts first: the index is the caller's
    with pytest.raises(InputError, match="^facet 1: "):
        LabeledPolytope(2, [Facet((1, 0), F(1)), bad])
    with pytest.raises(InputError, match="^facet 1: "):
        from_json_dict({"dim": 2, "facets": [
            {"normal": [1, 0], "offset": "1"},
            {"normal": list(bad.normal), "offset": "0", "label": bad.label}]})


@pytest.mark.parametrize("bad,message", [
    (Facet((-1, 0), 0.1), "offset must be an integer or a Fraction, got 0.1"),
    (Facet((-1, 0), "1/2"), "offset must be an integer or a Fraction, got '1/2'"),
    (Facet((-1, 0), F(0), 2.0), "label must be a positive integer, got 2.0"),
    (Facet((-1, 0), F(0), True), "label must be a positive integer, got True"),
    (Facet((-1.0, 0), F(0)), "normal must be a tuple of integers, got (-1.0, 0)"),
    (Facet((-1, False), F(0)), "normal must be a tuple of integers, got (-1, False)"),
    (Facet((-1, 0), True), "offset must be an integer or a Fraction, got True"),
], ids=["float-offset", "string-offset", "float-label", "bool-label", "float-normal",
        "bool-normal", "bool-offset"])
def test_constructor_refuses_values_of_other_types(bad, message):
    # a float offset would be read as its binary value, a string parsed, a
    # float or bool label printed as 2.0 or true, a float normal a TypeError
    with pytest.raises(InputError, match="^" + re.escape(f"facet 1: {message}") + "$"):
        LabeledPolytope(2, [Facet((1, 0), F(1)), bad])


@pytest.mark.parametrize("dim", [2.0, True, "2"])
def test_constructor_refuses_a_dimension_that_is_not_an_integer(dim):
    # 2.0 was printed as "dim": 2.0 and made validate fail with a TypeError
    with pytest.raises(InputError) as err:
        LabeledPolytope(dim, box(F(1), F(1)).facets)
    assert str(err.value) == f"dimension must be an integer, got {dim!r}"


def test_facet_offset_is_an_integer_pair():
    f = Facet((1, -1), F(6, -4), 2)
    assert (f.num, f.den, f.offset, f.key()) == (-3, 2, F(-3, 2), ((1, -1), F(-3, 2), 2))
    assert Facet((0, 1), 3) == Facet((0, 1), F(3), 1)
    with pytest.raises(TypeError):
        sorted([Facet((0, 1), 3), Facet((1, 0), 0)])


_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _facet_lists(draw, n):
    """Facets with primitive normals of small entries, so normals repeat."""
    count = draw(st.integers(1, 8))
    normals = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(primitive)
    return [Facet(draw(normals), draw(_rationals), draw(st.integers(1, 3)))
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_canonical_order_matches_fraction_oracle(data, n):
    facets = data.draw(_facet_lists(n))
    assert list(LabeledPolytope(n, facets).facets) == canonical_order_by_fractions(facets)


@settings(max_examples=150, deadline=None)
@given(normal=st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda v: any(v[1:])),
       offset=_rationals, label=st.integers(1, 3), s=_rationals)
def test_slice_facet_matches_fraction_oracle(normal, offset, label, s):
    f = Facet(primitive(normal), offset, label)
    assert slice_facet(f, s) == slice_facet_by_fractions(f, s)


# -- vertices ----------------------------------------------------------------

def test_vertices_square(square):
    pts = {v.point for v in vertices(square)}
    assert pts == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def test_vertices_simplex(simplex2):
    assert {v.point for v in vertices(simplex2)} == {
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1))}


def test_vertices_pex2(pex2):
    assert {v.point for v in vertices(pex2)} == {
        (F(-1), F(0)), (F(1), F(1)), (F(1), F(-1))}


def test_vertices_active_sets(square):
    for v in vertices(square):
        assert len(v.active) == 2
        for i in v.active:
            f = square.facets[i]
            assert dot(f.normal, v.point) == f.offset


def test_vertices_not_simple_raises():
    with pytest.raises(NotSimple):
        vertices(octahedron())


# -- the edge walk against the subset oracle ---------------------------------

def _facets(*rows) -> list[Facet]:
    return [Facet(tuple(normal), F(offset)) for *normal, offset in rows]


def _structure_cases() -> list[tuple[str, LabeledPolytope]]:
    rng = random.Random(7)
    corpus = delzant_corpus()
    cases = list(corpus)
    for name, P in corpus:
        b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(P.dim)]
        cases.append((f"{name} image", transform(P, random_unimodular(rng, P.dim), b)))
    for n, depth, share in ((3, F(1, 3), 0.5), (4, F(1, 4), 0.5), (5, F(1, 4), 0.25)):
        corners = [bits for bits in product((0, 1), repeat=n) if rng.random() < share]
        cases.append((f"chopped-{n}-cube", chopped_box(n, corners, depth)))
    cases += [
        ("half-strip", LabeledPolytope(2, _facets((-1, 0, 0), (0, -1, 0), (0, 1, 1)))),
        ("strip with a line", LabeledPolytope(2, _facets((0, -1, 0), (0, 1, 1)))),
        ("empty", LabeledPolytope(2, _facets((1, 0, 0), (-1, 0, -1), (0, 1, 1),
                                             (0, -1, 0)))),
        ("square pyramid", LabeledPolytope(3, _facets(
            (0, 0, -1, 0), (1, 0, 1, 1), (-1, 0, 1, 1), (0, 1, 1, 1), (0, -1, 1, 1)))),
        ("square cone", LabeledPolytope(3, _facets(
            (1, 0, -1, 0), (-1, 0, -1, 0), (0, 1, -1, 0), (0, -1, -1, 0)))),
        ("octahedron", octahedron()),
        ("cuboctahedron", chopped_box(3, list(product((0, 1), repeat=3)), F(1, 2))),
        ("square in R^3", LabeledPolytope(3, _facets(
            (1, 0, 0, 1), (-1, 0, 0, 0), (0, 1, 0, 1), (0, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, -1, 0)))),
        ("segment", LabeledPolytope(1, _facets((1, F(5, 2)), (-1, 1)))),
        ("point", LabeledPolytope(1, _facets((1, 2), (-1, -2)))),
        ("redundant facet", LabeledPolytope(2, list(box(F(1), F(1)).facets)
                                            + _facets((1, 1, 5)))),
    ]
    return cases


@pytest.mark.parametrize("P", [pytest.param(P, id=name) for name, P in _structure_cases()])
def test_structure_matches_subset_oracle(P):
    st, oracle = P.structure(), structure_by_subsets(P)
    for name in Structure._fields:
        assert getattr(st, name) == getattr(oracle, name), name
    if st.simple:
        for v, gens in zip(vertices(P), oracle.edges):
            assert edge_generators(P, v) == list(gens)


def _count_work(monkeypatch, P: LabeledPolytope) -> Counter:
    """Count the walk's primitives while P's structure is computed: fresh
    adjugates, and exchanges and ratio tests, each split between
    phase 1 (one more column and row: the artificial t) and the walk."""
    n, m = P.dim, len(P.facets)
    calls = Counter()

    def count(module, name, kind):
        fn = getattr(module, name)

        def wrapped(*args):
            calls[kind(args)] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapped)

    count(momentcut.polytope, "adjugate_int", lambda args: "adjugate_int")
    count(momentcut.polytope, "exchange",
          lambda args: "walk exchange" if len(args[0]) == n else "phase-1 exchange")
    count(momentcut.polytope, "_ratio_test",
          lambda args: "walk ratio test" if len(args[0]) == m else "phase-1 ratio test")
    return calls


def test_structure_walks_each_edge_once(monkeypatch):
    # one adjugate for the first basis, then one exchange per pivot of
    # phase 1 and per vertex after the first, and one ratio test per edge
    # over a column of the tableau; solving all C(24, 4) = 10 626 facet
    # subsets took one solve each
    P = chopped_hypercube()
    calls = _count_work(monkeypatch, P)
    st = P.structure()
    assert len(st.points) == 64 and st.simple
    assert calls == {"adjugate_int": 1, "phase-1 exchange": 2, "phase-1 ratio test": 2,
                     "walk exchange": 63, "walk ratio test": 128}


def test_empty_region_takes_few_pivots(monkeypatch):
    # scanning the C(30, 8) = 5 852 925 facet subsets for a vertex ran for
    # minutes; phase 1 pivots by exchange alone after the first basis
    P = empty_8d_region()
    calls = _count_work(monkeypatch, P)
    assert P.structure().points == ()
    assert calls == {"adjugate_int": 1, "phase-1 exchange": 5, "phase-1 ratio test": 5}


def test_non_simple_region_reads_structure_off_edges(monkeypatch):
    # the recession cone from all C(30, 7) = 2 035 800 facet subsets, one
    # kernel direction each, took 892 s after a walk of 0.3 s, and the
    # tangent cones of the 15 non-simple vertices took C(9, 7) = 36 kernel
    # directions each; the cone step combines 187 pairs of rays in all, and
    # the walk takes no other `_combine`
    P = cut_8_cube()
    combined = []
    combine = momentcut.polytope._combine

    def counted(*args):
        combined.append(args)
        return combine(*args)
    monkeypatch.setattr(momentcut.polytope, "_combine", counted)
    st = P.structure()
    non_simple = [act for _, act in st.points if len(act) > P.dim]
    assert (len(st.points), len(non_simple), {len(act) for act in non_simple}) == (326, 15, {9})
    assert st.bounded and st.rays == () and st.affine_rank == 8 and st.full_dim
    assert len(combined) == 187
    # the face-dimension rule on point differences, once
    by_points = set()
    for i in range(len(P.facets)):
        incident = [_point(row) for row, act in st.points if i in act]
        diffs = [[q - b for q, b in zip(pt, incident[0])] for pt in incident[1:]]
        if not incident or rank_rational(diffs) != P.dim - 1:
            by_points.add(i)
    assert st.redundant == by_points == {2, 4, *range(14, 25)}


def _check_tableaux(monkeypatch) -> Counter:
    """Assert that every tableau the walk takes from phase 1 or by an
    exchange equals the fresh `_basis` of its active set, up to the sign
    that the order of the basis rows gives; count them."""
    checked = Counter()
    normals = []
    walk, pivot = momentcut.polytope._walk, momentcut.polytope._pivot

    def same(act, basis):
        cols, det = basis
        fresh_cols, fresh_det = momentcut.polytope._basis(normals, act)
        sign = 1 if (det > 0) == (fresh_det > 0) else -1
        assert (sign * det, [[sign * x for x in c] for c in cols]) == (fresh_det, fresh_cols)
        checked["tableaux"] += 1

    def checking_walk(rows, n, start):
        normals[:] = rows
        act = [j for j, s in enumerate(start[2]) if s == 0]
        if len(act) == n:
            same(act, start[3])
        return walk(rows, n, start)

    def checking_pivot(basis, act, k, r, n):
        got = pivot(basis, act, k, r, n)
        if len(got[0]) == n:    # not a phase-1 pivot
            same(*got)
        return got
    monkeypatch.setattr(momentcut.polytope, "_walk", checking_walk)
    monkeypatch.setattr(momentcut.polytope, "_pivot", checking_pivot)
    return checked


def test_exchanged_tableaux_match_fresh_adjugates(monkeypatch):
    checked = _check_tableaux(monkeypatch)
    simple_vertices = 0
    for _, P in _structure_cases():
        st = walked(P).structure()
        simple_vertices += sum(len(act) == P.dim for _, act in st.points)
    # every simple vertex but one: the square pyramid's walk reaches a
    # vertex of its base from the apex, and that takes a fresh adjugate
    assert checked["tableaux"] == simple_vertices - 1 == 409


def _random_facets(rng: random.Random, n: int, count: int) -> list[Facet]:
    facets = []
    while len(facets) < count:
        v = [rng.randint(-2, 2) for _ in range(n)]
        if any(v):
            facets.append(Facet(primitive(v), F(rng.randint(-3, 3), rng.randint(1, 2))))
    return facets


def _first_basis_infeasible(P: LabeledPolytope) -> bool:
    normals, offs, _ = _scaled_rows(P.facets)
    rows = independent_rows(normals)
    if len(rows) < P.dim:
        return False
    num, den = solve_int([list(normals[i]) for i in rows], [offs[i] for i in rows])
    return any(dot(a, num) > o * den for a, o in zip(normals, offs))


@st.composite
def _walk_cases(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["chopped box", "corpus image", "first basis infeasible"]))
    if kind == "chopped box":
        n = draw(st.integers(2, 4))
        corners = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), unique=True, max_size=5))
        P = chopped_box(n, corners, draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2)])))
    elif kind == "corpus image":
        P = draw(st.sampled_from([P for _, P in delzant_corpus()]))
    else:
        n = draw(st.integers(1, 3))
        P = LabeledPolytope(n, _random_facets(rng, n, draw(st.integers(n + 1, 7))))
        assume(_first_basis_infeasible(P))
    if kind != "first basis infeasible" or draw(st.booleans()):
        P = transform(P, random_unimodular(rng, P.dim),
                      [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(P.dim)])
    return P


@settings(max_examples=60, deadline=None)
@given(P=_walk_cases())
def test_structure_matches_subset_oracle_on_random_systems(P):
    st, oracle = P.structure(), structure_by_subsets(P)
    for name in Structure._fields:
        assert getattr(st, name) == getattr(oracle, name), name


def _cross_polytope_vertex(n: int, i: int = 0, sign: int = 1):
    """The facet normals of |x_1| + ... + |x_n| <= 1 and the active set of
    its vertex sign * e_i, which lies on 2^(n-1) facets."""
    normals = list(product((1, -1), repeat=n))
    return normals, [j for j, a in enumerate(normals) if a[i] == sign], n


@st.composite
def _pointed_cones(draw):
    """(normals, act, n) with more than n normals in act, spanning R^n: a
    non-simple vertex, since at a simple one the rays keep act's order, not
    the subsets'.  A vertex of the cross-polytope, or random normals, some
    repeated, opposite or off act, optionally turned to pair negatively with
    one direction c (so c is interior and the cone full-dimensional)."""
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(3, 5))
        i, sign = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, -1]))
        return _cross_polytope_vertex(n, i, sign)
    n = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    normals = [primitive(v) for v in draw(st.lists(vector, min_size=n + 1, max_size=n + 8))]
    c = draw(st.one_of(st.none(), vector))
    if c is not None:
        normals = [a if dot(a, c) < 0 else tuple(-x for x in a) for a in normals if dot(a, c)]
    assume(len(normals) > n)
    act = sorted(draw(st.sets(st.sampled_from(range(len(normals))), min_size=n + 1)))
    assume(len(independent_rows([normals[j] for j in act])) == n)
    return normals, act, n


@settings(max_examples=150, deadline=None)
@given(cone=_pointed_cones())
@example(cone=_cross_polytope_vertex(3))
@example(cone=_cross_polytope_vertex(4))
@example(cone=_cross_polytope_vertex(5))
def test_cone_step_matches_subset_oracle(cone):
    normals, act, n = cone
    assert momentcut.polytope._edge_directions(normals, act, n)[0] == tangent_rays(normals, act, n)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 4), contradiction=st.booleans())
def test_phase1_certificate_on_random_systems(seed, n, contradiction):
    rng = random.Random(seed)
    facets = _random_facets(rng, n, rng.randint(n, n + 5))
    if contradiction:
        # <a, x> <= b and <-a, x> <= -b - c for some c > 0
        a, b = facets[0].normal, facets[0].offset
        facets.append(Facet(tuple(-x for x in a), -b - F(rng.randint(1, 4), rng.randint(1, 3))))
    P = LabeledPolytope(n, facets)
    normals, offs, _ = _scaled_rows(P.facets)
    start, y = momentcut.polytope._phase1(normals, offs, n)
    assume(start is not None or y is not None)      # the normals span R^n
    assert (y is None) == bool(structure_by_subsets(P).points)
    if y is not None:
        assert all(yj >= 0 for yj in y)
        assert [sum(yj * f.normal[k] for yj, f in zip(y, P.facets)) for k in range(n)] == [0] * n
        assert sum(yj * f.offset for yj, f in zip(y, P.facets)) < 0


# -- derived structures against the walk from scratch -------------------------

def _assert_as_walked(Q: LabeledPolytope) -> None:
    st, fresh = Q.structure(), walked(Q).structure()
    for name in Structure._fields:
        assert getattr(st, name) == getattr(fresh, name), name
    if len(Q.facets) <= 10:
        assert st == structure_by_subsets(Q)


def _assert_slice_as_walked(P: LabeledPolytope, s: Fraction) -> None:
    got, want = slice_at(P, s), slice_by_walk(P, s)
    assert (got.degenerate, got.inducing) == (want.degenerate, want.inducing), s
    assert (got.polytope is None) == (want.polytope is None), s
    if got.polytope is not None:
        assert got.polytope.facets == want.polytope.facets, s
        _assert_as_walked(got.polytope)


def test_halfspace_step_from_a_non_simple_vertex():
    # the square pyramid with its base [-1, 1]^2 at x1 = 0 and its apex
    # (1, 0, 0) on four facets: the cut x1 >= 1/2 crosses the four edges
    # from the apex, whose directions the apex cannot supply
    pyramid = LabeledPolytope(3, [Facet((-1, 0, 0), F(0))] + [
        Facet((1,) + tail, F(1)) for tail in ((1, 0), (-1, 0), (0, 1), (0, -1))])
    assert not pyramid.structure().simple
    top = restrict_halfspace(pyramid, F(1, 2), CutSide.ABOVE)
    _assert_as_walked(top)


@st.composite
def _derived_cases(draw):
    if draw(st.booleans()):
        P = draw(st.sampled_from([P for _, P in delzant_corpus()]))
        n = P.dim
    else:
        n = draw(st.integers(2, 3))
        corners = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), unique=True, max_size=4))
        # depth 1/2 makes the chops of adjacent corners meet: not simple
        depth = draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 3), F(1, 2)]))
        P = chopped_box(n, corners, depth)
        if draw(st.booleans()):
            # without x1 <= 1 the box is unbounded unless a chop closes it
            P = LabeledPolytope(n, [f for f in P.facets if f.normal != (1,) + (0,) * (n - 1)])
    if draw(st.booleans()):
        # the image maps P's structure
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        P = transform(P, random_unimodular(rng, n),
                      [F(rng.randint(-3, 3), 2) for _ in range(n)])
    xs = sorted({_point(row)[0] for row, _ in P.structure().points})
    width = xs[-1] - xs[0]
    # levels on both sides of the image and beyond it, and critical ones
    spread = st.integers(-4, 20).map(lambda k: xs[0] + width * F(k, 16))
    levels = draw(st.lists(spread | st.sampled_from(xs), min_size=2, max_size=4))
    corner = draw(st.integers(0, len(xs) * 8))
    fraction = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1)]))
    return P, levels, corner, fraction


@settings(max_examples=40, deadline=None)
@given(case=_derived_cases())
def test_derived_structures_match_fresh_walk(case):
    P, levels, corner, fraction = case
    simple = P.structure().simple
    derived = [P, reversed_polytope(P)]
    for a in levels:
        for side in CutSide:
            try:
                # at a critical level the new facet can pass through a
                # vertex: a non-simple child
                derived.append(restrict_halfspace(P, a, side))
            except EmptyResult:
                pass
            if simple:
                try:
                    derived.append(cut(P, a, side))
                except (EmptyResult, NotRegularLevel):
                    pass
    if simple:
        verts = vertices(P)
        v = verts[corner % len(verts)]
        act = sorted(v.active)
        raw = [sum(P.facets[i].normal[k] for i in act) for k in range(P.dim)]
        margin = min(sum(P.facets[i].offset for i in act) - dot(raw, w.point)
                     for w in verts if w is not v)
        try:
            derived.append(blowup(P, BlowupParams(v.point, margin * fraction))[0])
        except PreconditionError:
            pass
    for D in derived:
        _assert_as_walked(D)
        assert irredundant(D).structure() == irredundant(walked(D)).structure()
        for s in levels:
            _assert_slice_as_walked(D, s)


@settings(max_examples=40, deadline=None)
@given(case=_derived_cases())
def test_derived_facets_are_gated_and_in_canonical_order(case):
    # a derived polytope takes its facets as checked and ordered, with no
    # gate and no sort: the constructor, which runs both, gives them back
    # unchanged, and the structure derived with them is a fresh walk's
    P, levels, corner, fraction = case
    derived = [reversed_polytope(P), irredundant(P)]
    for a in levels:
        sl = slice_at(P, a).polytope
        derived += [sl] if sl is not None else []
        for side in CutSide:
            try:
                derived.append(cut(P, a, side))
            except (PreconditionError, NotSimple):
                pass
    try:
        derived.append(compactify(P, min(levels), max(levels)))
    except (PreconditionError, NotSimple):
        pass
    if P.structure().simple:
        verts = vertices(P)
        v = verts[corner % len(verts)]
        try:
            derived.append(blowup(P, BlowupParams(v.point, fraction / 8))[0])
        except PreconditionError:
            pass
    for Q in derived:
        assert Q.facets == LabeledPolytope(Q.dim, Q.facets).facets
        _assert_as_walked(Q)


@pytest.mark.parametrize("bad,message", [
    (Facet((2, 0), F(1)), "normal [2, 0] is not primitive; use [1, 0] with offset 1/2"),
    (Facet((1, 0, 0), F(1, 2)), "normal has length 3, expected 2"),
    (Facet((1, 1), F(1), 0), "label must be a positive integer, got 0"),
    (Facet((1, 1), 0.5), "offset must be an integer or a Fraction, got 0.5"),
    (Facet((1, 0), F(1), 0), "label must be a positive integer, got 0"),
], ids=["not-primitive", "length-3", "label-0", "float-offset", "label-0-repeat"])
def test_intersect_halfspace_refuses_a_bad_facet_by_name(bad, message):
    # the step gates its one new facet, named by its position after P's,
    # also one that repeats a facet of P
    P = box(F(1), F(1))
    with pytest.raises(InputError) as err:
        intersect_halfspace(P, bad)
    assert str(err.value) == f"facet {len(P.facets)}: {message}"


@settings(max_examples=40, deadline=None)
@given(case=_derived_cases(), normal=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       k=st.integers(-8, 24))
def test_crossing_edges_match_fresh_tangent_cones(case, normal, k):
    # the closed-form edges at each crossing of a simple vertex's edge are
    # the tangent cone of the new vertex: the adjugate of its active basis
    P = case[0]
    n = P.dim
    a = tuple(normal[:n])
    assume(any(a))
    a = primitive(a)
    values = [dot(a, _point(row)) for row, _ in P.structure().points]
    c = min(values) + (max(values) - min(values)) * F(k, 16)
    normals = [f.normal for f in P.facets] + [a]
    crossings = momentcut.polytope._crossings(P, a, c.numerator, c.denominator)[1]
    for row, key, relax, det in crossings:
        if relax is None:
            continue
        act = sorted(key) + [len(P.facets)]
        es, fresh_det = momentcut.polytope._edge_directions(normals, act, n)
        assert [relax[j] for j in sorted(key)] + [relax[None]] == list(es)
        assert det == fresh_det


def _dets_as_eliminated(Q: LabeledPolytope) -> None:
    st = Q.structure()
    assert st.dets == dets_by_elimination(st)


@settings(max_examples=60, deadline=None)
@given(walk=st.sampled_from(_structure_cases()), case=_derived_cases(),
       normal=st.lists(st.integers(-3, 3), min_size=5, max_size=5), k=st.integers(-4, 20))
def test_vertex_dets_match_elimination(walk, case, normal, k):
    # every vertex record's |det G_v|, walked or derived by any step, is
    # one elimination of its edge rows: the corpus, chopped boxes and their
    # images, the half-strip; cuts on both sides by x1 and by a random
    # normal, corner chops, add_fixed_points, slices, irredundant, images
    P, levels, corner, fraction = case
    n = P.dim
    derived = [walk[1], P, reversed_polytope(P), irredundant(P),
               transform(P, random_unimodular(random.Random(k), n), [F(k, 3)] * n),
               add_fixed_points(asymmetric_wedge(), F(1, 4))[0]]
    a = primitive(normal[:n]) if any(normal[:n]) else (1,) + (0,) * (n - 1)
    values = [dot(a, _point(row)) for row, _ in P.structure().points]
    c = min(values) + (max(values) - min(values)) * F(k, 16)
    for facet in (Facet(a, c), Facet(tuple(-x for x in a), -c)):
        try:
            derived.append(intersect_halfspace(P, facet))
        except EmptyResult:
            pass
    for s in levels:
        derived += [D for D in (slice_at(P, s).polytope,) if D is not None]
        for side in CutSide:
            try:
                derived.append(restrict_halfspace(P, s, side))
            except EmptyResult:
                pass
    st_P = P.structure()
    if st_P.simple and st_P.bounded:
        verts = vertices(P)
        try:
            derived.append(blowup(P, BlowupParams(verts[corner % len(verts)].point,
                                                  fraction / 8))[0])
        except PreconditionError:
            pass
        # x1 = 0 between the two lowest levels, and eps below the next one
        xs = critical_values(P)
        if len(xs) > 1:
            m = (xs[0] + xs[1]) / 2
            moved = transform(P, [[int(i == j) for j in range(n)] for i in range(n)],
                              [-m] + [0] * (n - 1))
            try:
                derived.append(add_fixed_points(moved, (xs[1] - m) * fraction / 2)[0])
            except PreconditionError:
                pass
    for D in derived:
        _dets_as_eliminated(D)
        for s in levels:
            D_slice = slice_at(D, s).polytope if D.dim > 1 else None
            if D_slice is not None:
                _dets_as_eliminated(D_slice)


def test_dets_are_none_at_a_non_simple_vertex():
    # the unit cube and x + y + z <= 3: (1, 1, 1) lies on four facets but
    # its tangent cone has three rays, and G_v is square; it read 1
    P = LabeledPolytope(3, list(box(F(1), F(1), F(1)).facets) + [Facet((1, 1, 1), F(3))])
    st = P.structure()
    k = next(k for k, (row, _) in enumerate(st.points) if row == ((1, 1, 1), 1))
    assert len(st.points[k][1]) == 4 and len(st.edges[k]) == 3
    assert st.dets[k] is None
    assert st.dets == dets_by_elimination(st)
    assert [d for d in st.dets if d is not None] == [1] * 7


def test_crossings_take_no_adjugate(monkeypatch):
    # cuts at regular levels, a blow-up and slices of a simple polytope
    # meet no vertex: every new vertex is a crossing, with closed-form edges
    P = chopped_hypercube()
    verts = vertices(P)
    levels = regular_levels(P, random.Random(4), 6)
    calls = Counter()
    for name in ("adjugate_int", "_edge_directions"):
        fn = getattr(momentcut.polytope, name)
        monkeypatch.setattr(momentcut.polytope, name,
                            lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
    derived = [cut(P, a, side) for a in levels[:2] for side in CutSide]
    derived.append(blowup(P, BlowupParams(verts[0].point, F(1, 16)))[0])
    # not at the levels of the cuts, whose vertices lie on them
    slices = [(D, s, slice_at(D, s)) for D in derived for s in levels[2:]]
    assert not calls
    assert sum(sl.polytope is not None for *_, sl in slices) >= 8
    monkeypatch.undo()
    for D in derived:
        _assert_as_walked(D)
    for D, s, _ in slices:
        _assert_slice_as_walked(D, s)


def _count_steps(monkeypatch, names) -> Counter:
    calls = Counter()
    for name in names:
        fn = getattr(momentcut.polytope, name)
        monkeypatch.setattr(momentcut.polytope, name,
                            lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
    return calls


@pytest.mark.parametrize("corner", [0, 21, 63])
def test_corner_chop_pairs_the_edges_of_its_corner_only(monkeypatch, corner):
    # the chop cuts off one vertex of the 64: its n edges cross the new
    # facet, and each is met from the corner, not from its kept neighbour
    P = chopped_hypercube()
    st = P.structure()
    met = []
    fn = momentcut.polytope._crossing_edges
    monkeypatch.setattr(momentcut.polytope, "_crossing_edges",
                        lambda act, es, r, k, det: met.append(es) or fn(act, es, r, k, det))
    Q = blowup(P, BlowupParams(vertices(P)[corner].point, F(1, 16)))[0]
    assert met == [st.edges[corner]] * P.dim
    monkeypatch.undo()
    assert len(Q.structure().points) == 64 - 1 + P.dim
    _assert_as_walked(Q)


@pytest.mark.parametrize("a,side,kept", [(F(1, 2), CutSide.BELOW, 15), (F(3, 8), CutSide.ABOVE, 15),
                                         (F(1, 8), CutSide.ABOVE, 23)])
def test_cut_off_facets_take_no_second_finish(monkeypatch, a, side, kept):
    # cutting chopped_hypercube at x1 = 1/2 cuts off x1 <= 1 and the 8 chops
    # at x1 = 1 whole: the step leaves them out, so its child is finished
    # once and irredundant has nothing to drop
    P = chopped_hypercube()
    P.structure()
    calls = _count_steps(monkeypatch, ["_finish", "_drop_facets", "_compute_structure"])
    C = cut(P, a, side)
    assert calls == Counter({"_finish": 1})
    monkeypatch.undo()
    assert len(C.facets) == kept + 1
    _assert_as_walked(C)


@settings(max_examples=60, deadline=None)
@given(P=st.sampled_from([P for _, P in delzant_corpus()]), seed=st.integers(0, 2 ** 32),
       edits=st.lists(st.sampled_from(["shift", "relabel", "drop", "loose copy", "twin"]),
                      max_size=3))
def test_canonical_mismatch_matches_walked_candidate(P, seed, edits):
    # the wall check's candidate test against the walk it replaced
    rng = random.Random(seed)
    facets = list(P.facets)
    for edit in edits:
        i = rng.randrange(len(facets))
        f = facets[i]
        if edit == "shift":
            facets[i] = Facet(f.normal, f.offset + F(rng.choice([-1, 1]), rng.randint(1, 4)),
                              f.label)
        elif edit == "relabel":
            facets[i] = Facet(f.normal, f.offset, f.label + 1)
        elif edit == "drop" and len(facets) > 1:
            facets.pop(i)
        elif edit == "loose copy":
            facets.append(Facet(f.normal, f.offset + 1, rng.randint(1, 2)))
        elif edit == "twin":
            facets.append(Facet(f.normal, f.offset, rng.randint(1, 3)))
    got = canonical_mismatch(facets, P)
    assert (got is None) == canonical_equal_by_walk(facets, P), got


# -- slicing -----------------------------------------------------------------

def test_slice_square_midline(square):
    sl = slice_at(square, F(1, 2))
    seg = sl.polytope
    assert seg.dim == 1
    assert {f.key() for f in seg.facets} == {((1,), F(1), 1), ((-1,), F(0), 1)}


def test_slice_simplex3(simplex3):
    sl = slice_at(simplex3, F(1, 4)).polytope
    assert {f.key() for f in sl.facets} == {
        ((-1, 0), F(0), 1), ((0, -1), F(0), 1), ((1, 1), F(3, 4), 1)}


def test_slice_delta3_quadrilateral(d3):
    sl = slice_at(d3, F(1, 2)).polytope
    pts = {v.point for v in vertices(sl)}
    assert pts == {(F(1, 2), F(0)), (F(0), F(1, 2)), (F(3, 4), F(0)), (F(0), F(3, 4))}


def test_slice_outside_is_empty(d3):
    assert slice_at(d3, F(2)).empty
    assert slice_at(d3, F(-2)).empty


def test_slice_degenerate_at_apex(simplex3):
    sl = slice_at(simplex3, F(1))
    assert sl.polytope is None and sl.degenerate


def test_slice_labels_inherited():
    P = LabeledPolytope(2, [Facet((-1, 0), F(0), 3), Facet((1, 0), F(1), 1),
                            Facet((0, -1), F(0), 2), Facet((0, 1), F(1), 5)])
    sl = slice_at(P, F(1, 2))
    labels = {f.key()[2] for f in sl.polytope.facets}
    assert labels == {2, 5}


def test_slice_edge_oracle_on_corpus():
    rng = random.Random(2024)
    for name, P in delzant_corpus():
        for s in regular_levels(P, rng, 3):
            sl = slice_at(P, s)
            got = {v.point for v in vertices(sl.polytope)}
            assert got == edge_hyperplane_points(P, s), (name, s)


# -- volume ------------------------------------------------------------------

def test_volume_unit_square(square):
    assert volume(square) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_volume_standard_simplex(n):
    assert volume(simplex(n)) == F(1, math.factorial(n))


def test_volume_delta3(d3):
    assert volume(d3) == F(1, 6)


def test_volume_unimodular_invariance():
    rng = random.Random(5)
    for name, P in [("square", box(F(1), F(1))), ("simplex-3", simplex(3))]:
        base = volume(P)
        for _ in range(5):
            A = random_unimodular(rng, P.dim)
            b = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(P.dim))
            assert volume(transform(P, A, b)) == base, name


def test_volume_hashes_no_fraction(monkeypatch):
    # the vertex sum runs on integer rows; one Fraction is built at the end
    P = chopped_hypercube()
    vertices(P)

    def no_hash(self):
        raise AssertionError("volume hashed a Fraction")
    monkeypatch.setattr(fractions.Fraction, "__hash__", no_hash)
    assert volume(P) == F(383, 384)


def test_volume_segment():
    seg = LabeledPolytope(1, [Facet((1,), F(5, 2)), Facet((-1,), F(1))])
    assert volume(seg) == F(7, 2)


@pytest.mark.parametrize("dim,facets,message", [
    (1, [((1,), 0), ((-1,), -1)],
     "the region is empty: facets 0, 1 have no common point"),
    (2, [((-1, 0), 0), ((0, -1), 0)], "the region is unbounded along [1, 0]"),
    (2, [((1, 0), 1), ((-1, 0), 0)],
     "the region has no vertex (it is empty or contains a line)"),
], ids=["empty", "unbounded", "line"])
def test_volume_refusal_names_the_region(dim, facets, message):
    P = LabeledPolytope(dim, [Facet(nrm, F(off)) for nrm, off in facets])
    with pytest.raises(PreconditionError) as err:
        volume(P)
    assert str(err.value) == f"{message}; volume needs a bounded polytope"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 4),
       depth=st.fractions(F(1, 64), F(31, 64), max_denominator=64))
def test_volume_matches_triangulation_on_chopped_boxes(seed, n, depth):
    """Lawrence's vertex sum against the triangulation oracle on a chopped
    box's unimodular image, and invariance under the map."""
    rng = random.Random(seed)
    corners = [bits for bits in product((0, 1), repeat=n) if rng.random() < 0.5]
    P = chopped_box(n, corners, depth)
    b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    Q = transform(P, random_unimodular(rng, n), b)
    assert volume(Q) == volume_by_triangulation(Q) == volume(P)


# -- regular levels ----------------------------------------------------------

def test_require_regular(square, d3):
    require_regular(square, F(1, 2))
    with pytest.raises(NotRegularLevel, match="a vertex lies at level 0"):
        require_regular(square, F(0))
    with pytest.raises(NotRegularLevel):
        require_regular(d3, F(0))


# -- transforms --------------------------------------------------------------

def test_transform_translation(square):
    Q = transform(square, [[1, 0], [0, 1]], (F(1), F(0)))
    offsets = {f.normal: f.offset for f in Q.facets}
    assert offsets[(1, 0)] == 2 and offsets[(-1, 0)] == -1
    assert offsets[(0, 1)] == 1 and offsets[(0, -1)] == 0


def test_transform_simplex_to_delta3(simplex3, d3):
    A = [[-1, 1, 1], [0, 1, 0], [0, 0, 1]]
    assert canonical_equal(transform(simplex3, A, (F(0),) * 3), d3)


def test_transform_round_trip(d3):
    rng = random.Random(9)
    A = random_unimodular(rng, 3)
    from momentcut.lattice import inverse_unimodular
    b = (F(1, 2), F(-1, 3), F(2))
    Ainv = inverse_unimodular(A)
    binv = tuple(-sum(F(Ainv[i][k]) * b[k] for k in range(3)) for i in range(3))
    assert canonical_equal(transform(transform(d3, A, b), Ainv, binv), d3)


# -- canonical equality ------------------------------------------------------

def test_canonical_equal_permuted(square):
    Q = LabeledPolytope(2, list(reversed(square.facets)))
    assert canonical_equal(square, Q)


def test_canonical_equal_scaled(square):
    assert not canonical_equal(square, box(F(2), F(2)))


def test_canonical_equal_ignores_redundant(square):
    Q = LabeledPolytope(2, list(square.facets) + [Facet((1, 1), F(7))])
    assert canonical_equal(square, Q)
    assert len(irredundant(Q).facets) == 4


# -- file format -------------------------------------------------------------

def test_json_roundtrip_bit_exact(d3, pex2, square):
    for P in (d3, pex2, square):
        text = dumps(P)
        Q = loads(text)
        assert dumps(Q) == text
        assert canonical_equal(P, Q)


def test_json_rejects_nonprimitive_with_suggestion():
    with pytest.raises(InputError, match=r"\[1, 2\]"):
        from_json_dict({"dim": 2, "facets": [
            {"normal": [2, 4], "offset": "1", "label": 1}]})


def test_json_rejects_float_offset():
    with pytest.raises(InputError, match="float"):
        from_json_dict({"dim": 2, "facets": [
            {"normal": [1, 0], "offset": 0.5, "label": 1}]})


def test_json_rejects_bad_json():
    with pytest.raises(InputError, match="JSON"):
        loads("{not json")


def test_json_offsets_as_integers_accepted():
    P = from_json_dict({"dim": 1, "facets": [
        {"normal": [1], "offset": 3, "label": 1},
        {"normal": [-1], "offset": "0", "label": 1}]})
    assert volume(P) == 3


def test_corpus_validates():
    for name, P in delzant_corpus():
        assert validate(P).valid, name


def test_slice_nonempty_iff_in_vertex_range(d3):
    xs = [v.point[0] for v in vertices(d3)]
    lo, hi = min(xs), max(xs)
    for s in [lo - 1, hi + F(1, 7)]:
        assert slice_at(d3, s).empty
    for s in [lo, hi, F(1, 3), F(-2, 3)]:
        assert slice_at(d3, s).polytope is not None or slice_at(d3, s).degenerate


def test_slice_facets_biject_with_active_inducing(d3):
    # at a regular level each slice facet comes from one facet of P and is
    # active at some slice vertex
    sl = slice_at(d3, F(1, 2))
    assert len(set(sl.inducing)) == len(sl.inducing)
    verts = vertices(sl.polytope)
    for i in range(len(sl.polytope.facets)):
        assert any(i in v.active for v in verts)
