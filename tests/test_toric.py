from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from momentcut.corpus import chopped_cube, delta3, delzant_corpus, trapezoid
from momentcut.errors import DegenerateVertex, DimensionMismatch, InputError
from momentcut.lattice import det_int, inverse_unimodular, lattice_index, primitive, transpose
from momentcut.polytope import Facet, LabeledPolytope, transform, vertices
from momentcut.toric import (
    INFINITE,
    VertexKind,
    circle_stabilizer_order,
    classify_vertex,
    edge_generators,
    fixed_components,
    weights_at_vertex,
)

from conftest import (
    chopped_box,
    fixed_components_by_subsets,
    mat_vec_int,
    random_unimodular,
    stabilizer_order_by_search,
)

F = Fraction


def vertex_at(P, point):
    point = tuple(F(c) for c in point)
    return next(v for v in vertices(P) if v.point == point)


# -- classification ----------------------------------------------------------

def test_classify_square_corner(square):
    cls = classify_vertex(square, vertex_at(square, (0, 0)))
    assert cls.kind == VertexKind.SMOOTH and cls.index == 1


def test_classify_pex2(pex2):
    assert classify_vertex(pex2, vertex_at(pex2, (-1, 0))).kind == VertexKind.OTHER_ORBIFOLD
    assert classify_vertex(pex2, vertex_at(pex2, (-1, 0))).index == 4
    for pt in [(1, 1), (1, -1)]:
        cls = classify_vertex(pex2, vertex_at(pex2, pt))
        assert cls.kind == VertexKind.Z2_SINGULAR
        assert cls.index == 2 and cls.half_sum_integral


def test_classify_labeled_vertex_is_orbifold():
    P = LabeledPolytope(2, [Facet((-1, 0), F(0), 2), Facet((1, 0), F(1)),
                            Facet((0, -1), F(0)), Facet((0, 1), F(1))])
    cls = classify_vertex(P, vertex_at(P, (0, 0)))
    assert cls.kind == VertexKind.OTHER_ORBIFOLD and cls.index == 1


def test_classify_invariant_under_unimodular(pex2):
    rng = random.Random(3)
    for _ in range(5):
        A = random_unimodular(rng, 2)
        Q = transform(pex2, A, (F(0), F(0)))
        kinds = sorted(classify_vertex(Q, v).kind.value for v in vertices(Q))
        assert kinds == sorted(classify_vertex(pex2, v).kind.value
                               for v in vertices(pex2))


def test_classify_index_matches_the_normals_determinant(pex2):
    # the index read off the vertex record against one Bareiss elimination
    # of the active normals, on the corpus, pex2 (indices 2 and 4) and
    # random images of them
    rng = random.Random(35)
    for name, P in delzant_corpus() + [("pex2", pex2)]:
        A = random_unimodular(rng, P.dim)
        for Q in (P, transform(P, A, [F(1, 2)] * P.dim)):
            for v in vertices(Q):
                normals = [Q.facets[i].normal for i in sorted(v.active)]
                assert classify_vertex(Q, v).index == lattice_index(normals), name


@pytest.mark.parametrize("P,v,message", [
    (trapezoid(), vertices(chopped_cube())[2], "3 active facets, expected 2"),
    # facets 0, 2 and 4, past delta3's 4
    (delta3(), vertices(chopped_cube())[2], r"facets \[0, 2, 4\] do not meet in a vertex"),
    # delta3's facets 0, 1 and 2 meet at (-1, 0, 0), not at the origin
    (delta3(), vertices(chopped_cube())[0], r"do not meet in a vertex at \(0, 0, 0\)"),
], ids=["other-dimension", "past-the-facets", "another-point"])
def test_classify_refuses_a_vertex_of_another_polytope(P, v, message):
    with pytest.raises(DegenerateVertex, match=message):
        classify_vertex(P, v)


# -- edge generators and weights ----------------------------------------------

def test_edge_generators_square_corner(square):
    gens = set(edge_generators(square, vertex_at(square, (0, 0))))
    assert gens == {(0, 1), (1, 0)}


def test_edge_generators_z2_example():
    P = LabeledPolytope(2, [Facet((0, 1), F(1, 2)), Facet((-1, 2), F(1)),
                            Facet((1, 0), F(1))])
    gens = set(edge_generators(P, vertex_at(P, (0, F(1, 2)))))
    assert gens == {(1, 0), (-2, -1)}


def test_edge_generators_delta3(d3):
    gens = set(edge_generators(d3, vertex_at(d3, (-1, 0, 0))))
    assert gens == {(1, 0, 0), (2, 1, 0), (2, 0, 1)}


def test_weights_examples(square, d3):
    assert weights_at_vertex(square, vertex_at(square, (0, 0))) == (0, 1)
    assert weights_at_vertex(d3, vertex_at(d3, (0, 0, 0))) == (-1, 1, 1)


@pytest.mark.parametrize("xi, k, got", [((0.5, 0, 0), 0, "0.5"),
                                       ((True, False, False), 0, "True"),
                                       ((1, 0, Fraction(1, 2)), 2, "Fraction(1, 2)"),
                                       ((1, "0", 0), 1, "'0'")])
def test_weights_refuse_entries_that_are_not_integers(d3, xi, k, got):
    # (0.5, 0, 0) gave (0.5, 1.0, 1.0), and bools were read as 0 and 1
    with pytest.raises(InputError) as err:
        weights_at_vertex(d3, vertex_at(d3, (0, 0, 0)), xi)
    assert str(err.value) == f"xi entry {k} must be an integer, got {got}"


@pytest.mark.parametrize("xi", [(0, 0, 0), [0, 0, 0]])
def test_weights_refuse_the_zero_direction(d3, xi):
    # every weight read 0: a zero vector generates no circle
    with pytest.raises(InputError) as err:
        weights_at_vertex(d3, vertex_at(d3, (0, 0, 0)), xi)
    assert str(err.value) == "xi is the zero vector, which generates no circle"


@pytest.mark.parametrize("xi", [(1,), (1, 0), (1, 0, 0, 0)])
def test_weights_refuse_a_direction_of_the_wrong_length(d3, xi):
    # pairings must not be truncated to the shorter vector
    with pytest.raises(DimensionMismatch) as err:
        weights_at_vertex(d3, vertex_at(d3, (0, 0, 0)), xi)
    assert str(err.value) == f"xi has {len(xi)} entries, expected 3"


def test_weights_transform_covariance(d3):
    rng = random.Random(17)
    xi = (1, 0, 0)
    for _ in range(5):
        A = random_unimodular(rng, 3)
        b = (F(1, 3), F(0), F(-2))
        Q = transform(d3, A, b)
        xi_t = tuple(mat_vec_int(transpose(inverse_unimodular(A)), xi))
        for v in vertices(d3):
            img = tuple(sum(F(A[i][k]) * v.point[k] for k in range(3)) + b[i]
                        for i in range(3))
            assert weights_at_vertex(Q, vertex_at(Q, img), xi_t) == \
                weights_at_vertex(d3, v, xi)


def test_edge_generator_determinant_invariant(pex2, square):
    # |det of edge generators| is 1 at smooth vertices, 2 at Z2 vertices
    for P in (square, pex2):
        for v in vertices(P):
            cls = classify_vertex(P, v)
            d = abs(det_int([list(e) for e in edge_generators(P, v)]))
            if cls.kind == VertexKind.SMOOTH:
                assert d == 1
            elif cls.kind == VertexKind.Z2_SINGULAR:
                assert d == 2


def test_extreme_vertices_weight_signs():
    # weights at the level-minimal vertex are >= 0, at the maximal <= 0
    for name, P in delzant_corpus():
        verts = vertices(P)
        lo = min(v.point[0] for v in verts)
        hi = max(v.point[0] for v in verts)
        for v in verts:
            w = weights_at_vertex(P, v)
            if v.point[0] == lo:
                assert all(x >= 0 for x in w), name
            if v.point[0] == hi:
                assert all(x <= 0 for x in w), name


# -- stabilizers ---------------------------------------------------------------

def test_stabilizer_examples(square, pex2):
    horizontal = next(i for i, f in enumerate(square.facets) if f.normal == (0, -1))
    assert circle_stabilizer_order(square, horizontal) == 1
    slanted = next(i for i, f in enumerate(pex2.facets) if f.normal == (-1, 2))
    assert circle_stabilizer_order(pex2, slanted) == 2
    vertical = next(i for i, f in enumerate(pex2.facets) if f.normal == (1, 0))
    assert circle_stabilizer_order(pex2, vertical) == INFINITE


def test_stabilizer_label_multiplies():
    P = LabeledPolytope(2, [Facet((-1, 2), F(1), 3), Facet((-1, -2), F(1)),
                            Facet((1, 0), F(1))])
    i = next(i for i, f in enumerate(P.facets) if f.normal == (-1, 2))
    assert circle_stabilizer_order(P, i) == 6


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)
).filter(any), st.integers(min_value=1, max_value=4))
def test_stabilizer_closed_form_matches_search(normal, label):
    # with entries |.| <= 3 a least orthogonal vector lies inside the box
    # (checked for every primitive normal of that size in dimensions 1-4)
    normal = primitive(normal)
    P = LabeledPolytope(len(normal), [Facet(normal, F(0), label)])
    assert circle_stabilizer_order(P, 0) == stabilizer_order_by_search(normal, label, box=9)


def test_stabilizer_divides_vertex_index(pex2):
    # facet order divides the lattice index of any vertex on that facet
    for i, f in enumerate(pex2.facets):
        order = circle_stabilizer_order(pex2, i)
        if order == INFINITE:
            continue
        for v in vertices(pex2):
            if i in v.active:
                idx = classify_vertex(pex2, v).index
                assert idx % order == 0


# -- fixed components ----------------------------------------------------------

def test_fixed_components_square(square):
    comps = fixed_components(square)
    assert len(comps) == 2
    assert sorted(c.level for c in comps) == [0, 1]
    assert all(len(c.active) == 1 for c in comps)


def test_fixed_components_pex2(pex2):
    comps = fixed_components(pex2)
    assert len(comps) == 2
    isolated = [c for c in comps if c.isolated]
    assert len(isolated) == 1 and isolated[0].vertex_points == ((F(-1), F(0)),)
    edge = [c for c in comps if not c.isolated][0]
    assert edge.level == 1 and len(edge.vertex_points) == 2


def test_fixed_components_delta3(d3):
    comps = fixed_components(d3)
    by_level = {c.level: c for c in comps}
    assert set(by_level) == {F(-1), F(0), F(1)}
    assert by_level[F(-1)].isolated
    assert by_level[F(0)].isolated
    assert not by_level[F(1)].isolated


def _fixed_component_cases() -> list[tuple[str, LabeledPolytope]]:
    rng = random.Random(5)
    cases = list(delzant_corpus())
    for n in (2, 3, 4):
        for depth in (F(1, 8), F(1, 3)):
            corners = [bits for bits in product((0, 1), repeat=n) if rng.random() < 0.5]
            P = chopped_box(n, corners, depth)
            # without x1 <= 1 the box is unbounded unless a chop closes it
            Q = LabeledPolytope(n, [f for f in P.facets if f.normal != (1,) + (0,) * (n - 1)])
            cases += [(f"chopped-{n}-cube", P), (f"open chopped-{n}-cube", Q)]
    cases = [(name, P) for name, P in cases if P.structure().simple]
    images = []
    for name, P in cases:
        for _ in range(3):
            b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(P.dim)]
            images.append((f"{name} image", transform(P, random_unimodular(rng, P.dim), b)))
    return cases + images


def test_fixed_components_match_subset_oracle():
    cases = _fixed_component_cases()
    assert len(cases) >= 100
    for name, P in cases:
        assert fixed_components(P) == fixed_components_by_subsets(P), name


def test_fixed_levels_are_subset_of_critical(d3):
    from momentcut.dh import critical_values

    levels = {c.level for c in fixed_components(d3)}
    assert levels <= set(critical_values(d3))
