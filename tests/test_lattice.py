from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from momentcut.errors import DimensionMismatch, NotUnimodular, ZeroVector
from momentcut.lattice import (
    adjugate_int,
    det_int,
    format_rational,
    half_sum_integral,
    inverse_unimodular,
    lattice_index,
    parse_rational,
    primitive,
    rank_int,
)

from conftest import mat_mul_int, random_unimodular, rank_by_fractions, solve_int

F = Fraction

ints = st.integers(min_value=-50, max_value=50)
small_rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((-1, 2)) == (-1, 2)
    assert primitive((0, 2, 0)) == (0, 1, 0)


def test_primitive_zero_vector():
    with pytest.raises(ZeroVector):
        primitive((0, 0, 0))


@given(st.lists(ints, min_size=1, max_size=6).filter(lambda v: any(v)))
def test_primitive_idempotent(v):
    p = primitive(v)
    assert primitive(p) == p


def test_lattice_index_examples():
    assert lattice_index([(1, 0), (0, 1)]) == 1
    assert lattice_index([(-1, 2), (-1, -2)]) == 4
    assert lattice_index([(1, 0), (-1, 2)]) == 2
    assert lattice_index([(1, 0), (2, 0)]) is None


def test_lattice_index_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lattice_index([(1, 0, 0), (0, 1, 0)])


def test_lattice_index_permutation_and_unimodular_invariance():
    rng = random.Random(11)
    vs = [(2, 1, 0), (1, 3, 1), (0, 1, 4)]
    base = lattice_index(vs)
    for _ in range(20):
        perm = rng.sample(vs, 3)
        assert lattice_index(perm) == base
    shear = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    sheared = [tuple(sum(shear[i][k] * v[k] for k in range(3)) for i in range(3))
               for v in vs]
    assert lattice_index(sheared) == base


def test_half_sum_examples():
    assert half_sum_integral([(1, 0), (-1, 2)]) is True
    assert half_sum_integral([(-1, 0), (0, -1)]) is False
    assert half_sum_integral([(-1, 2), (-1, -2)]) is True


def test_empty_system():
    # the 0 x 0 matrix: determinant 1 (the empty product), empty solution
    assert det_int([]) == 1
    assert solve_int([], []) == ([], 1)
    assert adjugate_int([]) == ([], 1)
    assert inverse_unimodular([]) == []


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_adjugate_times_matrix_is_det(rows):
    d = det_int(rows)
    got = adjugate_int(rows)
    if d == 0:
        assert got is None
        return
    adj, det = got
    assert det == d
    n = len(rows)
    assert mat_mul_int(rows, adj) == [[d * (i == j) for j in range(n)] for i in range(n)]


def test_inverse_unimodular():
    A = [[-1, 1, 1], [0, 1, 0], [0, 0, 1]]
    inv = inverse_unimodular(A)
    assert mat_mul_int(A, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotUnimodular):
        inverse_unimodular([[2, 0], [0, 1]])
    with pytest.raises(NotUnimodular):
        inverse_unimodular([[1, 2], [2, 4]])


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
def test_inverse_unimodular_round_trip(n, seed):
    A = random_unimodular(random.Random(seed), n, steps=10)
    inv = inverse_unimodular(A)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    assert mat_mul_int(A, inv) == eye
    assert mat_mul_int(inv, A) == eye
    assert inverse_unimodular(inv) == A


# tall, wide and square shapes of small entries
shapes = st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))


@given(shapes.flatmap(lambda mn: st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=mn[1], max_size=mn[1]),
    min_size=mn[0], max_size=mn[0])))
def test_rank_matches_fraction_gauss(rows):
    assert rank_int(rows) == rank_by_fractions(rows)


@given(st.integers(min_value=1, max_value=4).flatmap(lambda r: st.tuples(
    st.lists(st.lists(ints, min_size=6, max_size=6), min_size=r, max_size=r),
    st.lists(st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r),
             min_size=1, max_size=7))))
def test_rank_deficient_matches_fraction_gauss(base_and_mix):
    # every row is an integer combination of r base rows: rank <= r < 6
    base, mix = base_and_mix
    rows = [[sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(6)]
            for coeffs in mix]
    assert rank_int(rows) == rank_by_fractions(rows) <= len(base)


def test_rank_examples():
    assert rank_int([]) == 0
    assert rank_int([[0, 0, 0]]) == 0
    assert rank_int([[0, 1, 2], [0, 2, 4], [0, 0, 1]]) == 2
    assert rank_int([[1, 2], [2, 4], [3, 6], [1, 3]]) == 2


@pytest.mark.parametrize("rows", [
    [[0, 1], [0, 2]],
    [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
    [[1, 0, 5], [0, 0, 7], [2, 0, 9]],
    [[0, 0, 0], [1, 2, 3], [4, 5, 6]],
], ids=["first-column-zero", "middle-column-no-pivot", "zero-column", "zero-row"])
def test_singular_without_a_pivot(rows):
    assert det_int(rows) == 0
    assert solve_int(rows, [1] * len(rows)) is None
    assert solve_int(rows, [0] * len(rows)) is None
    assert adjugate_int(rows) is None


@given(small_rats)
def test_rational_text_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_text_form():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-4, 2)) == "-2"
    assert parse_rational("7/3") == F(7, 3)
    assert parse_rational("-5") == F(-5)
