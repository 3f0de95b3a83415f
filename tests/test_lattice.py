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
    integer_kernel_basis,
    inverse_unimodular,
    lattice_index,
    mat_mul_int,
    parse_rational,
    primitive,
    rank_int,
    smith_normal_form,
    solve_exact,
)

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


def test_solve_exact_examples():
    assert solve_exact([[1, 0], [0, 1]], [F(3, 2), F(-1)]) == (F(3, 2), F(-1))
    assert solve_exact([[1, 0], [-1, 2]], [1, 1]) == (F(1), F(1))
    assert solve_exact([[1, 1], [2, 2]], [1, 0]) is None


@given(st.lists(st.lists(small_rats, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(small_rats, min_size=3, max_size=3))
def test_solve_exact_resubstitution(rows, rhs):
    x = solve_exact(rows, rhs)
    if x is not None:
        for row, b in zip(rows, rhs):
            assert sum(F(c) * v for c, v in zip(row, x)) == F(b)


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


def test_smith_examples():
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[2, 0], [0, 2]]).diagonal == (2, 2)
    assert smith_normal_form([[1, 0], [-1, 2]]).diagonal == (1, 2)


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=2, max_size=4),
                min_size=2, max_size=4).filter(
    lambda rows: len({len(r) for r in rows}) == 1))
def test_smith_structure(rows):
    snf = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    # divisibility chain and non-negativity
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # U A V equals the diagonal exactly, with unimodular transforms
    u = [list(r) for r in snf.left]
    v = [list(r) for r in snf.right]
    prod = mat_mul_int(mat_mul_int(u, rows), v)
    for i in range(m):
        for j in range(n):
            want = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == want
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1


def test_integer_kernel():
    basis = integer_kernel_basis([[-1, 2]])
    assert len(basis) == 1
    assert basis[0][0] * -1 + basis[0][1] * 2 == 0
    assert rank_int(basis) == 1


def test_inverse_unimodular():
    A = [[-1, 1, 1], [0, 1, 0], [0, 0, 1]]
    inv = inverse_unimodular(A)
    assert mat_mul_int(A, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotUnimodular):
        inverse_unimodular([[2, 0], [0, 1]])


@given(small_rats)
def test_rational_text_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_text_form():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-4, 2)) == "-2"
    assert parse_rational("7/3") == F(7, 3)
    assert parse_rational("-5") == F(-5)
