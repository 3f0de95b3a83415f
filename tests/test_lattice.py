from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from momentcut.errors import DimensionMismatch, InputError, NotUnimodular, ZeroVector
from momentcut.lattice import (
    adjugate_int,
    det_int,
    exchange,
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


@pytest.mark.parametrize("call, message", [
    (lambda: lattice_index([[1.5, 0], [0, 1]]), "vector entries must be integers, got [1.5, 0]"),
    (lambda: lattice_index(["ab", "cd"]), "vector entries must be integers, got 'ab'"),
    (lambda: lattice_index([[True, 0], [0, 1]]),
     "vector entries must be integers, got [True, 0]"),
    (lambda: primitive([0.5, 1]), "vector entries must be integers, got [0.5, 1]"),
    (lambda: primitive(["a"]), "vector entries must be integers, got ['a']"),
    (lambda: half_sum_integral([[1, "a"]]), "vector entries must be integers, got [1, 'a']"),
    (lambda: lattice_index([5, 6]), "vector must be a sequence of integers, got 5"),
    (lambda: half_sum_integral([5]), "vector must be a sequence of integers, got 5"),
    (lambda: format_rational(0.5), "q must be an integer or a Fraction, got 0.5"),
    (lambda: format_rational("1/2"), "q must be an integer or a Fraction, got '1/2'"),
], ids=["index-float", "index-str", "index-bool", "primitive-float", "primitive-str",
        "half-sum-str", "index-int-vector", "half-sum-int-vector", "format-float", "format-str"])
def test_integer_arguments_refused_by_name(call, message):
    # int() read 1.5 as 1 and 0.5 as 0; a string escaped as a bare ValueError
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


# a number or None where a sequence of vectors (or one vector) belongs
# escaped as a bare TypeError from len() or tuple()
@pytest.mark.parametrize("value", [5, None, F(1, 2)], ids=["int", "none", "fraction"])
def test_primitive_refuses_a_non_sequence(value):
    with pytest.raises(InputError, match=r"^vector must be a list or a tuple, got "):
        primitive(value)


@pytest.mark.parametrize("value", [5, None, F(1, 2)], ids=["int", "none", "fraction"])
def test_lattice_index_refuses_a_non_sequence(value):
    with pytest.raises(InputError, match=r"^vectors must be a list or a tuple, got "):
        lattice_index(value)


@pytest.mark.parametrize("value", [3, None, F(1, 2)], ids=["int", "none", "fraction"])
def test_half_sum_integral_refuses_a_non_sequence(value):
    with pytest.raises(InputError, match=r"^vectors must be a list or a tuple, got "):
        half_sum_integral(value)


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


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n + 1,
                                 max_size=n + 1), st.integers(0, n - 1))))
def test_exchange_is_the_oriented_adjugate(case):
    # replacing row k by row n: the new tableau is the adjugate of the new
    # basis (its columns followed by their pairings with every row), made
    # oriented, det < 0, whatever the sign of the old determinant
    rows, k = case
    n = len(rows) - 1
    got = adjugate_int(rows[:n])
    new_rows = rows[:k] + [rows[n]] + rows[k + 1:n]
    fresh = adjugate_int(new_rows)
    assume(got is not None and fresh is not None)

    def tableau(adj, det):
        return [list(c) + [sum(a * x for a, x in zip(r, c)) for r in rows] for c in zip(*adj)], det
    cols, det = exchange(*tableau(*got), k, n + n)
    s = -1 if fresh[1] > 0 else 1
    assert det < 0 and (cols, det) == tableau([[s * x for x in r] for r in fresh[0]], s * fresh[1])


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
