"""Exact integer and rational linear algebra.

Rationals are `fractions.Fraction` (always reduced, positive denominator,
arbitrary precision).  Integer vectors are plain tuples of Python ints.
Determinants and linear solves use fraction-free (Bareiss) elimination on
integer-scaled data so intermediate entries stay bounded.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatch, InputError, InternalError, NotUnimodular, ZeroVector

IntVector = tuple[int, ...]


# ---------------------------------------------------------------------------
# rational text form: "p/q" with q > 0, or bare integer "p"
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p". Rejects floats with a fix suggestion."""
    s = str(text).strip()
    if "." in s or "e" in s.lower():
        try:
            suggestion = Fraction(s).limit_denominator(10**6)
            hint = f' (did you mean "{format_rational(suggestion)}"?)'
        except ValueError:
            hint = ""
        raise InputError(f'not a rational string: "{s}"; use "p/q" or an integer{hint}')
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f'not a rational string: "{s}": {exc}') from None
    return q


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# integer vectors
# ---------------------------------------------------------------------------

def primitive(v: Sequence[int]) -> IntVector:
    """Divide an integer vector by the gcd of its entries."""
    vv = tuple(map(int, v))
    if not any(vv):
        raise ZeroVector("cannot primitivize the zero vector")
    g = math.gcd(*vv)
    return tuple(x // g for x in vv)


def content(v: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    return math.gcd(*map(int, v))


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def generic_direction(vectors: Sequence[Sequence[int]], dim: int) -> IntVector:
    """First c = (1, p, .., p^(dim-1)), p = 2, 3, .., with <c, g> != 0 for
    every nonzero integer dim-vector g in `vectors`: <c, g> is a nonzero
    polynomial of degree < dim in p, so each g rules out at most dim-1
    values of p and the candidates below cannot all fail."""
    for p in range(2, 3 + len(vectors) * (dim - 1)):
        c = tuple(p ** k for k in range(dim))
        if all(dot(c, g) != 0 for g in vectors):
            return c
    raise InternalError("no generic direction found")


def lattice_index(vs: Sequence[Sequence[int]]) -> Optional[int]:
    """|det| of n integer n-vectors; None when the set is degenerate."""
    n = len(vs)
    if n == 0 or any(len(v) != n for v in vs):
        raise DimensionMismatch(f"need n vectors of dimension n, got {[len(v) for v in vs]}")
    d = det_int([list(map(int, v)) for v in vs])
    return None if d == 0 else abs(d)


def half_sum_integral(vs: Sequence[Sequence[int]]) -> bool:
    """True iff every entry of the sum of the vectors is even."""
    if not vs:
        raise DimensionMismatch("empty vector list")
    n = len(vs[0])
    if any(len(v) != n for v in vs):
        raise DimensionMismatch("mixed dimensions")
    return all(sum(v[i] for v in vs) % 2 == 0 for i in range(n))


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------

def _eliminate(a: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Bareiss row echelon form of the integer matrix `a` over its first
    `ncols` columns, in place, carrying every column to their right.

    A column with no pivot at or below the current row is skipped.  Returns
    (pivots, det): the pivot columns, one per pivot row, and the last pivot
    times the sign of the row swaps.  When `a` has n rows and rank n over n
    columns, det is its determinant; for n = 0 it is the empty product 1.
    """
    m = len(a)
    sign = 1
    prev = 1
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        if a[r][c] == 0:
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                continue
        pivot = a[r][c]
        row_r = a[r]
        width = len(row_r)
        for i in range(r + 1, m):
            row_i = a[i]
            f = row_i[c]
            for j in range(c + 1, width):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        pivots.append(c)
    return pivots, sign * prev


def _square_det(a: list[list[int]]) -> int:
    """Eliminate the leading n x n block of the n-row matrix `a` in place
    and return its determinant (0 when singular)."""
    n = len(a)
    pivots, det = _eliminate(a, n)
    return det if len(pivots) == n else 0


def _back_substitute(a: list[list[int]], n: int, det: int, col: int) -> list[int]:
    """det * x for the solution x of the system eliminated by `_eliminate`
    whose right-hand side is column `col`; exact integers."""
    num = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        s = row[col] * det - sum(row[j] * num[j] for j in range(i + 1, n))
        q, r = divmod(s, row[i])
        if r != 0:  # pragma: no cover - Bareiss guarantees divisibility
            raise ArithmeticError("non-integral back substitution")
        num[i] = q
    return num


def det_int(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination."""
    return _square_det([row[:] for row in rows])


def adjugate_int(rows: list[list[int]]) -> Optional[tuple[list[list[int]], int]]:
    """Adjugate and determinant of a nonsingular integer square matrix.

    Returns (adj, det) with rows @ adj = det * I, from one fraction-free
    elimination of [rows | I]; None when the matrix is singular.
    """
    n = len(rows)
    a = [rows[i][:] + [int(i == j) for j in range(n)] for i in range(n)]
    det = _square_det(a)
    if det == 0:
        return None
    cols = [_back_substitute(a, n, det, n + c) for c in range(n)]
    return [list(row) for row in zip(*cols)], det


def over_common_denominator(row: Sequence) -> tuple[list[int], int]:
    """(ints, den) with row == [x / den for x in ints] and den the least
    common denominator of the rational (int or Fraction) entries."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def exchange(cols: list[list[int]], det: int, k: int, row: int) -> tuple[list[list[int]], int]:
    """Replace basis row k by a row a in a fraction-free tableau: cols[l] is
    adjugate column c_l of the basis (determinant det) followed by products
    <a_j, c_l> with further rows, and cols[l][row] = <a, c_l>.  The new
    determinant is <a, c_k>; c_k stays, and c_l becomes (det' c_l -
    <a, c_l> c_k) / det, as does each product: the Bareiss step of
    `_eliminate`, exact by Sylvester's identity."""
    ck = cols[k]
    new_det = ck[row]
    out = []
    for l, c in enumerate(cols):
        f = c[row]
        out.append(c if l == k else [(new_det * x - f * y) // det for x, y in zip(c, ck)])
    return out, new_det


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """The rows that are independent of the rows before them: the pivot
    columns of one fraction-free elimination of the transpose."""
    return _eliminate(transpose(rows), len(rows))[0]


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (fraction-free row echelon)."""
    a = [list(map(int, row)) for row in rows]
    return len(_eliminate(a, len(a[0]))[0]) if a else 0


# ---------------------------------------------------------------------------
# unimodular matrices
# ---------------------------------------------------------------------------

def inverse_unimodular(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of an integer matrix with |det| = 1 (integer adjugate)."""
    got = adjugate_int([list(map(int, row)) for row in a])
    d = got[1] if got else 0
    if abs(d) != 1:
        raise NotUnimodular(f"|det| = {abs(d)}, expected 1")
    return [[x * d for x in row] for row in got[0]]  # 1/d = d for |d| = 1


def transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]
