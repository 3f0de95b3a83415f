"""Exact integer and rational linear algebra.

Rationals are `fractions.Fraction` (always reduced, positive denominator,
arbitrary precision).  Integer vectors are plain tuples of Python ints.
Determinants and linear solves use fraction-free (Bareiss) elimination on
integer-scaled data so intermediate entries stay bounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch, InputError, NotUnimodular, ZeroVector

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
    vv = tuple(int(x) for x in v)
    if not any(vv):
        raise ZeroVector("cannot primitivize the zero vector")
    g = 0
    for x in vv:
        g = math.gcd(g, x)
    return tuple(x // g for x in vv)


def content(v: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
    return g


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


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

def _eliminate(a: list[list[int]], n: int) -> int:
    """Bareiss forward elimination of the leading n x n block of the n-row
    integer matrix `a`, in place, carrying every column to its right.

    Returns the determinant of the block; 0 when it is singular, and `a`
    is then only partly eliminated.
    """
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


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
    n = len(rows)
    if n == 0:
        return 1
    return _eliminate([row[:] for row in rows], n)


def solve_int(rows: list[list[int]], rhs: list[int]) -> Optional[tuple[list[int], int]]:
    """Solve an integer square system exactly.

    Returns (numerators, denominator) with denominator > 0 such that
    x_i = numerators[i]/denominator, or None when singular.
    """
    n = len(rows)
    a = [rows[i][:] + [rhs[i]] for i in range(n)]
    det = _eliminate(a, n)
    if det == 0:
        return None
    num = _back_substitute(a, n, det, n)
    if det < 0:
        num = [-x for x in num]
        det = -det
    return num, det


def adjugate_int(rows: list[list[int]]) -> Optional[tuple[list[list[int]], int]]:
    """Adjugate and determinant of a nonsingular integer square matrix.

    Returns (adj, det) with rows @ adj = det * I, from one fraction-free
    elimination of [rows | I]; None when the matrix is singular.
    """
    n = len(rows)
    a = [rows[i][:] + [int(i == j) for j in range(n)] for i in range(n)]
    det = _eliminate(a, n)
    if det == 0:
        return None
    cols = [_back_substitute(a, n, det, n + c) for c in range(n)]
    return [list(row) for row in zip(*cols)], det


def solve_exact(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Exact solution of a square rational system, or None when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise DimensionMismatch("square system required")
    # scale each row to integers
    int_rows: list[list[int]] = []
    int_rhs: list[int] = []
    for row, b in zip(matrix, rhs):
        entries = [Fraction(x) for x in row] + [Fraction(b)]
        lcm = 1
        for e in entries:
            lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
        int_rows.append([int(e * lcm) for e in entries[:-1]])
        int_rhs.append(int(entries[-1] * lcm))
    sol = solve_int(int_rows, int_rhs)
    if sol is None:
        return None
    num, den = sol
    return tuple(Fraction(x, den) for x in num)


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (fraction-free row echelon)."""
    a = [list(map(int, row)) for row in rows]
    m = len(a)
    if m == 0:
        return 0
    n = len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pivot = a[row][col]
        for i in range(row + 1, m):
            f = a[i][col]
            for j in range(col, n):
                a[i][j] = (pivot * a[i][j] - f * a[row][j]) // prev
        prev = pivot
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def rank_rational(rows: Sequence[Sequence]) -> int:
    scaled = []
    for row in rows:
        entries = [Fraction(x) for x in row]
        lcm = 1
        for e in entries:
            lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
        scaled.append([int(e * lcm) for e in entries])
    return rank_int(scaled)


def in_rational_span(vectors: Sequence[Sequence], target: Sequence) -> bool:
    """True iff target lies in the rational span of the given vectors."""
    base = [list(v) for v in vectors]
    return rank_rational(base) == rank_rational(base + [list(target)])


# ---------------------------------------------------------------------------
# unimodular matrices
# ---------------------------------------------------------------------------

def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_vec_int(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def identity_int(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def inverse_unimodular(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of an integer matrix with |det| = 1 (integer adjugate)."""
    n = len(a)
    d = det_int([list(map(int, row)) for row in a])
    if abs(d) != 1:
        raise NotUnimodular(f"|det| = {abs(d)}, expected 1")
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = det_int(minor) * (-1 if (i + j) % 2 else 1)
            row.append(cof * d)  # d = 1/d for |d| = 1
        inv.append(row)
    return inv


def transpose(a: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithNormalForm:
    """U @ A @ V = diag(d) with U, V unimodular and d_i | d_{i+1}."""

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithNormalForm:
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity_int(m)
    v = identity_int(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        for j in range(n):
            a[dst][j] += c * a[src][j]
        for j in range(m):
            u[dst][j] += c * u[src][j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t then row t; restart if remainders appear
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility into the rest of the block
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                negate_row(t)
            t += 1

    diag = tuple(a[i][i] for i in range(min(m, n)))
    return SmithNormalForm(diag, tuple(map(tuple, u)), tuple(map(tuple, v)))


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> list[IntVector]:
    """Basis of {x in Z^n : A x = 0} via Smith normal form."""
    rows = [list(map(int, row)) for row in matrix]
    if not rows:
        raise DimensionMismatch("empty matrix")
    n = len(rows[0])
    snf = smith_normal_form(rows)
    rank = sum(1 for d in snf.diagonal if d != 0)
    cols = transpose(snf.right)
    return [tuple(cols[j]) for j in range(rank, n)]
