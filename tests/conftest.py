from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from momentcut.corpus import asymmetric_wedge, box, delta3, simplex
from momentcut.dh import Chamber, DHProfile, critical_values
from momentcut.polytope import LabeledPolytope, slice_at, vertices, volume
from momentcut.ratpoly import interpolate

F = Fraction


@pytest.fixture
def square():
    return box(F(1), F(1))


@pytest.fixture
def pex2():
    return asymmetric_wedge()


@pytest.fixture
def d3():
    return delta3()


@pytest.fixture
def simplex2():
    return simplex(2)


@pytest.fixture
def simplex3():
    return simplex(3)


def edge_hyperplane_points(P: LabeledPolytope, s: Fraction) -> set:
    """Independent slice-vertex oracle: intersect every edge with {x1 = s}.

    Edges of a simple polytope are vertex pairs sharing dim-1 facets.
    """
    s = F(s)
    verts = vertices(P)
    pts = set()
    for v, w in combinations(verts, 2):
        if len(v.active & w.active) != P.dim - 1:
            continue
        a, b = v.point[0], w.point[0]
        if a == s:
            pts.add(v.point[1:])
        if b == s:
            pts.add(w.point[1:])
        if (a < s < b) or (b < s < a):
            t = (s - a) / (b - a)
            pts.add(tuple(v.point[i] + t * (w.point[i] - v.point[i])
                          for i in range(1, P.dim)))
    return pts


def slice_volume(P: LabeledPolytope, s: Fraction) -> Fraction:
    """(n-1)-volume of the slice at x1 = s, 0 off the moment image."""
    sl = slice_at(P, s)
    return volume(sl.polytope) if sl.polytope is not None else F(0)


def profile_by_slicing(P: LabeledPolytope) -> DHProfile:
    """Independent profile oracle: interpolate exact slice volumes.

    The density is a polynomial of degree <= n-1 on each chamber, so n
    interior samples fix it; one more sample checks for a hidden wall.
    """
    walls = critical_values(P)
    n = P.dim
    chambers = []
    for lo, hi in zip(walls, walls[1:]):
        width = hi - lo
        samples = [lo + width * F(k, n + 1) for k in range(1, n + 1)]
        poly = interpolate([(s, slice_volume(P, s)) for s in samples])
        probe = lo + width * F(1, 2 * (n + 1))
        assert poly(probe) == slice_volume(P, probe), (lo, hi, "hidden wall")
        chambers.append(Chamber(lo, hi, poly))
    return DHProfile(tuple(walls), tuple(chambers))


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> list[list[int]]:
    """Random product of integer shears, swaps and sign flips (|det| = 1)."""
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                A[i][k] += c * A[j][k]
        elif kind == 1 and i != j:
            A[i], A[j] = A[j], A[i]
        else:
            A[i] = [-x for x in A[i]]
    return A


def regular_levels(P: LabeledPolytope, rng: random.Random, count: int,
                   lo=None, hi=None) -> list[Fraction]:
    xs = sorted({v.point[0] for v in vertices(P)})
    lo = xs[0] if lo is None else lo
    hi = xs[-1] if hi is None else hi
    out = []
    guard = 0
    while len(out) < count and guard < 10_000:
        guard += 1
        s = lo + (hi - lo) * F(rng.randint(1, 127), 128)
        if s not in xs and lo < s < hi:
            out.append(s)
    return out
