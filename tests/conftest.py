from __future__ import annotations

import math
import os
import random
import struct
import sys
from fractions import Fraction
from itertools import combinations, count, product

# one BLAS thread, as the benchmark runs numpy, set before numpy is imported:
# the timed blocks of the suite then count no second thread's time
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from momentcut.corpus import asymmetric_wedge, box, delta3, simplex
from momentcut.dh import (
    Chamber,
    ChamberVerdict,
    DHProfile,
    LocalMinimum,
    LogConcavityReport,
    WallVerdict,
    critical_values,
)
from momentcut.errors import PreconditionError
from momentcut.lattice import (
    _back_substitute,
    _square_det,
    content,
    det_int,
    dot,
    format_rational,
    over_common_denominator,
    primitive,
    rank_int,
)
from momentcut.localmodel import (
    BlowupPotentialReport,
    BumpSpec,
    CutIdentityReport,
    LinearAction,
    MomentAlongFlow,
    MonotoneReport,
    _d_phi,
    _d_psi,
    _flow_terms,
    _gaps,
    _omega,
    _pairing_directions,
    _points,
    _radial_hessian,
    _ROOT_MAX,
    _smoothed_ln,
    psh_test_family,
)
from momentcut.ops import restrict_halfspace
from momentcut.polytope import (
    Facet,
    LabeledPolytope,
    Slice,
    Structure,
    _point,
    _scaled_rows,
    canonical_equal,
    reversed_polytope,
    slice_at,
    vertices,
)
from momentcut.ratpoly import (
    Poly,
    RootMarker,
    _exactify,
    affine_substitute,
    deflate,
    divmod_poly,
    gap_samples,
    isolate_roots,
    nonpositive_on,
    squarefree,
)
from momentcut.toric import INFINITE, FixedComponent, weights_at_vertex

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


def interpolate(points) -> Poly:
    """Newton divided-difference interpolation, exact."""
    xs = [F(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coef = [F(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = Poly([])
    for j in range(n - 1, -1, -1):
        poly = poly * Poly([-xs[j], F(1)]) + Poly([coef[j]])
    return poly


class FractionPoly:
    """Oracle for `ratpoly.Poly`: a tuple of `Fraction` coefficients, low
    degree first, with every operation done per coefficient in `Fraction`
    arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, s) -> Fraction:
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def _c(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else F(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly([self._c(k) + other._c(k) for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly([self._c(k) - other._c(k) for k in range(n)])

    def __mul__(self, other):
        out = [F(0)] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    def derivative(self):
        return FractionPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def integrate(self, a, b) -> Fraction:
        anti = FractionPoly([F(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])
        return anti(b) - anti(a)

    def compose_affine(self, alpha, beta):
        """p(alpha*s + beta), by Horner's rule on polynomial products."""
        acc = FractionPoly([])
        lin = FractionPoly([beta, alpha])
        for c in reversed(self.coeffs):
            acc = acc * lin + FractionPoly([c])
        return acc

    def monic(self):
        if self.is_zero():
            return self
        return FractionPoly([c / self.coeffs[-1] for c in self.coeffs])


def fraction_divmod(a: FractionPoly, b: FractionPoly) -> tuple[FractionPoly, FractionPoly]:
    """Oracle for `ratpoly.divmod_poly`: long division in `Fraction`s."""
    rem = list(a.coeffs)
    quo = [F(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    d = len(b.coeffs) - 1
    while len(rem) - 1 >= d and any(rem):
        k = len(rem) - 1
        if rem[k] != 0:
            f = rem[k] / b.coeffs[-1]
            quo[k - d] = f
            for j in range(d + 1):
                rem[k - d + j] -= f * b.coeffs[j]
        rem.pop()
    return FractionPoly(quo), FractionPoly(rem)


def sturm_chain(q: Poly) -> list[Poly]:
    """The Sturm sequence of q: q, q', then negated remainders."""
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [f for f in chain if not f.is_zero()]


def sturm_count(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct roots in (a, b) of the square-free head of the chain, whose
    ends a and b are not roots."""
    def variations(x):
        signs = [v for v in (f.sign_at(x) for f in chain) if v]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)
    assert chain[0].sign_at(a) and chain[0].sign_at(b), "Sturm endpoint is a root"
    return variations(a) - variations(b)


def isolate_roots_by_sturm(p: Poly, a: Fraction, b: Fraction) -> list[RootMarker]:
    """Oracle for `ratpoly.isolate_roots`: halve while Sturm's count of the
    distinct roots inside is 2 or more, step off a root hit at a midpoint,
    and refine by the count until the markers are separated."""
    a, b = F(a), F(b)
    if p.degree < 1 or a >= b:
        return []
    q = squarefree(p)
    while q.degree >= 1 and not q.sign_at(a):
        q = deflate(q, a)
    while q.degree >= 1 and not q.sign_at(b):
        q = deflate(q, b)
    if q.degree < 1:
        return []
    chain = sturm_chain(q)

    def isolate(q, chain, lo, hi):
        n = sturm_count(chain, lo, hi)
        if n < 2:
            return [RootMarker(lo, hi)] * n
        mid = (lo + hi) / 2
        if q.sign_at(mid):
            return isolate(q, chain, lo, mid) + isolate(q, chain, mid, hi)
        q2 = deflate(q, mid)
        chain2 = sturm_chain(q2)
        delta = (hi - lo) / 4
        while (not q.sign_at(mid - delta) or not q.sign_at(mid + delta)
               or (q2.degree >= 1 and sturm_count(chain2, mid - delta, mid + delta))):
            delta /= 2
        return (isolate(q, chain, lo, mid - delta) + [RootMarker(mid, mid, mid)]
                + isolate(q, chain, mid + delta, hi))

    markers = isolate(q, chain, a, b)
    moved = True
    while moved:
        moved = False
        for i, m in enumerate(markers):
            lo_bound = a if i == 0 else markers[i - 1].upper
            hi_bound = b if i == len(markers) - 1 else markers[i + 1].lower
            if m.exact is None and (m.lo < lo_bound or m.hi > hi_bound
                                    or m.lo <= a or m.hi >= b):
                mid = (m.lo + m.hi) / 2
                if not q.sign_at(mid):
                    markers[i] = RootMarker(mid, mid, mid)
                elif sturm_count(chain, m.lo, mid) == 1:
                    markers[i] = RootMarker(m.lo, mid)
                else:
                    markers[i] = RootMarker(mid, m.hi)
                moved = True
    return [_exactify(q, m) for m in markers]


def nonpositive_by_sturm(p: Poly, a: Fraction, b: Fraction):
    """Oracle for `ratpoly.nonpositive_on`: the first of a, b and one point
    in each gap between the Sturm markers at which p > 0."""
    if p.is_zero():
        return True, None
    for t in [F(a), F(b)] + gap_samples(isolate_roots_by_sturm(p, a, b), F(a), F(b)):
        if p.sign_at(t) > 0:
            return False, t
    return True, None


def positive_on_open_by_two_isolations(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """p > 0 on the open (lo, hi), decided with two root isolations: p >= 0
    on the closed [lo, hi] by `nonpositive_on(-p)`, then no root inside.
    It calls the zero polynomial positive."""
    ok, _ = nonpositive_on(-p, lo, hi)
    return ok and not isolate_roots(p, lo, hi)


# The sign checks as they were decided on Fraction values: every interval
# sign is read at a Fraction point of a root-free gap, wall values and
# slopes are Fractions, and a tied wall looks at the density less its
# value.  Oracles for `ratpoly.nonpositive_on`, `dh._positive_on_open`,
# `dh.check_log_concavity` and `dh.find_strict_local_minima`.

def nonpositive_on_by_samples(p: Poly, a: Fraction, b: Fraction):
    a, b = Fraction(a), Fraction(b)
    if p.is_zero():
        return True, None
    if p.sign_at(a) > 0:
        return False, a
    if p.sign_at(b) > 0:
        return False, b
    if p.degree < 1:
        return True, None
    for t in gap_samples(isolate_roots(p, a, b), a, b):
        if p.sign_at(t) > 0:
            return False, t
    return True, None


def positive_on_open_at_midpoint(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    return not isolate_roots(p, lo, hi) and p.sign_at((lo + hi) / 2) > 0


def one_sided_sign_by_taylor(p: Poly, x: Fraction, direction: int) -> int:
    """The sign of p just right (+1) or left (-1) of x: that of the first
    derivative not vanishing at x, times (-1)^k on the left."""
    x = Fraction(x)
    k = 0
    while not p.is_zero():
        s = p.sign_at(x)
        if s:
            return -s if direction < 0 and k % 2 == 1 else s
        p = p.derivative()
        k += 1
    return 0


def log_concavity_by_fractions(profile: DHProfile) -> LogConcavityReport:
    chamber_verdicts = []
    first = None
    for ch in profile.chambers:
        d1 = ch.poly.derivative()
        ok, witness = nonpositive_on_by_samples(ch.poly * d1.derivative() - d1 * d1,
                                                ch.lo, ch.hi)
        chamber_verdicts.append(ChamberVerdict(ch.lo, ch.hi, ok, witness))
        if not ok and first is None:
            first = (f"chamber ({format_rational(ch.lo)}, {format_rational(ch.hi)}): "
                     f"mu*mu'' - mu'^2 > 0 at s = {format_rational(witness)}")
    wall_verdicts = []
    for left, right in zip(profile.chambers, profile.chambers[1:]):
        a = left.hi
        vl, vr = left.poly(a), right.poly(a)
        ok = (vl > 0 and vr > 0
              and left.poly.derivative()(a) * vr >= right.poly.derivative()(a) * vl)
        wall_verdicts.append(WallVerdict(a, ok, vl == vr))
        if not ok and first is None:
            first = (f"wall {format_rational(a)}: one-sided log-derivative "
                     "increases across the wall")
    all_ok = all(c.ok for c in chamber_verdicts) and all(w.ok for w in wall_verdicts)
    return LogConcavityReport(all_ok, tuple(chamber_verdicts), tuple(wall_verdicts), first)


def strict_minima_by_fractions(profile: DHProfile) -> list[LocalMinimum]:
    minima = []
    for ch in profile.chambers:
        d = ch.poly.derivative()
        markers = isolate_roots(d, ch.lo, ch.hi)
        if not markers:
            continue
        samples = gap_samples(markers, ch.lo, ch.hi)
        for i, m in enumerate(markers):
            if d.sign_at(samples[i]) < 0 and d.sign_at(samples[i + 1]) > 0:
                minima.append(LocalMinimum("chamber", m.exact, m.lo, m.hi))
    for left, right in zip(profile.chambers, profile.chambers[1:]):
        a = left.hi
        vl, vr = left.poly(a), right.poly(a)
        v = min(vl, vr)
        left_up = vl > v or one_sided_sign_by_taylor(left.poly - Poly([v]), a, -1) > 0
        right_up = vr > v or one_sided_sign_by_taylor(right.poly - Poly([v]), a, +1) > 0
        if left_up and right_up:
            minima.append(LocalMinimum("wall", a, a, a))
    minima.sort(key=lambda m: (m.lo, m.hi))
    return minima


def volume_by_triangulation(P: LabeledPolytope, c=None) -> Fraction:
    """Volume oracle independent of localization: the cones from the least
    vertex over a fan triangulation of every facet not containing it.  With
    c, the first moment of <c, x> over P instead: each simplex adds its
    volume times <c, its centroid>.

    Faces are sets of vertex indices.  vertices() is sorted by point, so the
    apex (the least vertex) is index 0, the least vertex of a face is its
    least index, and facet j cuts the face S down to S & inc[j].  Each
    v - apex is one integer row over one denominator, so a simplex costs one
    integer determinant divided by the product of its vertices' denominators.
    """
    verts = vertices(P)
    st = P.structure()
    assert st.bounded and st.points, "the oracle needs a bounded polytope"
    n = P.dim
    at = [sum(ci * x for ci, x in zip(c or (), v.point)) for v in verts]
    if n == 1:
        xs = [v.point[0] for v in verts]
        return max(xs) - min(xs) if c is None else (max(xs) - min(xs)) * (at[0] + at[-1]) / 2
    inc: list[set[int]] = [set() for _ in P.facets]
    for k, v in enumerate(verts):
        for i in v.active:
            inc[i].add(k)
    apex = verts[0]
    rows, dens = zip(*(over_common_denominator([q - a for q, a in zip(v.point, apex.point)])
                       for v in verts))
    total = F(0)
    for i, face in enumerate(inc):
        if i in st.redundant or i in apex.active or not face:
            continue
        for simplex in _triangulate_face(verts, inc, frozenset([i]), face, n - 1):
            det = det_int([rows[k] for k in simplex])
            vol = F(abs(det), math.prod(dens[k] for k in simplex))
            total += vol if c is None else vol * (at[0] + sum(at[k] for k in simplex)) / (n + 1)
    return total / math.factorial(n)


def localization_sums(P: LabeledPolytope, c) -> list[Fraction]:
    """S_k = sum_v <c, v>^k |det G_v| / prod_j (-<c, g_j(v)>) for
    k = 0 .. n + 1, over the vertices v of a simple bounded P with edge
    generators g_j(v), read off `Structure.points`, `edges` and `dets`; c
    pairs to nonzero with every generator.  By Brion and Lawrence (Brion
    1988; Lawrence 1991) S_k = 0 for k < n, S_n = n! vol(P) and S_{n+1} is
    (n + 1)! times the first moment of <c, x> over P."""
    st = P.structure()
    sums = [F(0)] * (P.dim + 2)
    for ((num, den), _), es, det in zip(st.points, st.edges, st.dets):
        x, w = F(dot(c, num), den), F(det, math.prod(-dot(c, g) for g in es))
        sums = [s + x ** k * w for k, s in enumerate(sums)]
    return sums


def _triangulate_face(verts, inc: list[set[int]], active: frozenset[int], face: set[int],
                      k: int):
    """Simplices (tuples of k+1 vertex indices) triangulating the k-face
    `face` of a simple polytope, the face cut out by the facets `active`."""
    u0 = min(face)
    if k == 0:
        yield (u0,)
        return
    u0_active = verts[u0].active
    seen_sub: set[frozenset[int]] = set()
    for w in sorted(face):
        for j in verts[w].active:
            if j in active or j in u0_active:
                continue
            sub_active = active | {j}
            if sub_active in seen_sub:
                continue
            seen_sub.add(sub_active)
            for simplex in _triangulate_face(verts, inc, sub_active, face & inc[j], k - 1):
                yield (u0,) + simplex


def slice_volume(P: LabeledPolytope, s: Fraction) -> Fraction:
    """(n-1)-volume of the slice at x1 = s, 0 off the moment image, by the
    triangulation oracle, so profile by slicing shares no formula with
    profile by localization."""
    sl = slice_at(P, s)
    return volume_by_triangulation(sl.polytope) if sl.polytope is not None else F(0)


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


def chamber_affine_check(P: LabeledPolytope, interval: tuple[Fraction, Fraction]) -> bool:
    """Constant facet set and affine offset laws across a chamber.

    Verified at three exact samples: the inducing facet sets must agree, the
    vertex active-set combinatorics must agree, and each induced offset must
    fit one affine law in s.
    """
    lo, hi = F(interval[0]), F(interval[1])
    if lo >= hi:
        raise PreconditionError("empty interval")
    for c in critical_values(P):
        if lo < c < hi:
            raise PreconditionError(
                f"critical value {format_rational(c)} inside the interval")
    samples = [lo + (hi - lo) * F(k, 4) for k in (1, 2, 3)]
    slices = [slice_at(P, s) for s in samples]
    if any(sl.polytope is None for sl in slices):
        raise PreconditionError("interval leaves the moment image")
    inducing_sets = [tuple(sorted(sl.inducing)) for sl in slices]
    if not inducing_sets[0] == inducing_sets[1] == inducing_sets[2]:
        return False
    types = []
    for sl in slices:
        vs = vertices(sl.polytope)
        types.append(sorted(
            tuple(sorted(sl.inducing[i] for i in v.active)) for v in vs))
    if not types[0] == types[1] == types[2]:
        return False
    # offsets: two samples fix an affine law; the third must obey it
    for idx in range(len(inducing_sets[0])):
        offs = []
        for sl, s in zip(slices, samples):
            pos = list(sl.inducing).index(inducing_sets[0][idx])
            offs.append(F(sl.polytope.facets[pos].offset))
        s1, s2, s3 = samples
        if (offs[1] - offs[0]) * (s3 - s2) != (offs[2] - offs[1]) * (s2 - s1):
            return False
    return True


# the wedge {x1 + 2 x2 <= 1, x1 - 2 x2 <= 1}, unbounded towards x1 -> -inf,
# with its apex at (1, 0): cut below it, it has two Z2 corners
OPEN_WEDGE = LabeledPolytope(2, [Facet((1, 2), F(1)), Facet((1, -2), F(1))])


def chopped_box(n: int, corners, depth: Fraction) -> LabeledPolytope:
    """Unit n-cube with the given corners chopped at depth <= 1/2 (at 1/2
    the chops of two adjacent corners meet, so the result is not simple)."""
    facets = list(box(*[F(1)] * n).facets)
    for bits in corners:
        facets.append(Facet(tuple(1 if b else -1 for b in bits), F(sum(bits)) - depth))
    return LabeledPolytope(n, facets)


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


def keeping_x1(rng: random.Random, n: int) -> list[list[int]]:
    """Unimodular [[1, 0], [c, B]]: the image has the same first coordinate."""
    B = random_unimodular(rng, n - 1)
    return [[1] + [0] * (n - 1)] + [[rng.randint(-2, 2)] + row for row in B]


def mat_mul_int(a, b) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_vec_int(a, v) -> list[int]:
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def rank_rational(rows) -> int:
    """Rank of a matrix of int or Fraction entries, each row over its least
    common denominator."""
    return rank_int([over_common_denominator(row)[0] for row in rows])


def mirrored(profile: DHProfile) -> DHProfile:
    """The profile of the region mirrored by x1 -> -x1: walls negated in
    reverse order, each chamber's density composed with s -> -s."""
    chambers = tuple(Chamber(-ch.hi, -ch.lo,
                             Poly.over(affine_substitute(ch.poly.num, -1, 0, 1), ch.poly.den))
                     for ch in reversed(profile.chambers))
    return DHProfile(tuple(-w for w in reversed(profile.walls)), chambers)


def mirror_summary_by_reversal(P: LabeledPolytope, a: Fraction, window: Fraction) -> dict:
    """Oracle for the `reversed` block of `dh.wall_crossing_check`: the
    downward crossing computed on reversed_polytope(P) itself.  Its slices
    at the four negated sample levels are compared with P's, and the
    weights at its wall vertices with P's negated."""
    rev = reversed_polytope(P)
    rev_weights = sorted(weights_at_vertex(rev, v) for v in vertices(rev) if v.point[0] == -a)
    expect = sorted(tuple(sorted(-w for w in weights_at_vertex(P, v)))
                    for v in vertices(P) if v.point[0] == a)
    levels = [a + window * k for k in (F(-1, 2), F(-1, 4), F(1, 4), F(1, 2))]
    mirror_ok = all(canonical_equal(slice_at(rev, -s).polytope, slice_at(P, s).polytope)
                    for s in levels)
    return {
        "wall": format_rational(-a),
        "weights": [list(w) for w in rev_weights],
        "weights_negated_ok": rev_weights == expect,
        "mirror_slices_ok": mirror_ok,
        "coefficient_sign": "flipped",
        "ok": rev_weights == expect and mirror_ok,
    }


def rank_by_fractions(rows) -> int:
    """Rank oracle: Gauss elimination over Fraction, no Bareiss."""
    a = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def stabilizer_order_by_search(normal, label: int, box: int):
    """Facet stabilizer oracle: label times the least positive first
    coordinate of an integer vector orthogonal to `normal` whose entries
    lie in [-box, box]; "infinite" when the box holds none."""
    tail = normal[1:]
    reachable = {dot(tail, u) for u in product(range(-box, box + 1), repeat=len(tail))}
    u0 = next((u0 for u0 in range(1, box + 1) if -u0 * normal[0] in reachable), None)
    return INFINITE if u0 is None else u0 * label


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


def kernel_direction(rows, n: int):
    """Primitive kernel vector of n-1 integer rows of length n (cofactors),
    or None when they are dependent."""
    if n == 1:
        return (1,)
    d = [(-1) ** k * det_int([[row[c] for c in range(n) if c != k] for row in rows])
         for k in range(n)]
    return primitive(d) if any(d) else None


def tangent_rays(normals, act, n: int) -> tuple:
    """Oracle for `polytope._edge_directions`: the extreme rays of the cone
    {d : <a_j, d> <= 0, j in act}, from the kernel direction of every
    (n-1)-subset of act, in the order of the first subset giving each."""
    out = []
    for sub in combinations(act, n - 1):
        e = kernel_direction([normals[j] for j in sub], n)
        if e is None:
            continue
        for cand in (e, tuple(-x for x in e)):
            if all(dot(normals[j], cand) <= 0 for j in act) and cand not in out:
                out.append(cand)
    return tuple(out)


def solve_int(rows: list[list[int]], rhs: list[int]):
    """(numerators, den) with den > 0 and x_i = numerators[i] / den for the
    solution x of an integer square system, or None when it is singular."""
    n = len(rows)
    a = [rows[i][:] + [rhs[i]] for i in range(n)]
    det = _square_det(a)
    if det == 0:
        return None
    num = _back_substitute(a, n, det, n)
    if det < 0:
        num, det = [-x for x in num], -det
    return num, det


def structure_by_subsets(P: LabeledPolytope) -> Structure:
    """Independent structure oracle: solve every n-subset of facets.

    Vertices are the feasible solutions; edges at a simple vertex are kernel
    directions of n-1 active normals, oriented to relax the remaining one;
    at a non-simple vertex they are the extreme rays of the tangent cone
    from (n-1)-subsets of the active set.  The rays are the extreme rays of
    the recession cone from (n-1)-subsets of all normals, each asserted to
    be an edge direction and ordered by first appearance among the edges.
    Rank and redundancy are decided by rank tests on point differences and
    rays, without the engine's edge-record rule.
    """
    n = P.dim
    m = len(P.facets)
    normals, offs, lcm = _scaled_rows(P.facets)

    feasible = {}
    for subset in combinations(range(m), n):
        sol = solve_int([list(normals[i]) for i in subset], [offs[i] for i in subset])
        if sol is None:
            continue
        num, den = sol
        if any(dot(normals[j], num) > offs[j] * den for j in range(m)):
            continue
        point = tuple(F(x, den * lcm) for x in num)
        feasible[point] = frozenset(j for j in range(m)
                                    if dot(normals[j], num) == offs[j] * den)
    points = tuple(sorted(feasible.items()))
    simple = all(len(act) == n for _, act in points)
    # the engine's rows: least common denominator, lowest terms
    rows = tuple((tuple(num), den) for num, den in
                 (over_common_denominator(pt) for pt, _ in points))

    edges = []
    for _, act in points:
        act = sorted(act)
        if len(act) > n:
            edges.append(tangent_rays(normals, act, n))
            continue
        gens = []
        for i in act:
            e = kernel_direction([normals[j] for j in act if j != i], n)
            gens.append(e if dot(normals[i], e) < 0 else tuple(-x for x in e))
        edges.append(tuple(gens))

    recession = set()
    if points:
        for sub in combinations(range(m), n - 1):
            e = kernel_direction([normals[j] for j in sub], n)
            if e is not None:
                recession.update(c for c in (e, tuple(-x for x in e))
                                 if all(dot(normals[j], c) <= 0 for j in range(m)))
    rays = []
    for e in (e for es in edges for e in es):
        if e in recession and e not in rays:
            rays.append(e)
    # every extreme ray of the recession cone is an unbounded edge
    assert set(rays) == recession

    if points:
        base = points[0][0]
        diffs = [[q - b for q, b in zip(pt, base)] for pt, _ in points[1:]]
        diffs += [list(r) for r in rays]
        affine_rank = rank_rational(diffs) if diffs else 0
    else:
        affine_rank = -1

    redundant = set()
    if points and affine_rank == n:
        for i in range(m):
            incident = [pt for pt, act in points if i in act]
            if not incident:
                redundant.add(i)
                continue
            diffs = [[q - b for q, b in zip(pt, incident[0])] for pt in incident[1:]]
            diffs += [list(r) for r in rays if dot(normals[i], r) == 0]
            if (rank_rational(diffs) if diffs else 0) != n - 1:
                redundant.add(i)

    st = Structure(
        points=tuple(zip(rows, (act for _, act in points))),
        simple=simple,
        rays=tuple(rays),
        bounded=bool(points) and not rays,
        full_dim=affine_rank == n,
        redundant=frozenset(redundant),
        affine_rank=affine_rank,
        edges=tuple(edges),
        dets=None,
    )
    return st._replace(dets=dets_by_elimination(st))


def dets_by_elimination(st: Structure) -> tuple:
    """Oracle for `Structure.dets`: |det G_v| of the edge rows at each
    simple vertex by one Bareiss elimination (`lattice.det_int`), None at a
    vertex on more than n facets."""
    return tuple(abs(det_int([list(g) for g in es])) if len(act) == len(num) else None
                 for ((num, _), act), es in zip(st.points, st.edges))


def empty_8d_region(seed: int = 0) -> LabeledPolytope:
    """30 facets in dimension 8 with no common point: x1 <= -1 and -x1 <= 0,
    and 28 random primitive facets with positive offsets."""
    rng = random.Random(seed)
    facets = [Facet((1,) + (0,) * 7, F(-1)), Facet((-1,) + (0,) * 7, F(0))]
    while len(facets) < 30:
        v = [rng.randint(-3, 3) for _ in range(8)]
        if any(v):
            facets.append(Facet(primitive(v), F(rng.randint(1, 9), rng.randint(1, 3))))
    return LabeledPolytope(8, facets)


def cut_8_cube() -> LabeledPolytope:
    """The unit 8-cube cut by random facets (random.Random(3), normals in
    [-3, 3]^8, offsets k/2) until there are 30: a bounded region with 15
    non-simple vertices, each on 9 facets."""
    rng = random.Random(3)
    facets = []
    for i in range(8):
        e = tuple(int(j == i) for j in range(8))
        facets += [Facet(e, F(1)), Facet(tuple(-x for x in e), F(0))]
    while len(facets) < 30:
        v = [rng.randint(-3, 3) for _ in range(8)]
        if any(v):
            facets.append(Facet(primitive(v), F(rng.randint(1, 4), 2)))
    return LabeledPolytope(8, facets)


def walked(P: LabeledPolytope) -> LabeledPolytope:
    """A fresh polytope on P's facets, so its structure is walked from
    scratch, never derived from a parent."""
    return LabeledPolytope(P.dim, P.facets)


def canonical_equal_by_walk(facets, P: LabeledPolytope) -> bool:
    """Oracle for `polytope.canonical_mismatch`: the facets walked from
    scratch as a polytope and compared by canonical key; a region with no
    vertex is unequal."""
    C = LabeledPolytope(P.dim, facets)
    return bool(C.structure().points) and canonical_equal(C, P)


def agreement_by_restriction(result: LabeledPolytope, P: LabeledPolytope) -> bool:
    """Oracle for `add_fixed_points`' agreement_on_lower_half: the result
    cut at x1 = 0, as a polytope of its own, against P cut there."""
    return canonical_equal(restrict_halfspace(result, F(0)), restrict_halfspace(P, F(0)))


def slice_facet_by_fractions(f: Facet, s: Fraction) -> Facet:
    """Oracle for `polytope.slice_facet`: the offset (o - nu_1 s) / g in
    Fraction arithmetic."""
    tail = f.normal[1:]
    g = content(tail)
    return Facet(tuple(t // g for t in tail), (f.offset - f.normal[0] * F(s)) / g, f.label)


def canonical_order_by_fractions(facets) -> list[Facet]:
    """Oracle for the constructor's canonical order: by normal, Fraction
    offset and label, stable."""
    return sorted(facets, key=lambda f: (f.normal, f.offset, f.label))


def slice_by_walk(P: LabeledPolytope, s: Fraction) -> Slice:
    """Independent slice oracle: the induced facets, walked from scratch.

    Candidate facets are those whose vertices reach level s on both sides
    (all facets unless P is simple and bounded), one facet per induced
    normal and offset; the slice is that system walked from scratch, with
    its redundant facets dropped.
    """
    s = F(s)
    st = walked(P).structure()
    candidates = range(len(P.facets))
    if st.simple and st.bounded:
        xs = {}
        for row, act in st.points:
            for i in act:
                xs.setdefault(i, []).append(_point(row)[0])
        candidates = [i for i in candidates if i in xs and min(xs[i]) <= s <= max(xs[i])]
    pairs, seen = [], set()
    for i in candidates:
        f = P.facets[i]
        if not any(f.normal[1:]):
            if f.offset < f.normal[0] * s:
                return Slice(None, False, ())
            continue
        h = slice_facet_by_fractions(f, s)
        if (h.normal, h.offset) not in seen:
            seen.add((h.normal, h.offset))
            pairs.append((h, i))
    if not pairs:
        return Slice(None, False, ())
    pairs.sort(key=lambda fi: fi[0].key())
    qst = LabeledPolytope(P.dim - 1, [f for f, _ in pairs]).structure()
    if not qst.points:
        return Slice(None, False, ())
    if not qst.full_dim:
        return Slice(None, True, ())
    kept = [pairs[k] for k in range(len(pairs)) if k not in qst.redundant]
    return Slice(LabeledPolytope(P.dim - 1, [f for f, _ in kept]), False,
                 tuple(i for _, i in kept))


def _scaled_gap(got, want, scale) -> float:
    """The largest of the `localmodel._gaps`, as one point's check takes it."""
    return float(np.max(_gaps(got, want, scale)))


def moment_standard(action, z) -> float:
    """Oracle for `localmodel.MomentAlongFlow` at t = 0: psi(z) = 1/2 sum
    a_j |z_j|^2, summed as written."""
    z = np.asarray(z, dtype=complex)
    return float(0.5 * np.sum(action.array() * np.abs(z) ** 2))


def n_pm_by_point(action, z) -> tuple[float, float]:
    """Oracle for `localmodel.n_pm`: N_- and N_+ summed in Python floats, one
    sign block at a time.  An overflowing sum is refused as `n_pm` refuses
    it: Python floats raise OverflowError where numpy would return inf."""
    z = [complex(x) for x in z]
    out = []
    for block in (action.neg, action.pos):
        total = 0.0
        try:
            for j in block:
                total += abs(z[j]) ** (2.0 / abs(action.weights[j]))
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise PreconditionError(
                "N_- or N_+ overflows double precision: sum |z_j|^(2/|a_j|) over a "
                "sign block exceeds the largest double")
        out.append(math.sqrt(total))
    return out[0], out[1]


def npm_scaling_by_trial(action, z, t) -> float:
    """Oracle for one trial of `batteries.npm_scaling_battery`: the scaled
    gap of N_pm(e^t z) = e^{+-t} N_pm(z) and of N_- N_+ = const, by
    `n_pm_by_point` and the flow written out."""
    nm0, np0 = n_pm_by_point(action, z)
    nm1, np1 = n_pm_by_point(action, np.asarray(z) * np.exp(t * action.array()))
    want = np.array([math.exp(-t) * nm0, math.exp(t) * np0, nm0 * np0])
    return _scaled_gap([nm1, np1, nm1 * np1], want, want)


def membership_v_point(action, spec, z) -> bool:
    """Per-point oracle for `localmodel.membership_v`: the definition of V
    through `n_pm_by_point`, one point at a time."""
    nm, np_ = n_pm_by_point(action, z)
    w_norm = (np.linalg.norm(np.asarray(z)[list(action.zero)])
              if action.zero else 0.0)
    return (nm < spec.eps and np_ < spec.eps
            and w_norm <= spec.compact_bound
            and nm * np_ < spec.eps * spec.eps_prime)


def bad_annulus_point(action, inner: float = 0.125, lo: float = 0.25,
                      hi: float = 0.5):
    """Per-point oracle for `localmodel.bad_annulus_region`."""
    def region(z) -> bool:
        _, np_ = n_pm_by_point(action, z)
        return np_ < inner or lo < np_ < hi
    return region


def psi_terms_by_padding(actions, zs, t) -> np.ndarray:
    """Oracle for `MomentAlongFlow.terms`: each row padded after its kept
    terms with 2a = -0.0 and ln = -inf, and every entry evaluated, padding
    too, as one array of shape t.shape + (k,) by broadcasting."""
    rows = [_flow_terms(act, z) for act, z in zip(actions, _points(actions, zs))]
    width = max(map(len, rows))
    two_a, log_half_ac = np.array(
        [row + [(-0.0, -math.inf)] * (width - len(row)) for row in rows]).transpose(2, 0, 1)
    with np.errstate(over="ignore"):
        return np.copysign(np.exp(np.asarray(t)[..., None] * two_a + log_half_ac), two_a)


def _sample_block(rng, powers, r2: float):
    """A random point of the ball N^2 < r2 in a sign block of exponents
    |a_j|/2, drawn as u_j = |z_j|^{2/|a_j|}, and its N^2 = sum u_j."""
    while True:
        u = rng.uniform(0.0, r2, size=len(powers))
        if (n2 := u.sum()) < r2:
            phases = np.exp(2j * np.pi * rng.uniform(size=len(powers)))
            return u ** powers * phases, n2


def sample_neighborhood_by_block(action, spec, rng) -> np.ndarray:
    """Oracle for `localmodel.sample_neighborhood`: every trial built into a
    point, block by block, and kept when N_- N_+ < eps eps'."""
    n = len(action.weights)
    blocks = [(list(block), np.abs(action.array()[list(block)]) / 2.0)
              for block in (action.neg, action.pos)]
    for _ in range(10_000):
        z = np.zeros(n, dtype=complex)
        sums = []
        for entries, powers in blocks:
            z[entries], n2 = _sample_block(rng, powers, spec.eps**2)
            sums.append(n2)
        if action.zero:
            w = rng.normal(size=len(action.zero)) + 1j * rng.normal(size=len(action.zero))
            norm = np.linalg.norm(w)
            scale = rng.uniform() ** (1.0 / (2 * len(action.zero)))
            z[list(action.zero)] = (w / max(norm, 1e-300)) * spec.compact_bound * scale
        if math.sqrt(sums[0]) * math.sqrt(sums[1]) < spec.eps * spec.eps_prime:
            return z
    raise PreconditionError("rejection sampling failed; radii too tight")


# -- the reference stream of the batteries: their draws as first written, one
# generator call per number or array, which the draws must match call by call

def random_action_by_reference(rng, n_max: int = 4, require_mixed: bool = False):
    """Oracle for `batteries._random_action`."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        w = tuple(int(x) for x in rng.integers(-3, 4, size=n))
        if all(x == 0 for x in w):
            continue
        if require_mixed and not (any(x > 0 for x in w) and any(x < 0 for x in w)):
            continue
        return LinearAction(w)


def random_point_by_reference(rng, action) -> np.ndarray:
    """Oracle for `batteries._random_point`."""
    n = len(action.weights)
    while True:
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        mask = rng.uniform(size=n) < 0.25
        z[mask] = 0.0
        if any(z.tolist()[j] for j in action.neg + action.pos):     # not fixed
            return z


def action_and_point_by_reference(rng, **kwargs) -> tuple:
    """Oracle for `batteries._action_and_point`."""
    action = random_action_by_reference(rng, **kwargs)
    return action, random_point_by_reference(rng, action)


def battery_draw_by_reference(name: str, seed: int):
    """Oracle for the `draw` of the battery `name` (a `batteries._run` name),
    for its call with `seed`."""
    family = psh_test_family(BumpSpec(0.25, 1.0))
    spec_seeds = count(seed * 100003)

    def solve(rng):
        action, z = action_and_point_by_reference(rng)
        s = float(rng.normal() * 2)
        return action, z, s if s != 0.0 else 0.5

    def psh(rng):
        spec = family[int(rng.integers(0, len(family)))]
        t0 = float(rng.uniform(0.01, 2.0 if spec.name == "smoothed-ln" else 3.0))
        return spec, t0, int(rng.integers(2, 7)), next(spec_seeds)

    def blowup(rng):
        action = random_action_by_reference(rng, n_max=3)
        n = len(action.weights)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z *= rng.uniform(0.15, 0.4) / np.linalg.norm(z)
        return action, z

    return {
        "monotone-flow": action_and_point_by_reference,
        "solve-membership": solve,
        "n-pm-scaling": lambda rng: (*action_and_point_by_reference(rng, require_mixed=True),
                                     float(rng.uniform(-2, 2))),
        "psh-eigenvalues": psh,
        "cut-tameness": lambda rng: (*action_and_point_by_reference(rng),
                                     complex(rng.normal(), rng.normal())),
        "blowup-potential": blowup,
    }[name]


def bits(x):
    """x to the bit, for comparing drawn inputs: an array as its dtype, shape
    and bytes, a trial entry by entry, a profile by its name (each family
    makes its own functions), anything else, an action or a number, as its
    type and repr (which tells -0.0 from 0.0, and an int from a numpy int)."""
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    if type(x) is tuple:
        return tuple(map(bits, x))
    if hasattr(x, "f1"):
        return x.name
    return type(x), repr(x)


class CountingGenerator:
    """A numpy Generator that records each call of its methods, as (method
    name, result) in `calls`; anything else passes through."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        attr = getattr(self.rng, name)
        if not callable(attr):
            return attr

        def recorded(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.calls.append((name, out))
            return out
        return recorded


def _double_key(x: float) -> int:
    """The rank of x in the natural order of the doubles, 0 at -0.0 and 0.0:
    its signed bits q if q >= 0, else -q - 2^63, a map that is its own inverse."""
    q = struct.unpack("<q", struct.pack("<d", x))[0]
    return q if q >= 0 else -q - (1 << 63)


def _key_double(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -k - (1 << 63)))[0]


def solve_time_to_level_by_bisection(action, z, s: float):
    """Oracle for `localmodel.solve_time_to_level`: one point's bisection over
    the doubles in their natural order, in Python integers, keeping
    psi(lo) < s <= psi(hi) and returning hi, or None when s is outside
    (psi(-max), psi(+max))."""
    row = MomentAlongFlow([action], [z])

    def psi(t: float) -> float:
        return float(row(np.array([t]))[0])
    lo, hi = _double_key(-sys.float_info.max), _double_key(sys.float_info.max)
    if not psi(_key_double(lo)) < s < psi(_key_double(hi)):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if psi(_key_double(mid)) < s:
            lo = mid
        else:
            hi = mid
    return _key_double(hi)


def check_monotone_by_point(action, z, t_grid=None) -> MonotoneReport:
    """Oracle for `localmodel.monotone_rows`: one point's check, with its
    own flow line and probes."""
    psi = MomentAlongFlow([action], [z])
    if t_grid is None:
        t_grid = np.linspace(-3.0, 3.0, 1001)
    z = np.asarray(z, dtype=complex)
    a = action.array()
    increasing = bool(np.all(np.diff(psi(t_grid)) > 0))
    probes = t_grid[:: max(1, len(t_grid) // 12)]
    zt = z[None, :] * np.exp(np.outer(probes, a))
    xi = 1j * a * zt
    scale = np.sum(np.abs(a) * np.abs(zt) * np.abs(a * zt), axis=1)
    worst = _scaled_gap(_d_psi(a, zt, a * zt), _omega(xi, 1j * xi), scale)
    return MonotoneReport(increasing, worst, len(t_grid))


def cut_tameness_identity_by_point(action, z, w) -> CutIdentityReport:
    """Oracle for `localmodel.cut_identity_rows`: one point's check, with
    np.linalg.norm and Python floats where the rows use arrays."""
    z = np.asarray(z, dtype=complex)
    w = complex(w)
    root_a = math.hypot(*(abs(aj) * math.hypot(zj.real, zj.imag)
                          for aj, zj in zip(action.weights, z.tolist())))
    abs_w = math.hypot(w.real, w.imag)
    norm, root = math.hypot(root_a, abs_w), root_a * abs_w
    if not (norm <= _ROOT_MAX and root <= _ROOT_MAX):
        raise PreconditionError("A + |w|^2 or |w|^2 A overflows double precision")
    a = action.array()
    A = float(np.sum(a**2 * np.abs(z) ** 2))
    if A + abs(w) ** 2 == 0:
        raise PreconditionError("the point is fixed by the diagonal action")
    xi_m = np.concatenate([1j * a * z, [0.0 + 0.0j]])
    xi_prime = np.concatenate([1j * a * z, [1j * w]])
    c = A / (A + abs(w) ** 2)
    xi_big = xi_m - c * xi_prime
    orth1 = float(_omega(xi_prime, xi_big))
    orth2 = float(_omega(xi_prime, 1j * xi_big))
    norm_prime = float(np.linalg.norm(xi_prime))
    orth_scale = norm_prime * (float(np.linalg.norm(xi_m)) + c * norm_prime)
    value = float(_omega(xi_big, 1j * xi_big))
    expected = abs(w) ** 2 * c
    rel = _scaled_gap(value, expected, expected) if expected != 0 else abs(value)
    point = np.concatenate([z, [w]])
    a_prime = np.concatenate([a, [1.0]])
    v = _pairing_directions(len(point))
    scale = np.sum(np.abs(a_prime) * np.abs(point) * np.abs(v), axis=-1)
    gaps = _gaps(_d_psi(a_prime, point, v), _omega(v, xi_prime), scale)
    worst = max([0.0, *gaps.tolist()])
    orth = _scaled_gap([orth1, orth2], 0.0, orth_scale)
    return CutIdentityReport(value, expected, rel, orth1, orth2, orth_scale, worst, orth)


def blowup_potential_check_by_point(action, z, bump=None) -> BlowupPotentialReport:
    """Oracle for `localmodel.blowup_potential_rows`: one point's check, its
    Hessian contracted by plain matmul."""
    bump = bump or BumpSpec()
    z = np.asarray(z, dtype=complex)
    n = len(z)
    t = float(np.sum(np.abs(z) ** 2))
    if not 0 < t < bump.r1:
        raise PreconditionError("need 0 < |z|^2 < r1")
    a = action.array()
    profile = _smoothed_ln(bump)

    def phi(p: np.ndarray) -> float:
        sq = np.abs(p) ** 2
        return float(np.sum(a * sq)) * profile.f1(float(np.sum(sq))) / (2 * math.pi)

    f1, f2 = profile.f1(t) / (2 * math.pi), profile.f2(t) / (2 * math.pi)
    s = np.sum(a * np.abs(z) ** 2)
    phi_val = phi(z)
    phi_formula = float(s / (2 * math.pi * t))
    phi_scale = float(np.sum(np.abs(a) * np.abs(z) ** 2)) * abs(f1)
    lam = 1.0 + min(0.25, (math.sqrt(bump.r1) - math.sqrt(t)) / (2 * math.sqrt(t)))
    scaling_err = _scaled_gap(phi(lam * z), phi_val, phi_scale)
    dirs = np.concatenate([np.eye(n), 1j * np.eye(n)])
    eta = -2 * np.imag(np.conj(dirs) @ (_radial_hessian(f1, f2, z).T @ (1j * a * z)))
    d_phi = _d_phi(a, z, s, f1, f2, dirs)
    scale = 2 * np.max(np.abs(a)) * math.sqrt(t) * (abs(f1) + t * abs(f2))
    return BlowupPotentialReport(phi_val, phi_formula,
                                 _scaled_gap(phi_val, phi_formula, phi_scale),
                                 _scaled_gap(eta, -d_phi, scale), scaling_err)


def point_by_point(predicate):
    """The row predicate that asks a per-point predicate about each row."""
    def region(Z):
        return np.fromiter((predicate(z) for z in Z), dtype=bool, count=len(Z))
    return region


def fixed_components_by_subsets(P: LabeledPolytope) -> list[FixedComponent]:
    """Oracle for `toric.fixed_components`: every subset of every vertex's
    active facets, smallest first, kept when e1 lies in the rational span
    of its normals and no kept subset is contained in it."""
    verts = vertices(P)
    e1 = [1] + [0] * (P.dim - 1)
    subsets: set[frozenset[int]] = set()
    for v in verts:
        act = sorted(v.active)
        for size in range(1, len(act) + 1):
            subsets.update(frozenset(sub) for sub in combinations(act, size))
    minimal: list[frozenset[int]] = []
    for s in sorted(subsets, key=lambda s: (len(s), sorted(s))):
        if any(m <= s for m in minimal):
            continue
        normals = [list(P.facets[i].normal) for i in s]
        if rank_rational(normals) == rank_rational(normals + [e1]):
            minimal.append(s)
    out = []
    for s in minimal:
        pts = tuple(v.point for v in verts if s <= v.active)
        out.append(FixedComponent(s, pts[0][0], pts))
    out.sort(key=lambda c: (c.level, sorted(c.active)))
    return out


# -- finite-difference oracles for the closed-form derivatives of localmodel --

def richardson_derivative(f, h: float) -> float:
    """f'(0) for a real function of one real variable: central differences
    at steps h and h/2, Richardson-extrapolated."""
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h / 2) - f(-h / 2)) / h
    return (4 * d2 - d1) / 3


def complex_hessian_by_differences(g, z: np.ndarray, h: float) -> np.ndarray:
    """Oracle for `localmodel._radial_hessian`: d^2 g / dz_j dzbar_k of a
    real function g on C^n, from second differences over the (2n)^2 real
    directions, Richardson-extrapolated from steps h and h/2.  Raises
    AssertionError when the two steps disagree by more than 5 % of the
    Hessian's size."""
    n = len(z)
    dirs = []
    for j in range(n):
        for unit in (1.0, 1j):
            e = np.zeros(n, dtype=complex)
            e[j] = unit
            dirs.append(e)

    def entry(da, db, step):
        if da is db:
            return (g(z + step * da) - 2 * g(z) + g(z - step * da)) / step**2
        return (g(z + step * da + step * db) - g(z + step * da - step * db)
                - g(z - step * da + step * db) + g(z - step * da - step * db)
                ) / (4 * step**2)

    def hess(step):
        m = np.zeros((2 * n, 2 * n))
        for p in range(2 * n):
            for q in range(p, 2 * n):
                m[p, q] = m[q, p] = entry(dirs[p], dirs[q], step)
        return m

    h1, h2 = hess(h), hess(h / 2)
    real = (4 * h2 - h1) / 3
    if np.max(np.abs(h2 - h1)) > 5e-2 * max(np.max(np.abs(real)), 1e-300):
        raise AssertionError("second differences do not converge; reduce h")
    # d/dz_j = (d/dx_j - i d/dy_j) / 2 and d/dzbar_k = (d/dx_k + i d/dy_k) / 2
    xx, yy = real[0::2, 0::2], real[1::2, 1::2]
    xy, yx = real[0::2, 1::2], real[1::2, 0::2]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))
