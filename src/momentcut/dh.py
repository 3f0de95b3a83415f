"""Exact Duistermaat-Heckman profiles and birational wall-crossing checks.

The density at level s is the Euclidean (n-1)-volume of the slice at s in
the coordinates (x_2 .. x_n); it is a polynomial of degree <= n-1 on each
chamber between consecutive critical levels.

Profiles come from localization at the vertices (Lawrence 1991, Brion-Vergne
1997): on the chamber above lo the density is

    sum over vertices v with x_1(v) <= lo of
        |det G_v| (s - x_1(v))^(n-1) / ((n-1)! prod_k <xi, g_k(v)>),

where g_1(v) .. g_n(v), the rows of G_v, are the primitive edge generators
at v and xi = e_1.  Edges orthogonal to e_1 make some pairings zero, so xi
is perturbed to e_1 + t*eta with eta = (0, 1, p, p^2, ..) for the first
p = 2, 3, .. that pairs nonzero with every such edge.  Each vertex term is
then a Laurent series in t with rational coefficients; the sum has no pole
at t = 0, so its exact t^0 coefficient is the density.

Everything here is decided in exact rational arithmetic; inequalities on
whole intervals go through Sturm sequences, never sampling floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DimensionMismatch,
    InternalError,
    PreconditionError,
    WallNotSimpleCrossing,
)
from .lattice import (
    content,
    det_int,
    dot,
    format_rational,
    generic_direction,
    over_common_denominator,
)
from .polytope import (
    LabeledPolytope,
    Vertex,
    canonical_equal,
    canonical_mismatch,
    critical_values,
    require_bounded,
    slice_at,
    slice_facet,
    vertices,
)
from .ops import reversed_polytope
from .ratpoly import (
    Poly,
    affine_substitute,
    gap_samples,
    isolate_roots,
    nonpositive_on,
    one_sided_sign,
)
from .toric import classify_vertex, edge_generators, weights_at_vertex


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chamber:
    lo: Fraction
    hi: Fraction
    poly: Poly

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "coefficients": [format_rational(c) for c in self.poly.coeffs],
        }


@dataclass(frozen=True)
class DHProfile:
    walls: tuple[Fraction, ...]
    chambers: tuple[Chamber, ...]

    def value(self, s: Fraction) -> Fraction:
        s = Fraction(s)
        for ch in self.chambers:
            if ch.lo <= s < ch.hi:
                return ch.poly(s)
        last = self.chambers[-1]
        if s == last.hi:
            return last.poly(s)
        raise PreconditionError(f"{format_rational(s)} is outside the moment image")

    def total_integral(self) -> Fraction:
        return sum((ch.poly.integrate(ch.lo, ch.hi) for ch in self.chambers),
                   Fraction(0))

    def to_json(self) -> dict:
        return {
            "walls": [format_rational(w) for w in self.walls],
            "chambers": [ch.to_json() for ch in self.chambers],
        }


def dh_profile(P: LabeledPolytope) -> DHProfile:
    """Sum the vertex terms chamber by chamber and verify positivity."""
    if P.dim < 2:
        raise DimensionMismatch("profiles need dimension >= 2")
    require_bounded(P, "profiles need a bounded polytope")
    verts = sorted(vertices(P), key=lambda v: v.point[0])
    gens = [edge_generators(P, v) for v in verts]
    flat = {g for gs in gens for g in gs if g[0] == 0}
    eta = (0,) + generic_direction([g[1:] for g in flat], P.dim - 1)
    walls = critical_values(P)
    chambers = []
    density = Poly([])
    k = 0
    for lo, hi in zip(walls, walls[1:]):
        while k < len(verts) and verts[k].point[0] <= lo:
            density = density + _vertex_term(verts[k], gens[k], eta)
            k += 1
        if not _positive_on_open(density, lo, hi):
            raise InternalError("chamber density is not positive")
        chambers.append(Chamber(lo, hi, density))
    return DHProfile(tuple(walls), tuple(chambers))


def _vertex_term(v: Vertex, gens: list[tuple[int, ...]],
                 eta: tuple[int, ...]) -> Poly:
    """The t^0 coefficient of the vertex term for xi = e_1 + t*eta.

    With a = x_1(v), c = <eta, v>, w_k = <e_1, g_k>, u_k = <eta, g_k> and z
    edges with w_k = 0, the term is

        |det G| (s - a - c t)^(n-1) / ((n-1)! t^z prod_{w=0} u_k
                                        prod_{w!=0} w_k (1 + t u_k/w_k)),

    so its t^0 coefficient pairs the t^j part of the numerator with the
    t^(z-j) part of the series prod_{w!=0} 1/(1 + t u_k/w_k).
    """
    n = len(gens)
    flat = [dot(eta, g) for g in gens if g[0] == 0]
    steep = [(g[0], dot(eta, g)) for g in gens if g[0] != 0]
    z, lcm = len(flat), math.lcm(*(w for w, _ in steep))
    # the t^j coefficient of the series is series[j] / lcm^j
    series = [1] + [0] * z
    for w, u in steep:
        for j in range(1, z + 1):
            series[j] -= u * (lcm // w) * series[j - 1]
    # v = point / q, so a = A / q and c = C / q
    point, q = over_common_denominator(v.point)
    A, C = point[0], dot(eta, point)
    # the coefficients of the powers of (s - a), low first, times (q lcm)^z
    shifted = [0] * n
    for j in range(min(z, n - 1) + 1):
        shifted[n - 1 - j] = (math.comb(n - 1, j) * (-C) ** j * series[z - j]
                              * q ** (z - j) * lcm ** j)
    # and (s - a)^k = (q s - A)^k / q^k, over q^(n-1)
    den = (math.factorial(n - 1) * math.prod(flat) * math.prod(w for w, _ in steep)
           * (q * lcm) ** z * q ** (n - 1))
    det = abs(det_int([list(g) for g in gens]))
    return Poly.over([det * x for x in affine_substitute(shifted, q, -A, q)], den)


def _positive_on_open(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """p > 0 on the open (lo, hi): no root there, and positive at the
    midpoint.  With no root, p keeps one sign there by continuity."""
    return not isolate_roots(p, lo, hi) and p.sign_at((lo + hi) / 2) > 0


# ---------------------------------------------------------------------------
# log-concavity and local minima
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChamberVerdict:
    lo: Fraction
    hi: Fraction
    ok: bool
    witness: Optional[Fraction]


@dataclass(frozen=True)
class WallVerdict:
    wall: Fraction
    ok: bool
    continuous: bool


@dataclass(frozen=True)
class LogConcavityReport:
    ok: bool
    chambers: tuple[ChamberVerdict, ...]
    walls: tuple[WallVerdict, ...]
    first_violation: Optional[str]

    def to_json(self) -> dict:
        return {
            "log_concave": self.ok,
            "chambers": [
                {"lo": format_rational(c.lo), "hi": format_rational(c.hi), "ok": c.ok,
                 "witness": None if c.witness is None else format_rational(c.witness)}
                for c in self.chambers
            ],
            "walls": [
                {"wall": format_rational(w.wall), "ok": w.ok, "continuous": w.continuous}
                for w in self.walls
            ],
            "first_violation": self.first_violation,
        }


def check_log_concavity(profile: DHProfile) -> LogConcavityReport:
    """Exact verdict: mu * mu'' - (mu')^2 <= 0 per chamber, and one-sided
    logarithmic slopes non-increasing across interior walls."""
    chamber_verdicts = []
    first = None
    for ch in profile.chambers:
        p = ch.poly
        g = p * p.derivative().derivative() - p.derivative() * p.derivative()
        ok, witness = nonpositive_on(g, ch.lo, ch.hi)
        chamber_verdicts.append(ChamberVerdict(ch.lo, ch.hi, ok, witness))
        if not ok and first is None:
            first = (f"chamber ({format_rational(ch.lo)}, {format_rational(ch.hi)}): "
                     f"mu*mu'' - mu'^2 > 0 at s = {format_rational(witness)}")
    wall_verdicts = []
    for left, right in zip(profile.chambers, profile.chambers[1:]):
        a = left.hi
        vl, vr = left.poly(a), right.poly(a)
        # (mu'/mu)(a-) >= (mu'/mu)(a+), cross-multiplied
        ok = vl > 0 and vr > 0 and (
            left.poly.derivative()(a) * vr >= right.poly.derivative()(a) * vl)
        wall_verdicts.append(WallVerdict(a, ok, vl == vr))
        if not ok and first is None:
            first = (f"wall {format_rational(a)}: one-sided log-derivative "
                     "increases across the wall")
    all_ok = all(c.ok for c in chamber_verdicts) and all(w.ok for w in wall_verdicts)
    return LogConcavityReport(all_ok, tuple(chamber_verdicts), tuple(wall_verdicts), first)


@dataclass(frozen=True)
class LocalMinimum:
    kind: str                      # "wall" or "chamber"
    location: Optional[Fraction]   # exact point when known
    lo: Fraction
    hi: Fraction

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "location": None if self.location is None else format_rational(self.location),
            "isolating_interval": [format_rational(self.lo), format_rational(self.hi)],
        }


def find_strict_local_minima(profile: DHProfile) -> list[LocalMinimum]:
    """Interior points where the density has a strict local minimum."""
    minima: list[LocalMinimum] = []
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
        left_up = (vl > v) or one_sided_sign(left.poly - Poly([v]), a, -1) > 0
        right_up = (vr > v) or one_sided_sign(right.poly - Poly([v]), a, +1) > 0
        if left_up and right_up:
            minima.append(LocalMinimum("wall", a, a, a))
    minima.sort(key=lambda m: (m.lo, m.hi))
    return minima


# ---------------------------------------------------------------------------
# wall crossing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingVertex:
    point: tuple[Fraction, ...]
    weights: tuple[int, ...]
    vertex_class: object
    multiplicity: int              # m of the one negative weight -m
    exceptional_normal: tuple[int, ...]
    exceptional_slope: Fraction
    coefficient: str               # 2*pi*(s - a)/m: "2*pi*(s - a)", "pi*(s - a)", ..
    image_vertex_ok: bool
    depth_law_ok: bool

    def to_json(self) -> dict:
        return {
            "point": [format_rational(c) for c in self.point],
            "weights": list(self.weights),
            "class": self.vertex_class.to_json(),
            "multiplicity": self.multiplicity,
            "exceptional_normal": list(self.exceptional_normal),
            "exceptional_offset_slope": format_rational(self.exceptional_slope),
            "class_coefficient": self.coefficient,
            "image_vertex_ok": self.image_vertex_ok,
            "depth_law_ok": self.depth_law_ok,
        }


@dataclass(frozen=True)
class WallReport:
    wall: Fraction
    window: Fraction
    vertices: tuple[CrossingVertex, ...]
    match_samples: tuple[tuple[Fraction, bool], ...]
    match: bool
    below_slopes: tuple[tuple[int, tuple[int, ...], Fraction], ...]
    above_slopes: tuple[tuple[tuple[int, ...], Fraction], ...]
    reversed_summary: Optional[dict]
    # per unequal sample: the candidate facet or slice vertex that differs
    mismatches: tuple[tuple[Fraction, str], ...]

    @property
    def ok(self) -> bool:
        return self.match and all(v.image_vertex_ok and v.depth_law_ok
                                  for v in self.vertices)

    def to_json(self) -> dict:
        differs = dict(self.mismatches)
        return {
            "wall": format_rational(self.wall),
            "window": format_rational(self.window),
            "fixed_vertices": [v.to_json() for v in self.vertices],
            "blowup_match": {
                "samples": [
                    {"s": format_rational(s), "equal": eq,
                     **({"differs": differs[s]} if s in differs else {})}
                    for s, eq in self.match_samples
                ],
                "verdict": self.match,
            },
            "euler_slopes": {
                "below": [
                    {"inducing_facet": i, "normal": list(nrm), "slope": format_rational(sl)}
                    for i, nrm, sl in self.below_slopes
                ],
                "above": [
                    {"normal": list(nrm), "slope": format_rational(sl)}
                    for nrm, sl in self.above_slopes
                ],
            },
            "reversed": self.reversed_summary,
            "ok": self.ok,
        }


def wall_crossing_check(P: LabeledPolytope, a: Fraction,
                        window: Optional[Fraction] = None) -> WallReport:
    """Verify that crossing the wall upward blows up the reduced space.

    Each fixed vertex v at the wall needs exactly one negative weight
    <e_1, g_j> = -m on its edge generators and no zero weight; a zero weight
    means a non-isolated fixed component and several negative weights a
    flip, and both are refused.  The facet F = act[j] relaxed by the downward
    edge g_j starts at v, so the reduced polytopes just above the wall must
    equal the continuation of those from below, with F's own continuation
    chopping each continued corner (v + ((a - s)/m) g_j)[1:] at depth
    (s - a) d/m, d = -<nu_F, g_j> (1 at a smooth vertex).  That is a weighted
    blow-up (Godinho 2001) with exceptional class coefficient 2*pi*(s-a)/m:
    2*pi*(s-a) for weights (-1, 1, ..), pi*(s-a) for (-2, 1, ..).
    """
    a = Fraction(a)
    crit = critical_values(P)
    if a not in crit:
        raise WallNotSimpleCrossing(f"no vertex at level {format_rational(a)}")
    gaps = [abs(c - a) for c in crit if c != a]
    if window is None:
        if not gaps:
            raise WallNotSimpleCrossing("single-wall moment image")
        window = min(gaps) / 2
    else:
        window = Fraction(window)
        if window <= 0:
            raise PreconditionError("window must be positive")
        if any(g < window for g in gaps):
            raise PreconditionError("another critical value inside the window")

    # the facet set active on slices below the wall; each sample level is
    # sliced once, and the slices are shared by the checks below
    below_samples = [a - window / 2, a - window / 4]
    above_samples = [a + window / 4, a + window / 2]
    sliced = {s: slice_at(P, s) for s in below_samples}
    below_slices = [sliced[s] for s in below_samples]
    if any(sl.polytope is None for sl in below_slices):
        raise WallNotSimpleCrossing("no reduced space below the wall")
    if sorted(below_slices[0].inducing) != sorted(below_slices[1].inducing):
        raise InternalError("facet set changed below the wall without a critical value")
    below_inducing = sorted(below_slices[0].inducing)

    # each fixed vertex at the wall, with its downward edge g_j and the
    # exceptional facet act[j] that edge relaxes
    crossing = []
    for v in vertices(P):
        if v.point[0] != a:
            continue
        gens = edge_generators(P, v)
        pair = [g[0] for g in gens]
        negs = [k for k, w in enumerate(pair) if w < 0]
        if len(negs) != 1 or 0 in pair:
            raise WallNotSimpleCrossing(
                f"vertex ({', '.join(map(format_rational, v.point))}) has weights "
                f"{sorted(pair)}; need exactly one negative weight and no zero "
                "(a zero weight is a non-isolated fixed component, several "
                "negative weights a flip)")
        j = negs[0]
        crossing.append((v, tuple(sorted(pair)), gens[j], sorted(v.active)[j]))
    exceptional = [f for *_, f in crossing]

    # verification samples above the wall
    sliced.update((s, slice_at(P, s)) for s in above_samples)
    match_samples, mismatches = [], []
    image_ok = [True] * len(crossing)
    depth_ok = [True] * len(crossing)
    for s in above_samples:
        actual = sliced[s].polytope
        if actual is None:
            raise WallNotSimpleCrossing("no reduced space above the wall")
        continued = [slice_facet(P.facets[i], s) for i in below_inducing]
        chops = [slice_facet(P.facets[i], s) for i in exceptional]
        for k, ((v, _, g, f), chop) in enumerate(zip(crossing, chops)):
            m, nu = -g[0], P.facets[f].normal
            corner = tuple(x + (a - s) / m * e for x, e in zip(v.point[1:], g[1:]))
            image_ok[k] &= all(dot(h.normal, corner) <= h.offset for h in continued)
            # depth law measured on the actual slice
            found = [h for h in actual.facets if h.normal == chop.normal]
            depth_ok[k] &= len(found) == 1 and (
                content(nu[1:]) * (dot(chop.normal, corner) - found[0].offset)
                == (s - a) * -dot(nu, g) / m)
        # the candidate is compared with the actual slice's vertices and
        # facets; it takes no structure of its own
        mismatch = canonical_mismatch(continued + chops, actual)
        match_samples.append((s, mismatch is None))
        if mismatch:
            mismatches.append((s, mismatch))

    # Euler data: offset slopes per facet in each adjacent chamber
    below_slopes = tuple((i, *_offset_slope(P, i)) for i in below_inducing)
    above_slopes = tuple(sorted(_offset_slope(P, i)
                                for i in sliced[above_samples[0]].inducing))

    # Crossing the wall downward is the mirror image of crossing it upward:
    # the reversed polytope satisfies slice_rev(-s) = slice(s) exactly, its
    # wall vertices carry the negated weights, and the exceptional class
    # coefficients flip sign.  Verify the mirror identity and the weights.
    rev = reversed_polytope(P)
    rev_weights = sorted(
        weights_at_vertex(rev, v) for v in vertices(rev) if v.point[0] == -a)
    expect = sorted(tuple(sorted(-w for w in ws)) for _, ws, *_ in crossing)
    mirror_ok = all(
        canonical_equal(slice_at(rev, -s).polytope, sliced[s].polytope)
        for s in above_samples + below_samples)
    reversed_summary = {
        "wall": format_rational(-a),
        "weights": [list(w) for w in rev_weights],
        "weights_negated_ok": rev_weights == expect,
        "mirror_slices_ok": mirror_ok,
        "coefficient_sign": "flipped",
        "ok": rev_weights == expect and mirror_ok,
    }

    out_vertices = []
    for k, (v, weights, g, f) in enumerate(crossing):
        normal, slope = _offset_slope(P, f)
        scale = Fraction(2, -g[0])
        out_vertices.append(CrossingVertex(
            point=v.point,
            weights=weights,
            vertex_class=classify_vertex(P, v),
            multiplicity=-g[0],
            exceptional_normal=normal,
            exceptional_slope=slope,
            coefficient=("" if scale == 1 else f"{format_rational(scale)}*")
            + f"pi*(s - {format_rational(a)})",
            image_vertex_ok=image_ok[k],
            depth_law_ok=depth_ok[k],
        ))
    return WallReport(
        wall=a,
        window=window,
        vertices=tuple(out_vertices),
        match_samples=tuple(match_samples),
        match=all(eq for _, eq in match_samples),
        mismatches=tuple(mismatches),
        below_slopes=below_slopes,
        above_slopes=above_slopes,
        reversed_summary=reversed_summary,
    )


def _offset_slope(P: LabeledPolytope, i: int) -> tuple[tuple[int, ...], Fraction]:
    """The normal of facet i's slice and the slope of its offset in s."""
    f = P.facets[i]
    g = content(f.normal[1:])
    return tuple(x // g for x in f.normal[1:]), Fraction(-f.normal[0], g)
