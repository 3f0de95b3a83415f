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

The vertices are read off the polytope's Structure, in its order, along
which x_1 never decreases: the vertices at each wall are one run of it.
|det G_v| is `dets[k]`, made with the vertex's edges (`polytope.Structure`)
and shared with `polytope.volume`.  The vertices at one wall share the level
x_1(v) = a, so their terms are summed as polynomials in (s - a) and shifted
to powers of s once per wall (`_wall_jump`).

Everything here is decided in exact rational arithmetic; inequalities on
whole intervals go through exact root isolation (Descartes' rule of signs,
see `ratpoly`), never sampling floats.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    DimensionMismatch,
    InputError,
    InternalError,
    PreconditionError,
    WallNotSimpleCrossing,
)
from .lattice import (
    content,
    dot,
    exact,
    format_rational,
    generic_direction,
)
from .polytope import (
    LabeledPolytope,
    _simple_points,
    canonical_mismatch,
    critical_values,
    require_bounded,
    slice_at,
    slice_facet,
    vertices,
)
from .ratpoly import (
    Poly,
    _variations,
    affine_substitute,
    gap_samples,
    isolate_roots,
    nonpositive_on,
    one_sided_sign,
)
from .toric import classify_vertex, edge_generators


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class Chamber(namedtuple("Chamber", "lo hi poly")):
    """The density on [lo, hi], a Poly; `slope` lives in the instance dict,
    so there are no `__slots__`."""

    @cached_property
    def slope(self) -> Poly:
        """The derivative of poly, taken once for the sign checks."""
        return self.poly.derivative()

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "coefficients": [format_rational(c) for c in self.poly.coeffs],
        }


class DHProfile(namedtuple("DHProfile", "walls chambers")):
    __slots__ = ()

    def value(self, s: Fraction) -> Fraction:
        s = exact(s, "level")
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
    rows = [row for row, _ in _simple_points(P)]
    flat = {g for es in P.structure().edges for g in es if g[0] == 0}
    eta = (0,) + generic_direction([g[1:] for g in flat], P.dim - 1)[0]
    walls = critical_values(P)
    chambers = []
    density = Poly([])
    k = 0
    for lo, hi in zip(walls, walls[1:]):
        # the run of vertices at x_1 = lo, compared as integers
        start = k
        while k < len(rows) and rows[k][0][0] * lo.denominator <= lo.numerator * rows[k][1]:
            k += 1
        density = density + _wall_jump(P, range(start, k), lo, eta)
        if not _positive_on_open(density, lo, hi):
            raise InternalError("chamber density is not positive")
        chambers.append(Chamber(lo, hi, density))
    return DHProfile(tuple(walls), tuple(chambers))


def _wall_jump(P: LabeledPolytope, ks: Iterable[int], a: Fraction,
               eta: tuple[int, ...]) -> Poly:
    """The jump of the density at the wall a: the sum of the vertex terms of
    the vertices points[ks] of P's Structure, all at x_1 = a.

    Each term comes as integers over a denominator in powers of (s - a); they
    are summed over one common denominator and shifted to powers of s by one
    `affine_substitute`, with a = p / q:

        sum_k c_k (s - a)^k = sum_k c_k (q s - p)^k q^(n-1-k) / q^(n-1).
    """
    st = P.structure()
    total, den = [0] * P.dim, 1
    for k in ks:
        num, d = _vertex_term(st.points[k][0], st.edges[k], st.dets[k], eta)
        common = math.lcm(den, d)
        total = [x * (common // den) + y * (common // d) for x, y in zip(total, num)]
        den = common
    p, q = a.numerator, a.denominator
    return Poly.over(affine_substitute(total, q, -p, q), den * q ** (P.dim - 1))


def _vertex_term(row: tuple[tuple[int, ...], int], gens: tuple[tuple[int, ...], ...],
                 det: int, eta: tuple[int, ...]) -> tuple[list[int], int]:
    """The t^0 coefficient of the vertex term for xi = e_1 + t*eta, at the
    vertex v = row[0] / row[1] with edge generators gens: integer
    coefficients of the powers of (s - a), low first, and their denominator.
    det is |det G|, read off the Structure (`Structure.dets`).

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
    # v = point / q, so c = C / q
    point, q = row
    C = dot(eta, point)
    # the coefficients of the powers of (s - a), low first, times (q lcm)^z
    shifted = [0] * n
    for j in range(min(z, n - 1) + 1):
        shifted[n - 1 - j] = (det * math.comb(n - 1, j) * (-C) ** j * series[z - j]
                              * q ** (z - j) * lcm ** j)
    den = (math.factorial(n - 1) * math.prod(flat) * math.prod(w for w, _ in steep)
           * (q * lcm) ** z)
    return shifted, den


def _positive_on_open(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """p > 0 on the open (lo, hi): the sign a Descartes bound of 0 gives, or
    no root there and positive at the midpoint, as p keeps one sign there."""
    n, sign = _variations(p, lo, hi)
    if n:
        return not isolate_roots(p, lo, hi) and p.sign_at((lo + hi) / 2) > 0
    return sign > 0


# ---------------------------------------------------------------------------
# log-concavity and local minima
# ---------------------------------------------------------------------------

class ChamberVerdict(namedtuple("ChamberVerdict", "lo hi ok witness")):
    __slots__ = ()


class WallVerdict(namedtuple("WallVerdict", "wall ok continuous")):
    __slots__ = ()


class LogConcavityReport(namedtuple("LogConcavityReport",
                                    "ok chambers walls first_violation")):
    __slots__ = ()

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


def _require_profile(profile: DHProfile) -> None:
    """The sign checks' one gate: Chambers with exact bounds and a Poly each."""
    if not isinstance(profile, DHProfile):
        raise InputError(f"profile must be a DHProfile, got {profile!r}")
    for i, ch in enumerate(profile.chambers):
        if not (isinstance(ch, Chamber) and isinstance(ch.poly, Poly)):
            raise InputError(f"chamber {i} must be a Chamber with a Poly density, got {ch!r}")
        exact(ch.lo, f"chamber {i}: lower bound")
        exact(ch.hi, f"chamber {i}: upper bound")


def check_log_concavity(profile: DHProfile) -> LogConcavityReport:
    """Exact verdict: mu * mu'' - (mu')^2 <= 0 per chamber, and one-sided
    logarithmic slopes non-increasing across interior walls."""
    _require_profile(profile)
    chamber_verdicts = []
    first = None
    for ch in profile.chambers:
        # N N'' - N'^2 over den^2 for mu = N / den: c_i c_j j (j - 1 - i) at s^(i + j - 2)
        N, mixed = ch.poly.num, [0] * (2 * len(ch.poly.num))
        for i, x in enumerate(N):
            for j, y in enumerate(N):
                mixed[i + j] += x * y * j * (j - 1 - i)
        ok, witness = nonpositive_on(Poly.over(mixed[2:], ch.poly.den ** 2), ch.lo, ch.hi)
        chamber_verdicts.append(ChamberVerdict(ch.lo, ch.hi, ok, witness))
        if not ok and first is None:
            first = (f"chamber ({format_rational(ch.lo)}, {format_rational(ch.hi)}): "
                     f"mu*mu'' - mu'^2 > 0 at s = {format_rational(witness)}")
    wall_verdicts = []
    for left, right in zip(profile.chambers, profile.chambers[1:]):
        a = left.hi
        # (mu'/mu)(a-) >= (mu'/mu)(a+), on integers over positive ones
        (vl, dl), (vr, dr) = left.poly._value(a), right.poly._value(a)
        (sl, el), (sr, er) = left.slope._value(a), right.slope._value(a)
        ok = vl > 0 and vr > 0 and sl * vr * er * dl >= sr * vl * el * dr
        wall_verdicts.append(WallVerdict(a, ok, vl * dr == vr * dl))
        if not ok and first is None:
            first = (f"wall {format_rational(a)}: one-sided log-derivative "
                     "increases across the wall")
    all_ok = all(c.ok for c in chamber_verdicts) and all(w.ok for w in wall_verdicts)
    return LogConcavityReport(all_ok, tuple(chamber_verdicts), tuple(wall_verdicts), first)


# kind: "wall" or "chamber"; location: the exact point when known, else None
class LocalMinimum(namedtuple("LocalMinimum", "kind location lo hi")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "location": None if self.location is None else format_rational(self.location),
            "isolating_interval": [format_rational(self.lo), format_rational(self.hi)],
        }


def find_strict_local_minima(profile: DHProfile) -> list[LocalMinimum]:
    """Interior points where the density has a strict local minimum."""
    _require_profile(profile)
    minima: list[LocalMinimum] = []
    for ch in profile.chambers:
        d = ch.slope
        markers = isolate_roots(d, ch.lo, ch.hi)
        if not markers:
            continue
        samples = gap_samples(markers, ch.lo, ch.hi)
        for i, m in enumerate(markers):
            if d.sign_at(samples[i]) < 0 and d.sign_at(samples[i + 1]) > 0:
                minima.append(LocalMinimum("chamber", m.exact, m.lo, m.hi))
    for left, right in zip(profile.chambers, profile.chambers[1:]):
        a = left.hi
        # a side at the lower value rises away from a: slope < 0 just left, > 0 just right
        (vl, dl), (vr, dr) = left.poly._value(a), right.poly._value(a)
        left_up = vl * dr > vr * dl or one_sided_sign(left.slope, a, -1) < 0
        right_up = vr * dl > vl * dr or one_sided_sign(right.slope, a, +1) > 0
        if left_up and right_up:
            minima.append(LocalMinimum("wall", a, a, a))
    minima.sort(key=lambda m: (m.lo, m.hi))
    return minima


# ---------------------------------------------------------------------------
# wall crossing
# ---------------------------------------------------------------------------

# multiplicity: m of the one negative weight -m; coefficient: 2*pi*(s - a)/m
# as text, "2*pi*(s - a)", "pi*(s - a)", ..
class CrossingVertex(namedtuple("CrossingVertex", "point weights vertex_class multiplicity "
                                "exceptional_normal exceptional_slope coefficient "
                                "image_vertex_ok depth_law_ok")):
    __slots__ = ()

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


# reversed_summary: the mirror x1 -> -x1, read off the upward check, a dict;
# mismatches: per unequal sample, the candidate facet or slice vertex that differs
class WallReport(namedtuple("WallReport", "wall window vertices match_samples match "
                            "below_slopes above_slopes reversed_summary mismatches")):
    __slots__ = ()

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
    a = exact(a, "level")
    crit = critical_values(P)
    if a not in crit:
        raise WallNotSimpleCrossing(f"no vertex at level {format_rational(a)}")
    gaps = [abs(c - a) for c in crit if c != a]
    if window is None:
        if not gaps:
            raise WallNotSimpleCrossing("single-wall moment image")
        window = min(gaps) / 2
    else:
        window = exact(window, "window")
        if window <= 0:
            raise PreconditionError("window must be positive")
        if any(g < window for g in gaps):
            raise PreconditionError("another critical value inside the window")

    # the facet set active on slices below the wall; each sample level is
    # sliced once, and the slices are shared by the checks below
    below_samples = [a - Fraction(window, 2), a - Fraction(window, 4)]
    above_samples = [a + Fraction(window, 4), a + Fraction(window, 2)]
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
        num, den = v.row
        if num[0] * a.denominator != a.numerator * den:
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
            # the corner (v + t g)[1:] as the row cnum / cden, for v = num / den
            # and t = (a - s) / m = tn / td
            tn = a.numerator * s.denominator - s.numerator * a.denominator
            td = a.denominator * s.denominator * m
            num, den = v.row
            cnum = [x * td + den * tn * e for x, e in zip(num[1:], g[1:])]
            cden = den * td
            image_ok[k] &= all(dot(h.normal, cnum) * h.den <= h.num * cden for h in continued)
            # depth law measured on the actual slice, cross-multiplied:
            # content(nu[1:]) (<chop, corner> - offset) = (s - a) (-<nu, g>) / m
            found = [h for h in actual.facets if h.normal == chop.normal]
            depth_ok[k] &= len(found) == 1 and (
                content(nu[1:]) * (dot(chop.normal, cnum) * found[0].den - found[0].num * cden)
                * td == tn * dot(nu, g) * cden * found[0].den)
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

    # The downward crossing, on the mirror x1 -> -x1, follows from the
    # upward one.  A facet (nu_1, nu') <= o becomes (-nu_1, nu') <= o, whose
    # slice at -s is that of P's facet at s; at a regular level no two
    # facets induce one slice facet (their common (n-2)-face would lie in
    # {x1 = s}), so the labels agree too.  An edge g maps to one of weight
    # -g[0].  Both identities hold by construction; the tests keep their
    # computation on the reversed polytope as an oracle.
    reversed_summary = {
        "wall": format_rational(-a),
        "weights": sorted(sorted(-w for w in ws) for _, ws, *_ in crossing),
        "weights_negated_ok": True,
        "mirror_slices_ok": True,
        "coefficient_sign": "flipped",
        "ok": True,
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
