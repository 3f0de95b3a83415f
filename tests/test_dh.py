from __future__ import annotations

import json
import random
import re
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import momentcut.dh
from momentcut import cli
from momentcut.corpus import asymmetric_wedge, chopped_hypercube, delta3, delzant_corpus
from momentcut.dh import (
    Chamber,
    DHProfile,
    check_log_concavity,
    critical_values,
    dh_profile,
    _positive_on_open,
    find_strict_local_minima,
    wall_crossing_check,
)
from momentcut.errors import InputError, PreconditionError, WallNotSimpleCrossing
from momentcut.ops import BlowupParams, add_fixed_points, blowup
from momentcut.lattice import format_rational, generic_direction
from momentcut.polytope import (Facet, LabeledPolytope, dumps, reversed_polytope, transform,
                                vertices, volume)
from momentcut.ratpoly import Poly, isolate_roots, nonpositive_on
from momentcut.toric import VertexKind

from conftest import (
    chamber_affine_check,
    chopped_box,
    keeping_x1,
    log_concavity_by_fractions,
    mirror_summary_by_reversal,
    mirrored,
    nonpositive_on_by_samples,
    positive_on_open_at_midpoint,
    positive_on_open_by_two_isolations,
    profile_by_slicing,
    random_unimodular,
    slice_volume,
    strict_minima_by_fractions,
    volume_by_triangulation,
)

F = Fraction


def glued_vee():
    """Hand-built density: 1 - s then 1 + s, glued at 0."""
    return DHProfile((F(-1), F(0), F(1)), (
        Chamber(F(-1), F(0), Poly([F(1), F(-1)])),
        Chamber(F(0), F(1), Poly([F(1), F(1)]))))


# -- critical values -----------------------------------------------------------

def test_critical_values(square, d3, pex2):
    assert critical_values(square) == [F(0), F(1)]
    assert critical_values(d3) == [F(-1), F(0), F(1)]
    assert critical_values(pex2) == [F(-1), F(1)]


# -- profiles --------------------------------------------------------------------

def test_profile_square(square):
    prof = dh_profile(square)
    assert len(prof.chambers) == 1
    assert prof.chambers[0].poly == Poly([F(1)])


def test_profile_simplex(simplex2):
    prof = dh_profile(simplex2)
    assert prof.chambers[0].poly == Poly([F(1), F(-1)])


def test_profile_delta3(d3):
    prof = dh_profile(d3)
    assert prof.walls == (F(-1), F(0), F(1))
    left, right = prof.chambers
    assert left.poly == Poly([F(1, 8), F(1, 4), F(1, 8)])       # (1+s)^2/8
    assert right.poly == Poly([F(1, 8), F(1, 4), F(-3, 8)])     # (1+2s-3s^2)/8
    assert left.poly(F(0)) == right.poly(F(0))                  # continuous
    assert prof.total_integral() == F(1, 6) == volume(d3)


def test_profile_matches_slices_at_random_levels(d3):
    rng = random.Random(123)
    prof = dh_profile(d3)
    for _ in range(100):
        num = rng.randint(-127, 127)
        s = F(num, 128)
        if s in prof.walls:
            continue
        assert prof.value(s) == slice_volume(d3, s)


def _oracle_cases() -> list[tuple[str, LabeledPolytope]]:
    rng = random.Random(2024)
    base = [(name, P) for name, P in delzant_corpus() if P.dim >= 2]
    base.append(("wedge+afp", add_fixed_points(asymmetric_wedge(), F(1, 4))[0]))
    for n, depth in ((3, F(1, 3)), (4, F(1, 4))):
        corners = [bits for bits in product((0, 1), repeat=n) if rng.random() < 0.5]
        base.append((f"chopped-{n}-cube", chopped_box(n, corners, depth)))
    images = []
    for name, P in base:
        b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(P.dim)]
        images.append((f"{name} x1-kept", transform(P, keeping_x1(rng, P.dim), b)))
        images.append((f"{name} image", transform(P, random_unimodular(rng, P.dim), b)))
    cases = base + images
    return cases + [(f"{name} reversed", reversed_polytope(P)) for name, P in cases]


@pytest.mark.parametrize("P", [pytest.param(P, id=name) for name, P in _oracle_cases()])
def test_profile_matches_slicing_oracle(P):
    prof, oracle = dh_profile(P), profile_by_slicing(P)
    assert prof.walls == oracle.walls
    for ch, want in zip(prof.chambers, oracle.chambers):
        assert ch == want, (ch.lo, ch.hi)
    assert prof == oracle


def test_profile_invariant_under_maps_keeping_x1():
    rng = random.Random(11)
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        Q = transform(P, keeping_x1(rng, P.dim), [F(0)] + [F(1, 3)] * (P.dim - 1))
        assert dh_profile(Q) == dh_profile(P), name


def test_profile_takes_no_slices(monkeypatch):
    def no_slicing(*args):
        raise AssertionError("dh_profile sliced the polytope")
    monkeypatch.setattr(momentcut.dh, "slice_at", no_slicing)
    P = chopped_hypercube()
    assert dh_profile(P).total_integral() == volume(P)


def _calls(codes: dict, run):
    """run() and the first argument of each call of each named code object
    during it, seen by a profile hook: a call counts under whatever name
    it was imported."""
    names = {code: name for name, code in codes.items()}
    calls = defaultdict(list)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]].append(frame.f_locals[frame.f_code.co_varnames[0]])
    before = sys.getprofile()
    sys.setprofile(count)
    try:
        return run(), calls
    finally:
        sys.setprofile(before)


def test_volume_and_profile_share_one_record_per_vertex(monkeypatch):
    # both sums read |det G_v| off the vertex records, which the walk fills
    # from its tableau: no determinant is eliminated (64, one per vertex,
    # when the structure took them by det_int); the profile shifts each
    # wall's vertex terms to powers of s at once, and a Fraction is built
    # only for the levels and the values handed back: each chamber's
    # positivity is the sign Descartes' bound of 0 gives, with no midpoint
    P = chopped_hypercube()
    shifts = []
    substitute = momentcut.dh.affine_substitute
    monkeypatch.setattr(momentcut.dh, "affine_substitute",
                        lambda *args: shifts.append(args) or substitute(*args))
    (vol, prof), calls = _calls({"det_int": momentcut.lattice.det_int.__code__,
                                 "Fraction": Fraction.__new__.__code__},
                                lambda: (volume(P), dh_profile(P)))
    assert vol == F(383, 384) and prof.total_integral() == vol
    assert calls["det_int"] == [] and len(P.structure().points) == 64
    assert len(shifts) == len(prof.walls) - 1 == 3
    # 273 when each vertex term took its own determinant and the vertices
    # were sorted by their Fraction points, 17 when each chamber's
    # positivity was read at its midpoint
    assert len(calls["Fraction"]) == 5


def test_blowup_volume_takes_no_edge_determinant():
    # a corner chop's n new vertices take |det G_w| in closed form from the
    # corner's, and the kept vertices keep theirs; the corner's class reads
    # the lattice index of its active normals off its record too (one
    # det_int when it eliminated them)
    P = chopped_hypercube()
    corner = vertices(P)[21]
    vol, calls = _calls({"det_int": momentcut.lattice.det_int.__code__},
                        lambda: volume(blowup(P, BlowupParams(corner.point, F(1, 16)))[0]))
    assert calls["det_int"] == []
    assert vol == F(383, 384) - F(1, 16) ** 4 / 24


@pytest.mark.parametrize("facets,message", [
    ([Facet((-1, 0), F(0)), Facet((0, -1), F(0)), Facet((0, 1), F(1))], r"along \[1, 0\]"),
    ([Facet((0, -1), F(0)), Facet((0, 1), F(1))], "no vertex"),
], ids=["half-strip", "strip"])
def test_profile_refuses_unbounded_region(facets, message):
    with pytest.raises(PreconditionError, match=message):
        dh_profile(LabeledPolytope(2, facets))


def test_profile_integrates_to_volume_on_corpus():
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        prof = dh_profile(P)
        assert prof.total_integral() == volume(P), name


def _volume_oracle_cases() -> list[tuple]:
    """Chopped 3- and 4-cubes with random corner sets, each with a unimodular
    map that does not keep x1, so the image has other walls and edges."""
    rng = random.Random(31)
    cases = []
    for n, depth, count in ((3, F(1, 3), 4), (4, F(1, 4), 3)):
        e1 = [1] + [0] * (n - 1)
        for k in range(count):
            corners = [bits for bits in product((0, 1), repeat=n) if rng.random() < 0.5]
            A = random_unimodular(rng, n)
            while A[0] == e1:
                A = random_unimodular(rng, n)
            b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            cases.append((f"chopped-{n}-cube-{k}", chopped_box(n, corners, depth), A, b))
    return cases


@pytest.mark.parametrize("P,A,b", [pytest.param(P, A, b, id=name)
                                   for name, P, A, b in _volume_oracle_cases()])
def test_volume_matches_profile_and_images(P, A, b):
    vol = volume(P)
    assert vol == volume_by_triangulation(P)
    Q = transform(P, A, b)
    assert volume(Q) == vol
    assert dh_profile(P).total_integral() == vol
    assert dh_profile(Q).total_integral() == vol


def test_profile_mirror(d3, pex2):
    for P in (d3, pex2):
        rev = dh_profile(reversed_polytope(P))
        assert rev.walls == mirrored(dh_profile(P)).walls
        for ch, mh in zip(rev.chambers, mirrored(dh_profile(P)).chambers):
            assert ch.poly == mh.poly and (ch.lo, ch.hi) == (mh.lo, mh.hi)


def test_profile_continuity_at_interior_walls():
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        prof = dh_profile(P)
        for left, right in zip(prof.chambers, prof.chambers[1:]):
            assert left.poly(left.hi) == right.poly(left.hi), name


# -- log-concavity ----------------------------------------------------------------

def test_log_concavity_linear():
    prof = DHProfile((F(0), F(1)), (Chamber(F(0), F(1), Poly([F(1), F(-1)])),))
    assert check_log_concavity(prof).ok


def test_log_concavity_constant():
    prof = DHProfile((F(0), F(1)), (Chamber(F(0), F(1), Poly([F(1)])),))
    assert check_log_concavity(prof).ok


def test_log_concavity_glued_violation():
    rep = check_log_concavity(glued_vee())
    assert not rep.ok
    assert "wall 0" in rep.first_violation


def test_log_concavity_corpus():
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        assert check_log_concavity(dh_profile(P)).ok, name


# -- strict local minima -------------------------------------------------------------

def test_minima_linear_profile_empty():
    prof = DHProfile((F(0), F(1)), (Chamber(F(0), F(1), Poly([F(1), F(-1)])),))
    assert find_strict_local_minima(prof) == []


def test_minima_glued():
    minima = find_strict_local_minima(glued_vee())
    assert len(minima) == 1
    assert minima[0].kind == "wall" and minima[0].location == 0


def test_minima_parabola_max_not_min():
    prof = DHProfile((F(-1), F(1)),
                     (Chamber(F(-1), F(1), Poly([F(1), F(0), F(-1)])),))
    assert find_strict_local_minima(prof) == []


def test_minima_interior_parabola():
    # (s - 1/3)^2 + 1 has a strict minimum at 1/3
    prof = DHProfile((F(0), F(1)),
                     (Chamber(F(0), F(1), Poly([F(10, 9), F(-2, 3), F(1)])),))
    minima = find_strict_local_minima(prof)
    assert len(minima) == 1
    assert minima[0].kind == "chamber" and minima[0].location == F(1, 3)


def test_minima_corpus_empty():
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        assert find_strict_local_minima(dh_profile(P)) == [], name


# -- the sign checks against their Fraction oracles ------------------------------------

_RATIONAL = st.fractions(-6, 6, max_denominator=4)


@st.composite
def _hand_profiles(draw):
    """A hand-built profile on 1-4 chambers with random rational walls.  A
    density of degree 0-6 is zero, constant, random, or c (s - r)^k q with r
    at a wall or inside its chamber, k = 1..3 (double and triple roots, a
    flat side at a wall); it is then glued to its left neighbour's value at
    the wall (tied) or left as it is (discontinuous, or tied by chance)."""
    walls = sorted(set(draw(st.lists(_RATIONAL, min_size=2, max_size=5))))
    if len(walls) < 2:
        walls.append(walls[0] + 1)
    chambers = []
    for lo, hi in zip(walls, walls[1:]):
        kind = draw(st.sampled_from(["zero", "constant", "random", "root"]))
        if kind == "zero":
            p = Poly([])
        elif kind == "constant":
            p = Poly([draw(_RATIONAL)])
        elif kind == "random":
            p = Poly(draw(st.lists(_RATIONAL, max_size=7)))
        else:
            r = draw(st.sampled_from([lo, hi, (lo + hi) / 2, lo + (hi - lo) / 3]))
            p = Poly(draw(st.lists(_RATIONAL, min_size=1, max_size=4)))
            for _ in range(draw(st.integers(1, 3))):
                p = p * Poly([-r, F(1)])
        if chambers and draw(st.booleans()):
            p = p + Poly([chambers[-1].poly(lo) - p(lo)])
        chambers.append(Chamber(lo, hi, p))
    return DHProfile(tuple(walls), tuple(chambers))


def _assert_signs_match_oracles(prof: DHProfile):
    assert check_log_concavity(prof) == log_concavity_by_fractions(prof)
    assert find_strict_local_minima(prof) == strict_minima_by_fractions(prof)
    for ch in prof.chambers:
        d1 = ch.poly.derivative()
        for p in (ch.poly, -ch.poly, ch.poly * d1.derivative() - d1 * d1):
            assert _positive_on_open(p, ch.lo, ch.hi) == positive_on_open_at_midpoint(
                p, ch.lo, ch.hi)
            assert nonpositive_on(p, ch.lo, ch.hi) == nonpositive_on_by_samples(
                p, ch.lo, ch.hi)


def _flat_sided(left: list, right: list) -> DHProfile:
    """Densities on (-1, 0) and (0, 1) from integer coefficients."""
    return DHProfile((F(-1), F(0), F(1)), (Chamber(F(-1), F(0), Poly(left)),
                                           Chamber(F(0), F(1), Poly(right))))


# tied walls whose left side is flat at the wall, so that its slope's first
# nonzero derivative there is of odd order and the left twist decides:
# 1 + s^2 and 1 - s^3 rise to the left of 0 (a wall minimum with 1 + s),
# 1 - s^2 falls (none)
@example(prof=_flat_sided([1, 0, 1], [1, 1]))
@example(prof=_flat_sided([1, 0, 0, -1], [1, 1]))
@example(prof=_flat_sided([1, 0, -1], [1, 1]))
@settings(max_examples=400, deadline=None)
@given(prof=_hand_profiles())
def test_sign_checks_match_fraction_oracles_on_hand_built_profiles(prof):
    _assert_signs_match_oracles(prof)


def test_sign_checks_match_fraction_oracles_on_corpus_and_images():
    rng = random.Random(35)
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        _assert_signs_match_oracles(dh_profile(P))
        A = random_unimodular(rng, P.dim)
        _assert_signs_match_oracles(dh_profile(transform(P, A, [F(1, 3)] * P.dim)))


def test_sign_checks_take_no_fraction_polynomial():
    # mu mu'' - mu'^2 is built on the integer numerators, wall values and
    # slopes are compared as integers, and every chamber's sign is the one
    # Descartes' bound of 0 gives: 40 Fractions and 4 Poly([v]) when these
    # were decided on Fraction values
    prof = dh_profile(chopped_hypercube())
    (report, minima), calls = _calls(
        {"Poly": Poly.__init__.__code__, "Fraction": Fraction.__new__.__code__},
        lambda: (check_log_concavity(prof), find_strict_local_minima(prof)))
    assert report.ok and minima == []
    assert calls["Poly"] == [] and calls["Fraction"] == []


@pytest.mark.parametrize("profile,message", [
    (DHProfile((0.0, 1.0), (Chamber(0.0, 1.0, Poly([F(1)])),)),
     "chamber 0: lower bound must be an integer or a Fraction, got 0.0"),
    (DHProfile((F(0), F(1), F(2)), (Chamber(F(0), F(1), Poly([F(1)])),
                                    Chamber(F(1), F(2), [1]))),
     r"chamber 1 must be a Chamber with a Poly density, got Chamber\(lo=Fraction\(1, 1\)"),
    (DHProfile((F(0), F(1)), ((F(0), F(1), Poly([F(1)])),)),
     r"chamber 0 must be a Chamber with a Poly density, got \(Fraction"),
    ({"walls": [0, 1]}, "profile must be a DHProfile"),
], ids=["float-bounds", "list-density", "bare-tuple", "dict"])
def test_sign_checks_refuse_a_hand_built_profile_by_chamber(profile, message):
    for check in (check_log_concavity, find_strict_local_minima):
        with pytest.raises(InputError, match=message):
            check(profile)


# -- chamber stability ---------------------------------------------------------------

def test_chamber_affine_square(square):
    assert chamber_affine_check(square, (F(1, 4), F(3, 4)))


def test_chamber_affine_delta3(d3):
    assert chamber_affine_check(d3, (F(-3, 4), F(-1, 4)))


def test_chamber_affine_rejects_wall(d3):
    with pytest.raises(PreconditionError):
        chamber_affine_check(d3, (F(-1, 4), F(1, 4)))


# -- wall crossing -----------------------------------------------------------------

def test_wall_crossing_delta3(d3):
    rep = wall_crossing_check(d3, F(0), F(1, 2))
    assert rep.ok and rep.match
    assert [F(s) for s, _ in rep.match_samples] == [F(1, 8), F(1, 4)]
    assert len(rep.vertices) == 1
    v = rep.vertices[0]
    assert v.weights == (-1, 1, 1) and v.multiplicity == 1
    assert v.coefficient == "2*pi*(s - 0)"
    assert v.depth_law_ok and v.image_vertex_ok
    # one extra facet above the wall
    assert len(rep.above_slopes) == len(rep.below_slopes) + 1
    assert rep.reversed_summary["ok"]


def test_wall_crossing_z2(pex2):
    Q, _, _ = add_fixed_points(pex2, F(1, 4))
    rep = wall_crossing_check(Q, F(0))
    assert rep.ok and rep.match
    assert len(rep.vertices) == 2
    for v in rep.vertices:
        assert v.weights == (-2, 1) and v.multiplicity == 2
        assert v.coefficient == "pi*(s - 0)"
        assert v.depth_law_ok
    assert rep.reversed_summary["ok"]


def test_wall_crossing_no_vertex(square):
    with pytest.raises(WallNotSimpleCrossing):
        wall_crossing_check(square, F(1, 2))


def test_wall_crossing_endpoint_rejected(d3):
    with pytest.raises(WallNotSimpleCrossing):
        wall_crossing_check(d3, F(-1))


def test_wall_crossing_window_too_wide(d3):
    with pytest.raises(PreconditionError):
        wall_crossing_check(d3, F(0), F(2))


_ROOT = st.sampled_from(["lo", "hi", "mid"]) | st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(_ROOT, max_size=3), cs=st.lists(
           st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=3),
       lo=st.fractions(-2, 2, max_denominator=4),
       width=st.fractions(1, 3, max_denominator=4))
def test_positive_on_open_matches_two_isolation_oracle(roots, cs, lo, width):
    # roots at the ends and the midpoint are the cases where one isolation
    # and one sample could differ from two isolations
    hi = lo + width
    at = {"lo": lo, "hi": hi, "mid": (lo + hi) / 2}
    p = Poly(cs)
    for r in roots:
        p = p * Poly([-at.get(r, r), F(1)])
    if p.is_zero():
        assert not _positive_on_open(p, lo, hi)
        return
    assert _positive_on_open(p, lo, hi) == positive_on_open_by_two_isolations(p, lo, hi)


def test_profile_value_positive_inside(d3):
    prof = dh_profile(d3)
    rng = random.Random(5)
    for _ in range(50):
        s = F(rng.randint(-127, 127), 128)
        if prof.walls[0] < s < prof.walls[-1] and s not in prof.walls:
            assert prof.value(s) > 0


def test_unequal_match_sample_names_what_differs(monkeypatch, d3):
    # candidate facets moved inward above the wall cut off a slice vertex
    slice_facet = momentcut.dh.slice_facet

    def inward(f, s):
        h = slice_facet(f, s)
        return Facet(h.normal, h.offset - F(1, 64), h.label) if s > 0 else h
    monkeypatch.setattr(momentcut.dh, "slice_facet", inward)
    rep = wall_crossing_check(d3, F(0), F(1, 2))
    assert not rep.match and not rep.ok
    samples = rep.to_json()["blowup_match"]["samples"]
    assert [sample["equal"] for sample in samples] == [False, False]
    for sample in samples:
        assert re.fullmatch(r"candidate facet \[.*\] <= \S+ fails at the vertex \(.*\)",
                            sample["differs"]), sample["differs"]


def test_wall_check_slices_each_level_once(monkeypatch, d3):
    # four sample levels on P (two below the wall, two above), and no slice
    # of any other polytope: the mirror block is read off P's
    counts = Counter()
    slice_at = momentcut.dh.slice_at

    def counting(Q, s):
        counts["P" if Q is d3 else id(Q)] += 1
        return slice_at(Q, s)
    monkeypatch.setattr(momentcut.dh, "slice_at", counting)
    assert wall_crossing_check(d3, F(0), F(1, 2)).ok
    assert counts == {"P": 4}


def test_mirror_block_matches_reversal_oracle():
    # every interior wall that answers gives the reversed block that the
    # reversed polytope itself gives; among the wall vertices are index-2
    # ones and, on a relabeled delta3, ones on a facet of label 2
    d3 = delta3()
    labeled = LabeledPolytope(3, [f._replace(label=2) if f.normal[0] else f
                                  for f in d3.facets])
    cases = _oracle_cases() + [("delta3 labeled", labeled)] + [
        (str(w), _polytope(dim, facets)) for w, (dim, _, facets) in _SINGLE_NEGATIVE_WALLS.items()]
    answered, kinds = Counter(), Counter()
    for name, P in cases:
        for a in critical_values(P)[1:-1]:
            try:
                rep = wall_crossing_check(P, a)
            except WallNotSimpleCrossing:
                continue
            assert rep.reversed_summary == mirror_summary_by_reversal(P, a, rep.window), (name, a)
            answered[name] += 1
            kinds.update(v.vertex_class.kind for v in rep.vertices)
    assert answered.total() >= 40 and answered["delta3 labeled"] == 1
    assert kinds[VertexKind.Z2_SINGULAR] and kinds[VertexKind.OTHER_ORBIFOLD]


def _polytope(dim: int, facets) -> LabeledPolytope:
    return LabeledPolytope(dim, [Facet(nrm, F(off)) for nrm, off in facets])


def _jump_matches_localization(P: LabeledPolytope, a: Fraction) -> bool:
    """The jump of the slice-volume profile at the wall a equals the sum of
    the localization terms of the wall vertices: triangulation against
    localization.  No wall vertex has a zero weight, so the terms do not
    depend on the perturbation eta."""
    chambers = profile_by_slicing(P).chambers
    left = next(ch for ch in chambers if ch.hi == a)
    right = next(ch for ch in chambers if ch.lo == a)
    eta = (0,) + generic_direction([], P.dim - 1)[0]
    ks = [k for k, ((num, den), _) in enumerate(P.structure().points) if F(num[0], den) == a]
    return right.poly - left.poly == momentcut.dh._wall_jump(P, ks, a, eta)


# Walls whose vertex has one negative weight -m and other weights not all
# 1, from random surgery chains (unimodular images of corpus members and
# their add-fixed-points results), and a (-1, 1) vertex of lattice index 2,
# where the chop lies at depth 2(s - a): d = -<nu_F, g_j> = 2.
_SINGLE_NEGATIVE_WALLS = {
    (-1, 1): (2, F(0), [((-1, -1), "0"), ((1, -1), "0"), ((0, 1), "2"), ((-1, 0), "1")]),
    (-2, 3): (2, F(3, 4), [((-3, 5), "-25/4"), ((1, -2), "11/4"), ((2, -3), "9/2")]),
    (-3, 2): (2, F(-3), [((-1, -2), "0"), ((0, -1), "-1"), ((1, 2), "1"), ((1, 3), "3")]),
    (-1, 1, 3): (3, F(-13, 4), [
        ((-1, 0, -1), "3/2"), ((-1, 2, 0), "1/2"), ((0, -3, -1), "7/2"),
        ((0, -1, 0), "7/4"), ((0, 1, 0), "-3/4"), ((1, -2, 0), "1/2"), ((1, 0, 1), "-1/2")]),
    (-1, 2, 3): (3, F(7, 3), [
        ((-1, 0, -2), "1/6"), ((0, -2, 1), "1/4"), ((0, 1, 0), "-1/2"),
        ((0, 2, -1), "3/4"), ((1, -1, 2), "4/3")]),
    (-2, 1, 4): (3, F(10, 3), [
        ((-1, 0, -2), "1/6"), ((0, -2, 1), "1/4"), ((0, 1, 0), "-1/2"),
        ((0, 2, -1), "3/4"), ((1, -1, 2), "4/3")]),
}


@pytest.mark.parametrize("weights", list(_SINGLE_NEGATIVE_WALLS), ids=str)
def test_wall_crossing_any_single_negative_weight(weights):
    dim, a, facets = _SINGLE_NEGATIVE_WALLS[weights]
    P = _polytope(dim, facets)
    rep = wall_crossing_check(P, a)
    assert rep.ok and rep.reversed_summary["ok"]
    [v] = rep.vertices
    m = -weights[0]
    assert v.weights == weights and v.multiplicity == m
    assert v.coefficient == {1: "2*", 2: "", 3: "2/3*"}[m] + f"pi*(s - {a})"
    assert _jump_matches_localization(P, a)


@pytest.mark.parametrize("weights,dim,a,facets", [
    ("[-1, 0, 2]", 3, F(-3), [
        ((-1, -2, -2), "6"), ((0, -1, 0), "-1"), ((0, 0, -1), "3"),
        ((0, 1, 1), "-1"), ((1, 2, 2), "-5")]),
    ("[-2, -1, 1]", 3, F(-3, 4), [
        ((-1, 0, -1), "-2"), ((0, -1, 0), "1/2"), ((0, 0, -1), "-3"), ((0, 0, 1), "4"),
        ((0, 1, 0), "1/2"), ((1, 0, 1), "3"), ((1, 1, 2), "29/4")]),
], ids=["zero-weight", "flip"])
def test_wall_crossing_refuses_zero_weight_and_flip(weights, dim, a, facets):
    with pytest.raises(WallNotSimpleCrossing, match=re.escape(f"has weights {weights}")):
        wall_crossing_check(_polytope(dim, facets), a)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), picks=st.integers(0, 255), depth=st.sampled_from(
    [F(1, 8), F(1, 4), F(1, 3)]), seed=st.integers(0, 2**32))
def test_wall_crossing_matches_localization(n, picks, depth, seed):
    # every interior wall of a chopped box image answers ok or is refused
    # for a zero weight or a flip, and on each ok wall the crossing agrees
    # with the jump of the slice-volume profile
    corners = [bits for k, bits in enumerate(product((0, 1), repeat=n)) if picks >> k & 1]
    rng = random.Random(seed)
    b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    P = transform(chopped_box(n, corners, depth), random_unimodular(rng, n), b)
    for a in critical_values(P)[1:-1]:
        try:
            rep = wall_crossing_check(P, a)
        except WallNotSimpleCrossing as exc:
            assert "need exactly one negative weight" in str(exc)
            continue
        assert rep.ok
        assert _jump_matches_localization(P, a)


# -- pinned output ----------------------------------------------------------------

# `dh --check-log-concavity --local-minima` payloads, root markers and the
# reports of a hand-built profile, as the per-coefficient Fraction
# implementation of `ratpoly.Poly` printed them
_PINNED_DH = {
    "delta3": ('{"log_concavity": {"chambers": [{"hi": "0", "lo": "-1", '
               '"ok": true, "witness": null}, {"hi": "1", "lo": "0", "ok": true, '
               '"witness": null}], "first_violation": null, "log_concave": true, '
               '"walls": [{"continuous": true, "ok": true, "wall": "0"}]}, '
               '"profile": {"chambers": [{"coefficients": ["1/8", "1/4", "1/8"], '
               '"hi": "0", "lo": "-1"}, {"coefficients": ["1/8", "1/4", "-3/8"], '
               '"hi": "1", "lo": "0"}], "walls": ["-1", "0", "1"]}, '
               '"strict_local_minima": [], "total_integral": "1/6"}'),
    "chopped_hypercube": ('{"log_concavity": {"chambers": [{"hi": "1/4", "lo": "0", '
                          '"ok": true, "witness": null}, {"hi": "3/4", "lo": "1/4", '
                          '"ok": true, "witness": null}, {"hi": "1", "lo": "3/4", '
                          '"ok": true, "witness": null}], "first_violation": null, '
                          '"log_concave": true, "walls": [{"continuous": true, "ok": true, '
                          '"wall": "1/4"}, {"continuous": true, "ok": true, '
                          '"wall": "3/4"}]}, '
                          '"profile": {"chambers": [{"coefficients": ["47/48", "1/4", "-1", '
                          '"4/3"], "hi": "1/4", "lo": "0"}, {"coefficients": ["1"], '
                          '"hi": "3/4", "lo": "1/4"}, {"coefficients": ["25/16", "-9/4", '
                          '"3", "-4/3"], "hi": "1", "lo": "3/4"}], "walls": ["0", "1/4", '
                          '"3/4", "1"]}, "strict_local_minima": [], '
                          '"total_integral": "383/384"}'),
}
# root markers (lo, hi, exact) on (a, b) of a product of factors, low degree
# first: irrational roots, rational roots at bisection points (the inputs of
# test_bisection_through_an_exact_root), double roots, a large denominator
_PINNED_MARKERS = [
    (([-1, 1], [-2, 0, 1], [3, 1]), (-10, 10),           # (s-1)(s^2-2)(s+3)
     "(-5,-5/2,-) (-5/2,0,-) (0,5/4,-) (5/4,5/2,-)"),
    (([0, -1, -1, 1],), (-3, 1), "(-1,-1/2,-) (0,0,0)"),
    (([F(1, 3), -3, F(-1, 3), 3],), (-3, 2), "(-7/4,-1/2,-) (-1/2,3/4,-) (3/4,11/8,-)"),
    (([F(-1, 16), 0, 1], [F(1, 16), 0, -1]), (-1, 1), "(-1/4,-1/4,-1/4) (1/4,1/4,1/4)"),
    (([F(-1, 7), 4, 0, -5, 0, 1],), (-3, 3),
     "(-9/4,-3/2,-) (-3/2,0,-) (0,3/4,-) (3/4,3/2,-) (3/2,9/4,-)"),
    (([F(-2, 9), 0, 1], [F(-1, 1000), 1], [F(13, 17)]), (-1, 1),
     "(-1/2,0,-) (0,1/4,-) (1/4,1/2,-)"),
]
_PINNED_HAND_BUILT = ('{"log_concavity": {"chambers": [{"hi": "0", "lo": "-1", '
                      '"ok": true, "witness": null}, {"hi": "1", "lo": "0", "ok": false, '
                      '"witness": "1/2"}, {"hi": "2", "lo": "1", "ok": false, '
                      '"witness": "2"}], "first_violation": "chamber (0, '
                      '1): mu*mu\'\' - mu\'^2 > 0 at s = 1/2", "log_concave": false, '
                      '"walls": [{"continuous": false, "ok": true, "wall": "0"}, '
                      '{"continuous": false, "ok": true, "wall": "1"}]}, '
                      '"strict_local_minima": [{"isolating_interval": ["1/2", "1/2"], '
                      '"kind": "chamber", "location": "1/2"}, '
                      '{"isolating_interval": ["3/2", "7/4"], "kind": "chamber", '
                      '"location": null}]}')


def test_dh_output_pinned(tmp_path):
    for name, P in [("delta3", delta3()), ("chopped_hypercube", chopped_hypercube())]:
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(P))
        out = cli.run(["dh", "--in", str(path), "--check-log-concavity", "--local-minima"])
        assert out.exit_code == 0
        assert json.dumps(out.payload, sort_keys=True) == _PINNED_DH[name], name

    def fmt(x):
        return "-" if x is None else format_rational(x)

    for factors, (a, b), want in _PINNED_MARKERS:
        p = Poly([1])
        for f in factors:
            p = p * Poly(f)
        got = " ".join(f"({fmt(m.lo)},{fmt(m.hi)},{fmt(m.exact)})"
                       for m in isolate_roots(p, F(a), F(b)))
        assert got == want, factors

    prof = DHProfile((F(-1), F(0), F(1), F(2)), (
        Chamber(F(-1), F(0), Poly([F(1), F(-1)])),
        Chamber(F(0), F(1), Poly([F(1, 2), F(-1), F(1)])),      # minimum at 1/2
        Chamber(F(1), F(2), Poly([F(1), F(11, 5), F(-3, 2), F(1, 3)]))))  # at 3/2 + sqrt(1/20)
    got = {"log_concavity": check_log_concavity(prof).to_json(),
           "strict_local_minima": [m.to_json() for m in find_strict_local_minima(prof)]}
    assert json.dumps(got, sort_keys=True) == _PINNED_HAND_BUILT
