"""Acceptance suite: one test per release criterion, one printed line each.

Everything on the exact side is compared with == at zero tolerance; the
floating-point batteries carry their stated tolerances and seeds.  Run with
`pytest tests/test_acceptance.py -v -s` to see the line per criterion.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from momentcut.batteries import (
    blowup_potential_battery,
    cut_identity_battery,
    monotone_battery,
    npm_scaling_battery,
    psh_battery,
    solve_membership_battery,
)
from momentcut.cli import run
from momentcut.corpus import asymmetric_wedge, chopped_hypercube, delta3, delzant_corpus
from momentcut.dh import (
    Chamber,
    DHProfile,
    check_log_concavity,
    dh_profile,
    find_strict_local_minima,
    wall_crossing_check,
)
from momentcut.localmodel import LinearAction, default_spec, orbital_convexity_probe
from momentcut.ops import BlowupParams, add_fixed_points, blowup, cut
from momentcut.polytope import canonical_equal, slice_at, transform, vertices, volume
from momentcut.ratpoly import Poly

from conftest import regular_levels, volume_by_triangulation

F = Fraction


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_add_fixed_points_pipeline():
    start = time.perf_counter()
    P = asymmetric_wedge()
    Q, ledger, report = add_fixed_points(P, F(1, 4))
    elapsed = time.perf_counter() - start
    at_zero = sorted(p for p, _ in report.new_fixed_vertices)
    ok = (report.agreement_below
          and at_zero == [(F(0), F(-1, 2)), (F(0), F(1, 2))]
          and all(w == (-2, 1) for _, w in report.new_fixed_vertices)
          and elapsed < 1.0)
    _report(1, ok, f"pipeline: 2 fixed vertices at x1=0 with weights (-2,1), "
                   f"agreement on the lower half exact, {elapsed:.3f}s")


def test_criterion_2_smooth_wall_crossing():
    start = time.perf_counter()
    rep = wall_crossing_check(delta3(), F(0), F(1, 2))
    elapsed = time.perf_counter() - start
    v = rep.vertices[0]
    ok = (rep.ok and len(rep.vertices) == 1
          and v.weights == (-1, 1, 1)
          and [F(s) for s, eq in rep.match_samples] == [F(1, 8), F(1, 4)]
          and all(eq for _, eq in rep.match_samples)
          and v.coefficient == "2*pi*(s - 0)"
          and elapsed < 1.0)
    _report(2, ok, f"slice(s) = blowup(continued, depth s) at s=1/8, 1/4 exact, "
                   f"coefficient 2*pi*s, {elapsed:.3f}s")


def test_criterion_3_z2_wall_crossing():
    Q, _, _ = add_fixed_points(asymmetric_wedge(), F(1, 4))
    rep = wall_crossing_check(Q, F(0))
    ok = (rep.ok and len(rep.vertices) == 2
          and all(v.weights == (-2, 1) and v.multiplicity == 2
                  and v.depth_law_ok and v.coefficient == "pi*(s - 0)"
                  for v in rep.vertices))
    _report(3, ok, "Z2 crossing: depth law exact at both samples, coefficient pi*s")


def test_criterion_4_dh_engine():
    start = time.perf_counter()
    P = delta3()
    prof = dh_profile(P)
    left, right = prof.chambers
    rng = random.Random(123)
    oracle_ok = True
    checked = 0
    while checked < 100:
        s = F(rng.randint(-127, 127), 128)
        if s in prof.walls or not prof.walls[0] < s < prof.walls[-1]:
            continue
        checked += 1
        sl = slice_at(P, s)
        if prof.value(s) != (volume_by_triangulation(sl.polytope) if sl.polytope else F(0)):
            oracle_ok = False
    elapsed = time.perf_counter() - start
    ok = (left.poly.degree <= 2 and right.poly.degree <= 2
          and left.poly(F(0)) == right.poly(F(0))
          and prof.total_integral() == F(1, 6) == volume(P)
          and oracle_ok and elapsed < 5.0)
    _report(4, ok, f"degree <= 2 on both chambers, continuous at 0, integral "
                   f"exactly 1/6, 100-sample oracle exact, {elapsed:.3f}s")


def test_criterion_5_log_concavity_corpus():
    corpus = [(name, P) for name, P in delzant_corpus() if P.dim >= 2]
    assert len(corpus) >= 10
    all_ok = True
    for name, P in corpus:
        prof = dh_profile(P)
        if not check_log_concavity(prof).ok or find_strict_local_minima(prof):
            all_ok = False
    vee = DHProfile((F(-1), F(0), F(1)), (
        Chamber(F(-1), F(0), Poly([F(1), F(-1)])),
        Chamber(F(0), F(1), Poly([F(1), F(1)]))))
    minima = find_strict_local_minima(vee)
    flagged = (len(minima) == 1 and minima[0].location == 0
               and not check_log_concavity(vee).ok)
    _report(5, all_ok and flagged,
            f"{len(corpus)} polytopes log-concave with no strict minima; "
            "the glued 1-s / 1+s profile is flagged at 0")


def test_criterion_6_cut_compatibility():
    rng = random.Random(20240811)
    failures = []
    pairs = 0
    for name, P in delzant_corpus():
        if P.dim < 2:
            continue
        for a in regular_levels(P, rng, 5):
            C = cut(P, a)
            for s in regular_levels(P, rng, 5, hi=a):
                pairs += 1
                if not canonical_equal(slice_at(C, s).polytope,
                                       slice_at(P, s).polytope):
                    failures.append((name, a, s))
    _report(6, not failures,
            f"slice(cut(P,a), s) == slice(P, s) exactly on {pairs} pairs")


def test_criterion_7_ledger_multipliers():
    square = delzant_corpus()[0][1]
    _, smooth_ledger = blowup(square, BlowupParams((F(0), F(0)), F(1, 4)))
    C = cut(asymmetric_wedge(), F(1, 4))
    _, z2_ledger = blowup(C, BlowupParams((F(1, 4), F(5, 8)), F(1, 4)))
    ok = (smooth_ledger.terms[0].multiplier == F(1)
          and not smooth_ledger.terms[0].z2
          and z2_ledger.terms[0].multiplier == F(1, 2)
          and z2_ledger.terms[0].z2)
    _report(7, ok, "smooth blow-up records multiplier 1, Z2 records 1/2")


def test_criterion_8_local_model_battery():
    start = time.perf_counter()
    reports = [
        monotone_battery(trials=1000, seed=2024),
        solve_membership_battery(trials=1000, seed=2024),
        npm_scaling_battery(trials=1000, seed=2024),
        psh_battery(trials=1000, seed=2024),
        cut_identity_battery(trials=1000, seed=2024),
        blowup_potential_battery(trials=1000, seed=2024),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed < 12.0
    detail = "; ".join(f"{r.name} worst={r.worst_residual:.1e} (tol {r.tolerance:g})"
                       for r in reports)
    _report(8, ok, f"{detail}; total {elapsed:.1f}s")


def test_criterion_9_performance():
    P = chopped_hypercube()
    # six sets of 200 timed runs of the walk and of volume, three in fresh
    # processes and three at the end of this suite, took at most 5.4 and
    # 0.71 ms (medians 2.2-2.6 and 0.27-0.32 ms) on a 2-vCPU Xeon once each
    # vertex record took |det G_v| off the walk's tableau, so the 0.003 s
    # bound keeps a margin of 4.2x (0.005 s before).  Every time below but
    # t_cli counts this process's CPU time, so a stall of the host fails
    # none.  With bit-mask keys and kept exchange columns, three sets of
    # 200 fresh processes took at most 4.48, 3.57 and 4.42 ms of CPU for
    # the walk (medians 2.3-2.5 ms), and three sets of 200 walks in one
    # process at most 3.82, 2.25 and 3.57 ms, so the 0.015 s bound keeps a
    # 3.3x margin (0.03 and 0.02 s before)
    t0 = time.process_time()
    vs = vertices(P)
    t_vertices = time.process_time() - t0
    # t_ops and t_afp count this process's CPU time, so a stall of the host
    # fails neither: 200 timed runs of their blocks took at most 4.8 and
    # 16.5 ms in one process, and 6.3 and 15.2 ms CPU in 200 fresh ones, on
    # a 2-vCPU Xeon, so the 0.02 s bound keeps a 3x margin; 0.045 s keeps
    # 2.7x, and a bound is never loosened
    c0 = time.process_time()
    t0 = time.process_time()
    vol = volume(P)
    t_volume = time.process_time() - t0
    C = cut(P, F(1, 2))
    Q, _ = blowup(P, BlowupParams(vs[0].point, F(1, 16)))
    eq = canonical_equal(P, P)
    t_ops = time.process_time() - c0
    # the pipeline on P moved down by 1/8, its fresh walk included
    T = transform(P, [[int(i == j) for j in range(4)] for i in range(4)], [F(-1, 8), 0, 0, 0])
    c0 = time.process_time()
    afp = add_fixed_points(T, F(1, 16))[2]
    t_afp = time.process_time() - c0
    t0 = time.process_time()
    prof = dh_profile(P)
    t_dh = time.process_time() - t0
    t0 = time.process_time()
    log_concave = check_log_concavity(prof).ok
    minima = find_strict_local_minima(prof)
    t_signs = time.process_time() - t0
    levels = regular_levels(P, random.Random(9), 16)
    t0 = time.process_time()
    slices = [slice_at(P, s) for s in levels]
    t_slices = time.process_time() - t0
    action = LinearAction((-1, 1))
    spec = default_spec(action)
    # three sets of 200 timed runs of the probe took at most 0.038, 0.038
    # and 0.051 s (medians 0.022 s) on a 2-vCPU Xeon, so the 0.16 s bound
    # keeps a 3x margin
    t0 = time.process_time()
    probe = orbital_convexity_probe(action, spec, trials=100)
    t_probe = time.process_time() - t0
    t0 = time.process_time()
    # the four row batteries; with the draws of four generator calls a trial
    # and one BLAS thread, three sets of 200 timed runs of this block took
    # at most 0.072, 0.050 and 0.055 s (medians 0.030-0.042 s) on a 2-vCPU
    # Xeon, so the 0.22 s bound keeps a 3x margin
    rows = [solve_membership_battery(trials=200, seed=2024),
            cut_identity_battery(trials=200, seed=2024),
            monotone_battery(trials=200, seed=2024),
            blowup_potential_battery(trials=200, seed=2024)]
    t_batteries = time.process_time() - t0
    t0 = time.process_time()
    wall = wall_crossing_check(P, F(3, 4))
    t_wall = time.process_time() - t0
    # an in-process CLI query, which parses only its own op: the best of 5
    # calls after one that loads the op's modules; 200 timed runs of this
    # block took at most 1.14 ms on a 2-vCPU Xeon, so the 4 ms bound keeps a
    # 3x margin (building every command's parser took about 5 ms a call)
    npm = ["local-model", "npm", "--weights=1,-1", "--z=1,2"]
    cli = [run(npm)]
    t_cli = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        cli.append(run(npm))
        t_cli = min(t_cli, time.perf_counter() - t0)
    # 200 timed runs of volume, dh_profile and the two sign checks took at
    # most 1.47, 1.30 and 0.75 ms on a 2-vCPU Xeon, so their bounds keep a
    # margin of 3x or more; with the signs decided on integers, three sets
    # of 200 runs in fresh processes and three at the end of this suite took
    # at most 0.82-1.08 and 1.07-4.70 ms (dh_profile, medians 0.51-0.77 ms)
    # and 0.30-0.39 and 0.37-4.51 ms (the two checks, medians 0.18-0.25 ms),
    # so neither bound has a 3x margin to give up
    ok = (t_vertices < 0.015 and t_volume < 0.003 and t_ops < 0.02 and t_afp < 0.045
          and afp.ok and t_dh < 0.01
          and t_signs < 0.005 and t_slices < 0.1 and t_probe < 0.16 and t_batteries < 0.22
          and t_wall < 0.04 and wall.ok and t_cli < 0.004
          and all(out.exit_code == 0 for out in cli)
          and all(r.ok for r in rows) and len(vs) == 64
          and vol == F(383, 384) and prof.total_integral() == vol and eq
          and log_concave and minima == []
          and all(sl.polytope is not None for sl in slices) and probe.ok)
    _report(9, ok, f"n=4, 24 facets: vertices {t_vertices:.2f}s, volume {t_volume:.3f}s, "
                   f"cut+blowup+volume+equality {t_ops:.3f}s, "
                   f"add-fixed-points {t_afp:.3f}s, dh {t_dh:.3f}s, "
                   f"log-concavity+minima {t_signs:.4f}s, "
                   f"16 slices {t_slices:.3f}s; convexity probe, 100 trials, "
                   f"{t_probe:.3f}s; solve, cut-identity, monotone and blowup-potential "
                   f"batteries, 200 trials, "
                   f"{t_batteries:.3f}s; wall check at 3/4 {t_wall:.4f}s; "
                   f"local-model npm --z in process {t_cli * 1e3:.2f}ms")
