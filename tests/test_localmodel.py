from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import momentcut.batteries as batteries
from momentcut.batteries import (
    _random_action,
    _random_point,
    blowup_potential_battery,
    cut_identity_battery,
    monotone_battery,
    npm_scaling_battery,
    psh_battery,
    solve_membership_battery,
)
from momentcut.errors import FixedPointInput, InputError, MomentcutError, PreconditionError
from momentcut.localmodel import (
    BumpSpec,
    LinearAction,
    MomentAlongFlow,
    NeighborhoodSpec,
    _d_phi,
    _d_psi,
    _n_pm_rows,
    _pairing_directions,
    _radial_hessian,
    _smoothed_ln,
    _sum_entries,
    bad_annulus_region,
    blowup_potential_rows,
    cut_identity_rows,
    default_spec,
    flow,
    level_membership,
    membership_v,
    monotone_rows,
    n_pm,
    orbital_convexity_probe,
    psh_criterion,
    psh_test_family,
    sample_neighborhood,
    solve_time_to_level,
)

from conftest import (
    bad_annulus_point,
    blowup_potential_check_by_point,
    check_monotone_by_point,
    complex_hessian_by_differences,
    cut_tameness_identity_by_point,
    membership_v_point,
    moment_standard,
    n_pm_by_point,
    npm_scaling_by_trial,
    point_by_point,
    richardson_derivative,
    psi_terms_by_padding,
    sample_neighborhood_by_block,
    solve_time_to_level_by_bisection,
)


# -- flow and moment -----------------------------------------------------------

def test_flow_examples():
    assert flow(LinearAction((1,)), [1.0], 0.0) == pytest.approx([1.0])
    np.testing.assert_allclose(flow(LinearAction((1, -1)), [1, 1], math.log(2)),
                               [2.0, 0.5])


def test_flow_group_law():
    rng = np.random.default_rng(0)
    act = LinearAction((2, -1, 0))
    for _ in range(25):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        t, s = rng.uniform(-1, 1, size=2)
        lhs = flow(act, flow(act, z, t), s)
        rhs = flow(act, z, t + s)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_flow_overflow_guard():
    # e^900 is beyond the doubles: refused, where numpy warned and the old
    # guard let [1e-300] through as inf
    for z in ([1.0], [1e-300]):
        with pytest.raises(PreconditionError, match="^flow: .*overflow"):
            flow(LinearAction((3,)), z, 300.0)


def test_flow_gates_its_point_and_time():
    act = LinearAction((1,))
    # a point of two entries broadcast against one weight
    with pytest.raises(InputError, match="z needs 1 entries, one per weight, got 2"):
        flow(act, [1.0, 2.0], 0.5)
    # nan gave nan+nanj, a string a numpy UFuncTypeError
    for t in (math.nan, math.inf, "1", None, True, 2**1100):
        with pytest.raises(InputError, match="^t must be a finite real number"):
            flow(act, [1.0], t)


def test_moment_examples():
    # psi at t = 0 is 1/2 sum a_j |z_j|^2; a fixed point has no flow terms
    for weights, z, want in (((1,), [math.sqrt(2)], 1.0), ((-1, 2), [1, 1], 0.5),
                             ((-3, 0, 2), [0.5j, 7.0, 1 + 1j], 1.625)):
        act = LinearAction(weights)
        [psi] = MomentAlongFlow([act], [z])(np.zeros(1))
        assert psi == pytest.approx(want) == moment_standard(act, z)
    with pytest.raises(FixedPointInput):
        MomentAlongFlow([LinearAction((5, -7))], [[0, 0]])


# -- monotone --------------------------------------------------------------------

def test_monotone_closed_form():
    rep = monotone_rows([LinearAction((1,))], [[1.0]])[0]
    assert rep.ok


def test_monotone_derivative_value():
    # at t = 0 with weights (-1, 1) and z = (1, 1) the derivative is 2
    act = LinearAction((-1, 1))
    rep = monotone_rows([act], [[1.0, 1.0]], np.linspace(-0.5, 0.5, 101))[0]
    assert rep.ok
    assert sum(np.array(act.weights) ** 2) == 2


def test_monotone_fixed_point_rejected():
    with pytest.raises(FixedPointInput):
        monotone_rows([LinearAction((0,))], [[1.0]])[0]
    with pytest.raises(FixedPointInput):
        monotone_rows([LinearAction((1, 0))], [[0.0, 3.0]])[0]


# -- solver ------------------------------------------------------------------------

def test_solve_closed_form():
    t = solve_time_to_level(LinearAction((1,)), [1.0], 2.0)
    assert t == pytest.approx(0.5 * math.log(4), abs=1e-10)


def test_solve_unattained():
    assert solve_time_to_level(LinearAction((1,)), [1.0], -1.0) is None
    assert solve_time_to_level(LinearAction((-1, 1)), [0.0, 1.0], -1.0) is None


def test_solve_least_double_at_level():
    act = LinearAction((-2, 3))
    z = [0.3 + 0.1j, 0.7]
    t = solve_time_to_level(act, z, 0.25)
    before, at = MomentAlongFlow([act], [z])(np.array([np.nextafter(t, -np.inf), t]))
    assert before < 0.25 <= at


def test_solve_fixed_point_rejected():
    with pytest.raises(FixedPointInput):
        solve_time_to_level(LinearAction((1, 0)), [0.0, 3.0], 1.0)


def test_solve_refuses_overflowing_point():
    # |z| = 2.4e308 has no double; 1e-300 squares to below the doubles but
    # its log does not
    with pytest.raises(PreconditionError, match="overflows"):
        solve_time_to_level(LinearAction((1,)), [1.7e308 + 1.7e308j], 1.0)
    t = solve_time_to_level(LinearAction((1,)), [1e-300], 1.0)
    assert t == pytest.approx((math.log(2) + 600 * math.log(10)) / 2, rel=1e-14)


def _count_psi_evaluations(monkeypatch) -> list:
    """Every evaluation of psi, by the solver or a check, goes through
    `MomentAlongFlow._kept_terms`; the list gets the shape of each t array."""
    calls = []
    kept_terms = MomentAlongFlow._kept_terms

    def counted(self, t):
        calls.append(np.shape(t))
        return kept_terms(self, t)
    monkeypatch.setattr(MomentAlongFlow, "_kept_terms", counted)
    return calls


def test_solve_at_most_66_evaluations(monkeypatch):
    calls = _count_psi_evaluations(monkeypatch)
    for weights, z, s in [((1,), [1.0], 2.0), ((-3, 1, 2), [1e-3, 2j, 0.5], -1e-9),
                          ((-1, 1), [1e150, 1e-150], 1e300)]:
        calls.clear()
        assert solve_time_to_level(LinearAction(weights), z, s) is not None
        assert 0 < len(calls) <= 66


@pytest.mark.parametrize("trials", [20, 200])
def test_solve_battery_at_most_66_evaluations(monkeypatch, trials):
    # the rows are cut in lockstep: the count does not grow with trials,
    # and every evaluation takes all trials at once
    calls = _count_psi_evaluations(monkeypatch)
    assert solve_membership_battery(trials=trials, seed=5).ok
    assert 0 < len(calls) <= 66
    assert all(shape[-1] == trials for shape in calls)


def test_time_to_level_takes_at_most_18_evaluations_on_20_rows(monkeypatch):
    # the ends, then one evaluation per 16-way step, each of 15 cuts per row
    rng = np.random.default_rng(2)
    actions = [_random_action(rng) for _ in range(20)]
    psi = MomentAlongFlow(actions, [_random_point(rng, act) for act in actions])
    calls = _count_psi_evaluations(monkeypatch)
    times = psi.time_to_level(rng.normal(size=20) * 2)
    assert not np.all(np.isnan(times))
    assert 0 < len(calls) <= 18
    assert all(shape[-1] == 20 for shape in calls)


def _bits(t):
    """A solver answer as text that tells every double apart, -0.0 from 0.0."""
    return None if t is None or np.isnan(t) else float(t).hex()


@st.composite
def _solve_rows(draw):
    """(action, z, s): up to 7 weights, |z_j| from 1e-300 to 1e300 with some
    entries 0 (so a point can be fixed), and s spread over 24 decades or
    within two doubles of psi(-max) or psi(+max)."""
    weights = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=7))
    z = []
    for _ in weights:
        mag, phase, zero = draw(st.tuples(st.floats(-300, 300), st.floats(0, 6.3),
                                          st.booleans()))
        z.append(0j if zero else 10.0 ** mag * complex(math.cos(phase), math.sin(phase)))
    action = LinearAction(weights)
    try:
        psi = MomentAlongFlow([action], [z])
    except PreconditionError:           # a fixed point, or one too large
        psi = None
    if draw(st.booleans()) or psi is None:
        s = math.copysign(10.0 ** draw(st.floats(-12, 12)), draw(st.sampled_from([-1, 1])))
    else:
        end = draw(st.sampled_from([-sys.float_info.max, sys.float_info.max]))
        s = float(psi(np.array([end]))[0])
        for _ in range(abs(step := draw(st.integers(-2, 2)))):
            s = float(np.nextafter(s, math.copysign(math.inf, step)))
    return action, z, s


def _solved(solve, *args):
    """The time that solve returns, as _bits, or the type of the
    PreconditionError it raises."""
    try:
        return _bits(solve(*args))
    except PreconditionError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_solve_rows(), min_size=1, max_size=6))
@np.errstate(over="ignore")
def test_row_solver_matches_scalar_bisection(rows):
    # both sides sum the same terms, so a sum that overflows gives them the
    # same answer; a fixed point, and a point where e^t z overflows both sign
    # blocks at once (inf - inf, which would warn as invalid), are refused
    # by both
    want = [_solved(solve_time_to_level_by_bisection, *row) for row in rows]
    for row, answer in zip(rows, want):
        assert _solved(solve_time_to_level, *row) == answer
    refused = [answer for answer in want if isinstance(answer, type)]
    if refused:
        with pytest.raises(PreconditionError) as info:
            MomentAlongFlow([a for a, _, _ in rows], [z for _, z, _ in rows])
        assert type(info.value) is refused[0]
    kept = [k for k, answer in enumerate(want) if not isinstance(answer, type)]
    if kept:
        actions, zs, levels = zip(*(rows[k] for k in kept))
        got = MomentAlongFlow(actions, zs).time_to_level(np.array(levels))
        assert [_bits(t) for t in got] == [want[k] for k in kept]


@pytest.mark.parametrize("z,want", [
    ((1e300, 1e300), None),             # psi(t) = 1e600 sinh(2t): inf - inf near t = 0
    ((1e200, 1e-10), 241.77143476437485),
])
def test_both_blocks_overflowing_at_once_refused(z, want):
    action = LinearAction((-1, 1))
    if want is None:
        with pytest.raises(PreconditionError, match="both sign blocks"):
            solve_time_to_level(action, z, 1.0)
    else:
        assert solve_time_to_level(action, z, 1.0) == want


@st.composite
def _flow_row(draw):
    """(action, z, t0): 1 to 16 nonzero weights, |z_j| from 1e-5 to 1e5, and
    a time whose psi is the row's level."""
    weights = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=16))
    z = [10.0 ** mag * complex(math.cos(phase), math.sin(phase)) for mag, phase in
         draw(st.lists(st.tuples(st.floats(-5, 5), st.floats(0, 6.3)),
                       min_size=len(weights), max_size=len(weights)))]
    return LinearAction(weights), z, draw(st.floats(-2, 2))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_flow_row(), min_size=2, max_size=6))
@example(rows=[(LinearAction((1, 2, 3, -1, 1, 2, 3, -2, 1)),
                [3.0, 1e-3, 0.7j, 2.0, 1e4, 0.3, 5.0, 1e-2, 9.0], 0.1),
               (LinearAction((1,)), [1.0], 0.0)])
def test_rows_of_any_length_sum_as_their_own_point(rows):
    # rows of 1 to 16 terms in one object, padded to the longest: each row's
    # psi and time to level are its one-row object's, bit for bit, whether
    # that object is asked about many times at once or one
    actions, zs, t0 = zip(*rows)
    psi = MomentAlongFlow(actions, zs)
    grid = np.linspace(-2.0, 2.0, 9)
    values = psi(grid[:, None])
    one = [MomentAlongFlow([act], [z]) for act, z in zip(actions, zs)]
    levels = np.array([float(row(np.array([t]))[0]) for row, t in zip(one, t0)])
    times = psi.time_to_level(levels)
    for k, row in enumerate(one):
        assert values[:, k].tobytes() == row(grid[:, None])[:, 0].tobytes()
        assert values[:, k].tobytes() == np.concatenate([row(np.array([t])) for t in grid]).tobytes()
        assert times[k].tobytes() == row.time_to_level(levels[k:k + 1]).tobytes()


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_flow_row(), min_size=1, max_size=6),
       form=st.sampled_from(["rows", "grid", "column", "scalar", "ends"]))
def test_kept_terms_match_the_padded_terms(rows, form):
    # only kept terms are evaluated, term by term over rows ordered longest
    # first; padded back, they are the terms of every row padded with -0.0,
    # for every shape of t, and psi sums them as `_sum_entries` does
    actions, zs, t0 = zip(*rows)
    psi = MomentAlongFlow(actions, zs)
    column = np.linspace(-3.0, 3.0, 7)[:, None]
    t = {"rows": np.array(t0), "grid": column + np.array(t0), "column": column,
         "scalar": np.float64(t0[0]),
         "ends": np.array([-sys.float_info.max, sys.float_info.max])[:, None]}[form]
    want = psi_terms_by_padding(actions, zs, t)
    got = psi.terms(t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert psi(t).tobytes() == _sum_entries(want).tobytes()


class _Wobbling(MomentAlongFlow):
    """psi plus a wobble of amplitude `amp` in t: not monotone in t."""

    def __init__(self, actions, zs, amp: float):
        super().__init__(actions, zs)
        self.amp = amp

    def __call__(self, t):
        return super().__call__(t) + self.amp * np.sin(t)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_flow_row(), min_size=1, max_size=6), amp=st.floats(0.01, 10.0),
       levels=st.lists(st.floats(-20, 20), min_size=6, max_size=6))
def test_time_to_level_keeps_its_bracket_where_psi_is_not_monotone(rows, amp, levels):
    # whatever psi does, the answer t has psi(t-) < s <= psi(t) for the t- just below
    actions, zs, _ = zip(*rows)
    psi = _Wobbling(actions, zs, amp)
    s = np.array(levels[:len(rows)])
    times = psi.time_to_level(s)
    ends = psi(np.array([-sys.float_info.max, sys.float_info.max])[:, None])
    for k, t in enumerate(times.tolist()):
        if not ends[0, k] < s[k] < ends[1, k]:
            assert math.isnan(t)
            continue
        around = np.zeros((2, len(rows)))
        around[:, k] = [np.nextafter(t, -np.inf), t]
        before, at = psi(around)[:, k]
        assert before < s[k] <= at


@pytest.mark.parametrize("seed", range(6))
def test_solve_battery_matches_trial_by_trial_oracle(seed):
    # each trial drawn, solved by the scalar bisection and judged alone
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    for _ in range(40):
        action = _random_action(rng)
        z = _random_point(rng, action)
        s = float(rng.normal() * 2) or 0.5
        t = solve_time_to_level_by_bisection(action, z, s)
        if (t is None) == level_membership(action, z, s):
            failures += 1
        elif t is not None:
            terms = MomentAlongFlow([action], [z]).terms(np.array([np.nextafter(t, -np.inf), t]))
            before, at = terms.sum(axis=-1)
            resid = abs(at - s) / max(np.abs(terms[1]).sum(), 1e-300)
            worst = max(worst, float(resid))
            failures += not (before < s <= at and resid <= 1e-12)
    rep = solve_membership_battery(trials=40, seed=seed)
    assert (rep.failures, rep.worst_residual.hex()) == (failures, worst.hex())


def test_psi_limits_at_extreme_doubles():
    # -max and +max flow every term to 0 or +-inf, never to nan
    big = sys.float_info.max
    psi = MomentAlongFlow([LinearAction((-2, 0, 3))], [[1e200, 5.0, 1e-200]])
    assert psi(np.array([-big, big])).tolist() == [-math.inf, math.inf]
    psi = MomentAlongFlow([LinearAction((1, 2))], [[1.0, 1.0]])
    assert psi(np.array([-big, big])).tolist() == [0.0, math.inf]


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       mags=st.lists(st.floats(-6, 6), min_size=4, max_size=4),
       s=st.floats(-1e6, 1e6), t=st.floats(-50, 50))
def test_psi_nondecreasing_across_adjacent_doubles(weights, mags, s, t):
    act = LinearAction(weights)
    z = [10.0 ** m for m in mags[:len(weights)]]
    if act.is_fixed(z):
        return
    psi = MomentAlongFlow([act], [z])
    root = solve_time_to_level(act, z, s)
    for center in [t] + ([] if root is None else [root]):
        ts = [center]
        for _ in range(40):
            ts.append(float(np.nextafter(ts[-1], np.inf)))
            ts.insert(0, float(np.nextafter(ts[0], -np.inf)))
        assert np.all(np.diff(psi(np.array(ts))) >= 0)


@settings(max_examples=300, deadline=None)
@given(a=st.sampled_from([-3, -2, -1, 1, 2, 3]), c=st.floats(-6, 6),
       s=st.floats(-6, 6))
def test_solve_single_weight_closed_form(a, c, s):
    c, s = 10.0 ** c, math.copysign(10.0 ** s, a)
    t = solve_time_to_level(LinearAction((a,)), [math.sqrt(c)], s)
    assert abs(t - math.log(2 * s / (a * c)) / (2 * a)) <= 1e-14 * max(1.0, abs(t))


def test_membership_examples():
    act = LinearAction((-1, 1))
    assert level_membership(act, [1, 0], 0.5) is False
    assert level_membership(act, [1, 1], -7.0) is True
    assert level_membership(act, [1, 1], 123.0) is True
    assert level_membership(act, [0, 1], 0.5) is True
    assert level_membership(act, [1, 0], 0.0) is False


# -- weighted radii -----------------------------------------------------------------

def test_npm_examples():
    assert n_pm(LinearAction((-1, 1)), [3, 4]) == (3.0, 4.0)
    assert n_pm(LinearAction((-2, 2)), [4, 9]) == (2.0, 3.0)


def test_npm_scaling_law():
    act = LinearAction((-2, 1, 3))
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        t = rng.uniform(-2, 2)
        nm0, np0 = n_pm(act, z)
        nm1, np1 = n_pm(act, flow(act, z, t))
        assert nm1 == pytest.approx(math.exp(-t) * nm0, rel=1e-10)
        assert np1 == pytest.approx(math.exp(t) * np0, rel=1e-10)


def _radii_or_refusal(fn, act, z):
    try:
        return fn(act, z)
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.integers(-3, 3), min_size=1, max_size=7),
       entries=st.lists(st.tuples(st.floats(-320, 308), st.floats(0, 6.3), st.booleans()),
                        min_size=7, max_size=7))
def test_npm_matches_python_float_oracle(weights, entries):
    # the rows take |z_j| and its power 2/|a_j| in numpy, the oracle in
    # Python floats: each rounds a few times per entry, so N_- and N_+ may
    # differ in the last bits (at most 2 ulps on 40 000 random radii); the
    # bound is 4 ulps, and an overflowing sum is refused by both alike
    act = LinearAction(weights)
    z = [0j if zero else 10.0 ** e * complex(math.cos(p), math.sin(p))
         for e, p, zero in entries[:len(weights)]]
    want = _radii_or_refusal(n_pm_by_point, act, z)
    got = _radii_or_refusal(n_pm, act, z)
    if isinstance(want, str):
        assert got == want
    else:
        assert all(abs(g - w) <= 4 * math.ulp(w) for g, w in zip(got, want)), (got, want)


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.integers(-3, 3), min_size=1, max_size=12),
       mags=st.lists(st.floats(-8, 8), min_size=3 * 12, max_size=3 * 12))
def test_npm_of_a_point_is_its_row_in_a_block(weights, mags):
    # one point's N-/N+ and its row's among others are summed by one rule,
    # bit for bit: a sign block broken by entries of the other sign, such as
    # the positive block of (-2, 3, 2, 0, -1, 1, 2), was summed a run at a
    # time for one point and left to right for rows
    act = LinearAction(weights)
    n = len(weights)
    points = np.array([10.0 ** m for m in mags[:3 * n]]).reshape(3, n) * np.exp(1j * np.arange(n))
    rows = np.stack(_n_pm_rows(act.array(), points), axis=-1)
    for point, row in zip(points, rows):
        assert np.array(n_pm(act, point)).tobytes() == row.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_npm_battery_matches_trial_by_trial_oracle(seed):
    # the same trials, each judged alone by `n_pm_by_point` and Python's
    # exp: the residuals are rounding errors, so the worst differ by ulps
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(60):
        action, z = batteries._action_and_point(rng, require_mixed=True)
        residuals.append(npm_scaling_by_trial(action, z, float(rng.uniform(-2, 2))))
    rep = npm_scaling_battery(trials=60, seed=seed)
    assert rep.failures == sum(not r <= 1e-10 for r in residuals)
    assert abs(rep.worst_residual - max(residuals)) <= 2**-50


# -- orbital convexity ----------------------------------------------------------------

# the four actions of the benchmark's probes; (-1, -1, 2) and (-2, 1, 1, 0)
# need a smaller eps_prime than the default for a valid delta
CONVEXITY_WEIGHTS = ((-1, 1), (-2, 3), (-1, -1, 2), (-2, 1, 1, 0))


@settings(max_examples=200, deadline=None)
@given(weights=st.one_of(
           st.sampled_from(CONVEXITY_WEIGHTS + ((0, 2, -1), (0, 0, 3), (1, 2), (-3, -1, -1))),
           st.lists(st.integers(-3, 3), min_size=1, max_size=4)),
       seed=st.integers(0, 2**32), eps=st.floats(0.05, 0.95),
       ratio=st.floats(0.25, 0.99), bound=st.floats(0.1, 4.0))
def test_sampler_matches_the_block_oracle(weights, seed, eps, ratio, bound):
    # the same draws in the same order: each point bit for bit, and the
    # stream left where the oracle, which builds every trial, leaves it
    act = LinearAction(weights)
    spec = NeighborhoodSpec(eps, eps * ratio, 1.0, bound)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = sample_neighborhood(act, spec, rng)
        assert got.tobytes() == sample_neighborhood_by_block(act, spec, oracle).tobytes()
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_convexity_standard_neighborhood():
    act = LinearAction((-1, 1))
    spec = default_spec(act, 0.5, 0.25)
    rep = orbital_convexity_probe(act, spec, trials=300, seed=4)
    assert rep.ok and rep.reentries == 0 and rep.exit_clause_failures == 0


def test_convexity_bad_region_detected():
    act = LinearAction((-1, 1))
    spec = default_spec(act, 0.5, 0.25)
    rep = orbital_convexity_probe(act, spec, trials=50, seed=4,
                                  region=bad_annulus_region(act))
    assert rep.reentries > 0


def test_convexity_half_line_when_positive_block_vanishes():
    act = LinearAction((-1, 1))
    spec = default_spec(act, 0.5, 0.25)

    def sampler(rng):
        z = sample_neighborhood(act, spec, rng)
        z[1] = 0.0
        return z

    rep = orbital_convexity_probe(act, spec, trials=40, seed=6, sampler=sampler)
    assert rep.reentries == 0
    assert rep.half_line_cases == 40


def spec_with_slack(act):
    eps_prime = 0.25
    while True:
        try:
            return default_spec(act, 0.5, eps_prime)
        except PreconditionError:
            eps_prime /= 2


@pytest.mark.parametrize("weights", CONVEXITY_WEIGHTS)
def test_convexity_rows_match_point_oracle(weights):
    act = LinearAction(weights)
    spec = spec_with_slack(act)
    oracle = point_by_point(lambda z: membership_v_point(act, spec, z))
    for seed in range(6):
        assert (orbital_convexity_probe(act, spec, trials=4, seed=seed)
                == orbital_convexity_probe(act, spec, trials=4, seed=seed,
                                           region=oracle))


@pytest.mark.parametrize("weights", CONVEXITY_WEIGHTS)
def test_bad_annulus_rows_match_point_oracle(weights):
    act = LinearAction(weights)
    spec = spec_with_slack(act)
    for seed in range(3):
        rep = orbital_convexity_probe(act, spec, trials=8, seed=seed,
                                      region=bad_annulus_region(act))
        assert rep == orbital_convexity_probe(
            act, spec, trials=8, seed=seed,
            region=point_by_point(bad_annulus_point(act)))
        assert rep.reentries > 0


def test_half_line_rows_match_point_oracle():
    act = LinearAction((-1, 1))
    spec = default_spec(act, 0.5, 0.25)

    def sampler(rng):
        z = sample_neighborhood(act, spec, rng)
        z[1] = 0.0
        return z

    oracle = point_by_point(lambda z: membership_v_point(act, spec, z))
    for seed in range(3):
        rep = orbital_convexity_probe(act, spec, trials=10, seed=seed, sampler=sampler)
        assert rep == orbital_convexity_probe(act, spec, trials=10, seed=seed,
                                              sampler=sampler, region=oracle)
        assert rep.half_line_cases == 10


def test_region_rows_match_point_oracle():
    act = LinearAction((-2, 1, 1, 0))
    spec = spec_with_slack(act)
    rng = np.random.default_rng(3)
    Z = (rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))) * 0.4
    rows = membership_v(act, spec, Z)
    assert rows.shape == (200,) and rows.dtype == bool
    assert rows.tolist() == [membership_v_point(act, spec, z) for z in Z]
    assert 0 < rows.sum() < 200
    assert membership_v(act, spec, Z.reshape(10, 20, 4)).tolist() == \
        rows.reshape(10, 20).tolist()
    annulus = bad_annulus_region(act)(Z)
    assert annulus.tolist() == [bad_annulus_point(act)(z) for z in Z]
    assert 0 < annulus.sum() < 200


def test_convexity_region_called_once_per_trial():
    act = LinearAction((-1, 1))
    spec = default_spec(act, 0.5, 0.25)
    shapes = []

    def counting(Z):
        shapes.append(Z.shape)
        return membership_v(act, spec, Z)

    rep = orbital_convexity_probe(act, spec, trials=7, seed=2, region=counting,
                                  grid_points=301)
    assert shapes == [(301, 2)] * 7
    assert rep == orbital_convexity_probe(act, spec, trials=7, seed=2,
                                          grid_points=301)


def test_default_spec_requires_slack():
    # weight -3 makes the negative-sphere bound tiny, so a fat inner disc
    # in the positive block leaves no room for delta
    with pytest.raises(PreconditionError):
        default_spec(LinearAction((-3, 1)), 0.5, 0.499)
    with pytest.raises(PreconditionError):
        default_spec(LinearAction((-1, 1)), eps=1.5)


# -- psh criterion ----------------------------------------------------------------------

def test_psh_family_values():
    fam = {s.name: s for s in psh_test_family()}
    r = psh_criterion(fam["t"], 0.9, 5)
    assert r.ok and r.kahler and all(abs(e - 1) < 1e-12 for e in r.eigenvalues)
    r = psh_criterion(fam["t^2"], 0.5, 4)
    assert r.ok and r.kahler
    assert sorted(r.closed_form) == pytest.approx([1.0, 1.0, 1.0, 2.0])
    r = psh_criterion(fam["ln"], 0.7, 3)
    assert r.ok and not r.kahler          # f' + t f'' = 0: degenerate
    assert min(r.closed_form) == pytest.approx(0.0, abs=1e-12)


# -- cut identity -----------------------------------------------------------------------

def test_cut_identity_example():
    rep = cut_identity_rows([LinearAction((1,))], [[1.0]], [1.0])[0]
    assert rep.ok
    assert rep.expected == pytest.approx(0.5)


def test_cut_identity_w_zero():
    rep = cut_identity_rows([LinearAction((1,))], [[1.0]], [0.0])[0]
    assert rep.expected == 0.0 and abs(rep.value) <= 1e-12


def test_cut_identity_z_small_limit():
    rep = cut_identity_rows([LinearAction((1,))], [[1e-8]], [1.0])[0]
    assert rep.expected == pytest.approx(0.0, abs=1e-12)


def test_cut_identity_fixed_rejected():
    with pytest.raises(FixedPointInput):
        cut_identity_rows([LinearAction((1,))], [[0.0]], [0.0])[0]
    # not fixed, but |xi'|^2 underflows to 0: refused, not a ZeroDivisionError
    for weights, z, w in (((0,), [0.0], 2.6e-260), ((1,), [1e-200], 1e-200j)):
        with pytest.raises(FixedPointInput):
            cut_identity_rows([LinearAction(weights)], [z], [w])[0]


def test_cut_identity_ignores_the_size_of_a_weight_zero_entry():
    # A = sum a_j^2 |z_j|^2 does not depend on z_0 when a_0 = 0; squaring
    # |z_0| = 1e200 first overflowed, and the point was refused
    act = LinearAction((0, 1))
    rep = cut_identity_rows([act], [[1e200, 1]], [1])[0]
    assert rep.ok and rep == cut_identity_rows([act], [[1, 1]], [1])[0]


def test_cut_identity_draws_its_directions_once_per_length(monkeypatch):
    built = []
    default_rng = np.random.default_rng

    def counted(*args):
        built.append(args)
        return default_rng(*args)
    monkeypatch.setattr(np.random, "default_rng", counted)
    _pairing_directions.cache_clear()
    act, z = LinearAction((1, -2, 3)), [1.0, 0.5j, 2.0]
    first = cut_identity_rows([act], [z], [0.5])[0]
    assert built == [(12345,)]
    assert cut_identity_rows([act], [z], [0.5])[0] == first
    assert cut_identity_rows([LinearAction((0, 1, -1))], [[3.0, 1j, 0.0]], [2.0])[0].ok
    assert built == [(12345,)]          # the same length: no second generator


@pytest.mark.parametrize("m", [1, 2, 5, 9, 17])
def test_pairing_directions_are_the_direction_by_direction_draws(m):
    block = _pairing_directions(m)
    assert block.shape == (6, m) and not block.flags.writeable
    rng = np.random.default_rng(12345)
    for row in block:
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        v /= np.linalg.norm(v)
        assert v.tobytes() == row.tobytes()


# -- blow-up potential --------------------------------------------------------------------

def test_blowup_potential_formula():
    rep = blowup_potential_rows([LinearAction((1, 1))], [[0.3, 0.0]])[0]
    assert rep.phi_formula == pytest.approx(1 / (2 * math.pi) * 0.09 / 0.09)
    assert rep.ok


def test_blowup_potential_sphere_value():
    # on |z| = 1 the potential equals sum a_j |z_j|^2 / (2 pi); widen the
    # cutoff plateau so the sphere is inside it
    bump = BumpSpec(2.0, 4.0)
    z = np.array([0.6, 0.8], dtype=complex)
    rep = blowup_potential_rows([LinearAction((2, 1))], [z], bump)[0]
    want = (2 * 0.36 + 1 * 0.64) / (2 * math.pi)
    assert rep.phi_value == pytest.approx(want, rel=1e-12)
    assert rep.ok


def test_blowup_potential_scaling():
    rep = blowup_potential_rows([LinearAction((1, 2))], [[0.2, 0.1]])[0]
    assert rep.scaling_rel_err <= 1e-9


def test_blowup_potential_step_too_large():
    # the derivatives are closed-form, so no difference step limits how close
    # to the origin z may be: points a stencil of width 0.04 had to refuse
    # are checked, and only z = 0 is refused
    act = LinearAction((1, 1))
    for z in ([0.05, 0.0], [0.03, 0.0], [1e-6, 2e-6j]):
        rep = blowup_potential_rows([act], [z])[0]
        assert rep.ok, rep
        assert rep.phi_formula == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    with pytest.raises(PreconditionError, match="nonzero"):
        blowup_potential_rows([act], [[0.0, 0.0]])[0]


def test_blowup_potential_region_guard():
    # the check needs |z|^2 < r1, where rho = 1
    act = LinearAction((1, -2))
    unit = np.array([0.6, 0.8j])
    for bump in (BumpSpec(), BumpSpec(2.0, 4.0)):
        radius = math.sqrt(bump.r1)
        assert blowup_potential_rows([act], [unit * radius * (1 - 1e-9)], bump)[0].ok
        for factor in (1.0, 1 + 1e-9, 1.8):
            with pytest.raises(PreconditionError, match="r1"):
                blowup_potential_rows([act], [unit * radius * factor], bump)[0]
        with pytest.raises(PreconditionError, match="nonzero"):
            blowup_potential_rows([act], [[0.0, 0.0]], bump)[0]


@pytest.mark.parametrize("z", [[1e160], [3e153 + 3e153j], [1e155, 1e155], [1.0, 1e200j]])
def test_blowup_potential_refuses_a_far_point_by_its_gate(z):
    # a square beyond the doubles is past r1, not an overflow
    act = LinearAction((1,) * len(z))
    with pytest.raises(PreconditionError) as err:
        blowup_potential_rows([act], [z])
    assert str(err.value) == "|z|^2 must stay below r1, inside the rho = 1 region"


@given(p=st.integers(1, 3), q=st.integers(1, 3), r=st.floats(0.01, 0.49),
       eps=st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6]),
       phases=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)))
def test_blowup_potential_where_phi_cancels(p, q, r, eps, phases):
    # weights (p, -q) with p |z1|^2 = q |z2|^2 (1 + eps): Phi is zero or
    # nearly so, and the residuals must still be judged against |a| and |z|
    z = np.array([math.sqrt(q * (1 + eps)), math.sqrt(p)]) * np.exp(1j * np.array(phases))
    z *= r / np.linalg.norm(z)
    rep = blowup_potential_rows([LinearAction((p, -q))], [z])[0]
    assert abs(rep.phi_formula) <= 1e-5
    assert rep.ok, rep


@given(a=st.sampled_from([-3, -2, -1, 1, 2, 3]), r=st.floats(0.01, 0.49),
       phase=st.floats(0, 2 * math.pi))
def test_blowup_potential_single_weight(a, r, phase):
    # the Levi form of ln |z|^2 vanishes on C^1, so the contraction is a
    # difference of two zeros; Phi itself is the constant a / 2 pi
    z = r * complex(math.cos(phase), math.sin(phase))
    rep = blowup_potential_rows([LinearAction((a,))], [[z]])[0]
    assert rep.phi_value == pytest.approx(a / (2 * math.pi), rel=1e-12)
    assert rep.ok, rep


def test_closed_forms_match_finite_differences():
    """The closed-form Hessian of f(|z|^2), d Phi and d psi / dt against
    Richardson-extrapolated finite differences at random points."""
    rng = np.random.default_rng(7)
    bump = BumpSpec(0.25, 1.0)
    profile = _smoothed_ln(bump)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        act = LinearAction(tuple(int(x) for x in rng.choice([-3, -2, -1, 1, 2, 3], size=n)))
        a = act.array()
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z *= rng.uniform(0.15, 0.4) / np.linalg.norm(z)
        t = float(np.sum(np.abs(z) ** 2))
        f1, f2 = profile.f1(t), profile.f2(t)
        size = abs(f1) + t * abs(f2)

        def g(p):
            return profile.f(float(np.sum(np.abs(p) ** 2)))
        fd = complex_hessian_by_differences(g, z, h=1e-3)
        assert np.max(np.abs(_radial_hessian(f1, f2, z) - fd)) <= 1e-8 * size

        def phi(p):
            return profile.f1(float(np.sum(np.abs(p) ** 2))) * float(np.sum(a * np.abs(p) ** 2))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        want = richardson_derivative(lambda s: phi(z + s * v), 1e-4)
        d_phi = _d_phi(a, z, np.sum(a * np.abs(z) ** 2), f1, f2, v)
        assert abs(d_phi - want) <= 1e-10 * 2 * np.max(np.abs(a)) * math.sqrt(t) * size

        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        t0 = float(rng.uniform(-1, 1))
        zt = flow(act, w, t0)
        want = richardson_derivative(lambda s: moment_standard(act, flow(act, w, t0 + s)), 1e-4)
        assert _d_psi(a, zt, a * zt) == pytest.approx(want, rel=1e-9)


# -- seeded batteries (small versions; acceptance runs them at full size) -----------

@pytest.mark.parametrize("battery", [
    monotone_battery, solve_membership_battery, npm_scaling_battery,
    psh_battery, cut_identity_battery, blowup_potential_battery,
])
def test_batteries_small(battery):
    rep = battery(trials=60, seed=11)
    assert rep.ok, rep


@pytest.mark.parametrize("seed", [136, 214])
def test_solve_battery_seeds_once_bracket_dependent(seed):
    # a bracketed solve stopping at |psi - s| <= 1e-12 found two different
    # roots on these seeds
    assert solve_membership_battery(trials=20, seed=seed).ok


def test_batteries_reproducible():
    a = solve_membership_battery(trials=40, seed=3)
    b = solve_membership_battery(trials=40, seed=3)
    assert a == b


# -- the row checks against their per-point oracles -------------------------------------

def _small_point(rng):
    """A point inside |z|^2 < 1/4, where the blow-up check applies, with
    some entries 0 (but not all)."""
    action = _random_action(rng, n_max=4)
    n = len(action.weights)
    while True:
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z[rng.uniform(size=n) < 0.25] = 0.0
        if np.any(z):
            return action, z * rng.uniform(0.01, 0.49) / np.linalg.norm(z)


@pytest.mark.parametrize("seed", range(6))
def test_row_checks_match_point_oracles(seed):
    # one call of each row check over 40 points of lengths 1 to 4, compared
    # report by report with the point's own check; repr tells every double
    # apart, -0.0 from 0.0 and a nan from a number
    rng = np.random.default_rng(seed)
    drawn = [batteries._action_and_point(rng) for _ in range(40)]
    actions, zs = zip(*drawn)
    assert len({len(a.weights) for a in actions}) > 1
    assert any(0 in a.weights for a in actions) and any(not np.all(z) for z in zs)
    for grid in (None, np.linspace(-3.0, 3.0, 1000)):
        got = monotone_rows(actions, zs, grid)
        assert [repr(r) for r in got] == [
            repr(check_monotone_by_point(a, z, grid)) for a, z in drawn]
    ws = [complex(rng.normal(), rng.normal()) if k % 7 else 0j for k in range(40)]
    got = cut_identity_rows(actions, zs, ws)
    assert [repr(r) for r in got] == [
        repr(cut_tameness_identity_by_point(a, z, w)) for (a, z), w in zip(drawn, ws)]
    small = [_small_point(rng) for _ in range(40)]
    for bump in (BumpSpec(0.25, 1.0), BumpSpec(2.0, 4.0)):
        got = blowup_potential_rows(*zip(*small), bump)
        assert [repr(r) for r in got] == [
            repr(blowup_potential_check_by_point(a, z, bump)) for a, z in small]


def test_cut_identity_tiny_w_answers_ok():
    # a valid point whose w is tiny next to z: |w|^2 A = 9.7e-319 is
    # subnormal, so |w|^2 A / (A + |w|^2) was off by 1.77e-6; |w|^2 c is not
    act = LinearAction((-3,))
    z = [2.438765207715675e-30 - 6.294288148635856e-29j]
    w = -6.339210155975502e-133 + 5.1854392914466564e-132j
    rep = cut_identity_rows([act], [z], [w])[0]
    assert repr(rep) == repr(cut_tameness_identity_by_point(act, z, w))
    assert rep.ok and rep.rel_err < 1e-15
    assert rep.value == 2.7290636499295033e-263


def test_cut_identity_names_the_row_that_overflows():
    # the overflow precheck is one test over a block; its refusal names the
    # first row beyond the bound, here the second
    act = LinearAction((1, -2))
    zs = [[1.0, 2.0j], [1e200, 1.0], [3.0, 1e160]]
    overflows = "A + |w|^2 or |w|^2 A overflows double precision"
    with pytest.raises(PreconditionError,
                       match=re.escape(f"{overflows}: sqrt(A + |w|^2) = 1e+200 and")):
        cut_identity_rows([act] * 3, zs, [0.5, 1.0, 2.0])
    # |w| alone can be beyond it, and so can sqrt(A) |w| with both below
    for z, w in (([1.0, 1.0], 1e155), ([1e100, 0.0], 1e60)):
        with pytest.raises(PreconditionError, match=re.escape(overflows)):
            cut_identity_rows([act] * 2, [[1.0, 1.0], z], [1.0, w])


@pytest.mark.parametrize("battery,name", [
    (monotone_battery, "monotone_rows"),
    (cut_identity_battery, "cut_identity_rows"),
    (blowup_potential_battery, "blowup_potential_rows"),
])
def test_battery_judges_each_block_with_one_row_call(monkeypatch, battery, name):
    want = battery(trials=20, seed=3)
    rows = getattr(batteries, name)
    blocks = []

    def counted(*args):
        blocks.append(len(args[0]))
        return rows(*args)
    monkeypatch.setattr(batteries, name, counted)
    monkeypatch.setattr(batteries, "BLOCK_ROWS", 8)
    assert battery(trials=20, seed=3) == want
    assert blocks == [8, 8, 4]


def test_monotone_battery_memory_is_bounded_by_its_blocks():
    # judged at once, 10 000 trials would need (1000, 10000, 4) doubles,
    # 320 MB for one array; blocks of BLOCK_ROWS trials take about 10 MB
    import tracemalloc
    tracemalloc.start()
    try:
        assert monotone_battery(trials=10_000, seed=1).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


# -- one gate for actions, points and levels --------------------------------------

@pytest.mark.parametrize("weights,says", [
    ((0.5,), "weight 0 must be an integer that fits in a double, got 0.5"),
    ((1, "2"), "weight 1 must be an integer that fits in a double, got '2'"),
    ((True,), "weight 0 must be an integer that fits in a double, got True"),
    ((1, 2**1100), "weight 1 must be an integer that fits in a double, got 1"),
    ((-(2**1100),), "weight 0 must be an integer that fits in a double, got -1"),
    (None, "weights must be a sequence of integers, got None"),
    (3, "weights must be a sequence of integers, got 3"),
])
def test_action_refuses_weights_that_are_not_integers(weights, says):
    with pytest.raises(InputError, match="^" + says):
        LinearAction(weights)


def test_action_takes_numpy_integers():
    act = LinearAction(np.array([-2, 0, 3]))
    assert act.weights == (-2, 0, 3) and all(type(a) is int for a in act.weights)
    assert (act.neg, act.zero, act.pos) == ((0,), (1,), (2,))
    assert act.neg is act.neg           # computed once per action


@pytest.mark.parametrize("call", [
    lambda act, z: monotone_rows([act], [z])[0],
    lambda act, z: solve_time_to_level(act, z, 1.0),
    lambda act, z: level_membership(act, z, 1.0),
    lambda act, z: n_pm(act, z),
    lambda act, z: cut_identity_rows([act], [z], [1.0])[0],
    lambda act, z: blowup_potential_rows([act], [z])[0],
    lambda act, z: flow(act, z, 0.5),
], ids=["monotone", "solve", "membership", "npm", "cut-identity", "blowup-potential", "flow"])
def test_every_entry_point_gates_its_point(call):
    act = LinearAction((1, -2))
    # zip would have truncated the point, or indexing it failed
    with pytest.raises(InputError, match="z needs 2 entries, one per weight, got 1"):
        call(act, [0.1])
    for entry, says in ((math.nan, "nan"), ("1", "'1'"), (True, "True"), (None, "None"),
                        (2**1100, "1"), (complex(1, math.inf), r"\(1\+infj\)")):
        with pytest.raises(InputError, match=r"^z\[1\] must be a finite complex number, "
                                             "got " + says):
            call(act, [0.1, entry])
    with pytest.raises(InputError, match="z must be a sequence of 2 complex numbers"):
        call(act, None)


def test_levels_and_w_are_gated():
    act, z = LinearAction((1, -2)), [0.1, 0.2]
    for bad in (math.nan, "1", None, True, 2**1100):
        with pytest.raises(InputError, match="^s "):
            solve_time_to_level(act, z, bad)
        with pytest.raises(InputError, match="^s "):
            level_membership(act, z, bad)
    with pytest.raises(InputError, match="^w must be a finite complex number"):
        cut_identity_rows([act], [z], [complex(0, math.inf)])[0]
    # an infinite level lies beyond psi's range: never attained
    assert solve_time_to_level(act, z, math.inf) is None
    assert level_membership(act, z, math.inf) is False
    assert level_membership(act, z, -math.inf) is False


def test_npm_overflow_is_refused():
    # |z_2|^2 is about 2.7e415: numpy warned and returned inf
    act = LinearAction((-1, -1))
    z = [2.6491435786825835e+52 - 2.340252674769164e+52j,
         -5.224845290929576e+207 - 2.1797843196843264e+206j]
    for radii in (n_pm, n_pm_by_point):
        with pytest.raises(PreconditionError, match="N_- or N_\\+ overflows double precision"):
            radii(act, z)
        with pytest.raises(PreconditionError, match="overflows double precision"):
            radii(LinearAction((1, 2)), [1e200, 1e300])
        assert radii(act, [1e154, 0]) == (1e154, 0.0)


_ANYTHING = (st.floats() | st.complex_numbers() | st.integers(-3, 3)
             | st.sampled_from([2**1100, -(2**1100), 10**308, True, None, "1", "", math.nan]))


@st.composite
def _local_model_call(draw):
    """Arguments for the local-model API: mostly well-formed actions and
    points of sizes from 1e-320 to 1e308, with stray values of any kind and
    wrong lengths a quarter of the time each."""
    weights = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        weights = draw(st.lists(st.integers(-3, 3) | _ANYTHING, max_size=4) | _ANYTHING)
    n = len(weights) if isinstance(weights, list) else 2
    size = (st.floats(-320, 308) | st.floats(-3, 0)).map(lambda e: 10.0 ** e)
    entry = st.tuples(size, st.floats(0, 6.3)).map(
        lambda p: complex(p[0] * math.cos(p[1]), p[0] * math.sin(p[1]))) | st.just(0j)
    z = draw(st.lists(entry, min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        length = draw(st.sampled_from([max(n - 1, 0), n, n + 1]))
        z = draw(st.lists(entry | _ANYTHING, min_size=length, max_size=length) | _ANYTHING)
    s = draw(st.tuples(size, st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])
             | st.just(0.0) | _ANYTHING)
    return weights, z, s, draw(entry | _ANYTHING)


@settings(max_examples=400, deadline=None)
@given(call=_local_model_call())
def test_local_model_api_answers_or_refuses(call):
    # every call answers or raises a MomentcutError: no bare TypeError,
    # ValueError, IndexError or OverflowError, and no numpy warning (the
    # suite turns warnings into errors)
    weights, z, s, w = call
    try:
        act = LinearAction(weights)
    except MomentcutError:
        return
    for fn, args in [(n_pm, (act, z)), (flow, (act, z, s)), (monotone_rows, ([act], [z])),
                     (solve_time_to_level, (act, z, s)), (level_membership, (act, z, s)),
                     (cut_identity_rows, ([act], [z], [w])), (blowup_potential_rows, ([act], [z]))]:
        try:
            fn(*args)
        except MomentcutError:
            pass
