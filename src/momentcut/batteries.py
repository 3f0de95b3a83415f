"""Seeded randomized verification suites for the linear local model.

Each battery runs a fixed number of independent trials against one of the
model identities through one loop, `_run`: it first draws every trial's
inputs from the seeded stream, then judges them in blocks of at most
`BLOCK_ROWS` trials, and reports the number of trials that are not ok plus
the worst residual seen.  Every battery but `psh` judges a block as rows,
with the row form of its check or of the quantities it compares (psi,
the flow and N-/N+); `psh` seeds a generator per trial, so it judges trial
by trial.  No check draws from the stream, so judging after drawing sees
the same inputs, and a seed's reports are bit-for-bit reproducible.

A trial draws in this order, one generator call per array or number: its
action's n, then n weights (again while all are 0, or for `npm` of one
sign); its point's 2n normals, real parts first, then n uniforms, each
below 1/4 zeroing its entry (again while the point is fixed); then its
other numbers, w's two normals in one call.  That is the stream a call per
number or n-array drew before, so a seed gives the same trials as it did.
"""
from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import count, starmap
from typing import Callable, Iterable

import numpy as np

from .localmodel import (
    BumpSpec,
    LinearAction,
    MomentAlongFlow,
    _flow_rows,
    _gaps,
    _n_pm_rows,
    _normal_point,
    _rows,
    _sum_entries,
    blowup_potential_rows,
    cut_identity_rows,
    level_membership,
    monotone_rows,
    psh_criterion,
    psh_test_family,
)


def _random_action(rng: np.random.Generator, n_max: int = 4,
                   require_mixed: bool = False) -> LinearAction:
    while True:
        w = rng.integers(-3, 4, size=rng.integers(1, n_max + 1)).tolist()
        if any(w) and (not require_mixed or min(w) < 0 < max(w)):
            return LinearAction(w)


def _random_point(rng: np.random.Generator, action: LinearAction) -> np.ndarray:
    while True:
        z = _normal_point(rng, len(action.weights))
        z[rng.random(len(z)) < 0.25] = 0.0      # rng.uniform(size=n) to the bit
        if any(a and zj for a, zj in zip(action.weights, z.tolist())):
            return z


class BatteryReport(namedtuple("BatteryReport",
                               "name trials failures worst_residual tolerance")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "battery": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


# the most trials judged at once: a block of rows holds (grid, rows, n)
# doubles in `monotone_rows`, 8 MB at 256 rows of 4 entries
BLOCK_ROWS = 256


def _run(name: str, tolerance: float, trials: int, seed: int,
         draw: Callable[[np.random.Generator], tuple],
         judge: Callable[[list[tuple]], Iterable[tuple[float, bool]]]) -> BatteryReport:
    """The battery loop: `draw` takes one trial's inputs, and `judge` returns
    (residual, ok) per trial of a block, as `partial(starmap, check)` does."""
    rng = np.random.default_rng(seed)
    drawn = [draw(rng) for _ in range(trials)]
    failures = 0
    worst = 0.0
    for start in range(0, trials, BLOCK_ROWS):
        for residual, ok in judge(drawn[start:start + BLOCK_ROWS]):
            worst = max(worst, float(residual))
            if not ok:
                failures += 1
    return BatteryReport(name, trials, failures, worst, tolerance)


def _action_and_point(rng: np.random.Generator, **kwargs) -> tuple:
    action = _random_action(rng, **kwargs)
    return action, _random_point(rng, action)


def monotone_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    grid = np.linspace(-3.0, 3.0, 1000)

    def judge(block):
        return ((rep.derivative_rel_err, rep.ok) for rep in monotone_rows(*zip(*block), grid))
    return _run("monotone-flow", 1e-6, trials, seed, _action_and_point, judge)


def solve_membership_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    """The solver finds a time exactly when the block predicate says the
    level is attained, and the time is the least double t with psi(t) >= s:
    psi(nextafter(t, -inf)) < s <= psi(t).  The residual psi(t) - s is
    judged against 1/2 sum |a_j| |z_j|^2 e^{2 a_j t}.  All trials are solved
    as rows of one `MomentAlongFlow`."""
    def draw(rng):      # a level drawn as +-0.0 is 0.5
        return (*_action_and_point(rng), rng.standard_normal() * 2 or 0.5)

    def judge(drawn):
        actions, zs, levels = zip(*drawn)
        psi = MomentAlongFlow(actions, zs)
        s = np.array(levels)
        t = psi.time_to_level(s)
        found = ~np.isnan(t)
        agree = found == np.array([level_membership(*inputs) for inputs in drawn])
        t = np.where(found, t, 0.0)
        terms = psi.terms(np.stack([np.nextafter(t, -np.inf), t]))
        before, at = _sum_entries(terms)
        resid = _gaps(at, s, _sum_entries(np.abs(terms[1])))
        ok = ~found | ((before < s) & (s <= at) & (resid <= 1e-12))
        return zip(np.where(agree & found, resid, 0.0), agree & ok)
    return _run("solve-membership", 1e-12, trials, seed, draw, judge)


def npm_scaling_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    """N_pm(e^t z) = e^{+-t} N_pm(z) and N_- N_+ is flow-invariant."""
    def draw(rng):
        return (*_action_and_point(rng, require_mixed=True), -2.0 + 4.0 * rng.random())

    def judge(block):
        actions, zs, ts = zip(*block)
        ts, rel = np.array(ts), np.empty(len(block))
        for index, _, a, z in _rows(actions, zs):
            t = ts[list(index)]
            nm0, np0 = _n_pm_rows(a, z)
            nm1, np1 = _n_pm_rows(a, _flow_rows(a, z, t[:, None]))
            want = np.stack([np.exp(-t) * nm0, np.exp(t) * np0, nm0 * np0], axis=-1)
            got = np.stack([nm1, np1, nm1 * np1], axis=-1)
            rel[list(index)] = _gaps(got, want, want).max(axis=-1)
        return zip(rel, rel <= 1e-10)
    return _run("n-pm-scaling", 1e-10, trials, seed, draw, judge)


def psh_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    family = psh_test_family(BumpSpec(0.25, 1.0))
    spec_seeds = count(seed * 100003)

    def draw(rng):
        spec = family[rng.integers(0, len(family))]
        t0 = 0.01 + ((2.0 if spec.name == "smoothed-ln" else 3.0) - 0.01) * rng.random()
        return spec, t0, int(rng.integers(2, 7)), next(spec_seeds)

    def check(spec, t0, n, spec_seed):
        rep = psh_criterion(spec, t0, n, seed=spec_seed)
        return rep.rel_err, rep.ok
    return _run("psh-eigenvalues", 1e-9, trials, seed, draw, partial(starmap, check))


def cut_identity_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    def draw(rng):
        return (*_action_and_point(rng), complex(*rng.normal(size=2).tolist()))

    def judge(block):
        return ((max(rep.rel_err, rep.orth_rel_err), rep.ok)
                for rep in cut_identity_rows(*zip(*block)))
    return _run("cut-tameness", 1e-9, trials, seed, draw, judge)


def blowup_potential_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    bump = BumpSpec(0.25, 1.0)

    def draw(rng):
        action = _random_action(rng, n_max=3)
        z = _normal_point(rng, len(action.weights))
        z *= (0.15 + (0.4 - 0.15) * rng.random()) / np.linalg.norm(z)
        return action, z

    def judge(block):
        return ((rep.contraction_rel_err, rep.ok)
                for rep in blowup_potential_rows(*zip(*block), bump))
    return _run("blowup-potential", 1e-5, trials, seed, draw, judge)


ALL_BATTERIES = {
    "monotone": monotone_battery,
    "solve-membership": solve_membership_battery,
    "npm-scaling": npm_scaling_battery,
    "psh": psh_battery,
    "cut-identity": cut_identity_battery,
    "blowup-potential": blowup_potential_battery,
}
