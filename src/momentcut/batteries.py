"""Seeded randomized verification suites for the linear local model.

Each battery runs a fixed number of independent trials against one of the
model identities through one loop, `_run`, and reports the number of
trials that are not ok plus the worst residual seen.  Given the same seed
the reports are bit-for-bit reproducible.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .localmodel import (
    BumpSpec,
    LinearAction,
    MomentAlongFlow,
    _scaled_gap,
    blowup_potential_check,
    check_monotone,
    cut_tameness_identity,
    flow,
    level_membership,
    n_pm,
    psh_criterion,
    psh_test_family,
    solve_time_to_level,
)


def _random_action(rng: np.random.Generator, n_max: int = 4,
                   require_mixed: bool = False) -> LinearAction:
    while True:
        n = int(rng.integers(1, n_max + 1))
        w = tuple(int(x) for x in rng.integers(-3, 4, size=n))
        if all(x == 0 for x in w):
            continue
        if require_mixed and not (any(x > 0 for x in w) and any(x < 0 for x in w)):
            continue
        return LinearAction(w)


def _random_point(rng: np.random.Generator, action: LinearAction) -> np.ndarray:
    n = len(action.weights)
    while True:
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        mask = rng.uniform(size=n) < 0.25
        z[mask] = 0.0
        if not action.is_fixed(z):
            return z


@dataclass(frozen=True)
class BatteryReport:
    name: str
    trials: int
    failures: int
    worst_residual: float
    tolerance: float

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


def _run(name: str, tolerance: float, trials: int, seed: int,
         trial: Callable[[np.random.Generator], tuple[float, bool]]) -> BatteryReport:
    """The battery loop: each call of `trial` draws one trial's inputs from
    the seeded stream and returns (residual, ok).  `failures` counts the
    trials that are not ok."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(trials):
        residual, ok = trial(rng)
        worst = max(worst, float(residual))
        if not ok:
            failures += 1
    return BatteryReport(name, trials, failures, worst, tolerance)


def monotone_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    grid = np.linspace(-3.0, 3.0, 1000)

    def trial(rng):
        action = _random_action(rng)
        rep = check_monotone(action, _random_point(rng, action), grid)
        return rep.derivative_rel_err, rep.ok
    return _run("monotone-flow", 1e-6, trials, seed, trial)


def solve_membership_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    """solve_time_to_level finds a time exactly when the block predicate
    says the level is attained, and the time is the least double t with
    psi(t) >= s: psi(nextafter(t, -inf)) < s <= psi(t).  The residual
    psi(t) - s is judged against 1/2 sum |a_j| |z_j|^2 e^{2 a_j t}."""
    def trial(rng):
        action = _random_action(rng)
        z = _random_point(rng, action)
        s = float(rng.normal() * 2)
        if s == 0.0:
            s = 0.5
        t = solve_time_to_level(action, z, s)
        if (t is None) == level_membership(action, z, s):
            return 0.0, False
        if t is None:
            return 0.0, True
        terms = MomentAlongFlow(action, z).terms(np.array([np.nextafter(t, -np.inf), t]))
        before, at = terms.sum(axis=-1)
        resid = _scaled_gap(at, s, np.abs(terms[1]).sum())
        return resid, before < s <= at and resid <= 1e-12
    return _run("solve-membership", 1e-12, trials, seed, trial)


def npm_scaling_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    """N_pm(e^t z) = e^{+-t} N_pm(z) and N_- N_+ is flow-invariant."""
    def trial(rng):
        action = _random_action(rng, require_mixed=True)
        z = _random_point(rng, action)
        t = float(rng.uniform(-2, 2))
        nm0, np0 = n_pm(action, z)
        nm1, np1 = n_pm(action, flow(action, z, t))
        want = np.array([math.exp(-t) * nm0, math.exp(t) * np0, nm0 * np0])
        rel = _scaled_gap([nm1, np1, nm1 * np1], want, want)
        return rel, rel <= 1e-10
    return _run("n-pm-scaling", 1e-10, trials, seed, trial)


def psh_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    family = psh_test_family(BumpSpec(0.25, 1.0))
    spec_seeds = itertools.count(seed * 100003)

    def trial(rng):
        spec = family[int(rng.integers(0, len(family)))]
        if spec.name == "smoothed-ln":
            t0 = float(rng.uniform(0.01, 2.0))
        else:
            t0 = float(rng.uniform(0.01, 3.0))
        n = int(rng.integers(2, 7))
        rep = psh_criterion(spec, t0, n, seed=next(spec_seeds))
        return rep.rel_err, rep.ok
    return _run("psh-eigenvalues", 1e-9, trials, seed, trial)


def cut_identity_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    def trial(rng):
        action = _random_action(rng)
        z = _random_point(rng, action)
        w = complex(rng.normal(), rng.normal())
        rep = cut_tameness_identity(action, z, w)
        orth = _scaled_gap([rep.orth_1, rep.orth_2], 0.0, rep.orth_scale)
        return max(rep.rel_err, orth), rep.ok
    return _run("cut-tameness", 1e-9, trials, seed, trial)


def blowup_potential_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    bump = BumpSpec(0.25, 1.0)

    def trial(rng):
        action = _random_action(rng, n_max=3)
        n = len(action.weights)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z *= rng.uniform(0.15, 0.4) / np.linalg.norm(z)
        rep = blowup_potential_check(action, z, bump=bump)
        return rep.contraction_rel_err, rep.ok
    return _run("blowup-potential", 1e-5, trials, seed, trial)


ALL_BATTERIES = {
    "monotone": monotone_battery,
    "solve-membership": solve_membership_battery,
    "npm-scaling": npm_scaling_battery,
    "psh": psh_battery,
    "cut-identity": cut_identity_battery,
    "blowup-potential": blowup_potential_battery,
}


def run_all(trials: int = 1000, seed: int = 0) -> list[BatteryReport]:
    return [fn(trials=trials, seed=seed) for fn in ALL_BATTERIES.values()]
