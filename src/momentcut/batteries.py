"""Seeded randomized verification suites for the linear local model.

Each battery runs a fixed number of independent trials against one of the
model identities and reports pass counts plus the worst residual seen.
Given the same seed the reports are bit-for-bit reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localmodel import (
    BumpSpec,
    LinearAction,
    blowup_potential_check,
    check_monotone,
    cut_tameness_identity,
    flow,
    level_membership,
    moment_standard,
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


def monotone_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    rng = np.random.default_rng(seed)
    grid = np.linspace(-3.0, 3.0, 1000)
    failures = 0
    worst = 0.0
    for _ in range(trials):
        action = _random_action(rng)
        z = _random_point(rng, action)
        rep = check_monotone(action, z, grid)
        worst = max(worst, rep.derivative_rel_err)
        if not rep.ok:
            failures += 1
    return BatteryReport("monotone-flow", trials, failures, worst, 1e-6)


def solve_membership_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    """solve_time_to_level finds a time exactly when the block predicate
    says the level is attained, and the time is bracket-independent."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(trials):
        action = _random_action(rng)
        z = _random_point(rng, action)
        s = float(rng.normal() * 2)
        if s == 0.0:
            s = 0.5
        t = solve_time_to_level(action, z, s)
        member = level_membership(action, z, s)
        if (t is None) == member:
            failures += 1
            continue
        if t is not None:
            resid = abs(moment_standard(action, flow(action, z, t)) - s)
            worst = max(worst, resid)
            t2 = solve_time_to_level(action, z, s, bracket0=3.7)
            if t2 is None or abs(t - t2) > 1e-10 * max(1.0, abs(t)):
                failures += 1
            if resid > 1e-12:
                failures += 1
    return BatteryReport("solve-membership", trials, failures, worst, 1e-12)


def npm_scaling_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    """N_pm(e^t z) = e^{+-t} N_pm(z) and N_- N_+ is flow-invariant."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(trials):
        action = _random_action(rng, require_mixed=True)
        z = _random_point(rng, action)
        t = float(rng.uniform(-2, 2))
        nm0, np0 = n_pm(action, z)
        nm1, np1 = n_pm(action, flow(action, z, t))
        for got, want in ((nm1, math.exp(-t) * nm0), (np1, math.exp(t) * np0),
                          (nm1 * np1, nm0 * np0)):
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
            if rel > 1e-10:
                failures += 1
    return BatteryReport("n-pm-scaling", trials, failures, worst, 1e-10)


def psh_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    rng = np.random.default_rng(seed)
    family = psh_test_family(BumpSpec(0.25, 1.0))
    failures = 0
    worst = 0.0
    for k in range(trials):
        spec = family[int(rng.integers(0, len(family)))]
        if spec.name == "smoothed-ln":
            t0 = float(rng.uniform(0.01, 2.0))
        else:
            t0 = float(rng.uniform(0.01, 3.0))
        n = int(rng.integers(2, 7))
        rep = psh_criterion(spec, t0, n, seed=seed * 100003 + k)
        worst = max(worst, rep.rel_err)
        if not rep.ok:
            failures += 1
    return BatteryReport("psh-eigenvalues", trials, failures, worst, 1e-9)


def cut_identity_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(trials):
        action = _random_action(rng)
        z = _random_point(rng, action)
        w = complex(rng.normal(), rng.normal())
        rep = cut_tameness_identity(action, z, w)
        worst = max(worst, rep.rel_err, abs(rep.orth_1), abs(rep.orth_2))
        if not (rep.rel_err <= 1e-9 and abs(rep.orth_1) <= 1e-9
                and abs(rep.orth_2) <= 1e-9):
            failures += 1
    return BatteryReport("cut-tameness", trials, failures, worst, 1e-9)


def blowup_potential_battery(trials: int = 1000, seed: int = 0) -> BatteryReport:
    rng = np.random.default_rng(seed)
    bump = BumpSpec(0.25, 1.0)
    failures = 0
    worst = 0.0
    for _ in range(trials):
        action = _random_action(rng, n_max=3)
        n = len(action.weights)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z *= rng.uniform(0.15, 0.4) / np.linalg.norm(z)
        rep = blowup_potential_check(action, z, bump=bump, h=1e-3)
        worst = max(worst, rep.contraction_rel_err)
        if not rep.ok:
            failures += 1
    return BatteryReport("blowup-potential", trials, failures, worst, 1e-5)


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
