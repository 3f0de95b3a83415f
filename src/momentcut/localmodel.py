"""Floating-point verifier for linear circle actions on C^n.

The model is C^n with the standard symplectic form, the standard complex
structure, and the action lambda . z = (lambda^{a_1} z_1, ..); the moment
map is psi(z) = 1/2 sum a_j |z_j|^2.  Each function here checks one of the
analytic identities of that model numerically: monotonicity of psi along
the real flow e^t, the time-to-level solver, the weighted radii N-/N+ and
orbital convexity of the model neighborhoods, the plurisubharmonicity
eigenvalue identity, the cut tameness fraction, and the blow-up potential
contraction.

Every derivative is in closed form: d psi(v) = sum a_j Re(conj(z_j) v_j),
and the complex Hessian of a radial potential f(|z|^2) is
f'(t) I + f''(t) conj(z) z^T at t = |z|^2.  Every report judges its
residuals by one rule: `_scaled_gap` measures |got - want| in units of a
scale computed from the magnitudes of the inputs (|a|, |z|, |f'|, |f''|),
never from the quantity under test, so a value that cancels to near zero is
not judged against itself.  A report is ok when each residual is within
the report's published tolerance.

Regions of C^n are row predicates: `membership_v` and `bad_annulus_region`
take an array of points of shape (..., n) and return one bool per point,
and `orbital_convexity_probe` hands a region a whole flow line at once.
`n_pm` is the single-point definition of the weighted radii; the rows
compute the same sums with array operations.

Along the real flow, psi(e^t z) is one increasing real function of t,
`MomentAlongFlow`, and the time to level s is the least double t with
psi(t) >= s, found for many points at once as rows bisected in lockstep.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FixedPointInput, PreconditionError

EXP_LIMIT = 700.0  # log of the largest safe double
_LOG_MAX = math.log(sys.float_info.max)
_ROOT_MAX = math.sqrt(sys.float_info.max) * (1 - 2**-30)  # less a margin for rounding


@dataclass(frozen=True)
class LinearAction:
    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise PreconditionError("need at least one weight")
        object.__setattr__(self, "weights", tuple(int(a) for a in self.weights))

    @property
    def neg(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.weights) if a < 0)

    @property
    def pos(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.weights) if a > 0)

    @property
    def zero(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.weights) if a == 0)

    def array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def is_fixed(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=complex)
        return bool(np.all(np.abs(z[self.array() != 0]) == 0.0))


def flow(action: LinearAction, z: Sequence[complex], t: float) -> np.ndarray:
    """(e^{a_j t} z_j)_j, with an explicit overflow guard."""
    z = np.asarray(z, dtype=complex)
    a = action.array()
    with np.errstate(divide="ignore"):
        logs = a * t + np.log(np.where(np.abs(z) > 0, np.abs(z), 1.0))
    if np.any(logs[np.abs(z) > 0] > EXP_LIMIT):
        raise PreconditionError(f"flow to t={t} overflows double precision")
    return z * np.exp(a * t)


def moment_standard(action: LinearAction, z: Sequence[complex]) -> float:
    z = np.asarray(z, dtype=complex)
    return float(0.5 * np.sum(action.array() * np.abs(z) ** 2))


def _d_psi(a: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d psi_a at z along v, for points and directions of shape (..., n)."""
    return np.sum(a * np.real(np.conj(z) * v), axis=-1)


def _omega(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The standard symplectic form on vectors of shape (..., n)."""
    return np.sum(np.imag(np.conj(u) * v), axis=-1)


def _gaps(got, want, scale) -> np.ndarray:
    """|got - want| in units of `scale`, elementwise.

    `scale` is a magnitude computed from the inputs of a check, so that the
    gap stays meaningful where `want` cancels to near zero.
    """
    return np.abs(np.subtract(got, want)) / np.maximum(scale, 1e-300)


def _scaled_gap(got, want, scale) -> float:
    """The largest of the `_gaps`."""
    return float(np.max(_gaps(got, want, scale)))


# ---------------------------------------------------------------------------
# psi along the flow, monotone flow and the time-to-level solver
# ---------------------------------------------------------------------------

def _flow_terms(action: LinearAction, z: Sequence[complex]) -> list[tuple[float, float]]:
    """(2 a_j, L_j = ln(|a_j| c_j / 2)) for each j with a_j z_j != 0.

    A positive term overflows for t > (ln(max double) - L_j) / (2 a_j), a
    negative one for t below it; a point where both kinds overflow at one t
    (within a few ulps), so that psi is inf - inf, is refused."""
    # a handful of terms: plain floats build them faster than arrays
    kept = [(a, math.hypot(zj.real, zj.imag))
            for a, zj in zip(action.weights, map(complex, z)) if a and zj]
    if not kept:
        raise FixedPointInput("the point is fixed by the action")
    if any(r == math.inf for _, r in kept):
        raise PreconditionError("|z_j| overflows double precision")
    terms = [(2.0 * a, math.log(abs(a) / 2) + 2 * math.log(r)) for a, r in kept]
    # with every L_j below ln(max double) - 1 the ranges lie on either side of 0
    if max(ln for _, ln in terms) > _LOG_MAX - 1:
        up = min(((_LOG_MAX - ln) / a2 for a2, ln in terms if a2 > 0), default=math.inf)
        down = max(((_LOG_MAX - ln) / a2 for a2, ln in terms if a2 < 0), default=-math.inf)
        if up - down <= 4 * math.ulp(max(_LOG_MAX, *(abs(ln) for _, ln in terms))):
            raise PreconditionError(
                f"psi(e^t z) overflows in both sign blocks at once for t from {up!r} "
                f"to {down!r}, where it would be inf - inf; the point is too large")
    return terms


def _key_doubles(k: np.ndarray) -> np.ndarray:
    """The doubles of int64 ranks in the natural order of the doubles: rank
    k >= 0 is the double with bits k, and rank -k its negative."""
    return np.where(k >= 0, k, -k | np.int64(-1 << 63)).view(np.float64)


class MomentAlongFlow:
    """t -> psi(e^t z) = 1/2 sum a_j c_j e^{2 a_j t}, c_j = |z_j|^2, over an
    array of t.  The terms with a_j z_j != 0 are kept, as sign(a_j)
    exp(2 a_j t + ln(|a_j| c_j / 2)) so that no c_j over- or underflows; a
    fixed point, which keeps none, is refused.  A term can overflow to
    +-inf, but a point where terms of both signs overflow at one t is
    refused too (see `_flow_terms`), so the sum is never nan.
    `rows` takes many points: t then has one entry per row in its last axis."""

    def __init__(self, action: LinearAction, z: Sequence[complex]):
        self.two_a, self.log_half_ac = map(np.array, zip(*_flow_terms(action, z)))

    @classmethod
    def rows(cls, actions: Sequence[LinearAction],
             zs: Sequence[Sequence[complex]]) -> "MomentAlongFlow":
        """One row per point, padded after its own terms with 2a = 0, ln = -inf
        (terms that are exactly 0).  numpy sums fewer than 8 terms from left
        to right, so only there does padding keep each row's sum exact."""
        rows = [_flow_terms(action, z) for action, z in zip(actions, zs)]
        width = max(map(len, rows))
        if width >= 8 and any(len(row) < width for row in rows):
            raise PreconditionError("rows of 8 or more terms must all have as many")
        psi = cls.__new__(cls)
        psi.two_a, psi.log_half_ac = np.array(
            [row + [(0.0, -math.inf)] * (width - len(row)) for row in rows]).transpose(2, 0, 1)
        return psi

    def terms(self, t) -> np.ndarray:
        """The terms 1/2 a_j c_j e^{2 a_j t}, of shape t.shape + (k,)."""
        with np.errstate(over="ignore"):
            exp = np.exp(np.asarray(t)[..., None] * self.two_a + self.log_half_ac)
        return np.copysign(exp, self.two_a)

    def __call__(self, t) -> np.ndarray:
        return self.terms(t).sum(axis=-1)

    def time_to_level(self, s) -> np.ndarray:
        """Per row, the least double t with psi(t) >= s, or nan when s is
        outside (psi(-max), psi(+max)), the float psi's open range.  All rows
        are bisected in lockstep over the ranks of the doubles, keeping
        psi(lo) < s <= psi(hi): one psi call for the ends, one per step."""
        s = np.asarray(s, dtype=float)
        hi = np.full(s.shape, 0x7FEF_FFFF_FFFF_FFFF, dtype=np.int64)  # the largest double
        lo = -hi
        at_lo, at_hi = self(_key_doubles(np.stack([lo, hi])))
        attained = (at_lo < s) & (s < at_hi)
        while np.any(lo + 1 < hi):      # hi - lo overflows at the start
            # floor((lo + hi) / 2), which keeps a finished row at lo
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
            below = self(_key_doubles(mid)) < s
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return np.where(attained, _key_doubles(hi), np.nan)


@dataclass(frozen=True)
class MonotoneReport:
    strictly_increasing: bool
    derivative_rel_err: float
    grid_points: int

    @property
    def ok(self) -> bool:
        return self.strictly_increasing and self.derivative_rel_err <= 1e-6


def check_monotone(action: LinearAction, z: Sequence[complex],
                   t_grid: Optional[np.ndarray] = None) -> MonotoneReport:
    """psi(e^t z) strictly increasing on the grid, with derivative |xi_M|^2.

    At probes of the grid, the closed-form d psi(a z_t) along the flow's
    velocity a z_t is compared with omega(xi, J xi) for xi = i a z_t.
    """
    psi = MomentAlongFlow(action, z)
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


def solve_time_to_level(action: LinearAction, z: Sequence[complex],
                        s: float) -> Optional[float]:
    """The least double t with psi(e^t z) >= s, or None when s is outside
    (psi(-max), psi(+max)): `MomentAlongFlow.time_to_level` of one point."""
    t = MomentAlongFlow(action, z).time_to_level(s)
    return None if np.isnan(t) else float(t)


def level_membership(action: LinearAction, z: Sequence[complex], s: float) -> bool:
    """Block predicate for s in psi(C^x . z).

    s > 0 needs the positive-weight block of z to be non-zero, s < 0 the
    negative block, and s = 0 both.
    """
    z = np.asarray(z, dtype=complex)
    if action.is_fixed(z):
        raise FixedPointInput("the point is fixed by the action")
    has_neg = any(abs(z[j]) > 0 for j in action.neg)
    has_pos = any(abs(z[j]) > 0 for j in action.pos)
    if s > 0:
        return has_pos
    if s < 0:
        return has_neg
    return has_neg and has_pos


# ---------------------------------------------------------------------------
# weighted radii and orbital convexity
# ---------------------------------------------------------------------------

def n_pm(action: LinearAction, z: Sequence[complex]) -> tuple[float, float]:
    """N_-(z) and N_+(z): (sum |z_j|^{2/|a_j|})^{1/2} over the sign blocks."""
    z = np.asarray(z, dtype=complex)
    out = []
    for block in (action.neg, action.pos):
        if not block:
            out.append(0.0)
            continue
        total = sum(abs(z[j]) ** (2.0 / abs(action.weights[j])) for j in block)
        out.append(math.sqrt(total))
    return out[0], out[1]


@dataclass(frozen=True)
class NeighborhoodSpec:
    eps: float
    eps_prime: float
    delta: float
    compact_bound: float = 1.0

    def __post_init__(self):
        if not (0 < self.eps_prime < self.eps):
            raise PreconditionError("need 0 < eps_prime < eps")
        if self.delta <= 0:
            raise PreconditionError("delta must be positive")


def default_spec(action: LinearAction, eps: float = 0.5,
                 eps_prime: float = 0.25) -> NeighborhoodSpec:
    """A provably valid delta for the model neighborhood.

    On the sphere N_+ = eps the positive moment part is at least
    (1/2) k^{1-amax} eps^{2 amax}; on the disc N_- < eps' the negative part
    is at most (1/2) amax' eps'^{2 amin'}.  delta takes 90% of the slack,
    using the worse of the two exit directions.
    """
    if eps >= 1:
        raise PreconditionError("eps must be < 1 for the model bounds")
    sides = []
    for sphere_block, disc_block in ((action.pos, action.neg),
                                     (action.neg, action.pos)):
        if not sphere_block:
            continue
        a_sphere = [abs(action.weights[j]) for j in sphere_block]
        lower = 0.5 * len(a_sphere) ** (1 - max(a_sphere)) * eps ** (2 * max(a_sphere))
        if disc_block:
            a_disc = [abs(action.weights[j]) for j in disc_block]
            upper = 0.5 * max(a_disc) * (eps_prime**2) ** min(a_disc)
        else:
            upper = 0.0
        sides.append(lower - upper)
    if not sides:
        raise PreconditionError("the action has no nonzero weight")
    delta = 0.9 * min(sides)
    if delta <= 0:
        raise PreconditionError(
            "no valid delta for these radii; decrease eps_prime")
    return NeighborhoodSpec(eps, eps_prime, delta)


def _sample_block(rng: np.random.Generator, k: int, weights: Sequence[int],
                  radius: float) -> np.ndarray:
    """Random point of the open ball N < radius in a sign block."""
    while True:
        u = rng.uniform(0.0, radius**2, size=k)
        if u.sum() < radius**2:
            mags = u ** (np.abs(np.asarray(weights, dtype=float)) / 2.0)
            phases = np.exp(2j * np.pi * rng.uniform(size=k))
            return mags * phases


def sample_neighborhood(action: LinearAction, spec: NeighborhoodSpec,
                        rng: np.random.Generator) -> np.ndarray:
    """Random point of the model neighborhood V."""
    n = len(action.weights)
    for _ in range(10_000):
        z = np.zeros(n, dtype=complex)
        if action.neg:
            z[list(action.neg)] = _sample_block(
                rng, len(action.neg), [action.weights[j] for j in action.neg], spec.eps)
        if action.pos:
            z[list(action.pos)] = _sample_block(
                rng, len(action.pos), [action.weights[j] for j in action.pos], spec.eps)
        if action.zero:
            w = rng.normal(size=len(action.zero)) + 1j * rng.normal(size=len(action.zero))
            norm = np.linalg.norm(w)
            scale = rng.uniform() ** (1.0 / (2 * len(action.zero)))
            z[list(action.zero)] = (w / max(norm, 1e-300)) * spec.compact_bound * scale
        nm, np_ = n_pm(action, z)
        if nm * np_ < spec.eps * spec.eps_prime:
            return z
    raise PreconditionError("rejection sampling failed; radii too tight")


def _n_pm_rows(action: LinearAction, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N_- and N_+ of every point in an array of shape (..., n)."""
    out = []
    for block in (action.neg, action.pos):
        if not block:
            out.append(np.zeros(Z.shape[:-1]))
            continue
        powers = np.array([2.0 / abs(action.weights[j]) for j in block])
        out.append(np.sqrt((np.abs(Z[..., list(block)]) ** powers).sum(axis=-1)))
    return out[0], out[1]


def membership_v(action: LinearAction, spec: NeighborhoodSpec,
                 Z: np.ndarray) -> np.ndarray:
    """Whether each point of Z, an array of shape (..., n), lies in V."""
    Z = np.asarray(Z, dtype=complex)
    nm, np_ = _n_pm_rows(action, Z)
    w_norm = (np.linalg.norm(Z[..., list(action.zero)], axis=-1)
              if action.zero else 0.0)
    return ((nm < spec.eps) & (np_ < spec.eps)
            & (w_norm <= spec.compact_bound)
            & (nm * np_ < spec.eps * spec.eps_prime))


@dataclass(frozen=True)
class ConvexityReport:
    trials: int
    reentries: int
    exit_clause_failures: int
    half_line_cases: int
    t_span: float
    grid_points: int

    @property
    def ok(self) -> bool:
        return self.reentries == 0 and self.exit_clause_failures == 0


def orbital_convexity_probe(action: LinearAction, spec: NeighborhoodSpec,
                            trials: int = 1000, seed: int = 0,
                            region: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                            sampler: Optional[Callable[[np.random.Generator], np.ndarray]] = None,
                            t_span: float = 8.0,
                            grid_points: int = 2001) -> ConvexityReport:
    """Scan flow lines through random points of V on a fine t-grid.

    Fails a trial when the occupancy set {t : e^t z in V} is not a single
    run of grid points (re-entry), or when a finite-time exit happens
    without a visited moment value beyond +-delta.  A falsifier by
    sampling: the grid resolution and span are disclosed in the report.

    `region` is a row predicate: it takes the flow line as an array of
    shape (grid_points, n) and returns one bool per grid point.  It is
    called once per trial; the default is `membership_v`.
    """
    rng = np.random.default_rng(seed)
    inside = region if region is not None else (lambda Z: membership_v(action, spec, Z))
    draw = sampler if sampler is not None else (
        lambda r: sample_neighborhood(action, spec, r))
    grid = np.linspace(-t_span, t_span, grid_points)
    a = action.array()
    factors = np.exp(np.outer(grid, a))          # (grid, n), moderate exponents
    reentries = 0
    clause_failures = 0
    half_lines = 0
    for _ in range(trials):
        z = draw(rng)
        zt_all = factors * z[None, :]
        psis = 0.5 * (np.abs(zt_all) ** 2 * a).sum(axis=1)
        flags = np.asarray(inside(zt_all), dtype=bool)
        idx = np.nonzero(flags)[0]
        if len(idx) == 0:
            continue
        if idx[-1] - idx[0] + 1 != len(idx):
            reentries += 1
            continue
        occupied = psis[idx]
        if flags[-1]:
            half_lines += 1           # forward exit beyond the grid or t+ = inf
        elif occupied.max() <= spec.delta:
            clause_failures += 1
        if not flags[0] and occupied.min() >= -spec.delta:
            clause_failures += 1
    return ConvexityReport(trials, reentries, clause_failures, half_lines,
                           t_span, grid_points)


def bad_annulus_region(action: LinearAction, inner: float = 0.125,
                       lo: float = 0.25, hi: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """A deliberately non-convex control region: a ball plus an annulus in N_+.

    A row predicate, like `membership_v`: points of shape (..., n) in, one
    bool per point out.
    """
    def region(Z: np.ndarray) -> np.ndarray:
        _, np_ = _n_pm_rows(action, np.asarray(Z, dtype=complex))
        return (np_ < inner) | ((lo < np_) & (np_ < hi))
    return region


# ---------------------------------------------------------------------------
# plurisubharmonicity eigenvalue identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """A radial potential profile with first two derivatives."""

    name: str
    f: Callable[[float], float]
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    domain_min: float = 0.0


@dataclass(frozen=True)
class BumpSpec:
    """C^2 cutoff: 1 below r1, 0 above r2, quintic smoothstep between."""

    r1: float = 0.25
    r2: float = 1.0

    def rho(self, t: float) -> float:
        if t <= self.r1:
            return 1.0
        if t >= self.r2:
            return 0.0
        u = (t - self.r1) / (self.r2 - self.r1)
        return 1.0 - (10 * u**3 - 15 * u**4 + 6 * u**5)

    def rho1(self, t: float) -> float:
        if t <= self.r1 or t >= self.r2:
            return 0.0
        w = self.r2 - self.r1
        u = (t - self.r1) / w
        return -(30 * u**2 - 60 * u**3 + 30 * u**4) / w

    def rho2(self, t: float) -> float:
        if t <= self.r1 or t >= self.r2:
            return 0.0
        w = self.r2 - self.r1
        u = (t - self.r1) / w
        return -(60 * u - 180 * u**2 + 120 * u**3) / w**2


def _smoothed_ln(bump: BumpSpec) -> FunctionSpec:
    """f = rho ln: ln near 0, cut off to 0 beyond r2."""
    return FunctionSpec(
        "smoothed-ln",
        lambda t: bump.rho(t) * math.log(t),
        lambda t: bump.rho1(t) * math.log(t) + bump.rho(t) / t,
        lambda t: (bump.rho2(t) * math.log(t) + 2 * bump.rho1(t) / t
                   - bump.rho(t) / t**2),
        domain_min=1e-12,
    )


def psh_test_family(bump: Optional[BumpSpec] = None) -> list[FunctionSpec]:
    return [
        FunctionSpec("t", lambda t: t, lambda t: 1.0, lambda t: 0.0),
        FunctionSpec("t^2", lambda t: t * t, lambda t: 2 * t, lambda t: 2.0),
        FunctionSpec("ln", math.log, lambda t: 1 / t, lambda t: -1 / t**2,
                     domain_min=1e-12),
        FunctionSpec("t+t^2", lambda t: t + t * t, lambda t: 1 + 2 * t,
                     lambda t: 2.0),
        _smoothed_ln(bump or BumpSpec()),
    ]


def _radial_hessian(f1: float, f2: float, z: np.ndarray) -> np.ndarray:
    """The complex Hessian d^2 g / dz_j dzbar_k of g = f(|z|^2) at z, from
    f1 = f'(|z|^2) and f2 = f''(|z|^2): f1 I + f2 conj(z) z^T."""
    return f1 * np.eye(len(z), dtype=complex) + f2 * np.outer(np.conj(z), z)


def _d_phi(a: np.ndarray, z: np.ndarray, f1: float, f2: float,
           v: np.ndarray) -> np.ndarray:
    """d Phi at z along v, for Phi(z) = f'(|z|^2) sum a_j |z_j|^2, from
    f1 = f'(|z|^2) and f2 = f''(|z|^2): Phi = 2 f' psi_a, so
    d Phi = 2 f' d psi_a + 2 f'' (sum a_j |z_j|^2) d psi_1."""
    return 2 * (f1 * _d_psi(a, z, v)
                + f2 * np.sum(a * np.abs(z) ** 2) * _d_psi(1.0, z, v))


@dataclass(frozen=True)
class PshReport:
    name: str
    t0: float
    eigenvalues: tuple[float, ...]
    closed_form: tuple[float, ...]
    rel_err: float
    kahler: bool

    @property
    def ok(self) -> bool:
        return self.rel_err <= 1e-9


def psh_criterion(spec: FunctionSpec, t0: float, n: int,
                  seed: int = 0) -> PshReport:
    """Eigenvalues of [f' d_jk + f'' conj(z_j) z_k] at |z0|^2 = t0.

    They must be f'(t0) with multiplicity n-1 and f'(t0) + t0 f''(t0); the
    form is Kaehler at z0 exactly when both are positive.
    """
    if t0 <= max(0.0, spec.domain_min):
        raise PreconditionError("t0 must be inside the profile domain")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z *= math.sqrt(t0) / np.linalg.norm(z)
    f1, f2 = spec.f1(t0), spec.f2(t0)
    eig = np.sort(np.linalg.eigvalsh(_radial_hessian(f1, f2, z)))
    closed = np.sort(np.array([f1] * (n - 1) + [f1 + t0 * f2]))
    # |f'| + t0 |f''| bounds the norm of the Hessian
    rel = _scaled_gap(eig, closed, abs(f1) + t0 * abs(f2))
    kahler = f1 > 0 and f1 + t0 * f2 > 0
    return PshReport(spec.name, t0, tuple(eig), tuple(closed), rel, kahler)


# ---------------------------------------------------------------------------
# cut tameness identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutIdentityReport:
    value: float
    expected: float
    rel_err: float
    orth_1: float
    orth_2: float
    orth_scale: float
    moment_pairing_rel_err: float

    @property
    def ok(self) -> bool:
        # orth_1 and orth_2 are rounding residuals: they are judged
        # relative to orth_scale, the size of the pairings that make them
        return (self.rel_err <= 1e-9
                and _scaled_gap([self.orth_1, self.orth_2], 0.0, self.orth_scale) <= 1e-9
                and self.moment_pairing_rel_err <= 1e-6)


def cut_tameness_identity(action: LinearAction, z: Sequence[complex],
                          w: complex) -> CutIdentityReport:
    """The descended taming value on the cut of the product model.

    With A = sum a_j^2 |z_j|^2, the vector Xi = xi_M - A/(A+|w|^2) xi_M'
    pairs to zero with xi_M' in both slots, and omega(Xi, J Xi) equals
    |w|^2 A / (A + |w|^2).  Also checks that psi'(z, w) = psi(z) + |w|^2/2
    is a moment map for the diagonal field, through its closed-form
    derivative d psi'(v) = sum a_j Re(conj(z_j) v_j) + Re(conj(w) v_w).
    """
    z = np.asarray(z, dtype=complex)
    w = complex(w)
    # |xi'| = sqrt(A + |w|^2) and sqrt(A) |w|, whose squares must be finite,
    # by hypot on plain floats before any square can overflow
    root_a = math.hypot(*(abs(aj) * math.hypot(zj.real, zj.imag)
                          for aj, zj in zip(action.weights, z.tolist())))
    abs_w = math.hypot(w.real, w.imag)
    norm, root = math.hypot(root_a, abs_w), root_a * abs_w
    if not (norm <= _ROOT_MAX and root <= _ROOT_MAX):
        raise PreconditionError(
            f"A + |w|^2 or |w|^2 A overflows double precision: sqrt(A + |w|^2) = "
            f"{norm:.6g} and sqrt(A) |w| = {root:.6g} must stay below {_ROOT_MAX:.6g}")
    a = action.array()
    A = float(np.sum(a**2 * np.abs(z) ** 2))
    # |xi'|^2 = A + |w|^2 is zero at a fixed point, and also where it is
    # below the smallest double
    if A + abs(w) ** 2 == 0:
        raise FixedPointInput("the point is fixed by the diagonal action")
    xi_m = np.concatenate([1j * a * z, [0.0 + 0.0j]])
    xi_prime = np.concatenate([1j * a * z, [1j * w]])
    c = A / (A + abs(w) ** 2)
    xi_big = xi_m - c * xi_prime

    orth1 = float(_omega(xi_prime, xi_big))
    orth2 = float(_omega(xi_prime, 1j * xi_big))
    # Xi is a difference that cancels when |w| << |z|, so its rounding
    # error scales with |xi_M| + c |xi'|, which also bounds |Xi|
    norm_prime = float(np.linalg.norm(xi_prime))
    orth_scale = norm_prime * (float(np.linalg.norm(xi_m)) + c * norm_prime)
    value = float(_omega(xi_big, 1j * xi_big))
    expected = abs(w) ** 2 * A / (A + abs(w) ** 2)
    rel = _scaled_gap(value, expected, expected) if expected != 0 else abs(value)

    # moment pairing: d psi'(v) = omega'(v, xi_M') along 6 unit directions
    point = np.concatenate([z, [w]])
    a_prime = np.concatenate([a, [1.0]])
    v = _pairing_directions(len(point))
    scale = np.sum(np.abs(a_prime) * np.abs(point) * np.abs(v), axis=-1)
    gaps = _gaps(_d_psi(a_prime, point, v), _omega(v, xi_prime), scale)
    worst = max([0.0, *gaps.tolist()])      # skips a nan gap, unlike np.max
    return CutIdentityReport(value, expected, rel, orth1, orth2, orth_scale, worst)


@cache
def _pairing_directions(m: int) -> np.ndarray:
    """The 6 random unit directions in C^m of the moment pairing check, one
    per row: a read-only block, drawn once per length from a fixed seed."""
    parts = np.random.default_rng(12345).normal(size=(6, 2, m))
    v = parts[:, 0] + 1j * parts[:, 1]
    for row in v:
        row /= np.linalg.norm(row)
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# blow-up potential contraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupPotentialReport:
    phi_value: float
    phi_formula: float
    phi_rel_err: float
    contraction_rel_err: float
    scaling_rel_err: float

    @property
    def ok(self) -> bool:
        return (self.contraction_rel_err <= 1e-5
                and self.phi_rel_err <= 1e-9
                and self.scaling_rel_err <= 1e-9)


def blowup_potential_check(action: LinearAction, z: Sequence[complex],
                           bump: Optional[BumpSpec] = None) -> BlowupPotentialReport:
    """Contract the circle field into i del delbar g, g = f(|z|^2) / 2pi for
    the smoothed-ln profile f = rho ln.

    With t = |z|^2 and Phi(z) = f'(t) sum a_j |z_j|^2 / 2pi, the field
    xi = i a z contracts the complex Hessian H of g (`_radial_hessian`) to
    -d Phi: -2 Im sum_jk H_jk xi_j conj(v_k) = -d Phi(v) along each real unit
    direction v, with d Phi in closed form (`_d_phi`).
    Inside |z|^2 < r1, where rho = 1, Phi(z) = sum a_j |z_j|^2 / (2 pi |z|^2),
    which does not change when z is scaled.  The residuals are measured
    against |a| |z|^2 |f'| (for Phi) and 2 max|a| |z| (|f'| + t |f''|) (for
    the contraction), which stay away from zero where Phi cancels.
    """
    bump = bump or BumpSpec()
    z = np.asarray(z, dtype=complex)
    n = len(z)
    t = float(np.sum(np.abs(z) ** 2))
    if t <= 0:
        raise PreconditionError("z must be nonzero")
    if t >= bump.r1:
        raise PreconditionError("|z|^2 must stay below r1, inside the rho = 1 region")
    a = action.array()
    profile = _smoothed_ln(bump)

    def phi(p: np.ndarray) -> float:
        sq = np.abs(p) ** 2
        return float(np.sum(a * sq)) * profile.f1(float(np.sum(sq))) / (2 * math.pi)

    f1, f2 = profile.f1(t) / (2 * math.pi), profile.f2(t) / (2 * math.pi)
    phi_val = phi(z)
    phi_formula = float(np.sum(a * np.abs(z) ** 2) / (2 * math.pi * t))
    phi_scale = float(np.sum(np.abs(a) * np.abs(z) ** 2)) * abs(f1)
    lam = 1.0 + min(0.25, (math.sqrt(bump.r1) - math.sqrt(t)) / (2 * math.sqrt(t)))
    scaling_err = _scaled_gap(phi(lam * z), phi_val, phi_scale)

    dirs = np.concatenate([np.eye(n), 1j * np.eye(n)])
    eta = -2 * np.imag(np.conj(dirs) @ (_radial_hessian(f1, f2, z).T @ (1j * a * z)))
    d_phi = _d_phi(a, z, f1, f2, dirs)
    scale = 2 * np.max(np.abs(a)) * math.sqrt(t) * (abs(f1) + t * abs(f2))
    return BlowupPotentialReport(phi_val, phi_formula,
                                 _scaled_gap(phi_val, phi_formula, phi_scale),
                                 _scaled_gap(eta, -d_phi, scale), scaling_err)
