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
residuals by one rule: `_gaps` measures |got - want| in units of a
scale computed from the magnitudes of the inputs (|a|, |z|, |f'|, |f''|),
never from the quantity under test, so a value that cancels to near zero is
not judged against itself.  A report is ok when each residual is within
the report's published tolerance.

Each quantity has one definition, over rows of points of shape (..., n):
the flow e^{a t} z (`_flow_rows`), the weighted radii N-/N+ (`_n_pm_rows`)
and psi along the flow (`MomentAlongFlow`); `flow` and `n_pm` are the gated
one-point case of the first two.  psi and N-/N+ add a row's terms by one
rule, left to right (`_sum_entries`, and psi term by term over its rows),
so a row among longer ones sums as its point alone.  Regions of C^n
are row predicates too: `membership_v` and `bad_annulus_region` take an
array of points and return one bool per point, and
`orbital_convexity_probe` hands a region a whole flow line at once.  The
monotone, cut and blow-up checks are row checks (`monotone_rows`,
`cut_identity_rows`, `blowup_potential_rows`): points of one length are
judged together, with the arithmetic of one point in every row, so one
point is a call with one row.

Every point enters through one gate, `_points`: as many entries as weights,
each a finite complex number, or an InputError that names the entry.  A
check whose arithmetic leaves the doubles raises a PreconditionError
(`_in_doubles`) instead of printing a numpy warning and a nan.

Along the real flow, psi(e^t z) is one increasing real function of t,
`MomentAlongFlow`, and the time to level s is the least double t with
psi(t) >= s, found for many points at once as rows cut 16 ways in lockstep.
"""
from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from functools import cache, cached_property, wraps
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FixedPointInput, InputError, PreconditionError

_LOG_MAX = math.log(sys.float_info.max)
_ROOT_MAX = math.sqrt(sys.float_info.max) * (1 - 2**-30)  # less a margin for rounding


class LinearAction(namedtuple("LinearAction", "weights")):
    """The circle acting on C^n with these integer weights, kept as a tuple
    of ints; the sign blocks live in the instance dict: no `__slots__`."""

    def __new__(cls, weights) -> "LinearAction":
        try:
            weights = tuple(weights)
        except TypeError:
            raise InputError(f"weights must be a sequence of integers, got {weights!r}") from None
        if not weights:
            raise PreconditionError("need at least one weight")
        # Python ints within the doubles pass at once, anything else one by one
        if {*map(type, weights)} != {int} or max(map(abs, weights)) > sys.float_info.max:
            for j, a in enumerate(weights):
                if (isinstance(a, bool) or not isinstance(a, (int, np.integer))
                        or abs(int(a)) > sys.float_info.max):
                    raise InputError(f"weight {j} must be an integer that fits in a double, got {a!r}")
            weights = tuple(map(int, weights))
        return super().__new__(cls, weights)

    # the sign blocks, computed once per action
    @cached_property
    def neg(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.weights) if a < 0)

    @cached_property
    def pos(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.weights) if a > 0)

    @cached_property
    def zero(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.weights) if a == 0)

    def array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def _complex(x, what: str) -> complex:
    """x as a finite Python complex number, or an InputError naming `what`."""
    if type(x) is complex or (isinstance(x, numbers.Number)
                              and not isinstance(x, (bool, np.bool_))):
        try:
            c = complex(x)
            if math.isfinite(c.real) and math.isfinite(c.imag):
                return c
        except (OverflowError, TypeError, ValueError):    # beyond a double
            pass
    raise InputError(f"{what} must be a finite complex number, got {x!r}")


def _points(actions: Sequence[LinearAction], zs) -> list[list[complex]]:
    """The one gate for points of the model: each z as Python complex numbers,
    one per weight.  Complex arrays of the right lengths, as a battery draws,
    pass at once by one finiteness check of their sum; other points (and a
    sum beyond the doubles) go entry by entry, and the first of another
    length, or with an entry that is not a finite number (a string, None, a
    bool, nan), is refused by an InputError naming it."""
    pairs = list(zip(actions, zs, strict=True))
    if all(type(z) is np.ndarray and z.dtype == complex and z.shape == (len(a.weights),)
           for a, z in pairs):
        points = [z.tolist() for _, z in pairs]
        if np.isfinite(sum(map(sum, points))):      # not so where an entry is nan or inf
            return points
    points = []
    for action, z in pairs:
        n = len(action.weights)
        try:
            entries = list(z.tolist() if isinstance(z, np.ndarray) else z)
        except TypeError:
            raise InputError(f"z must be a sequence of {n} complex numbers, got {z!r}") from None
        if len(entries) != n:
            raise InputError(f"z needs {n} entries, one per weight, got {len(entries)}")
        points.append([_complex(x, f"z[{j}]") for j, x in enumerate(entries)])
    return points


def _real(x, what: str, finite: bool = False) -> float:
    """x as a float, +-inf included unless `finite`; nan, a bool, a string
    or an int beyond a double is refused with an InputError naming `what`."""
    if isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_)):
        try:
            r = float(x)
            if not math.isnan(r) and not (finite and math.isinf(r)):
                return r
        except OverflowError:                               # beyond a double
            pass
    kind = "a finite real number" if finite else "a real number within the doubles and not nan"
    raise InputError(f"{what} must be {kind}, got {x!r}")


def _rows(actions: Sequence[LinearAction], zs) -> list[tuple]:
    """The row constructor: the points through the gate `_points`, grouped
    by length, so that a sum over a row's entries is the sum over its point
    alone.  Per length: the rows' positions in the caller's order, their
    actions, and the weights (as doubles) and points as arrays (rows, n)."""
    groups: dict[int, list] = {}
    for k, (action, point) in enumerate(zip(actions, _points(actions, zs))):
        groups.setdefault(len(point), []).append((k, action, point))
    out = []
    for group in groups.values():
        index, acts, points = zip(*group)
        out.append((index, acts, np.array([act.weights for act in acts], dtype=float),
                    np.array(points, dtype=complex)))
    return out


def _normal_point(rng: np.random.Generator, n: int) -> np.ndarray:
    """The doubles of rng.normal(size=n) + 1j * rng.normal(size=n), from the
    same stream in one call: normal draws 0.0 + g, never -0.0, so setting the
    parts gives each entry the bits of the sum."""
    x = rng.normal(size=2 * n)
    z = np.empty(n, dtype=complex)
    z.real, z.imag = x[:n], x[n:]
    return z


def _in_doubles(fn):
    """fn with numpy's overflow, invalid operation and division by zero
    raised as a PreconditionError, where numpy would warn and go on."""
    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise PreconditionError(f"{fn.__name__}: the point is out of double "
                                    f"precision ({exc})") from None
    return checked


def _flow_rows(a: np.ndarray, z: np.ndarray, t) -> np.ndarray:
    """The flow e^{a t} z = (e^{a_j t} z_j)_j, for points z of shape
    (..., n) and weights and times that broadcast against them."""
    return z * np.exp(t * a)


@_in_doubles
def flow(action: LinearAction, z: Sequence[complex], t: float) -> np.ndarray:
    """e^{a t} z for one point z and a finite real t; a factor e^{a_j t}
    beyond the doubles is refused, even where its product with z_j is not."""
    [z] = _points([action], [z])
    return _flow_rows(action.array(), np.array(z), _real(t, "t", finite=True))


def _d_psi(a: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d psi_a at z along v, for points and directions of shape (..., n)."""
    return np.sum(a * np.real(np.conj(z) * v), axis=-1)


def _omega(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The standard symplectic form on vectors of shape (..., n)."""
    return np.sum(np.imag(np.conj(u) * v), axis=-1)


def _sum_entries(x: np.ndarray) -> np.ndarray:
    """The sum of each row's entries, the last axis of x, added left to right,
    one vector add per entry.  numpy's own sum goes pairwise over 8 or more
    entries, so a row's sum would depend on its padding."""
    total = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


def _gaps(got, want, scale) -> np.ndarray:
    """|got - want| in units of `scale`, elementwise.

    `scale` is a magnitude computed from the inputs of a check, so that the
    gap stays meaningful where `want` cancels to near zero.
    """
    return np.abs(np.subtract(got, want)) / np.maximum(scale, 1e-300)


# ---------------------------------------------------------------------------
# psi along the flow, monotone flow and the time-to-level solver
# ---------------------------------------------------------------------------

def _flow_terms(action: LinearAction, z: list[complex]) -> list[tuple[float, float]]:
    """(2 a_j, L_j = ln(|a_j| c_j / 2)) for each j with a_j z_j != 0, for a
    point z that has passed `_points`.

    A positive term overflows for t > (ln(max double) - L_j) / (2 a_j), a
    negative one for t below it; a point where both kinds overflow at one t
    (within a few ulps), so that psi is inf - inf, is refused."""
    # a handful of terms: plain floats build them faster than arrays
    kept = [(a, math.hypot(zj.real, zj.imag))
            for a, zj in zip(action.weights, z) if a and zj]
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
    return (np.abs(k) | (k & np.int64(-1 << 63))).view(np.float64)


class MomentAlongFlow:
    """t -> psi(e^t z) = 1/2 sum a_j c_j e^{2 a_j t}, c_j = |z_j|^2, over an
    array of t.  The terms with a_j z_j != 0 are kept, as sign(a_j)
    exp(2 a_j t + ln(|a_j| c_j / 2)) so that no c_j over- or underflows; a
    fixed point, which keeps none, is refused.  A term can overflow to
    +-inf, but a point where terms of both signs overflow at one t is
    refused too (see `_flow_terms`), so the sum is never nan.

    One row per point: t has one entry per row in its last axis, of any
    length for one row.  Only kept terms are evaluated: the j-th terms of
    all rows that have one, for j = 0, 1, .., with the rows longest first,
    so that each j's rows are a prefix of the sums.  psi adds each row's
    terms left to right, as `_sum_entries` adds the rows of `terms`, padded
    with terms of exactly -0.0, which leave any sum as it is; so each row's
    psi is its point's."""

    def __init__(self, actions: Sequence[LinearAction], zs: Sequence[Sequence[complex]]):
        rows = [_flow_terms(action, z) for action, z in zip(actions, _points(actions, zs))]
        order = sorted(range(len(rows)), key=lambda r: -len(rows[r]))      # longest first
        self.width = len(rows[order[0]])
        kept = [(r, j, *rows[r][j]) for j in range(self.width) for r in order if j < len(rows[r])]
        self.row, self.column, self.two_a, self.log_half_ac = map(np.array, zip(*kept))
        # where the j-th terms start among the kept ones, and how many, for j >= 1
        counts = np.bincount(self.column)
        self.later_terms = list(zip((np.cumsum(counts) - counts)[1:].tolist(), counts[1:].tolist()))
        self.place = np.argsort(order)          # each row's place among the sums

    def _kept_terms(self, t) -> tuple[tuple, np.ndarray]:
        """psi's shape at t, and the kept terms at t, in the order of `row`
        in the first axis and each over t's other axes reversed (as t.T), so
        that each term is one contiguous block.  One row takes each entry
        of t as a time."""
        t = np.asarray(t)
        shape = np.broadcast(t, self.place).shape
        if len(self.place) == 1:
            t = t.reshape(shape + (1,))
        elif t.shape != shape:
            t = np.broadcast_to(t, shape)
        two_a = self.two_a.reshape(self.two_a.shape + (1,) * (t.ndim - 1))
        with np.errstate(over="ignore"):
            exp = np.exp(t.T[self.row] * two_a + self.log_half_ac.reshape(two_a.shape))
        return shape, np.copysign(exp, two_a)

    def terms(self, t) -> np.ndarray:
        """The terms 1/2 a_j c_j e^{2 a_j t}, of the shape of psi at t + (k,)."""
        shape, x = self._kept_terms(t)
        padded = np.full(shape + (self.width,), -0.0)
        padded.reshape(x.T.shape[:-1] + (-1, self.width))[..., self.row, self.column] = x.T
        return padded

    def __call__(self, t) -> np.ndarray:
        shape, x = self._kept_terms(t)
        total = x[:len(self.place)].copy()     # every row has a first term
        for start, count in self.later_terms:
            total[:count] += x[start:start + count]
        return total[self.place].T.reshape(shape)

    def time_to_level(self, s) -> np.ndarray:
        """Per row, the least double t with psi(t) >= s, or nan when s is
        outside (psi(-max), psi(+max)), the float psi's open range (a sum may
        overflow to +-inf, beyond every level).  A lockstep step evaluates psi
        at the 15 ranks of doubles that cut each bracket in 16 and keeps the
        part up to the first with psi >= s: psi(lo) < s <= psi(hi) holds
        whatever psi does, and for a monotone float psi, as "least" assumes,
        t is what bisection gives."""
        s = np.asarray(s, dtype=float)
        shape = np.broadcast(s, self.place).shape
        hi = np.full(shape, 0x7FEF_FFFF_FFFF_FFFF, dtype=np.int64)  # the largest double
        lo = -hi
        i, *index = np.indices((17,) + shape, sparse=True)    # a cut's number, a row's
        parts = i.astype(np.uint64)
        below = np.zeros((16,) + shape, dtype=bool)     # the last, hi, is not below
        with np.errstate(over="ignore"):
            at_lo, at_hi = self(_key_doubles(np.stack([lo, hi])))
            attained = (at_lo < s) & (s < at_hi)
            # a step leaves at most ceil(w / 16) of a bracket's w ranks, so 16
            # take the fewer than 2^64 of the start to one
            for _ in range(16):
                # cut i is floor(lo + i w / 16) for the w = hi - lo ranks, a
                # count that, like the sum, fits in 64 bits only unsigned
                w = (hi - lo).view(np.uint64)
                cuts = (lo.view(np.uint64) + parts * (w >> 4) + (parts * (w & 15) >> 4)).view(np.int64)
                below[:15] = self(_key_doubles(cuts[1:16])) < s
                first = below.argmin(axis=0)
                lo, hi = cuts[(first + i[:2], *index)]       # cuts first and first + 1
        return np.where(attained, _key_doubles(hi), np.nan)


class MonotoneReport(namedtuple("MonotoneReport",
                                "strictly_increasing derivative_rel_err grid_points")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.strictly_increasing and self.derivative_rel_err <= 1e-6


@_in_doubles
def monotone_rows(actions: Sequence[LinearAction], zs: Sequence[Sequence[complex]],
                  t_grid: Optional[np.ndarray] = None) -> list[MonotoneReport]:
    """Whether psi(e^t z) strictly increases on the grid, with derivative
    |xi_M|^2, for each point, judged as rows of one length at a time.

    psi(e^t z) is evaluated on the whole grid; at probes of the grid, the
    closed-form d psi(a z_t) along the flow's velocity a z_t is compared
    with omega(xi, J xi) for xi = i a z_t.
    """
    t_grid = np.linspace(-3.0, 3.0, 1001) if t_grid is None else np.asarray(t_grid, dtype=float)
    probes = t_grid[:: max(1, len(t_grid) // 12)]
    reports: list = [None] * len(zs)
    for index, acts, a, z in _rows(actions, zs):
        psi = MomentAlongFlow(acts, z)
        increasing = np.all(np.diff(psi(t_grid[:, None]), axis=0) > 0, axis=0)
        a = a[:, None, :]                       # (rows, probes, n) below
        zt = _flow_rows(a, z[:, None, :], probes[:, None])
        xi = 1j * a * zt
        scale = np.sum(np.abs(a) * np.abs(zt) * np.abs(a * zt), axis=-1)
        worst = _gaps(_d_psi(a, zt, a * zt), _omega(xi, 1j * xi), scale).max(axis=-1)
        for k, up, err in zip(index, increasing.tolist(), worst.tolist()):
            reports[k] = MonotoneReport(up, err, len(t_grid))
    return reports


@_in_doubles
def solve_time_to_level(action: LinearAction, z: Sequence[complex],
                        s: float) -> Optional[float]:
    """The least double t with psi(e^t z) >= s, or None when s is outside
    (psi(-max), psi(+max)): `MomentAlongFlow.time_to_level` of one row."""
    [t] = MomentAlongFlow([action], [z]).time_to_level([_real(s, "s")])
    return None if np.isnan(t) else float(t)


def level_membership(action: LinearAction, z: Sequence[complex], s: float) -> bool:
    """Block predicate for s in psi(C^x . z).

    s > 0 needs the positive-weight block of z to be non-zero, s < 0 the
    negative block, and s = 0 both.
    """
    [z] = _points([action], [z])
    s = _real(s, "s")
    # from the weights: a battery's trial has a new action, whose sign blocks cost more
    has_neg = any(zj for a, zj in zip(action.weights, z) if a < 0)
    has_pos = any(zj for a, zj in zip(action.weights, z) if a > 0)
    if not (has_neg or has_pos):
        raise FixedPointInput("the point is fixed by the action")
    # psi takes finite values only
    return not math.isinf(s) and (has_pos or s < 0) and (has_neg or s > 0)


# ---------------------------------------------------------------------------
# weighted radii and orbital convexity
# ---------------------------------------------------------------------------

def _n_pm_rows(a: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N_- and N_+, (sum |z_j|^{2/|a_j|})^{1/2} over a_j < 0 and over a_j > 0,
    of each point of Z, of shape (..., n), under weights a that broadcast
    against it (a weight-0 entry, raised to the power 0, cannot overflow).
    Each block sums by `_sum_entries`, the other block's entries set to 0."""
    terms = np.abs(Z) ** np.where(a == 0, 0.0, 2.0 / np.maximum(np.abs(a), 1.0))
    return tuple(np.sqrt(_sum_entries(np.where(block, terms, 0.0))) for block in (a < 0, a > 0))


def n_pm(action: LinearAction, z: Sequence[complex]) -> tuple[float, float]:
    """N_-(z) and N_+(z): `_n_pm_rows` of one point.  A sum beyond the
    largest double is refused, where numpy would return inf."""
    [z] = _points([action], [z])
    with np.errstate(over="ignore"):
        nm, np_ = np.array(_n_pm_rows(action.array(), np.array(z))).tolist()
    if math.isinf(nm) or math.isinf(np_):
        raise PreconditionError("N_- or N_+ overflows double precision: sum |z_j|^(2/|a_j|) "
                                "over a sign block exceeds the largest double")
    return nm, np_


class NeighborhoodSpec(namedtuple("NeighborhoodSpec", "eps eps_prime delta compact_bound")):
    __slots__ = ()

    def __new__(cls, eps: float, eps_prime: float, delta: float,
                compact_bound: float = 1.0) -> "NeighborhoodSpec":
        if not (0 < eps_prime < eps):
            raise PreconditionError("need 0 < eps_prime < eps")
        if delta <= 0:
            raise PreconditionError("delta must be positive")
        return super().__new__(cls, eps, eps_prime, delta, compact_bound)


def default_spec(action: LinearAction, eps: float = 0.5, eps_prime: float = 0.25,
                 delta: Optional[float] = None) -> NeighborhoodSpec:
    """A provably valid delta for the model neighborhood.

    On the sphere N_+ = eps the positive moment part is at least
    (1/2) k^{1-amax} eps^{2 amax}; on the disc N_- < eps' the negative part
    is at most (1/2) amax' eps'^{2 amin'}.  delta takes 90% of the slack,
    using the worse of the two exit directions.  A delta that is given is
    checked against that slack instead, and refused when it reaches it.
    """
    spec = None if delta is None else NeighborhoodSpec(eps, eps_prime, delta)
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
    slack = min(sides)
    if spec is not None and delta >= slack:
        raise PreconditionError(f"delta {delta!r} must stay below the lemma's bound {slack!r} "
                                "for these radii" + ("; decrease eps_prime" if slack <= 0 else ""))
    if spec is None and 0.9 * slack <= 0:
        raise PreconditionError(
            "no valid delta for these radii; decrease eps_prime")
    return spec or NeighborhoodSpec(eps, eps_prime, 0.9 * slack)


def sample_neighborhood(action: LinearAction, spec: NeighborhoodSpec,
                        rng: np.random.Generator) -> np.ndarray:
    """Random point of the model neighborhood V.  Each sign block is drawn
    in the coordinates u_j = |z_j|^{2/|a_j|}, so its N^2 is the sum of its
    u_j, and the point is kept when N_- N_+ < eps eps'.  A trial draws, in
    order: per sign block (negative, positive) u uniform in [0, eps^2)^k
    until sum u < eps^2, then k uniform phases; for m zero weights, 2m
    normals and one uniform radius.  Only the kept trial is built."""
    r2 = spec.eps**2
    blocks = [(list(block), np.abs(action.array()[list(block)]) / 2.0)
              for block in (action.neg, action.pos)]
    zero = list(action.zero)
    for _ in range(10_000):
        drawn = []
        for entries, _ in blocks:
            # rng.random(k) * r2 is rng.uniform(0.0, r2, k) to the bit, and cheaper
            u = rng.random(len(entries)) * r2
            while (n2 := u.sum()) >= r2:
                u = rng.random(len(entries)) * r2
            drawn.append((u, n2, rng.random(len(entries))))
        if zero:
            w, radius = _normal_point(rng, len(zero)), rng.random()
        if math.sqrt(drawn[0][1]) * math.sqrt(drawn[1][1]) < spec.eps * spec.eps_prime:
            z = np.zeros(len(action.weights), dtype=complex)
            for (entries, powers), (u, _, phases) in zip(blocks, drawn):
                z[entries] = u ** powers * np.exp(2j * np.pi * phases)
            if zero:
                scale = radius ** (1.0 / (2 * len(zero)))
                z[zero] = (w / max(np.linalg.norm(w), 1e-300)) * spec.compact_bound * scale
            return z
    raise PreconditionError("rejection sampling failed; radii too tight")


def membership_v(action: LinearAction, spec: NeighborhoodSpec,
                 Z: np.ndarray) -> np.ndarray:
    """Whether each point of Z, an array of shape (..., n), lies in V."""
    Z = np.asarray(Z, dtype=complex)
    nm, np_ = _n_pm_rows(action.array(), Z)
    w_norm = (np.linalg.norm(Z[..., list(action.zero)], axis=-1)
              if action.zero else 0.0)
    return ((nm < spec.eps) & (np_ < spec.eps)
            & (w_norm <= spec.compact_bound)
            & (nm * np_ < spec.eps * spec.eps_prime))


class ConvexityReport(namedtuple("ConvexityReport", "trials reentries exit_clause_failures "
                                 "half_line_cases t_span grid_points")):
    __slots__ = ()

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
    points = [draw(rng) for _ in range(trials)]
    # the flow lines of 64 trials at a time, from one e^{a t} per grid point
    lines = (line for start in range(0, trials, 64) for line in _flow_rows(
        a, np.array(points[start:start + 64])[:, None, :], grid[:, None]))
    reentries = clause_failures = half_lines = 0
    for z, line in zip(points, lines):
        flags = np.asarray(inside(line), dtype=bool)
        idx = np.nonzero(flags)[0]
        if len(idx) == 0:
            continue
        if idx[-1] - idx[0] + 1 != len(idx):
            reentries += 1
            continue
        if flags[-1]:
            half_lines += 1           # forward exit beyond the grid or t+ = inf
        if flags[0] and flags[-1]:
            continue                  # no exit to judge; a fixed point has no psi
        occupied = MomentAlongFlow([action], [z])(grid[idx])
        if not flags[-1] and occupied.max() <= spec.delta:
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
        _, np_ = _n_pm_rows(action.array(), np.asarray(Z, dtype=complex))
        return (np_ < inner) | ((lo < np_) & (np_ < hi))
    return region


# ---------------------------------------------------------------------------
# plurisubharmonicity eigenvalue identity
# ---------------------------------------------------------------------------

class FunctionSpec(namedtuple("FunctionSpec", "name f f1 f2 domain_min", defaults=(0.0,))):
    """A radial potential profile f with its first two derivatives f1, f2."""

    __slots__ = ()


class BumpSpec(namedtuple("BumpSpec", "r1 r2", defaults=(0.25, 1.0))):
    """C^2 cutoff: 1 below r1, 0 above r2, quintic smoothstep between."""

    __slots__ = ()

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


def _radial_hessian(f1, f2, z: np.ndarray) -> np.ndarray:
    """The complex Hessian d^2 g / dz_j dzbar_k of g = f(|z|^2) at z, from
    f1 = f'(|z|^2) and f2 = f''(|z|^2): f1 I + f2 conj(z) z^T.  For points
    of shape (..., n), with f1 and f2 of shape (...), one n x n block each."""
    f1, f2 = np.asarray(f1)[..., None, None], np.asarray(f2)[..., None, None]
    return (f1 * np.eye(z.shape[-1], dtype=complex)
            + f2 * (np.conj(z)[..., :, None] * z[..., None, :]))


def _d_phi(a: np.ndarray, z: np.ndarray, s, f1, f2, v: np.ndarray) -> np.ndarray:
    """d Phi at z along v, for Phi(z) = f'(|z|^2) s, from s = sum a_j |z_j|^2,
    f1 = f'(|z|^2) and f2 = f''(|z|^2): Phi = 2 f' psi_a, so
    d Phi = 2 f' d psi_a + 2 f'' s d psi_1."""
    return 2 * (f1 * _d_psi(a, z, v) + f2 * s * _d_psi(1.0, z, v))


class PshReport(namedtuple("PshReport", "name t0 eigenvalues closed_form rel_err kahler")):
    __slots__ = ()

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
    z = _normal_point(np.random.default_rng(seed), n)
    z *= math.sqrt(t0) / np.linalg.norm(z)
    f1, f2 = spec.f1(t0), spec.f2(t0)
    eig = np.sort(np.linalg.eigvalsh(_radial_hessian(f1, f2, z)))
    closed = np.sort(np.array([f1] * (n - 1) + [f1 + t0 * f2]))
    # |f'| + t0 |f''| bounds the norm of the Hessian
    rel = float(_gaps(eig, closed, abs(f1) + t0 * abs(f2)).max())
    kahler = f1 > 0 and f1 + t0 * f2 > 0
    return PshReport(spec.name, t0, tuple(eig), tuple(closed), rel, kahler)


# ---------------------------------------------------------------------------
# cut tameness identity
# ---------------------------------------------------------------------------

# orth_1 and orth_2 are rounding residuals: they are judged relative to
# orth_scale, the size of the pairings that make them (orth_rel_err)
class CutIdentityReport(namedtuple("CutIdentityReport", "value expected rel_err orth_1 orth_2 "
                                   "orth_scale moment_pairing_rel_err orth_rel_err")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.rel_err <= 1e-9 and self.orth_rel_err <= 1e-9
                and self.moment_pairing_rel_err <= 1e-6)


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex array as it computes a norm:
    sqrt(Re x . Re x + Im x . Im x), the dot products taken by stacked
    matmul, which calls the same BLAS dot per row."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


@_in_doubles
def cut_identity_rows(actions: Sequence[LinearAction], zs: Sequence[Sequence[complex]],
                      ws: Sequence[complex]) -> list[CutIdentityReport]:
    """The descended taming value on the cut of the product model at each
    point (z, w), judged as rows of one length at a time.

    With A = sum a_j^2 |z_j|^2, the vector Xi = xi_M - A/(A+|w|^2) xi_M'
    pairs to zero with xi_M' in both slots, and omega(Xi, J Xi) equals
    |w|^2 A / (A + |w|^2).  Also checks that psi'(z, w) = psi(z) + |w|^2/2
    is a moment map for the diagonal field, through its closed-form
    derivative d psi'(v) = sum a_j Re(conj(z_j) v_j) + Re(conj(w) v_w).
    """
    ws = [_complex(w, "w") for w in ws]
    reports: list = [None] * len(ws)
    for index, _, a, z in _rows(actions, zs):
        w = [ws[k] for k in index]
        # |xi'| = sqrt(A + |w|^2) and sqrt(A) |w|, whose squares must be
        # finite, by hypot before any square can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            root_a = np.hypot.reduce(np.abs(a) * np.abs(z), axis=-1)
            abs_w = np.abs(np.array(w))
            norm, root = np.hypot(root_a, abs_w), root_a * abs_w
        over = ~((norm <= _ROOT_MAX) & (root <= _ROOT_MAX))
        if over.any():
            k = over.argmax()
            raise PreconditionError(
                f"A + |w|^2 or |w|^2 A overflows double precision: sqrt(A + |w|^2) = "
                f"{norm[k]:.6g} and sqrt(A) |w| = {root[k]:.6g} must stay below {_ROOT_MAX:.6g}")
        # Python's abs of a complex, which np.abs does not match in the last bit
        w2 = np.array([abs(wk) ** 2 for wk in w])
        # a weight-0 entry adds nothing, however large: its square could overflow
        A = np.sum(a**2 * np.abs(np.where(a == 0, 0, z)) ** 2, axis=-1)
        # |xi'|^2 = A + |w|^2 is zero at a fixed point, and also where it is
        # below the smallest double
        if not np.all(A + w2):
            raise FixedPointInput("the point is fixed by the diagonal action")
        xi_m = np.zeros((len(w), z.shape[-1] + 1), dtype=complex)
        xi_m[:, :-1] = 1j * a * z
        xi_prime = xi_m.copy()
        xi_prime[:, -1] = [1j * wk for wk in w]
        c = A / (A + w2)
        xi_big = xi_m - c[:, None] * xi_prime

        orth = np.stack([_omega(xi_prime, xi_big), _omega(xi_prime, 1j * xi_big)], axis=-1)
        # Xi is a difference that cancels when |w| << |z|, so its rounding
        # error scales with |xi_M| + c |xi'|, which also bounds |Xi|; near
        # the overflow bound the scale is inf, and the orth gaps are 0
        norm_prime = _norms(xi_prime)
        with np.errstate(over="ignore"):
            orth_scale = norm_prime * (_norms(xi_m) + c * norm_prime)
        value = _omega(xi_big, 1j * xi_big)
        expected = w2 * c           # not w2 A / (A + w2): w2 A can be subnormal
        nonzero = expected != 0
        rel = np.where(nonzero, _gaps(value, expected, np.where(nonzero, expected, 1.0)),
                       np.abs(value))

        # moment pairing: d psi'(v) = omega'(v, xi_M') along 6 unit directions
        zw = np.concatenate([z, np.array(w)[:, None]], axis=-1)[:, None, :]
        a_prime = np.concatenate([a, np.ones((len(w), 1))], axis=-1)[:, None, :]
        v = _pairing_directions(zw.shape[-1])
        scale = np.sum(np.abs(a_prime) * np.abs(zw) * np.abs(v), axis=-1)
        gaps = _gaps(_d_psi(a_prime, zw, v), _omega(v, xi_prime[:, None, :]), scale)
        worst = np.fmax.reduce(gaps, axis=-1, initial=0.0)     # skips a nan gap
        columns = (value, expected, rel, orth[:, 0], orth[:, 1], orth_scale, worst,
                   _gaps(orth, 0.0, orth_scale[:, None]).max(axis=-1))
        for k, fields in zip(index, zip(*(col.tolist() for col in columns))):
            reports[k] = CutIdentityReport(*fields)
    return reports


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

class BlowupPotentialReport(namedtuple("BlowupPotentialReport", "phi_value phi_formula "
                                       "phi_rel_err contraction_rel_err scaling_rel_err")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.contraction_rel_err <= 1e-5
                and self.phi_rel_err <= 1e-9
                and self.scaling_rel_err <= 1e-9)


@_in_doubles
def blowup_potential_rows(actions: Sequence[LinearAction], zs: Sequence[Sequence[complex]],
                          bump: Optional[BumpSpec] = None) -> list[BlowupPotentialReport]:
    """Contract the circle field into i del delbar g at each point, judged as
    rows of one length at a time, where g = f(|z|^2) / 2pi for the
    smoothed-ln profile f = rho ln.

    With t = |z|^2 and Phi(z) = f'(t) sum a_j |z_j|^2 / 2pi, the field
    xi = i a z contracts the complex Hessian H of g (`_radial_hessian`) to
    -d Phi: -2 Im sum_jk H_jk xi_j conj(v_k) = -d Phi(v) along each real unit
    direction v, with d Phi in closed form (`_d_phi`).
    Inside |z|^2 < r1, where rho = 1, Phi(z) = sum a_j |z_j|^2 / (2 pi |z|^2),
    which does not change when z is scaled.  The residuals are measured
    against |a| |z|^2 |f'| (for Phi) and 2 max|a| |z| (|f'| + t |f''|) (for
    the contraction), which stay away from zero where Phi cancels.  H is
    contracted by stacked matmul, one BLAS product per row as for one point.
    """
    bump = bump or BumpSpec()
    profile = _smoothed_ln(bump)
    two_pi = 2 * math.pi

    def phi(s: np.ndarray, t: np.ndarray) -> np.ndarray:    # from the row sums
        return s * np.array([profile.f1(tk) for tk in t.tolist()]) / two_pi

    reports: list = [None] * len(zs)
    for index, _, a, z in _rows(actions, zs):
        # a square beyond the doubles is inf, which the r1 gate refuses
        with np.errstate(over="ignore"):
            sq = np.abs(z) ** 2
            t = np.sum(sq, axis=-1)
        # the gates over all rows; the first row beyond them names its gate
        beyond = (t >= bump.r1) | (t < 1 / _ROOT_MAX)
        if beyond.any():
            tk = t[beyond.argmax()].item()
            if tk <= 0:
                raise PreconditionError("z must be nonzero")
            if tk >= bump.r1:
                raise PreconditionError("|z|^2 must stay below r1, inside the rho = 1 region")
            raise PreconditionError(
                f"|z|^2 = {tk!r} is too small: f''(|z|^2) = -1/|z|^4 overflows double precision")
        s = np.sum(a * sq, axis=-1)         # 2 psi, summed once per row
        f1, f2 = (np.array([f(tk) / two_pi for tk in t.tolist()]) for f in (profile.f1, profile.f2))
        phi_val = phi(s, t)
        phi_formula = s / (two_pi * t)
        phi_scale = np.sum(np.abs(a) * sq, axis=-1) * np.abs(f1)
        lam = 1.0 + np.minimum(0.25, (math.sqrt(bump.r1) - np.sqrt(t)) / (2 * np.sqrt(t)))
        sq_l = np.abs(lam[:, None] * z) ** 2
        scaling_err = _gaps(phi(np.sum(a * sq_l, axis=-1), np.sum(sq_l, axis=-1)), phi_val, phi_scale)

        n = z.shape[-1]
        dirs = np.concatenate([np.eye(n), 1j * np.eye(n)])
        h_xi = _radial_hessian(f1, f2, z).swapaxes(-1, -2) @ (1j * a * z)[..., None]
        eta = -2 * np.imag(np.conj(dirs) @ h_xi)[..., 0]
        d_phi = _d_phi(a[:, None, :], z[:, None, :], s[:, None], f1[:, None], f2[:, None], dirs)
        scale = 2 * np.abs(a).max(axis=-1) * np.sqrt(t) * (np.abs(f1) + t * np.abs(f2))
        columns = (phi_val, phi_formula, _gaps(phi_val, phi_formula, phi_scale),
                   _gaps(eta, -d_phi, scale[:, None]).max(axis=-1), scaling_err)
        for k, fields in zip(index, zip(*(col.tolist() for col in columns))):
            reports[k] = BlowupPotentialReport(*fields)
    return reports
