"""Polynomials with exact rational coefficients.

Provides arithmetic, calculus, and complete sign decisions on closed
intervals via Sturm sequences.  Real roots are reported as exact rationals
when they are rational and as isolating intervals with rational endpoints
otherwise; either way the sign pattern between consecutive roots is decided
exactly, never by floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalError


class Poly:
    """Immutable dense polynomial, coefficients low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ------------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, s: Fraction) -> Fraction:
        s = Fraction(s)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*s^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self._c(k) + other._c(k) for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self._c(k) - other._c(k) for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c: Fraction) -> "Poly":
        c = Fraction(c)
        return Poly([a * c for a in self.coeffs])

    def _c(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    # -- calculus ----------------------------------------------------------
    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def integrate(self, a: Fraction, b: Fraction) -> Fraction:
        anti = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        F = Poly(anti)
        return F(b) - F(a)

    def compose_affine(self, alpha: Fraction, beta: Fraction) -> "Poly":
        """p(alpha*s + beta) as a polynomial in s."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        acc = Poly([])
        lin = Poly([beta, alpha])
        for c in reversed(self.coeffs):
            acc = acc * lin + Poly([c])
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])


def constant(c: Fraction) -> Poly:
    return Poly([Fraction(c)])


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    d = b.degree
    lead = b.coeffs[-1]
    while len(rem) - 1 >= d and any(rem):
        k = len(rem) - 1
        if rem[k] == 0:
            rem.pop()
            continue
        f = rem[k] / lead
        quo[k - d] = f
        for j in range(d + 1):
            rem[k - d + j] -= f * b.coeffs[j]
        rem.pop()
    return Poly(quo), Poly(rem)


def gcd_poly(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1]
    return a.monic() if not a.is_zero() else a


def squarefree(p: Poly) -> Poly:
    if p.degree < 1:
        return p
    g = gcd_poly(p, p.derivative())
    if g.degree < 1:
        return p
    return divmod_poly(p, g)[0]


def deflate(p: Poly, r: Fraction) -> Poly:
    """Divide out a known rational root exactly."""
    q, rem = divmod_poly(p, Poly([-Fraction(r), Fraction(1)]))
    if not rem.is_zero():
        raise InternalError("deflation at a non-root")
    return q


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation
# ---------------------------------------------------------------------------

def sturm_chain(q: Poly) -> list[Poly]:
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [f for f in chain if not f.is_zero()]


def sign_variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for f in chain:
        v = f(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(q: Poly, chain: Sequence[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct roots of square-free q in (a, b); endpoints must not be roots."""
    if q(a) == 0 or q(b) == 0:
        raise InternalError("count_roots endpoint is a root")
    return sign_variations(chain, a) - sign_variations(chain, b)


@dataclass(frozen=True)
class RootMarker:
    """One real root: exact rational, or contained in the open (lo, hi)."""

    lo: Fraction
    hi: Fraction
    exact: Optional[Fraction] = None

    @property
    def upper(self) -> Fraction:
        return self.exact if self.exact is not None else self.hi

    @property
    def lower(self) -> Fraction:
        return self.exact if self.exact is not None else self.lo


def isolate_roots(p: Poly, a: Fraction, b: Fraction) -> list[RootMarker]:
    """Markers for the distinct real roots of p in the open interval (a, b).

    Markers come out sorted and pairwise separated, and separated from the
    endpoints: marker i satisfies a < lower_i <= root_i <= upper_i < b and
    upper_i < lower_{i+1} unless both roots are exact.
    """
    a, b = Fraction(a), Fraction(b)
    if p.degree < 1 or a >= b:
        return []
    q = squarefree(p)
    while not q.is_zero() and q.degree >= 1 and q(a) == 0:
        q = deflate(q, a)
    while not q.is_zero() and q.degree >= 1 and q(b) == 0:
        q = deflate(q, b)
    if q.degree < 1:
        return []
    markers: list[RootMarker] = []
    _isolate_rec(q, sturm_chain(q), a, b, markers)
    markers.sort(key=lambda m: (m.lower, m.upper))
    markers = _separate(q, markers, a, b)
    return [_exactify(q, m) for m in markers]


def _sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    import math as _math

    if x < 0:
        return None
    rn = _math.isqrt(x.numerator)
    rd = _math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _exactify(q: Poly, m: RootMarker) -> RootMarker:
    """Replace an isolating interval by the exact rational root when the
    defining polynomial has degree <= 2 (always the case for derivative
    polynomials of chamber volumes up to dimension 4)."""
    if m.exact is not None or q.degree > 2:
        return m
    roots: list[Fraction] = []
    if q.degree == 1:
        roots = [-q.coeffs[0] / q.coeffs[1]]
    elif q.degree == 2:
        c, b_, a_ = q.coeffs
        disc = b_ * b_ - 4 * a_ * c
        r = _sqrt_fraction(disc)
        if r is None:
            return m
        roots = [(-b_ + r) / (2 * a_), (-b_ - r) / (2 * a_)]
    for r in roots:
        if m.lo < r < m.hi:
            return RootMarker(r, r, exact=r)
    return m


def _isolate_rec(q: Poly, chain, lo: Fraction, hi: Fraction, out: list) -> None:
    n = count_roots(q, chain, lo, hi)
    if n == 0:
        return
    if n == 1:
        out.append(RootMarker(lo, hi))
        return
    mid = (lo + hi) / 2
    if q(mid) == 0:
        out.append(RootMarker(mid, mid, exact=mid))
        # Step off the root to points that are not roots of q, with no other
        # root between them and mid, so every interval handed on (and later
        # refined against q's own chain) has non-root endpoints.
        q2 = deflate(q, mid)
        chain2 = sturm_chain(q2)
        delta = (hi - lo) / 4
        while (q(mid - delta) == 0 or q(mid + delta) == 0
               or (q2.degree >= 1
                   and count_roots(q2, chain2, mid - delta, mid + delta) > 0)):
            delta /= 2
        _isolate_rec(q, chain, lo, mid - delta, out)
        _isolate_rec(q, chain, mid + delta, hi, out)
    else:
        _isolate_rec(q, chain, lo, mid, out)
        _isolate_rec(q, chain, mid, hi, out)


def _refine(q: Poly, chain, m: RootMarker) -> RootMarker:
    """Halve an isolating interval, keeping exactly one root inside."""
    if m.exact is not None:
        return m
    mid = (m.lo + m.hi) / 2
    if q(mid) == 0:
        return RootMarker(mid, mid, exact=mid)
    if count_roots(q, chain, m.lo, mid) == 1:
        return RootMarker(m.lo, mid)
    return RootMarker(mid, m.hi)


def _separate(q: Poly, markers: list[RootMarker], a: Fraction, b: Fraction) -> list[RootMarker]:
    chain = sturm_chain(q)
    done = False
    while not done:
        done = True
        for i, m in enumerate(markers):
            lo_bound = a if i == 0 else markers[i - 1].upper
            hi_bound = b if i == len(markers) - 1 else markers[i + 1].lower
            # strict separation: the open hull of the marker must avoid
            # neighbouring markers' hulls and the interval endpoints
            if m.exact is None and (m.lo < lo_bound or m.hi > hi_bound
                                    or m.lo <= a or m.hi >= b):
                markers[i] = _refine(q, chain, m)
                done = False
    return markers


def gap_samples(markers: Sequence[RootMarker], a: Fraction, b: Fraction) -> list[Fraction]:
    """One rational point strictly inside each root-free gap of (a, b)."""
    pts: list[Fraction] = []
    prev_up = a
    for m in markers:
        pts.append((prev_up + m.lower) / 2)
        prev_up = m.upper
    pts.append((prev_up + b) / 2)
    return pts


def nonpositive_on(p: Poly, a: Fraction, b: Fraction) -> tuple[bool, Optional[Fraction]]:
    """Decide p <= 0 on the closed [a, b]; the witness is a violating rational."""
    a, b = Fraction(a), Fraction(b)
    if p.is_zero():
        return True, None
    if p(a) > 0:
        return False, a
    if p(b) > 0:
        return False, b
    if p.degree < 1:
        return True, None
    markers = isolate_roots(p, a, b)
    for t in gap_samples(markers, a, b):
        if p(t) > 0:
            return False, t
    return True, None


def one_sided_sign(p: Poly, x: Fraction, direction: int) -> int:
    """Sign of p just to the right (direction=+1) or left (-1) of x.

    Taylor expansion: the first non-vanishing derivative at x decides, with
    a (-1)^k twist on the left side.
    """
    x = Fraction(x)
    q = p
    k = 0
    while not q.is_zero():
        v = q(x)
        if v != 0:
            s = 1 if v > 0 else -1
            if direction < 0 and k % 2 == 1:
                s = -s
            return s
        q = q.derivative()
        k += 1
    return 0
