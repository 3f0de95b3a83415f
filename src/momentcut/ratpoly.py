"""Polynomials with exact rational coefficients: integer numerators, low
degree first, over one positive denominator, in lowest terms.  Arithmetic
and signs work on the integers; `coeffs` gives `Fraction`s, for output.

Complete sign decisions on closed intervals go through Sturm sequences.
Real roots are reported as exact rationals when they are rational and as
isolating intervals with rational endpoints otherwise; either way the sign
pattern between consecutive roots is decided exactly, never by floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalError
from .lattice import over_common_denominator


class Poly:
    """Immutable dense polynomial sum_k num[k] s^k / den, in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence[Fraction]):
        """The polynomial with these rational coefficients, low degree first."""
        self._reduce(*over_common_denominator(coeffs))

    @classmethod
    def over(cls, num: Sequence[int], den: int = 1) -> "Poly":
        """sum_k num[k] s^k / den for integers num[k] and den != 0."""
        return object.__new__(cls)._reduce(list(num), den)

    def _reduce(self, num: list[int], den: int) -> "Poly":
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        self.num = tuple(c // g for c in num)
        self.den = den // g
        return self

    # -- basics ------------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def _homogeneous(self, x) -> int:
        """sum_k num[k] u^k v^(d-k) for x = u/v in lowest terms, v > 0."""
        u, v = x.numerator, x.denominator
        h, w = 0, 1
        for c in reversed(self.num):
            h, w = h * u + c * w, w * v
        return h

    def sign_at(self, x: Fraction) -> int:
        """The sign of p(x) for a rational x, -1, 0 or 1."""
        h = self._homogeneous(x)
        return (h > 0) - (h < 0)

    def __call__(self, s: Fraction) -> Fraction:
        s = Fraction(s)
        return Fraction(self._homogeneous(s), self.den * s.denominator ** max(self.degree, 0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*s^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Poly", sign: int = 1) -> "Poly":
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        out = [c * fa for c in self.num] + [0] * (len(other.num) - len(self.num))
        for k, c in enumerate(other.num):
            out[k] += c * fb
        return Poly.over(out, self.den * fa)

    def __sub__(self, other: "Poly") -> "Poly":
        return self.__add__(other, -1)

    def __neg__(self) -> "Poly":
        return Poly.over([-c for c in self.num], self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.num, other.num
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly.over(out, self.den * other.den)

    # -- calculus ----------------------------------------------------------
    def derivative(self) -> "Poly":
        return Poly.over([k * c for k, c in enumerate(self.num)][1:], self.den)

    def integrate(self, a: Fraction, b: Fraction) -> Fraction:
        m = math.lcm(*range(1, len(self.num) + 1))
        anti = Poly.over([0] + [c * (m // (k + 1)) for k, c in enumerate(self.num)],
                         self.den * m)
        return anti(b) - anti(a)

    def monic(self) -> "Poly":
        return Poly.over(self.num, self.num[-1]) if self.num else self


def affine_substitute(num: Sequence[int], p1: int, p0: int, q: int) -> list[int]:
    """Integer coefficients of sum_k num[k] (p1 s + p0)^k q^(d-k), d =
    len(num) - 1: q^d times p((p1 s + p0)/q) for p = sum_k num[k] s^k, by
    Horner's rule on integer coefficient lists."""
    out: list[int] = []
    w = 1
    for c in reversed(num):
        # out * (p1 s + p0) + c w
        out = [x + y for x, y in zip([c * w] + [p1 * x for x in out],
                                     [p0 * x for x in out] + [0])]
        w *= q
    return out


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient Q b.den / (a.den e) and remainder R / (a.den e) of a by b,
    from the integer pseudo-division e a.num = Q b.num + R, e a power of
    the leading numerator of b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    B, d, lead = b.num, b.degree, b.num[-1]
    rem = list(a.num)
    quo = [0] * max(0, len(rem) - d)
    e = 1
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem.pop()
        if c:
            # lead * rem - c s^(k-d) B, whose degree-k term cancels
            rem = [lead * x for x in rem]
            for j in range(d):
                rem[k - d + j] -= c * B[j]
            quo = [lead * x for x in quo]
            quo[k - d] += c
            e *= lead
    den = a.den * e
    return Poly.over([x * b.den for x in quo], den), Poly.over(rem, den)


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
    q, rem = divmod_poly(p, Poly([-r, 1]))
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
    signs = [v for v in (f.sign_at(x) for f in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(q: Poly, chain: Sequence[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct roots of square-free q in (a, b); endpoints must not be roots."""
    if not q.sign_at(a) or not q.sign_at(b):
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
    while q.degree >= 1 and not q.sign_at(a):
        q = deflate(q, a)
    while q.degree >= 1 and not q.sign_at(b):
        q = deflate(q, b)
    if q.degree < 1:
        return []
    markers: list[RootMarker] = []
    chain = sturm_chain(q)
    _isolate_rec(q, chain, a, b, markers)
    markers.sort(key=lambda m: (m.lower, m.upper))
    markers = _separate(q, chain, markers, a, b)
    return [_exactify(q, m) for m in markers]


def _sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
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
    if not q.sign_at(mid):
        out.append(RootMarker(mid, mid, exact=mid))
        # Step off the root to points that are not roots of q, with no other
        # root between them and mid, so every interval handed on (and later
        # refined against q's own chain) has non-root endpoints.
        q2 = deflate(q, mid)
        chain2 = sturm_chain(q2)
        delta = (hi - lo) / 4
        while (not q.sign_at(mid - delta) or not q.sign_at(mid + delta)
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
    if not q.sign_at(mid):
        return RootMarker(mid, mid, exact=mid)
    if count_roots(q, chain, m.lo, mid) == 1:
        return RootMarker(m.lo, mid)
    return RootMarker(mid, m.hi)


def _separate(q: Poly, chain, markers: list[RootMarker], a: Fraction,
              b: Fraction) -> list[RootMarker]:
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
    if p.sign_at(a) > 0:
        return False, a
    if p.sign_at(b) > 0:
        return False, b
    if p.degree < 1:
        return True, None
    markers = isolate_roots(p, a, b)
    for t in gap_samples(markers, a, b):
        if p.sign_at(t) > 0:
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
        s = q.sign_at(x)
        if s:
            if direction < 0 and k % 2 == 1:
                s = -s
            return s
        q = q.derivative()
        k += 1
    return 0
