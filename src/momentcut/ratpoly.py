"""Polynomials with exact rational coefficients: integer numerators, low
degree first, over one positive denominator, in lowest terms.  Arithmetic
and signs work on the integers; `coeffs` gives `Fraction`s, for output.

Complete sign decisions on closed intervals rest on Descartes' rule of
signs over the interval (Collins-Akritas 1976): halve until the bound on
the roots inside is 0 or 1; at 0 it also gives p's sign there.  Real roots
are reported as exact rationals when they are rational and as isolating
intervals with rational endpoints otherwise; either way the sign pattern
between consecutive roots is decided exactly, never by floating point.
"""
from __future__ import annotations

import math
from collections import namedtuple
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

    def _value(self, x) -> tuple[int, int]:
        """p(x) as an integer over a positive one, not in lowest terms."""
        return self._homogeneous(x), self.den * x.denominator ** max(self.degree, 0)

    def sign_at(self, x: Fraction) -> int:
        """The sign of p(x) for a rational x, -1, 0 or 1."""
        h = self._homogeneous(x)
        return (h > 0) - (h < 0)

    def __call__(self, s: Fraction) -> Fraction:
        return Fraction(*self._value(_fraction(s)))

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
# root isolation by Descartes' rule of signs
# ---------------------------------------------------------------------------

def _variations(q: Poly, lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """Descartes' bound on the roots of q in the open (lo, hi), counted with
    multiplicity: the sign changes of (1 + y)^d q((hi + lo y) / (1 + y)),
    whose positive roots y are those roots.  The bound exceeds their number
    by an even number, so 0 and 1 are exact.  With it the sign of the first
    nonzero coefficient (0 for q = 0); at a bound of 0 it is q's on (lo, hi)."""
    (u, v), w = over_common_denominator((lo, hi))
    # w^d q((u + (v - u) t) / w), then (1 + y)^d times that at t = 1 / (1 + y)
    r = affine_substitute(q.num, v - u, u, w)
    signs = [c > 0 for c in affine_substitute(r[::-1], 1, 1, 1) if c]
    sign = (1 if signs[0] else -1) if signs else 0
    return sum(x != y for x, y in zip(signs, signs[1:])), sign


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RootMarker(namedtuple("RootMarker", "lo hi exact", defaults=(None,))):
    """One real root: exact rational, or contained in the open (lo, hi)."""

    __slots__ = ()

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
    a, b = _fraction(a), _fraction(b)
    if p.degree < 1 or a >= b or not _variations(p, a, b)[0]:
        return []
    q = squarefree(p)
    while q.degree >= 1 and not q.sign_at(a):
        q = deflate(q, a)
    while q.degree >= 1 and not q.sign_at(b):
        q = deflate(q, b)
    if q.degree < 1:
        return []
    markers = _separate(q, _isolate(q, a, b), a, b)
    return [_exactify(q, m) for m in markers]


def _exactify(q: Poly, m: RootMarker) -> RootMarker:
    """Replace an isolating interval by the exact rational root when the
    defining polynomial has degree <= 2 (always the case for derivative
    polynomials of chamber volumes up to dimension 4): on q's numerators,
    a quadratic's roots are rational when its discriminant is a square."""
    if m.exact is not None or q.degree > 2:
        return m
    roots = [Fraction(-q.num[0], q.num[1])] if q.degree == 1 else []
    if q.degree == 2:
        c, b, a = q.num
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        if r * r != disc:
            return m
        roots = [Fraction(-b + r, 2 * a), Fraction(-b - r, 2 * a)]
    for r in roots:
        if m.lo < r < m.hi:
            return RootMarker(r, r, exact=r)
    return m


def _isolate(q: Poly, lo: Fraction, hi: Fraction) -> list[RootMarker]:
    """Markers for the roots of square-free q in (lo, hi), in order, by
    halving until Descartes' bound is 0 or 1; lo and hi are not roots."""
    n = _variations(q, lo, hi)[0]
    if n < 2:
        return [RootMarker(lo, hi)] if n else []
    mid = (lo + hi) / 2
    if q.sign_at(mid):
        return _isolate(q, lo, mid) + _isolate(q, mid, hi)
    # Step off the root to points that are not roots of q, with no other
    # root between them and mid, so every interval handed on (and later
    # refined by the signs at its ends) has non-root endpoints.
    q2 = deflate(q, mid)
    delta = (hi - lo) / 4
    while (not q.sign_at(mid - delta) or not q.sign_at(mid + delta)
           or _isolate(q2, mid - delta, mid + delta)):
        delta /= 2
    return (_isolate(q, lo, mid - delta) + [RootMarker(mid, mid, exact=mid)]
            + _isolate(q, mid + delta, hi))


def _refine(q: Poly, m: RootMarker) -> RootMarker:
    """Halve an isolating interval, keeping its one root inside: q changes
    sign across it, and its ends are not roots."""
    if m.exact is not None:
        return m
    mid = (m.lo + m.hi) / 2
    s = q.sign_at(mid)
    if not s:
        return RootMarker(mid, mid, exact=mid)
    if s != q.sign_at(m.lo):
        return RootMarker(m.lo, mid)
    return RootMarker(mid, m.hi)


def _separate(q: Poly, markers: list[RootMarker], a: Fraction,
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
                markers[i] = _refine(q, m)
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
    a, b = _fraction(a), _fraction(b)
    if p.is_zero():
        return True, None
    if p.sign_at(a) > 0:
        return False, a
    if p.sign_at(b) > 0:
        return False, b
    if p.degree < 1:
        return True, None
    n, s = _variations(p, a, b)
    if not n:
        return (True, None) if s <= 0 else (False, (a + b) / 2)
    for t in gap_samples(isolate_roots(p, a, b), a, b):
        if p.sign_at(t) > 0:
            return False, t
    return True, None


def one_sided_sign(p: Poly, x: Fraction, direction: int) -> int:
    """Sign of p just to the right (direction=+1) or left (-1) of x.

    Taylor expansion: the first non-vanishing derivative at x decides, with
    a (-1)^k twist on the left side.
    """
    for k in range(len(p.num)):
        s = p.sign_at(x)
        if s:
            return -s if direction < 0 and k % 2 == 1 else s
        p = p.derivative()
    return 0
