from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

import momentcut.ratpoly
from momentcut.lattice import over_common_denominator
from momentcut.ratpoly import (
    Poly,
    affine_substitute,
    deflate,
    divmod_poly,
    gap_samples,
    isolate_roots,
    nonpositive_on,
    one_sided_sign,
    squarefree,
)

from conftest import (
    FractionPoly,
    fraction_divmod,
    interpolate,
    isolate_roots_by_sturm,
    nonpositive_by_sturm,
)

F = Fraction
coeffs = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6),
                  min_size=1, max_size=6)
# small and huge numerators and denominators, zeros (so the zero
# polynomial and trailing zeros), and leading coefficients of either sign
_RATIONAL = (st.sampled_from([F(0), F(1), F(-1)])
             | st.fractions(min_value=-8, max_value=8, max_denominator=12)
             | st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)))
_COEFFS = st.lists(_RATIONAL, max_size=7)


def test_eval_and_arith():
    p = Poly([F(1), F(2), F(3)])            # 1 + 2s + 3s^2
    q = Poly([F(0), F(1)])                  # s
    assert p(F(2)) == 17
    assert (p + q)(F(2)) == 19
    assert (p * q)(F(2)) == 34
    assert p.derivative().coeffs == (F(2), F(6))
    assert p.integrate(F(0), F(1)) == F(1) + F(1) + F(1)


def test_interpolation_exact():
    pts = [(F(0), F(1)), (F(1), F(2)), (F(2), F(5))]
    p = interpolate(pts)
    assert p.coeffs == (F(1), F(0), F(1))
    for x, y in pts:
        assert p(x) == y


@given(coeffs, st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_deflation_inverse_of_root_multiplication(cs, r):
    p = Poly(cs)
    if p.is_zero():
        return
    q = p * Poly([-r, F(1)])
    assert deflate(q, r) == p


def test_isolate_roots_against_numpy():
    # (s - 1)(s^2 - 2)(s + 3): roots -3, -sqrt2, 1, sqrt2
    p = (Poly([F(-1), F(1)]) * Poly([F(-2), F(0), F(1)]) * Poly([F(3), F(1)]))
    markers = isolate_roots(p, F(-10), F(10))
    true_roots = sorted(np.roots([float(c) for c in reversed(p.coeffs)]).real)
    assert len(markers) == 4
    for m, r in zip(markers, true_roots):
        assert float(m.lower) - 1e-12 <= r <= float(m.upper) + 1e-12


def test_isolate_respects_interval():
    p = Poly([F(-2), F(0), F(1)])  # roots +-sqrt2
    assert len(isolate_roots(p, F(0), F(10))) == 1
    assert len(isolate_roots(p, F(-10), F(0))) == 1
    assert isolate_roots(p, F(2), F(10)) == []


def test_isolate_exact_rational_roots():
    p = Poly([F(-1, 3), F(1)])  # root 1/3
    markers = isolate_roots(p, F(-1), F(1))
    assert len(markers) == 1 and markers[0].exact == F(1, 3)
    q = Poly([F(1, 4), F(-1), F(1)])  # (s - 1/2)^2
    markers = isolate_roots(q, F(0), F(1))
    assert len(markers) == 1 and markers[0].exact == F(1, 2)


def test_gap_samples_are_root_free():
    p = (Poly([F(-1), F(1)]) * Poly([F(-2), F(0), F(1)]))
    markers = isolate_roots(p, F(-5), F(5))
    for t in gap_samples(markers, F(-5), F(5)):
        assert p(t) != 0


@given(coeffs, st.fractions(min_value=-3, max_value=0, max_denominator=4),
       st.fractions(min_value=1, max_value=4, max_denominator=4))
def test_nonpositive_matches_dense_float_scan(cs, a, b):
    p = Poly(cs)
    ok, witness = nonpositive_on(p, a, b)
    xs = np.linspace(float(a), float(b), 500)
    vals = [sum(float(c) * x**k for k, c in enumerate(p.coeffs)) for x in xs]
    scan_says_positive = max(vals) > 1e-9
    if scan_says_positive:
        assert not ok
    if not ok:
        assert a <= witness <= b and p(witness) > 0


def test_nonpositive_examples():
    assert nonpositive_on(Poly([F(-1)]), F(0), F(1)) == (True, None)
    assert nonpositive_on(Poly([]), F(0), F(1)) == (True, None)
    ok, w = nonpositive_on(Poly([F(0), F(0), F(1)]), F(-1), F(1))
    assert not ok
    assert nonpositive_on(Poly([F(0), F(0), F(-1)]), F(-1), F(1))[0]
    # touches zero at interior points but stays nonpositive
    root_pair = Poly([F(-1, 16), F(0), F(1)])          # s^2 - 1/16
    p = -(root_pair * root_pair)                       # -(s^2 - 1/16)^2
    assert nonpositive_on(p, F(-1), F(1))[0]
    # while 1/16 - s^2 is positive between the roots
    assert not nonpositive_on(-root_pair, F(-1), F(1))[0]


def test_bisection_through_an_exact_root():
    # s^3 - s^2 - s = s (s^2 - s - 1): the first bisection of (-1, 1) lands on
    # the root 0, and p > 0 between -0.618... and 0
    p = Poly([F(0), F(-1), F(-1), F(1)])
    ok, w = nonpositive_on(p, F(-3), F(1))
    assert not ok and -3 <= w <= 1 and p(w) > 0
    markers = isolate_roots(p, F(-3), F(1))
    assert len(markers) == 2 and markers[1].exact == 0
    assert markers[0].upper < markers[1].lower
    # 3s^3 - s^2/3 - 3s + 1/3 = (3s - 1/3)(s^2 - 1): roots -1, 1/9, 1
    q = Poly([F(1, 3), F(-3), F(-1, 3), F(3)])
    markers = isolate_roots(q, F(-3), F(2))
    assert len(markers) == 3
    for m, r in zip(markers, [F(-1), F(1, 9), F(1)]):
        assert m.lower <= r <= m.upper
    ok, w = nonpositive_on(q, F(-3), F(1))
    assert not ok and q(w) > 0


def test_one_sided_signs():
    s2 = Poly([F(0), F(0), F(1)])
    assert one_sided_sign(s2, F(0), +1) == 1
    assert one_sided_sign(s2, F(0), -1) == 1
    s1 = Poly([F(0), F(1)])
    assert one_sided_sign(s1, F(0), +1) == 1
    assert one_sided_sign(s1, F(0), -1) == -1
    s3 = Poly([F(0), F(0), F(0), F(1)])
    assert one_sided_sign(s3, F(0), -1) == -1
    assert one_sided_sign(Poly([]), F(0), 1) == 0


def test_squarefree():
    p = Poly([F(-1), F(1)]) * Poly([F(-1), F(1)]) * Poly([F(1), F(1)])
    sf = squarefree(p)
    assert sf.degree == 2
    assert sf(F(1)) == 0 and sf(F(-1)) == 0


def _same(p: Poly, oracle: FractionPoly) -> bool:
    return p.coeffs == oracle.coeffs


@settings(max_examples=400, deadline=None)
@given(a=_COEFFS, b=_COEFFS, x=_RATIONAL, alpha=_RATIONAL, beta=_RATIONAL)
def test_integer_poly_matches_fraction_oracle(a, b, x, alpha, beta):
    p, q = Poly(a), Poly(b)
    fp, fq = FractionPoly(a), FractionPoly(b)
    assert _same(p, fp) and _same(q, fq)
    assert p.den > 0 and (not p.num or p.num[-1] != 0)
    assert _same(p + q, fp + fq) and _same(p - q, fp - fq) and _same(p * q, fp * fq)
    assert _same(-p, FractionPoly([]) - fp)
    assert _same(p.derivative(), fp.derivative())
    (p1, p0), q1 = over_common_denominator((alpha, beta))
    composed = Poly.over(affine_substitute(p.num, p1, p0, q1), p.den * q1 ** max(p.degree, 0))
    assert _same(composed, fp.compose_affine(alpha, beta))
    assert _same(p.monic(), fp.monic())
    assert p(x) == fp(x)
    assert p.sign_at(x) == (fp(x) > 0) - (fp(x) < 0)
    assert p.integrate(x, alpha) == fp.integrate(x, alpha)
    if not fq.is_zero():
        quo, rem = divmod_poly(p, q)
        fquo, frem = fraction_divmod(fp, fq)
        assert _same(quo, fquo) and _same(rem, frem)
    # one reduced form per rational polynomial: == and hash follow the
    # coefficients, also for a form built over a larger denominator
    assert (p == q) == (fp == fq)
    if p == q:
        assert hash(p) == hash(q)
    k = 6 * x.denominator * (x.numerator or 1)
    scaled = Poly.over([c * k for c in p.num], p.den * k)
    assert scaled == p and hash(scaled) == hash(p)


def test_squarefree_only_when_a_root_may_be_inside(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return squarefree(q)
    monkeypatch.setattr(momentcut.ratpoly, "squarefree", counting)
    # Descartes' bound is 0 on a root-free interval: no gcd
    assert isolate_roots(Poly([F(-1), F(1)]), F(1), F(2)) == []
    assert isolate_roots(Poly([F(-2), F(0), F(1)]), F(2), F(10)) == []
    assert isolate_roots(Poly([F(3)]), F(0), F(1)) == []
    assert calls == []
    # one gcd per isolation that holds a root, also through an exact
    # bisection point (the root 0 of the last)
    cases = [
        (Poly([F(-1), F(1)]) * Poly([F(-2), F(0), F(1)]) * Poly([F(3), F(1)]), F(-10), F(10)),
        (Poly([F(-2), F(0), F(1)]), F(0), F(10)),
        (Poly([F(1, 4), F(-1), F(1)]), F(0), F(1)),
        (Poly([F(-1, 7), F(4), F(0), F(-5), F(0), F(1)]), F(-3), F(3)),
        (Poly([F(0), F(-1), F(-1), F(1)]), F(-3), F(1)),
    ]
    for p, a, b in cases:
        calls.clear()
        assert isolate_roots(p, a, b)
        assert len(calls) == 1


# roots at halving points of dyadic intervals and at other rationals
_DYADIC = st.builds(lambda k, e: F(k, 2 ** e), st.integers(-24, 24), st.integers(0, 4))
_POINT = _DYADIC | st.fractions(min_value=-4, max_value=4, max_denominator=9)
_LINEAR = _POINT.map(lambda r: Poly([-r, F(1)]))
# (s - c)^2 - k with k not a rational square: the roots c +- sqrt(k)
_QUADRATIC = st.builds(lambda c, k: Poly([c * c - k, -2 * c, F(1)]),
                       _POINT, st.sampled_from([F(2), F(3), F(5), F(1, 2), F(7, 4)]))


@st.composite
def _real_rooted(draw):
    """A product of linear and irrational quadratic factors, some repeated,
    times a nonzero rational."""
    p = Poly([draw(st.sampled_from([F(1), F(-1), F(3, 2), F(-5, 7)]))])
    for f in draw(st.lists(_LINEAR | _QUADRATIC, max_size=4)):
        for _ in range(draw(st.integers(1, 2))):
            p = p * f
    return p


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(_POINT, min_size=1, max_size=2), quadratic=_QUADRATIC,
       c=st.sampled_from([F(1), F(-3, 2)]), ab=st.tuples(_POINT, _POINT))
def test_low_degree_roots_are_exact_when_rational(roots, quadratic, c, ab):
    # the quadratic formula on the integer numerators against roots known by
    # construction: a rational root comes back exact, an irrational one not
    a, b = min(ab), max(ab)
    p = Poly([c])
    for r in roots:
        p = p * Poly([-r, F(1)])
    assert [m.exact for m in isolate_roots(p, a, b)] == sorted({r for r in roots if a < r < b})
    assert all(m.exact is None for m in isolate_roots(quadratic, a, b))


# dyadic ends a power of 2 apart, so that roots fall on halving points, or
# ends anywhere
_INTERVAL = (st.tuples(_DYADIC, st.integers(-1, 4)).map(lambda t: (t[0], t[0] + F(2) ** t[1]))
             | st.tuples(_POINT, st.fractions(min_value=F(1, 9), max_value=8, max_denominator=9)
                         ).map(lambda t: (t[0], t[0] + t[1])))


@settings(max_examples=300, deadline=None)
@given(p=_real_rooted(), ab=_INTERVAL)
@example(p=Poly([F(0), F(-1), F(-1), F(1)]), ab=(F(-3), F(1)))
@example(p=Poly([F(1, 3), F(-3), F(-1, 3), F(3)]), ab=(F(-3), F(2)))
@example(p=Poly([F(1, 3), F(-3), F(-1, 3), F(3)]), ab=(F(-3), F(1)))
def test_isolation_matches_sturm_oracle(p, ab):
    # for real-rooted p Descartes' bound is the number of roots, so the
    # halving stops where Sturm's count did: the same markers
    a, b = ab
    assert isolate_roots(p, a, b) == isolate_roots_by_sturm(p, a, b)
    assert nonpositive_on(p, a, b) == nonpositive_by_sturm(p, a, b)
    assert nonpositive_on(-p, a, b) == nonpositive_by_sturm(-p, a, b)
