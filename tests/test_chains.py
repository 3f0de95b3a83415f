"""Chains of polytope operations, and the localization identities that
check every edge record a walk or a derived step produces."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, multiple, rule

from momentcut.corpus import asymmetric_wedge, delzant_corpus
from momentcut.dh import critical_values
from momentcut.errors import PreconditionError
from momentcut.lattice import dot, generic_direction
from momentcut.ops import BlowupParams, CutSide, add_fixed_points, blowup, compactify, cut
from momentcut.polytope import (
    Facet,
    LabeledPolytope,
    intersect_halfspace,
    irredundant,
    reversed_polytope,
    slice_at,
    transform,
    vertices,
    volume,
)

from conftest import (OPEN_WEDGE, chopped_box, localization_sums, random_unimodular,
                      volume_by_triangulation, walked)

F = Fraction


def _level(P: LabeledPolytope, k: int) -> Fraction:
    """A regular level: k/16 of the way between two consecutive critical
    values, the k-th pair counted cyclically, or below a single one."""
    crit = critical_values(P)
    if len(crit) == 1:
        return crit[0] - F(k, 16)
    i = k % (len(crit) - 1)
    return crit[i] + (crit[i + 1] - crit[i]) * F(k % 15 + 1, 16)


def _moved(P: LabeledPolytope, shift: Fraction) -> LabeledPolytope:
    n = P.dim
    return transform(P, [[int(i == j) for j in range(n)] for i in range(n)],
                     [shift] + [0] * (n - 1))


def _blown_up(P: LabeledPolytope, corner: int, fraction: Fraction) -> LabeledPolytope:
    """P with the corner-th vertex chopped at a legal depth: a fraction < 1
    of the least slack of the other vertices under the unchopped normal, or
    of 1 when it is the only vertex."""
    verts = vertices(P)
    v = verts[corner % len(verts)]
    act = sorted(v.active)
    raw = [sum(P.facets[i].normal[k] for i in act) for k in range(P.dim)]
    margin = min((sum(P.facets[i].offset for i in act) - dot(raw, w.point)
                  for w in verts if w is not v), default=1)
    return blowup(P, BlowupParams(v.point, margin * fraction))[0]


def _fixed_points_added(P: LabeledPolytope, k: int) -> LabeledPolytope:
    """add_fixed_points on P moved so that a regular level below its second
    critical value sits at 0, with an eps below that value."""
    crit = critical_values(P)
    m = crit[0] + (crit[1] - crit[0]) * F(k % 15 + 1, 16)
    return add_fixed_points(_moved(P, -m), (crit[1] - m) * F(k // 15 % 15 + 1, 16))[0]


# -- the localization identities on every edge record ------------------------

@st.composite
def _localization_cases(draw):
    """A simple bounded polytope, walked or derived, with a c that pairs to
    nonzero with each of its edge generators."""
    if draw(st.booleans()):
        P = draw(st.sampled_from([P for _, P in delzant_corpus()] + [asymmetric_wedge()]))
    else:
        n = draw(st.integers(2, 3))
        corners = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), unique=True, max_size=4))
        # at depth 1/2 the chops of adjacent corners meet: not simple
        P = chopped_box(n, corners, draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 3)])))
    n = P.dim
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    k = draw(st.integers(0, 255))
    op = draw(st.sampled_from(["walk", "cut", "blowup", "add_fixed_points", "slice",
                               "irredundant", "loose facet", "image"]))
    try:
        if op == "cut":
            P = cut(P, _level(P, k), draw(st.sampled_from(CutSide)))
        elif op == "blowup":
            P = _blown_up(P, k, draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)])))
        elif op == "add_fixed_points":
            P = _fixed_points_added(P, k)
        elif op == "slice":
            P = slice_at(P, _level(P, k)).polytope
        elif op == "irredundant":
            # a copy of a facet moved outwards: held by no vertex, dropped
            f = P.facets[k % len(P.facets)]
            P = irredundant(LabeledPolytope(n, P.facets + (Facet(f.normal, f.offset + 1),)))
        elif op == "loose facet":
            # a half-space step that cuts nothing off
            f = P.facets[k % len(P.facets)]
            P = intersect_halfspace(P, Facet(f.normal, f.offset + F(1, 3), 2))
    except PreconditionError:
        pass            # an orbifold vertex that no blow-up takes
    if op == "image" or draw(st.booleans()):
        P = transform(P, random_unimodular(rng, P.dim),
                      [F(rng.randint(-3, 3), 2) for _ in range(P.dim)])
    gens = [g for es in P.structure().edges for g in es]
    c = draw(st.lists(st.integers(-4, 4), min_size=P.dim, max_size=P.dim))
    if any(dot(c, g) == 0 for g in gens):
        c = generic_direction(gens, P.dim)[0]
    return P, tuple(c)


@settings(max_examples=100, deadline=None)
@given(case=_localization_cases())
def test_localization_sums_match_the_triangulation(case):
    # S_0 .. S_{n-1} vanish, S_n is n! vol and S_{n+1} the first moment:
    # a flipped generator, a lost vertex or a wrong det breaks one of them
    P, c = case
    n = P.dim
    S = localization_sums(P, c)
    assert S[:n] == [0] * n
    assert S[n] == math.factorial(n) * volume_by_triangulation(P)
    assert S[n + 1] == math.factorial(n + 1) * volume_by_triangulation(P, c)


# -- operation chains ---------------------------------------------------------

class OperationChains(RuleBasedStateMachine):
    """Cuts, compactifications, blow-ups, fixed points, images, reversals
    and slices, chained over the corpus, the wedges and chopped boxes.
    Every polytope a rule derives is checked: its structure is a fresh
    walk's, reversing it twice gives it back, and when it is bounded its
    two cuts at a regular level add up to its volume."""

    polytopes = Bundle("polytopes")

    @initialize(target=polytopes, P=st.sampled_from(
        [P for _, P in delzant_corpus()] + [asymmetric_wedge(), OPEN_WEDGE]))
    def start(self, P):
        return P

    @initialize(target=polytopes, n=st.integers(2, 3), seed=st.integers(0, 2 ** 16),
                depth=st.sampled_from([F(1, 8), F(1, 4), F(1, 3)]))
    def start_from_a_chopped_box(self, n, seed, depth):
        rng = random.Random(seed)
        corners = rng.sample(list(product((0, 1), repeat=n)), rng.randint(0, 3))
        return transform(chopped_box(n, corners, depth), random_unimodular(rng, n), [0] * n)

    def _checked(self, *derived: LabeledPolytope):
        for Q in derived:
            assert Q.structure() == walked(Q).structure()
            R = reversed_polytope(reversed_polytope(Q))
            assert R.facets == Q.facets and R.structure() == Q.structure()
            qst = Q.structure()
            if qst.bounded and qst.full_dim and len(critical_values(Q)) > 1:
                a = _level(Q, 7)
                assert volume(cut(Q, a, CutSide.BELOW)) + volume(cut(Q, a, CutSide.ABOVE)) \
                    == volume(Q)
        return multiple(*(Q for Q in derived if Q.dim >= 2))

    def _refusable(self, make):
        try:
            return self._checked(make())
        except PreconditionError:
            return multiple()       # a level outside the image, an orbifold corner

    @rule(target=polytopes, P=polytopes, k=st.integers(0, 255))
    def cut_both_sides(self, P, k):
        a = _level(P, k)
        try:
            below = cut(P, a, CutSide.BELOW)
            above = cut(P, a, CutSide.ABOVE)
        except PreconditionError:
            return multiple()       # one side of a single critical value is empty
        return self._checked(below, above)

    @rule(target=polytopes, P=polytopes, k=st.integers(0, 255), j=st.integers(0, 255))
    def compactify_between(self, P, k, j):
        a, b = sorted([_level(P, k), _level(P, j)])
        return self._refusable(lambda: compactify(P, a, b)) if a < b else multiple()

    @rule(target=polytopes, P=polytopes, corner=st.integers(0, 255),
          fraction=st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
    def blow_up(self, P, corner, fraction):
        return self._refusable(lambda: _blown_up(P, corner, fraction))

    @rule(target=polytopes, P=polytopes, k=st.integers(0, 255))
    def add_fixed_points_above_zero(self, P, k):
        if len(critical_values(P)) < 2:
            return multiple()
        return self._refusable(lambda: _fixed_points_added(P, k))

    @rule(target=polytopes, P=polytopes, seed=st.integers(0, 2 ** 16))
    def unimodular_image(self, P, seed):
        rng = random.Random(seed)
        return self._checked(transform(P, random_unimodular(rng, P.dim),
                                       [F(rng.randint(-3, 3), 2) for _ in range(P.dim)]))

    @rule(target=polytopes, P=polytopes)
    def reverse(self, P):
        return self._checked(reversed_polytope(P))

    @rule(target=polytopes, P=polytopes, k=st.integers(0, 255))
    def slice_at_a_regular_level(self, P, k):
        Q = slice_at(P, _level(P, k)).polytope
        return multiple() if Q is None else self._checked(Q)


OperationChains.TestCase.settings = settings(
    max_examples=80, stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestOperationChains = OperationChains.TestCase
