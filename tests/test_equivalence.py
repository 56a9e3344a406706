"""The closed-form root solvers and the priced-gap kernel against the
algorithms they replaced.

The reference is the earlier general-purpose path, kept here verbatim:
companion-matrix roots (``np.roots``) polished by guarded Newton steps, and
the candidate picks applied to the roots of each mode's printed stationarity
polynomial.  Relay allocation is compared with itself running on the
reference roots.  Tolerances are fixed from the conditioning of each case,
not tuned to the results.

The penalized objectives evaluate arrays and scalars with one expression;
their reference is the earlier expression, and there the comparison is bit
for bit.
"""

from __future__ import annotations

import collections
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    NoiseModel,
    PowerBudget,
    Provenance,
    ScenarioKind,
    mac_allocation,
    noncoop_allocation,
    grid_search_optimum,
    one_side_allocation,
    penalized_objective,
    relay_allocation,
)
from coopsec import allocator, oracle
from coopsec.allocator import (
    noncoop_quadratic,
    relay_cubic_for_a,
    solve_cubic_real,
    solve_quadratic_real,
)
from coopsec.oracle import (
    mac_quadratic_pa,
    mac_quadratic_pj,
    one_side_quadratic_pa,
    relay_cubic_for_j,
)
from coopsec.rates import _DIRECT_LINKS, _scale, secrecy_rate
from conftest import DIRECT_ALLOCATIONS

# relative tolerances, fixed before the comparison was run
SEPARATED_ROOT_TOL = 1e-12
NEAR_DOUBLE_ROOT_TOL = 1e-8  # roots 1e-6 apart: condition ~ eps / 1e-6
POWER_TOL = 1e-12


def reference_roots(coeffs, merge_tol=1e-9):
    """Real roots via ``np.roots`` and guarded Newton polishing, ascending."""

    coeffs = [float(c) for c in coeffs]
    if all(c == 0.0 for c in coeffs):
        raise ValueError("polynomial is identically zero")
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    deriv = np.polyder(np.asarray(coeffs))
    roots = []
    for z in np.roots(coeffs):
        if abs(z.imag) > 1e-8 * max(1.0, abs(z)):
            continue
        x = float(z.real)
        best = abs(float(np.polyval(coeffs, x)))
        for _ in range(3):
            slope = float(np.polyval(deriv, x))
            if slope == 0.0 or not math.isfinite(slope):
                break
            step = float(np.polyval(coeffs, x)) / slope
            if not math.isfinite(step):
                break
            candidate = x - step
            value = abs(float(np.polyval(coeffs, candidate)))
            if value >= best:
                break
            x, best = candidate, value
        roots.append(x)
    roots.sort()
    merged = []
    for x in roots:
        # a quadratic's roots on either side of zero are no split double root
        apart = len(coeffs) == 3 and merged and merged[-1] < 0.0 < x
        if merged and not apart and abs(x - merged[-1]) <= merge_tol * max(1.0, abs(x)):
            continue
        merged.append(x)
    return merged


def reference_argmax(objective, roots, hi):
    candidates = [0.0]
    if hi > 0:
        candidates.append(float(hi))
    candidates.extend(float(r) for r in roots if math.isfinite(r) and 0.0 < r < hi)
    best_p, best_v = 0.0, -math.inf
    for p in sorted(candidates):
        v = float(objective(p))
        if math.isfinite(v) and v > best_v:
            best_p, best_v = p, v
    if best_p == 0.0:
        return best_p, Provenance.ZERO
    if best_p == hi:
        return best_p, Provenance.BUDGET
    return best_p, Provenance.INTERIOR


def reference_threshold(g_main, g_eve, roots, hi):
    interior = [r for r in roots if math.isfinite(r) and 0.0 < r < hi]
    if interior:
        return min(interior), Provenance.INTERIOR
    if g_main > g_eve and hi > 0:
        return float(hi), Provenance.BUDGET
    return 0.0, Provenance.ZERO


def printed_roots(coeffs):
    # a flat objective (no price, identical links) has no stationary point
    return reference_roots(coeffs) if any(coeffs) else []


def assert_roots_match(ours, theirs, tol):
    assert len(ours) == len(theirs), (ours, theirs)
    for x, y in zip(ours, theirs):
        assert abs(x - y) <= tol * max(1.0, abs(y)), (ours, theirs)


def separated(roots, gap):
    return all(hi - lo > gap * max(1.0, abs(hi)) for lo, hi in zip(roots, roots[1:]))


class TestQuadraticSolverAgainstReference:
    def test_random_separated_roots(self):
        rng = np.random.default_rng(5606)
        for _ in range(2000):
            r = np.sort(rng.uniform(-50.0, 50.0, size=2))
            if r[1] - r[0] < 1e-3:
                continue
            lead = float(rng.uniform(0.01, 100.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            coeffs = [lead, -lead * (r[0] + r[1]), lead * r[0] * r[1]]
            ours = solve_quadratic_real(coeffs)
            assert_roots_match(ours, reference_roots(coeffs), SEPARATED_ROOT_TOL)

    def test_random_coefficients(self):
        rng = np.random.default_rng(5607)
        for _ in range(2000):
            coeffs = [float(c) for c in rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3, size=3)]
            ours = solve_quadratic_real(coeffs)
            theirs = reference_roots(coeffs)
            if len(ours) == len(theirs) == 2 and abs(theirs[1] - theirs[0]) > 1e-6 * max(
                1.0, abs(theirs[1])
            ):
                assert_roots_match(ours, theirs, SEPARATED_ROOT_TOL)
            else:
                # near-tangent draws: the count may differ only at the
                # real/complex boundary, which neither algorithm resolves
                assert abs(len(ours) - len(theirs)) <= 1

    def test_near_double_roots(self):
        rng = np.random.default_rng(5608)
        for _ in range(500):
            centre = float(rng.uniform(-5.0, 5.0))
            gap = 1e-6 * max(1.0, abs(centre))
            r0, r1 = centre, centre + gap
            coeffs = [1.0, -(r0 + r1), r0 * r1]
            ours = solve_quadratic_real(coeffs)
            assert_roots_match(ours, reference_roots(coeffs), NEAR_DOUBLE_ROOT_TOL)
            assert_roots_match(ours, [r0, r1], NEAR_DOUBLE_ROOT_TOL)

    def test_roots_straddling_zero_stay_apart(self):
        # closer than the merge tolerance, but on either side of zero
        rng = np.random.default_rng(5609)
        for _ in range(500):
            r0, r1 = -(10.0 ** rng.uniform(-150, -10)), 10.0 ** rng.uniform(-150, -10)
            coeffs = [1.0, -(r0 + r1), r0 * r1]
            ours, theirs = solve_quadratic_real(coeffs), reference_roots(coeffs)
            assert len(ours) == len(theirs) == 2, (coeffs, ours, theirs)
            for want in (theirs, [r0, r1]):
                assert ours == pytest.approx(want, rel=SEPARATED_ROOT_TOL), (coeffs, ours, want)

    def test_exact_double_root_is_kept(self):
        for centre in (-3.0, 0.5, 1.0, 7.25):
            coeffs = [2.0, -4.0 * centre, 2.0 * centre * centre]
            assert solve_quadratic_real(coeffs) == [centre]
            # the eigenvalue path keeps it at 0.5 and 1 but splits it into a
            # complex pair (imaginary part ~4e-8 and ~1e-7) at -3 and 7.25
            assert reference_roots(coeffs) == ([centre] if centre in (0.5, 1.0) else [])

    @pytest.mark.parametrize(
        "coeffs", [[0.0, 2.0, -4.0], [0.0, -3.0, 1.5], [0.0, 0.0, 5.0], [0.0, 7.0, 0.0]]
    )
    def test_zero_leading_coefficient(self, coeffs):
        assert solve_quadratic_real(coeffs) == pytest.approx(reference_roots(coeffs), rel=1e-15)

    def test_severe_cancellation(self):
        # x^2 + 1e8 x + 1: the textbook formula loses the small root to
        # cancellation (it returns about -7.45e-9); the exact roots are
        # -1e8 and -1e-8 to double precision
        coeffs = [1.0, 1e8, 1.0]
        ours = solve_quadratic_real(coeffs)
        assert_roots_match(ours, reference_roots(coeffs), SEPARATED_ROOT_TOL)
        assert ours[1] == pytest.approx(-1e-8, rel=1e-15)
        assert ours[0] == pytest.approx(-1e8, rel=1e-15)

    def test_no_overflow_for_huge_coefficients(self):
        roots = solve_quadratic_real([1e200, -3e200, 2e200])
        assert roots == pytest.approx([1.0, 2.0], rel=1e-15)


class TestCubicSolverAgainstReference:
    def test_relay_cubics(self):
        # the benchmark's parameter ranges, with path loss from distances in
        # [0.3, 3] and the own-message power anywhere in [0, 10]
        rng = np.random.default_rng(5609)
        for _ in range(1000):
            gains = ChannelGains(
                *(rng.uniform(0.05, 0.6, size=6) * rng.uniform(0.3, 3.0, size=6) ** -2.0)
            )
            noise = NoiseModel(float(rng.uniform(0.5, 2.0)))
            alpha = float(rng.uniform(0.3, 1.0))
            price = float(10.0 ** rng.uniform(-3.0, 0.0))
            own = float(rng.uniform(0.0, 10.0))
            for coeffs in (
                relay_cubic_for_a(gains, noise, p_a=own, alpha=alpha, price=price),
                relay_cubic_for_j(gains, noise, p_j=own, alpha=alpha, price=price),
            ):
                theirs = reference_roots(coeffs)
                assert separated(theirs, 1e-6)
                assert_roots_match(solve_cubic_real(coeffs), theirs, SEPARATED_ROOT_TOL)

    def test_random_separated_roots(self):
        rng = np.random.default_rng(5610)
        for _ in range(2000):
            r = np.sort(rng.uniform(-50.0, 50.0, size=3))
            if not separated(list(r), 0.02):
                continue
            lead = float(rng.uniform(0.01, 100.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            coeffs = [float(c) for c in lead * np.poly(r)]
            ours = solve_cubic_real(coeffs)
            assert_roots_match(ours, reference_roots(coeffs), SEPARATED_ROOT_TOL)
            assert_roots_match(ours, list(r), SEPARATED_ROOT_TOL)

    def test_random_coefficients(self):
        rng = np.random.default_rng(5611)
        for _ in range(2000):
            coeffs = [float(c) for c in rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3, size=4)]
            ours = solve_cubic_real(coeffs)
            theirs = reference_roots(coeffs)
            if separated(theirs, 1e-6):
                assert_roots_match(ours, theirs, SEPARATED_ROOT_TOL)
            else:
                # near-tangent draws: the count may differ only at the
                # real/complex boundary, which neither algorithm resolves
                assert abs(len(ours) - len(theirs)) <= 1


gain = st.floats(min_value=0.0, max_value=1.0)
positive_gain = st.floats(min_value=1e-3, max_value=1.0)


@st.composite
def direct_point(draw):
    g = {name: draw(positive_gain) for name in ("g_ab", "g_ae", "g_jb", "g_je")}
    # identical legitimate and tapped links on either side
    if draw(st.booleans()):
        g["g_ae"] = g["g_ab"]
    if draw(st.booleans()):
        g["g_je"] = g["g_jb"]
    gains = ChannelGains(**g, g_aj=draw(gain))
    noise = NoiseModel(draw(st.floats(min_value=0.05, max_value=5.0)))
    budget = PowerBudget(
        draw(st.floats(min_value=0.0, max_value=50.0)),
        draw(st.floats(min_value=0.0, max_value=50.0)),
    )
    alpha = draw(st.floats(min_value=0.05, max_value=1.0))
    price = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=2.0)))
    return gains, noise, budget, alpha, price


def assert_same_decision(ours, theirs):
    assert ours[1] is theirs[1]
    assert math.isclose(ours[0], theirs[0], rel_tol=POWER_TOL, abs_tol=0.0), (ours, theirs)


# Two powers tie under a priced gap when its float values there agree within
# TIE_ULPS units in the last place of the largest magnitude among its terms
# and values, or within TIE_FLOOR, below which a subnormal budget's values lie.
TIE_ULPS = 4.0
TIE_FLOOR = 2.0**-1064


def is_tie(key, p, q):
    """Whether powers ``p`` and ``q`` tie under the priced gap ``key``."""

    g_main, g_eve, s2, lam, scale = key
    at_p, at_q = key(p), key(q)
    magnitudes = [abs(at_p), abs(at_q)]
    for x in (scale * p, scale * q):
        magnitudes += [math.log1p(g_main * x / s2), math.log1p(g_eve * x / s2), lam * x]
    return abs(at_p - at_q) <= max(TIE_ULPS * math.ulp(max(magnitudes)), TIE_FLOOR)


def assert_same_or_tied(key, ours, theirs):
    """The KKT decision ``ours`` is the scored ``theirs``, or a float tie with
    it: scoring keeps the smaller of two powers whose values round alike."""

    same = ours[1] is theirs[1] and math.isclose(ours[0], theirs[0], rel_tol=POWER_TOL)
    assert same or is_tie(key, ours[0], theirs[0]), (key, ours, theirs)


# No price and a budget of one subnormal step: the carried power's values at 0
# and at the budget round alike, so the scoring keeps zero where KKT spends.
SUBNORMAL_BUDGET_AT_NO_PRICE = (
    ChannelGains(g_ab=0.5, g_ae=0.25, g_jb=0.5, g_je=0.25, g_aj=0.0),
    NoiseModel(1.0),
    PowerBudget(5e-324, 5e-324),
    0.5,
    0.0,
)


class TestKernelAgainstPrintedPolynomials:
    """Every direct allocation equals the old pick over its printed polynomial."""

    @given(direct_point())
    @settings(max_examples=300, deadline=None)
    def test_noncoop(self, point):
        gains, noise, budget, _, lam = point
        allocation = noncoop_allocation(gains, noise, budget, price=lam)
        s2 = noise.sigma2
        for side, g_main, g_eve, hi in (
            ("p_a", gains.g_ab, gains.g_ae, budget.p_a_max),
            ("p_j", gains.g_jb, gains.g_je, budget.p_j_max),
        ):
            roots = printed_roots(noncoop_quadratic(g_main, g_eve, s2, lam))
            assert_same_decision(
                (getattr(allocation, side), allocation.provenance[side]),
                reference_threshold(g_main, g_eve, roots, hi),
            )

    @example(SUBNORMAL_BUDGET_AT_NO_PRICE)
    @given(direct_point())
    @settings(max_examples=300, deadline=None)
    def test_one_side(self, point):
        gains, noise, budget, alpha, lam = point
        allocation = one_side_allocation(gains, noise, budget, alpha=alpha, price=lam)
        kind = ScenarioKind.ONE_SIDE_COOP
        for side, coeffs, hi in (
            ("p_a", one_side_quadratic_pa(gains, noise, price=lam), budget.p_a_max),
            ("p_j", mac_quadratic_pj(gains, noise, alpha=alpha, price=lam), budget.p_j_max),
        ):
            objective = penalized_objective(kind, side, gains, noise, price=lam, alpha=alpha)
            assert_same_or_tied(
                objective,
                (getattr(allocation, side), allocation.provenance[side]),
                reference_argmax(objective, printed_roots(coeffs), hi),
            )

    @example(SUBNORMAL_BUDGET_AT_NO_PRICE)
    @given(direct_point())
    @settings(max_examples=300, deadline=None)
    def test_mac(self, point):
        gains, noise, budget, alpha, lam = point
        allocation = mac_allocation(gains, noise, budget, alpha=alpha, price=lam)
        kind = ScenarioKind.MAC_COOP
        for side, coeffs, hi in (
            ("p_j", mac_quadratic_pj(gains, noise, alpha=alpha, price=lam), budget.p_j_max),
            ("p_a", mac_quadratic_pa(gains, noise, alpha=alpha, price=lam), budget.p_a_max),
        ):
            objective = penalized_objective(kind, side, gains, noise, price=lam, alpha=alpha)
            assert_same_or_tied(
                objective,
                (getattr(allocation, side), allocation.provenance[side]),
                reference_argmax(objective, printed_roots(coeffs), hi),
            )




def scored_decision(kind, link, gains, s2, lam, alpha, hi):
    """The earlier direct-mode decision, kept verbatim: solve the priced-gap
    quadratic, then score 0, ``hi`` and its roots by objective value
    (``non_coop``: the threshold rule over the same roots)."""

    g_main, g_eve = getattr(gains, link.main), getattr(gains, link.eve)
    scale = _scale(link.alpha_power, alpha)
    coeffs = allocator._gap_quadratic(g_main, g_eve, s2, lam)
    if not any(coeffs):
        return 0.0, Provenance.ZERO
    roots = [x / scale for x in solve_quadratic_real(coeffs)]
    if kind is ScenarioKind.NON_COOP:
        return reference_threshold(g_main, g_eve, roots, hi)
    gap = allocator._Gap(g_main, g_eve, s2, lam, scale)
    p = allocator._argmax_candidate(gap.__call__, roots, hi)
    return p, allocator._provenance(p, hi)


def random_direct_draw(rng):
    """A direct mode and its inputs: gains 10^U(-3, 1), sigma2 10^U(-2, 1),
    budgets 10^U(-2, 2), alpha U(0.05, 1)."""

    kind = rng.choice(list(DIRECT_ALLOCATIONS))
    gains = {name: 10.0 ** rng.uniform(-3.0, 1.0) for name in ("g_ab", "g_ae", "g_jb", "g_je")}
    s2 = 10.0 ** rng.uniform(-2.0, 1.0)
    budget = PowerBudget(10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0))
    return kind, gains, s2, budget, rng.uniform(0.05, 1.0)


def each_decision(kind, gains, s2, budget, alpha, lam):
    """``(link, form, KKT decision, scored decision)`` for both of an
    allocation's powers."""

    gains = ChannelGains(**gains, g_aj=0.0)
    allocation = DIRECT_ALLOCATIONS[kind](gains, NoiseModel(s2), budget, alpha, lam)
    for link in _DIRECT_LINKS[kind]:
        hi = {"p_a": budget.p_a_max, "p_j": budget.p_j_max}[link.power]
        scale = _scale(link.alpha_power, alpha)
        form = allocator._Gap(getattr(gains, link.main), getattr(gains, link.eve), s2, lam, scale)
        ours = getattr(allocation, link.power), allocation.provenance[link.power]
        yield link, form, ours, scored_decision(kind, link, gains, s2, lam, alpha, hi)


def ulps_away(x, k):
    """``x`` moved ``k`` representable floats up (down for negative ``k``)."""

    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


class TestKktAgainstScoring:
    """The KKT rule decides every direct power as the earlier scoring did,
    but for float ties near a break-even price."""

    def test_generic_and_zero_prices_decide_bit_for_bit(self):
        rng = random.Random(26)
        for _ in range(3000):
            kind, gains, s2, budget, alpha = random_direct_draw(rng)
            lam = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-6.0, 1.0)
            for _, _, ours, scored in each_decision(kind, gains, s2, budget, alpha, lam):
                assert ours == scored and ours[0].hex() == scored[0].hex(), (kind, ours, scored)

    def test_near_break_even_prices_differ_only_by_ties(self):
        # a price within 4 ulp of where a power leaves zero, (g_main - g_eve) / s2,
        # or of where it leaves the budget, the gap's slope at the budget
        rng = random.Random(27)
        differ = collections.Counter()
        for _ in range(4000):
            kind, gains, s2, budget, alpha = random_direct_draw(rng)
            link = rng.choice(_DIRECT_LINKS[kind])
            g_main, g_eve = sorted((gains[link.main], gains[link.eve]), reverse=True)
            gains[link.main], gains[link.eve] = g_main, g_eve
            if rng.random() < 0.5:
                break_even = (g_main - g_eve) / s2
            else:
                hi = {"p_a": budget.p_a_max, "p_j": budget.p_j_max}[link.power]
                x = _scale(link.alpha_power, alpha) * hi
                break_even = g_main / (s2 + g_main * x) - g_eve / (s2 + g_eve * x)
            lam = max(ulps_away(break_even, rng.randint(-4, 4)), 0.0)
            for _, form, ours, scored in each_decision(kind, gains, s2, budget, alpha, lam):
                if ours != scored:
                    differ[kind.value] += 1
                    assert_same_or_tied(form, ours, scored)
        assert differ == collections.Counter(non_coop=0, one_side_coop=257, mac_coop=193)

    def test_a_zero_clamped_power_solves_no_quadratic(self, std_noise, std_budgets):
        # eavesdroppers that hear better than the receivers, and prices above break-even
        stronger_eve = ChannelGains(g_ab=0.3, g_ae=0.4, g_jb=0.3, g_je=0.5, g_aj=0.2)
        weaker_eve = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        cases = [(kind, stronger_eve, lam) for kind in DIRECT_ALLOCATIONS for lam in (0.0, 0.01)]
        cases += [(ScenarioKind.ONE_SIDE_COOP, weaker_eve, 1.0)]
        cases += [(ScenarioKind.MAC_COOP, weaker_eve, 1.0)]
        with mock.patch.object(allocator, "solve_quadratic_real", side_effect=AssertionError):
            for kind, gains, price in cases:
                allocation = DIRECT_ALLOCATIONS[kind](gains, std_noise, std_budgets, 0.8, price)
                assert set(allocation.provenance.values()) == {Provenance.ZERO}, (kind, price)
            # no budget: nothing to decide, whatever the quadratic
            for kind, allocate in DIRECT_ALLOCATIONS.items():
                allocation = allocate(weaker_eve, std_noise, PowerBudget(0.0, 0.0), 0.8, 0.01)
                assert set(allocation.provenance.values()) == {Provenance.ZERO}, kind



class TestKktAtExtremeInputs:
    """Far outside the model's usual ranges every direct decision still meets
    its KKT conditions, or the allocation refuses an SNR beyond the float range."""

    def test_every_decision_is_certified_or_refused(self):
        # sigma2 10^U(-300, 300); half of the draws take gains 10^U(-300, 300)
        rng = random.Random(28)
        outcomes = collections.Counter()
        for _ in range(1500):
            kind = rng.choice([ScenarioKind.ONE_SIDE_COOP, ScenarioKind.MAC_COOP])
            exponents = (-300.0, 300.0) if rng.random() < 0.5 else (-3.0, 1.0)
            gains = {n: 10.0 ** rng.uniform(*exponents) for n in ("g_ab", "g_ae", "g_jb", "g_je")}
            s2 = 10.0 ** rng.uniform(-300.0, 300.0)
            budget = PowerBudget(10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0))
            alpha = rng.uniform(0.05, 1.0)
            lam = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6.0, 1.0)
            links = _DIRECT_LINKS[kind]
            try:
                allocation = DIRECT_ALLOCATIONS[kind](
                    ChannelGains(**gains, g_aj=0.0), NoiseModel(s2), budget, alpha, lam
                )
            except ValueError:
                assert max(gains[link.main] / s2 for link in links) == math.inf
                outcomes["refused"] += 1
                continue
            for link in links:
                hi = {"p_a": budget.p_a_max, "p_j": budget.p_j_max}[link.power]
                scale = _scale(link.alpha_power, alpha)
                form = allocator._Gap(gains[link.main], gains[link.eve], s2, lam, scale)
                p = getattr(allocation, link.power)
                if math.isfinite(form.slope(p)[1]):
                    assert oracle._certified(form, p, hi), (form, hi, p)
                    outcomes["certified"] += 1
                else:
                    # g_main / s2 overflows at zero, the right decision when the
                    # tapped link is at least as strong
                    assert p == 0.0 and form.g_main <= form.g_eve, (form, hi, p)
                    outcomes["zero"] += 1
        assert outcomes == collections.Counter(certified=2664, zero=110, refused=113)

    def test_a_root_pair_straddling_zero_keeps_its_positive_root(self):
        # g_jb / sigma2 is about 2e288, and the quadratics' roots lie 1e-90 or
        # closer on either side of zero: a tiny power buys the budget's rates
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=1.69e105, g_je=4.76, g_aj=0.2)
        noise, budget = NoiseModel(7.63e-184), PowerBudget(0.069, 0.069)
        allocation = mac_allocation(gains, noise, budget, alpha=0.484, price=0.0157)
        assert set(allocation.provenance.values()) == {Provenance.INTERIOR}
        assert 0.0 < allocation.p_a < 1e-90 and 0.0 < allocation.p_j < 1e-90
        spent = secrecy_rate(
            ScenarioKind.MAC_COOP, gains, noise, p_a=0.069, p_j=0.069, alpha=0.484
        )
        ours, theirs = (allocation.cs.cs1, allocation.cs.cs2), (spent.cs1, spent.cs2)
        assert ours == pytest.approx(theirs, rel=1e-15)


@st.composite
def relay_point(draw):
    g = {name: draw(positive_gain) for name in ("g_ab", "g_ae", "g_jb", "g_je", "g_ja")}
    # no inter-transmitter link: the printed cubic then has an exact double root
    gains = ChannelGains(**g, g_aj=draw(st.one_of(st.just(0.0), positive_gain)))
    noise = NoiseModel(draw(st.floats(min_value=0.05, max_value=5.0)))
    budget = PowerBudget(
        draw(st.floats(min_value=0.0, max_value=50.0)),
        draw(st.floats(min_value=0.0, max_value=50.0)),
    )
    alpha = draw(st.floats(min_value=0.05, max_value=1.0))
    price = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=2.0)))
    return gains, noise, budget, alpha, price


class TestRelayAllocationAgainstReferenceRoots:
    @given(relay_point())
    @settings(max_examples=300, deadline=None)
    def test_same_decision(self, point):
        gains, noise, budget, alpha, lam = point
        kwargs = dict(alpha=alpha, price=lam)
        ours = relay_allocation(gains, noise, budget, **kwargs)
        with mock.patch.object(allocator, "solve_cubic_real", reference_roots):
            theirs = relay_allocation(gains, noise, budget, **kwargs)
        assert ours.provenance == theirs.provenance
        for name in ("p_a", "p_j", "p_ab", "p_jb"):
            ours_p, theirs_p = getattr(ours, name), getattr(theirs, name)
            assert math.isclose(ours_p, theirs_p, rel_tol=POWER_TOL, abs_tol=0.0), (ours, theirs)


def reference_log1p(p):
    """The ``log1p`` a form takes at ``p``: ``math``'s for a Python float,
    numpy's for anything else."""

    return math.log1p if type(p) is float else np.log1p


def reference_gap_objective(g_main, g_eve, s2, lam, scale):
    """The priced-gap objective as one out-of-place expression."""

    def f(p):
        x, log1p = scale * p, reference_log1p(p)
        return log1p(g_main * x / s2) - log1p(g_eve * x / s2) - lam * x

    return f


def reference_relay_objective(g_direct, g_eve, g_hop1, g_hop2, s2, lam, own_power, pay_scale):
    """The priced relay objective as one out-of-place expression."""

    base_main = g_direct * own_power / s2
    eve_term = math.log1p(g_eve * own_power / s2)
    first_hop = g_hop1 * own_power

    def f(p):
        second_hop = g_hop2 * p
        relayed = first_hop * second_hop / (s2 * (first_hop + second_hop + s2))
        return reference_log1p(p)(base_main + relayed) - eve_term - lam * pay_scale * p

    return f


REFERENCE_FORMS = {
    allocator._Gap: reference_gap_objective,
    allocator._RelaySlice: reference_relay_objective,
}


def random_objective_keys(rng, count):
    """Objective arguments of every mode and side at random parameter points."""

    keys = []
    for _ in range(count):
        gains = ChannelGains(*(float(g) for g in rng.uniform(0.0, 2.0, size=6)))
        noise = NoiseModel(float(10.0 ** rng.uniform(-3.0, 1.0)))
        terms = dict(
            price=float(10.0 ** rng.uniform(-4.0, 0.5)),
            alpha=float(rng.uniform(0.05, 1.0)),
            p_a=float(rng.uniform(0.0, 20.0)),
            p_j=float(rng.uniform(0.0, 20.0)),
        )
        for kind, sides in (
            (ScenarioKind.NON_COOP, ("p_a", "p_j")),
            (ScenarioKind.ONE_SIDE_COOP, ("p_a", "p_j")),
            (ScenarioKind.MAC_COOP, ("p_a", "p_j")),
            (ScenarioKind.RELAY_COOP, ("p_jb", "p_ab")),
        ):
            for side in sides:
                keys.append(((kind, side, gains, noise), terms))
    return keys


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestObjectivesAgainstReference:
    """Both objectives give the reference expression's bits on arrays and scalars."""

    def test_arrays_scalars_and_zero_dim(self):
        rng = np.random.default_rng(20)
        for args, terms in random_objective_keys(rng, 40):
            ours = penalized_objective(*args, **terms)
            theirs = REFERENCE_FORMS[type(ours)](*ours)
            hi = float(rng.uniform(0.0, 50.0))
            grid = np.linspace(0.0, hi, 1001)
            before = grid.copy()
            assert same_bits(ours(grid), theirs(grid)), ours
            assert grid.tobytes() == before.tobytes()
            # a strided view and a 2-d block too
            assert same_bits(ours(grid[::7]), theirs(grid[::7]))
            assert same_bits(ours(grid[:1000].reshape(40, 25)), theirs(grid[:1000].reshape(40, 25)))
            for p in (0.0, hi, float(rng.uniform(0.0, hi))):
                got, want = ours(p), theirs(p)
                assert type(got) is type(want) and same_bits(got, want)
                zero_dim = np.array(p)
                got, want = ours(zero_dim), theirs(zero_dim)
                assert type(got) is type(want) and same_bits(got, want)
                assert zero_dim == p

    def test_read_only_input(self):
        grid = np.linspace(0.0, 5.0, 11)
        grid.flags.writeable = False
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        for kind, side in ((ScenarioKind.NON_COOP, "p_a"), (ScenarioKind.RELAY_COOP, "p_jb")):
            objective = penalized_objective(
                kind, side, gains, NoiseModel(1.0), price=0.1, alpha=0.8, p_a=2.0, p_j=2.0
            )
            assert np.all(np.isfinite(objective(grid)))

    def test_grid_search_takes_the_array_path(self):
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        for kind, side in ((ScenarioKind.MAC_COOP, "p_a"), (ScenarioKind.RELAY_COOP, "p_ab")):
            objective = penalized_objective(
                kind, side, gains, NoiseModel(1.0), price=0.01, alpha=0.8, p_a=2.0, p_j=2.0
            )
            calls = []

            def recorded(p, objective=objective):
                calls.append(p)
                return objective(p)

            grid_search_optimum(recorded, 0.0, 7.5)
            arrays = [p for p in calls if isinstance(p, np.ndarray)]
            assert [a.shape for a in arrays] == [(10001,)]
            # the rest is the golden-section pass on one bracket, not a scan
            assert len(calls) - 1 < 60


def log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


@st.composite
def near_pair(draw, lo, hi):
    """Two gains, often equal or a relative nudge apart."""

    first = draw(log_uniform(lo, hi))
    nudge = draw(st.sampled_from([None, None, 0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3]))
    second = draw(log_uniform(lo, hi)) if nudge is None else first * (1.0 + nudge)
    return first, second


@st.composite
def objective_key(draw):
    """Both objective forms over wide ranges: gains 1e-4 to 1e2, prices down
    to 1e-9, near-equal legitimate and tapped gains."""

    s2 = draw(log_uniform(-2.0, 1.0))
    lam = draw(log_uniform(-9.0, 1.0))
    scale = draw(st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=1.0 / 0.3)))
    main, eve = draw(near_pair(-4.0, 2.0))
    if draw(st.booleans()):
        return allocator._Gap(main, eve, s2, lam, scale)
    hop1, hop2 = (draw(log_uniform(-4.0, 2.0)) for _ in range(2))
    own = draw(st.one_of(st.just(0.0), log_uniform(-2.0, 1.5)))
    return allocator._RelaySlice(main, eve, hop1, hop2, s2, lam, own, scale)


@st.composite
def interior_key(draw):
    """Forms over the relay audit's ranges: gains 0.05 to 1, sigma2 0.1 to 2,
    prices log-uniform from 1e-5 to 10**0.5, alpha 0.2 to 1, budgets 1 to 10;
    the gap forms' legitimate gain is the larger, so most peaks are interior."""

    gains = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(4)]
    s2 = draw(st.floats(min_value=0.1, max_value=2.0))
    lam = draw(log_uniform(-5.0, 0.5))
    alpha = draw(st.floats(min_value=0.2, max_value=1.0))
    if draw(st.booleans()):
        main, eve = max(gains[:2]), min(gains[:2])
        scale = draw(st.sampled_from([1.0, alpha, 1.0 / alpha]))
        return allocator._Gap(main, eve, s2, lam, scale)
    own = 0.5 * draw(st.floats(min_value=1.0, max_value=10.0))
    scale = draw(st.sampled_from([alpha, 1.0 / alpha]))
    return allocator._RelaySlice(*gains, s2, lam, own, scale)


def search_outcome(search, *args):
    try:
        return search(*args)
    except ValueError as exc:
        return str(exc)


def term_sum(key, p):
    """The summed magnitudes of the objective's three terms at ``p``."""

    if isinstance(key, allocator._Gap):
        g_main, g_eve, s2, lam, scale = key
        x = scale * p
        return math.log1p(g_main * x / s2) + math.log1p(g_eve * x / s2) + lam * x
    g_direct, g_eve, g_hop1, g_hop2, s2, lam, own, pay_scale = key
    first_hop, second_hop = g_hop1 * own, g_hop2 * p
    relayed = first_hop * second_hop / (s2 * (first_hop + second_hop + s2))
    return (
        math.log1p(g_direct * own / s2 + relayed)
        + math.log1p(g_eve * own / s2)
        + lam * pay_scale * p
    )


def assert_agrees_with_the_grid(key, hi):
    """The audit's argmax lies within one grid step of the exhaustive grid
    search's, and its value falls below the grid's maximum by rounding at
    most; where the grid search finds a value that is not finite, the audit
    raises too."""

    want = search_outcome(grid_search_optimum, key, 0.0, hi)
    got = search_outcome(oracle._oracle_argmax, key, key, hi)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith("objective is not finite at x="), got
        return
    got, _ = got
    (grid_x, grid_value), step = want, hi / 10000
    assert abs(got - grid_x) <= step, (key, hi, got, grid_x)
    rounding = 2.0**-48 * (1.0 + term_sum(key, max(got, grid_x)))
    assert float(key(got)) >= grid_value - rounding, (key, hi, got, grid_x)


class TestOracleArgmaxAgainstExhaustive:
    """The audit's certified argmax agrees with the exhaustive grid search."""

    @settings(max_examples=400, deadline=None)
    @given(key=objective_key(), hi=st.one_of(log_uniform(0.0, 4.0), st.just(1.0)))
    def test_same_argmax_to_a_grid_step(self, key, hi):
        assert_agrees_with_the_grid(key, hi)

    @settings(max_examples=300, deadline=None)
    @given(key=interior_key(), stretch=st.floats(min_value=1.2, max_value=30.0))
    def test_interior_optima(self, key, stretch):
        peak, _ = grid_search_optimum(key, 0.0, 1e4)
        assume(0.0 < peak < 1e4)
        hi = peak * stretch
        full_grid = []

        def recording(*args):
            full_grid.append(args)
            return grid_search_optimum(*args)

        with mock.patch.object(oracle, "grid_search_optimum", recording):
            assert_agrees_with_the_grid(key, hi)
        # the interior optima over the audit's ranges are all certified
        assert full_grid == []

    def test_every_mode_and_side(self):
        rng = np.random.default_rng(2024)
        for args, terms in random_objective_keys(rng, 40):
            key = penalized_objective(*args, **terms)
            for hi in (1.0, float(10.0 ** rng.uniform(0.0, 3.0))):
                assert_agrees_with_the_grid(key, hi)
