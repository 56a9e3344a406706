"""Acceptance suite: one test per release criterion, each at its stated tolerance.

Every test prints a single ``[PASS] criterion N`` line on success (visible
with ``pytest -s``); a failure reads as the usual pytest report for that
criterion's test. The criteria cover the polynomial solver against a
bisection oracle, stationarity of the direct-mode roots, detection of the
inconsistent printed closed forms, the qualitative sweep shapes, the
distance-gate flip, the full-power endpoint, allocator-versus-oracle
agreement, the special-case collapses, and byte-level determinism of the
CLI.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from coopsec import (
    ChannelGains,
    ConstraintMode,
    ExperimentConfig,
    Geometry,
    NoiseModel,
    PowerBudget,
    Provenance,
    ScenarioKind,
    distance_constraints_met,
    finite_diff_derivative,
    grid_search_optimum,
    mac_allocation,
    mobility_default_config,
    noncoop_allocation,
    one_side_allocation,
    penalized_objective,
    preset_config,
    relay_allocation,
    run_mobility,
    run_sweep,
    validate_scenario,
)
from coopsec.allocator import (
    mac_quadratic_pj,
    noncoop_quadratic,
    one_side_quadratic_pa,
    one_side_quadratic_pj,
    solve_cubic_real,
    solve_quadratic_real,
)
from coopsec.cli import main as cli_main

STD_GAINS = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
UNIT_GEOMETRY = Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0)
STD_NOISE = NoiseModel(1.0)
STD_BUDGETS = PowerBudget(p_a_max=5.0, p_j_max=5.0)

GRID_RESOLUTION = 10001


def _passed(number: int, label: str) -> None:
    print(f"[PASS] criterion {number}: {label}")


# ---------------------------------------------------------------------------
# criterion 1


def _poly_residual(coeffs: np.ndarray, x: float) -> float:
    scale = 0.0
    degree = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        scale += abs(float(c)) * max(1.0, abs(x)) ** (degree - k)
    return abs(float(np.polyval(coeffs, x))) / scale


def _bisection_roots(coeffs: np.ndarray, lo: float = -100.0, hi: float = 100.0) -> list[float]:
    """Sign-change roots on [lo, hi], bisected until the bracket is < 1e-10."""

    xs = np.linspace(lo, hi, 4001)
    vals = np.polyval(coeffs, xs)
    roots: list[float] = []
    for i in range(len(xs) - 1):
        fa = float(vals[i])
        fb = float(vals[i + 1])
        if fa == 0.0:
            roots.append(float(xs[i]))
            continue
        if fa * fb < 0:
            a, b = float(xs[i]), float(xs[i + 1])
            for _ in range(60):
                mid = 0.5 * (a + b)
                fm = float(np.polyval(coeffs, mid))
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a <= 1e-10:
                    break
            roots.append(0.5 * (a + b))
    if float(vals[-1]) == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)


def test_criterion_01_root_solver_matches_bisection_oracle():
    rng = np.random.default_rng(20260819)

    def separated_roots(count: int) -> np.ndarray:
        while True:
            r = rng.uniform(-10.0, 10.0, size=count)
            if all(
                abs(r[i] - r[j]) >= 0.5
                for i in range(count)
                for j in range(i + 1, count)
            ):
                return np.sort(r)

    start = time.perf_counter()
    for degree, solver in ((2, solve_quadratic_real), (3, solve_cubic_real)):
        for _ in range(500):
            roots = separated_roots(degree)
            scale = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            coeffs = scale * np.poly(roots)
            found = solver(coeffs)
            assert len(found) == degree
            for x in found:
                assert _poly_residual(coeffs, x) <= 1e-9
            oracle = _bisection_roots(coeffs)
            assert len(oracle) == degree
            for ours, theirs in zip(sorted(found), oracle):
                assert abs(ours - theirs) <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"solver-vs-oracle sweep took {elapsed:.2f}s"
    _passed(1, "1000 random polynomials match the bisection oracle")


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_02_direct_mode_root_is_stationary():
    rng = np.random.default_rng(67)
    for _ in range(200):
        g_e = float(rng.uniform(0.1, 0.5))
        delta = float(rng.uniform(0.1, 0.6))
        g_b = g_e + delta
        s2 = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(1e-3, min(0.05, 0.9 * delta / s2)))
        positives = [
            r for r in solve_quadratic_real(noncoop_quadratic(g_b, g_e, s2, lam)) if r > 0
        ]
        assert positives, "an interior root was guaranteed by the price range"
        p_star = min(positives)
        residual = g_b / (s2 + g_b * p_star) - g_e / (s2 + g_e * p_star) - lam
        assert abs(residual) <= 1e-6

    anchor_roots = [
        r for r in solve_quadratic_real(noncoop_quadratic(0.4, 0.3, 1.0, 0.01)) if r > 0
    ]
    p_star = min(anchor_roots)
    assert p_star == pytest.approx(6.2216, abs=1e-3)
    objective = penalized_objective(
        ScenarioKind.NON_COOP, "p_a", STD_GAINS, STD_NOISE, price=0.01
    )
    assert abs(finite_diff_derivative(objective, p_star, 1e-6)) <= 1e-6
    _passed(2, "direct-mode roots satisfy stationarity to 1e-6")


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_03_validation_flags_the_printed_transmit_power():
    report = validate_scenario(
        ScenarioKind.NON_COOP, STD_GAINS, UNIT_GEOMETRY, 1.0, 0.8, 0.01, STD_BUDGETS
    )
    entry = report.entry("non_coop.p_a")
    assert entry.closed_form_value == pytest.approx(3.306, abs=1e-2)
    assert entry.root_value == pytest.approx(6.222, abs=1e-2)
    assert entry.verdict == "suspected-typo"
    _passed(3, "printed closed form 3.306 flagged against root 6.222")


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_04_relaying_dominates_and_curves_are_nondecreasing():
    for preset, column in (("fig3", "cs1_nat"), ("fig4", "cs2_nat")):
        rows = run_sweep(preset_config(preset))
        relayed = [getattr(r, column) for r in rows if r.mode == "relay_coop"]
        bare = [getattr(r, column) for r in rows if r.mode == "non_coop"]
        assert len(relayed) == len(bare) == 41
        for with_relay, without in zip(relayed, bare):
            assert with_relay >= without - 1e-12
        for series in (relayed, bare):
            for prev, nxt in zip(series, series[1:]):
                assert nxt >= prev - 1e-12
    _passed(4, "relayed curve dominates and both curves are nondecreasing")


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_05_distance_gate_flip():
    for d_ae, expected in ((2.0, True), (math.sqrt(6.0), True), (3.0, False)):
        geometry = Geometry(d_ab=1.0, d_ae=d_ae, d_jb=1.0, d_je=2.0, d_aj=2.0, eta=2.0)
        verdict = distance_constraints_met(
            STD_GAINS, geometry, 1.0, 0.8, 5.0, 5.0, mode=ConstraintMode.CORRECTED
        )
        assert verdict.distance_alice_eve is expected
        assert verdict.all_met is expected

    rows = run_mobility(mobility_default_config())
    transitions = [row.step for row in rows if row.changed]
    assert transitions == [9]
    _passed(5, "gate true at 2 and sqrt(6), false at 3; one mobility flip")


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_06_cooperation_hurts_when_the_gate_fails():
    rows = run_sweep(preset_config("fig8"))
    cs1 = [row.cs1_nat for row in rows]
    assert len(cs1) == 41
    for prev, nxt in zip(cs1, cs1[1:]):
        assert nxt <= prev - 1e-12
    _passed(6, "a's secrecy strictly decreases in the donated power")


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_07_high_price_still_spends_the_full_budgets():
    allocation = noncoop_allocation(STD_GAINS, STD_NOISE, STD_BUDGETS, price=1.0)
    assert allocation.p_a == 5.0
    assert allocation.p_j == 5.0
    assert allocation.provenance == {
        "p_a": Provenance.BUDGET,
        "p_j": Provenance.BUDGET,
    }
    _passed(7, "direct mode returns exactly (5, 5) budget-clamped")


# ---------------------------------------------------------------------------
# criterion 8


def test_criterion_08_allocator_matches_grid_search_oracle():
    rng = np.random.default_rng(8451)
    start = time.perf_counter()

    def draw_gains() -> ChannelGains:
        g = rng.uniform(0.05, 0.6, size=5)
        return ChannelGains(*[float(v) for v in g])

    def draw_budgets() -> PowerBudget:
        b = rng.uniform(1.0, 10.0, size=2)
        return PowerBudget(float(b[0]), float(b[1]))

    def check(selected: float, hi: float, objective) -> None:
        step = hi / (GRID_RESOLUTION - 1)
        oracle_x, _ = grid_search_optimum(objective, 0.0, hi, GRID_RESOLUTION)
        assert abs(selected - oracle_x) <= step + 1e-12

    # direct mode: price below both zero-power slopes so the threshold rule
    # and the argmax agree
    for _ in range(100):
        g_e = rng.uniform(0.1, 0.5, size=2)
        delta = rng.uniform(0.1, 0.6, size=2)
        gains = ChannelGains(
            g_ab=float(g_e[0] + delta[0]),
            g_ae=float(g_e[0]),
            g_jb=float(g_e[1] + delta[1]),
            g_je=float(g_e[1]),
            g_aj=0.2,
        )
        noise = NoiseModel(float(rng.uniform(0.5, 2.0)))
        budgets = draw_budgets()
        lam = float(rng.uniform(1e-3, 0.9 * float(min(delta)) / noise.sigma2))
        allocation = noncoop_allocation(gains, noise, budgets, price=lam)
        for side, selected, hi in (
            ("p_a", allocation.p_a, budgets.p_a_max),
            ("p_j", allocation.p_j, budgets.p_j_max),
        ):
            check(
                selected,
                hi,
                penalized_objective(ScenarioKind.NON_COOP, side, gains, noise, price=lam),
            )

    # power-swap and one-sided modes: the priced gap is strictly
    # quasi-concave in the decision variable, so the candidate argmax is the
    # global one at any price
    for _ in range(100):
        gains = draw_gains()
        noise = NoiseModel(float(rng.uniform(0.5, 2.0)))
        budgets = draw_budgets()
        alpha = float(rng.uniform(0.3, 1.0))
        lam = float(10.0 ** rng.uniform(-3.0, -0.5))
        swap = mac_allocation(gains, noise, budgets, alpha=alpha, price=lam)
        check(
            swap.p_j,
            budgets.p_j_max,
            penalized_objective(
                ScenarioKind.MAC_COOP, "p_j", gains, noise, price=lam, alpha=alpha
            ),
        )
        check(
            swap.p_a,
            budgets.p_a_max,
            penalized_objective(
                ScenarioKind.MAC_COOP, "p_a", gains, noise, price=lam, alpha=alpha
            ),
        )
        one = one_side_allocation(gains, noise, budgets, alpha=alpha, price=lam)
        check(
            one.p_a,
            budgets.p_a_max,
            penalized_objective(ScenarioKind.ONE_SIDE_COOP, "p_a", gains, noise, price=lam),
        )
        check(
            one.p_j,
            budgets.p_j_max,
            penalized_objective(
                ScenarioKind.ONE_SIDE_COOP, "p_j", gains, noise, price=lam, alpha=alpha
            ),
        )

    # relaying: the published cubic is not the slice's true stationarity
    # condition, so draws are screened into the endpoint regimes where the
    # correct decision is derivative-determined (the slice objective is
    # concave); each accepted draw verifies its regime explicitly
    accepted_fill = accepted_decline = 0
    attempts = 0
    while accepted_fill < 50 or accepted_decline < 50:
        attempts += 1
        assert attempts < 5000, "relay regime sampling failed to converge"
        want_fill = accepted_fill < 50 and (attempts % 2 == 0 or accepted_decline >= 50)
        gains = draw_gains()
        noise = NoiseModel(float(rng.uniform(0.5, 2.0)))
        budgets = draw_budgets()
        alpha = float(rng.uniform(0.3, 1.0))
        lam = (
            float(10.0 ** rng.uniform(-5.0, -3.5))
            if want_fill
            else float(10.0 ** rng.uniform(-0.5, 0.5))
        )
        hi = max(
            min(0.5 * budgets.p_j_max, 0.5 * budgets.p_a_max / alpha), 0.0
        )
        if hi <= 0:
            continue
        objective = penalized_objective(
            ScenarioKind.RELAY_COOP,
            "p_jb",
            gains,
            noise,
            price=lam,
            alpha=alpha,
            p_a=0.5 * budgets.p_a_max,
        )
        h = 1e-7 * max(1.0, hi)
        if want_fill:
            if finite_diff_derivative(objective, hi - h, h) <= 1e-9:
                continue
            accepted_fill += 1
        else:
            if finite_diff_derivative(objective, h, h) >= -1e-9:
                continue
            accepted_decline += 1
        allocation = relay_allocation(gains, noise, budgets, alpha=alpha, price=lam)
        check(allocation.p_jb, hi, objective)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"allocator-vs-oracle sweep took {elapsed:.2f}s"
    _passed(8, "100 draws per scenario match the oracle within one grid step")


# ---------------------------------------------------------------------------
# criterion 9


def test_criterion_09_special_case_collapses():
    lam = 0.01
    # full swap at alpha=1 prices j's donated power exactly like a's own, so
    # the two stationarity quadratics share their roots
    swap_roots = sorted(
        r
        for r in solve_quadratic_real(
            mac_quadratic_pj(STD_GAINS, STD_NOISE, alpha=1.0, price=lam)
        )
        if r > 0
    )
    direct_roots = sorted(
        r for r in solve_quadratic_real(noncoop_quadratic(0.4, 0.3, 1.0, lam)) if r > 0
    )
    assert len(swap_roots) == len(direct_roots) >= 1
    for ours, theirs in zip(swap_roots, direct_roots):
        assert abs(ours - theirs) <= 1e-9

    # path loss folded into the gains is a no-op at unit distances
    adjusted = mac_allocation(
        STD_GAINS.effective(UNIT_GEOMETRY), STD_NOISE, STD_BUDGETS, alpha=0.8, price=lam
    )
    plain = mac_allocation(STD_GAINS, STD_NOISE, STD_BUDGETS, alpha=0.8, price=lam)
    assert adjusted == plain

    # one-sided donation at alpha=1: both decision variables face the same
    # priced gap, so their quadratics coincide root for root
    own_roots = sorted(
        r
        for r in solve_quadratic_real(one_side_quadratic_pa(STD_GAINS, STD_NOISE, price=lam))
        if r > 0
    )
    donated_roots = sorted(
        r
        for r in solve_quadratic_real(
            one_side_quadratic_pj(STD_GAINS, STD_NOISE, alpha=1.0, price=lam)
        )
        if r > 0
    )
    assert len(own_roots) == len(donated_roots) >= 1
    for ours, theirs in zip(own_roots, donated_roots):
        assert abs(ours - theirs) <= 1e-9
    _passed(9, "alpha=1 and unit-distance collapses hold")


# ---------------------------------------------------------------------------
# criterion 10


def test_criterion_10_cli_outputs_are_byte_identical(tmp_path, capsys):
    commands = {
        "sweep": ["sweep", "--preset", "fig3"],
        "validate": ["validate", "--samples", "3", "--seed", "7"],
        "mobility": ["mobility"],
        "negotiate": ["negotiate"],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}_first.out"
        second = tmp_path / f"{name}_second.out"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{name} output is not stable"
    capsys.readouterr()
    _passed(10, "all four subcommands reproduce byte-identical files")
