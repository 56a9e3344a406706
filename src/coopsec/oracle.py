"""The paper's printed formulas, and brute-force cross-checks of them.

The allocator trusts two stationarity polynomials, the priced-gap quadratic
and the printed relay cubic; no allocation evaluates a closed form.  This
module trusts no polynomial: every audited objective is concave on its
interval or non-increasing there, so its argmax is its KKT point.  The
objective's form in :mod:`coopsec.allocator` computes that point
(``argmax``) and its analytic ``slope``; the oracle takes the point only
once the slope certifies it.  Where the certificate fails, an exhaustive
grid search (plus a golden-section refinement pass) finds the argmax
instead.  Every audit evaluation takes a Python float; numpy arrays run
only in that fallback.
``validate_scenario`` runs both paths side by side and labels every formula
with a verdict, so a transcription error in a printed expression surfaces
as data instead of silently steering an allocation.  Each entry builds its
form once and evaluates each end once; a point's scenarios share one pass.

The printed per-mode formulas that no allocation follows live here, as audit
data next to the table that audits them; the compact closed forms stay in
:func:`coopsec.allocator.evaluate_closed_forms`.  The table holds one row per
audited formula: its id, its printed builder, the inputs the builder takes
besides the gains and the noise (named from ``geometry``, ``alpha``,
``price`` and the relay seeds ``p_a``/``p_j``) and its closed-form key.  The
id's second dotted part names the decision variable, and an entry is checked
over path-loss gains exactly when its builder takes the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .allocator import (
    _argmax_candidate,
    _Gap,
    _objective_key,
    _objective_row,
    _relay_seeds,
    _RelaySlice,
    evaluate_closed_forms,
    noncoop_quadratic,
    relay_cubic_for_a,
    solve_cubic_real,
    solve_quadratic_real,
)
from .model import (
    ChannelGains,
    Geometry,
    NoiseModel,
    PowerBudget,
    _as_alpha,
    _as_nonnegative,
    _as_positive,
    _as_whole,
    _from_checked,
    _require_finite,
)
from .rates import ScenarioKind

__all__ = [
    "VERDICT_AGREE",
    "VERDICT_INFEASIBLE",
    "VERDICT_SUSPECTED_TYPO",
    "FormulaCheck",
    "ValidationReport",
    "distance_mac_quadratic_pa",
    "distance_mac_quadratic_pa_variant",
    "distance_mac_quadratic_pj",
    "distance_mac_quadratic_pj_variant",
    "finite_diff_derivative",
    "grid_search_optimum",
    "mac_quadratic_pa",
    "mac_quadratic_pj",
    "noncoop_quadratic_pj_variant",
    "one_side_quadratic_pa",
    "relay_cubic_for_j",
    "validate_scenario",
]

VERDICT_AGREE = "agree"
VERDICT_SUSPECTED_TYPO = "suspected-typo"
VERDICT_INFEASIBLE = "infeasible"

_DEFAULT_RESOLUTION = 10001
_RESIDUAL_TOL = 1e-6
# A certified KKT point's slope is within this share (4096 ulps) of its terms'
# summed magnitudes of zero: room for the roundings of the point and the slope,
# about 1000 ulps at worst; a wrong coefficient misses by far more.
_CERTIFICATE = 2.0**-40

Objective = Callable[[float], float]


def _eval_scalar(objective: Objective, x: float) -> float:
    """Evaluate ``objective`` at one point, rejecting non-finite values.

    A float division by a number that underflows to zero raises
    ``ZeroDivisionError`` where numpy gives inf or NaN, and ``math.log1p``
    raises ``ValueError`` below its domain where numpy gives NaN; either has
    no finite value at ``x`` and gives the same message.
    """

    try:
        value = float(objective(x))
    except (ZeroDivisionError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"objective is not finite at x={x!r}")
    return value


def grid_search_optimum(
    objective: Objective,
    lo: float,
    hi: float,
    resolution: int = _DEFAULT_RESOLUTION,
) -> tuple[float, float]:
    """Maximize a scalar objective on ``[lo, hi]`` by exhaustive sampling.

    The objective is evaluated on a uniform grid of ``resolution`` points
    including both endpoints, then one golden-section pass refines the
    bracket around the best grid point down to a width of
    ``(hi - lo) / resolution / 100``.  Ties anywhere resolve toward the
    smaller ``x``, which keeps the result deterministic.

    Parameters
    ----------
    objective:
        Scalar callable.  A vectorized implementation (accepting an ndarray)
        is used when available; otherwise points are evaluated one by one.
    lo, hi:
        Interval endpoints, ``lo <= hi``.
    resolution:
        Number of grid samples, at least 2.

    Returns
    -------
    tuple
        ``(argmax, max value)``.

    Raises
    ------
    ValueError
        If the interval or resolution is malformed, or the objective is
        non-finite at any evaluated point (the offending point is named).
    """

    lo, hi = _require_finite("lo", lo), _require_finite("hi", hi)
    if hi < lo:
        raise ValueError("hi must be >= lo")
    resolution = _as_whole("resolution", resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2 samples")
    if hi == lo:
        return lo, _eval_scalar(objective, lo)

    xs = np.linspace(lo, hi, resolution)
    ys: np.ndarray | None
    try:
        raw = objective(xs)
        ys = np.asarray(raw, dtype=float)
        if ys.shape != xs.shape:
            ys = None
    except (TypeError, ValueError):
        ys = None
    if ys is None:
        ys = np.array([_eval_scalar(objective, float(x)) for x in xs])
    # argmax stops at the first NaN and finds +inf; the minimum finds -inf
    idx = int(np.argmax(ys))
    if not (math.isfinite(ys[idx]) and math.isfinite(ys.min())):
        bad = np.flatnonzero(~np.isfinite(ys))
        raise ValueError(f"objective is not finite at x={float(xs[bad[0]])!r}")

    return _refine(
        objective,
        float(xs[max(idx - 1, 0)]),
        float(xs[min(idx + 1, resolution - 1)]),
        float(xs[idx]),
        float(ys[idx]),
        (hi - lo) / resolution / 100.0,
    )


def _refine(
    objective: Objective, a: float, b: float, best_x: float, best_y: float, tol: float
) -> tuple[float, float]:
    """Golden-section pass over ``[a, b]``, the bracket around a grid argmax.

    The bracket shrinks to width ``tol``, or until rounding puts a probe on
    its edge (a ``tol`` below the float spacing there would loop forever);
    the refined point replaces the grid's ``(best_x, best_y)`` only if it is
    higher, or equally high and further left.
    """

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _eval_scalar(objective, c)
    fd = _eval_scalar(objective, d)
    while (b - a) > tol and a < c < d < b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _eval_scalar(objective, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _eval_scalar(objective, d)
    if fc >= fd:
        ref_x, ref_y = c, fc
    else:
        ref_x, ref_y = d, fd

    if ref_y > best_y or (ref_y == best_y and ref_x < best_x):
        best_x, best_y = ref_x, ref_y
    return best_x, best_y


def _certified(key: _Gap | _RelaySlice, p: float, hi: float) -> bool:
    """Whether ``p`` meets the KKT conditions of ``key``'s objective on ``[0, hi]``:
    zero slope inside, at most zero at 0, at least zero at ``hi``, to within
    ``_CERTIFICATE`` of the slope's terms; a non-finite term certifies nothing."""

    slope, size = key.slope(p)
    bound = _CERTIFICATE * size
    return math.isfinite(size) and (p == 0.0 or slope >= -bound) and (p == hi or slope <= bound)


def _oracle_argmax(
    objective: Objective, key: _Gap | _RelaySlice, hi: float
) -> tuple[float, tuple[float, float]]:
    """The argmax on ``[0, hi]`` of ``objective``, whose form is ``key``, and
    the objective's values at 0 and ``hi``.

    Both ends are evaluated first, once each, as Python floats, 0 before
    ``hi``, and a value that is not finite there raises, naming the end:
    every intermediate of both forms is monotone in the decision, so an
    overflow or a zero divisor anywhere on the interval shows at an end.
    The argmax is the form's exact point (``key.argmax``) if
    :func:`_certified`, else the exhaustive grid search's.
    """

    ends = _eval_scalar(objective, 0.0), _eval_scalar(objective, hi)
    p = key.argmax(hi)
    if p is None or not _certified(key, p, hi):
        p, _ = grid_search_optimum(objective, 0.0, hi)
    return p, ends


def finite_diff_derivative(objective: Objective, x: float, h: float) -> float:
    """Central-difference derivative ``(f(x + h) - f(x - h)) / (2 h)``.

    Raises
    ------
    ValueError
        If ``x`` is not finite, ``h`` is not positive, or either stencil
        evaluation is non-finite.
    """

    x, h = _require_finite("x", x), _as_positive("h", h)
    upper = _eval_scalar(objective, x + h)
    lower = _eval_scalar(objective, x - h)
    return (upper - lower) / (2.0 * h)


def _json_value(value: float | None) -> float | None:
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class FormulaCheck:
    """Cross-check of one published formula against the numeric oracle.

    Attributes
    ----------
    formula_id:
        ``<scenario>.<variable>[.<spelling>]``, e.g. ``"non_coop.p_a"``:
        the variable is the decision the entry audits, and a spelling
        suffix (``.distance``, ``.variant``) marks another printed route
        to it, kept for comparison.
    closed_form_value:
        Value of the printed closed-form expression, ``None`` when no
        closed form exists for the entry, NaN when the expression has no
        real value at these parameters.
    root_value:
        Decision implied by the polynomial condition: its positive real
        roots and the interval ends scored by the objective, as
        ``relay_allocation`` scores a slice whose slope at zero is not
        negative; the direct allocations decide by KKT.
    oracle_value:
        Argmax of the same objective on the same interval: its certified
        KKT point, or the grid search's where the certificate fails.
    abs_deviation, rel_deviation:
        Distance of the closed form (or, without one, of ``root_value``)
        from the oracle argmax; the relative form is normalized by
        ``max(1, |oracle|)``.
    derivative_residual:
        |analytic derivative of the objective| at ``root_value`` when it
        is interior to the interval, ``None`` for endpoint decisions which
        carry no stationarity claim.
    verdict:
        One of ``agree``, ``suspected-typo``, ``infeasible``.
    note:
        Human-readable explanation of the verdict.
    """

    formula_id: str
    closed_form_value: float | None
    root_value: float
    oracle_value: float
    abs_deviation: float
    rel_deviation: float
    derivative_residual: float | None
    verdict: str
    note: str = ""

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping with non-finite floats replaced by ``None``."""

        return {
            "formula_id": self.formula_id,
            "closed_form_value": _json_value(self.closed_form_value),
            "root_value": _json_value(self.root_value),
            "oracle_value": _json_value(self.oracle_value),
            "abs_deviation": _json_value(self.abs_deviation),
            "rel_deviation": _json_value(self.rel_deviation),
            "derivative_residual": _json_value(self.derivative_residual),
            "verdict": self.verdict,
            "note": self.note,
        }


_SEVERITY = {VERDICT_AGREE: 0, VERDICT_INFEASIBLE: 1, VERDICT_SUSPECTED_TYPO: 2}


def _most_severe(verdicts: Iterable[str]) -> str:
    """Most severe of the given verdicts (typo > infeasible > agree)."""

    return max(verdicts, key=lambda v: _SEVERITY.get(v, -1), default=VERDICT_AGREE)


@dataclass(frozen=True)
class ValidationReport:
    """All formula checks for one scenario at one parameter point."""

    kind: ScenarioKind
    entries: tuple[FormulaCheck, ...]

    def entry(self, formula_id: str) -> FormulaCheck:
        """Return the entry with the given id.

        Raises
        ------
        KeyError
            If no entry carries that id.
        """

        for item in self.entries:
            if item.formula_id == formula_id:
                return item
        raise KeyError(formula_id)

    def summary(self) -> dict[str, int]:
        """Verdict counts keyed by verdict string."""

        counts: dict[str, int] = {}
        for item in self.entries:
            counts[item.verdict] = counts.get(item.verdict, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping for serialization by the harness."""

        return {
            "kind": self.kind.value,
            "entries": [item.as_dict() for item in self.entries],
            "summary": self.summary(),
        }


def _check_formula(
    formula_id: str,
    form: _Gap | _RelaySlice,
    roots: Sequence[float],
    closed_form: float | None,
    hi_budget: float,
) -> FormulaCheck:
    """Compare one polynomial condition (and optional closed form) with the oracle.

    The search interval starts at the budget bound but is stretched to twice
    the largest positive candidate value, so a stationary point lying beyond
    the budget is still visible to the comparison instead of being clamped
    out of existence.  The roots imply a decision by ``relay_allocation``'s
    scoring, :func:`coopsec.allocator._argmax_candidate`, not by KKT, with
    the values the oracle took at the ends, so each end is evaluated once.
    """

    positives = [r for r in roots if math.isfinite(r) and r > 0.0]
    candidates = list(positives)
    if closed_form is not None and math.isfinite(closed_form) and closed_form > 0.0:
        candidates.append(closed_form)
    hi = max([float(hi_budget), 1.0] + [2.0 * c for c in candidates])
    step = hi / (_DEFAULT_RESOLUTION - 1)

    oracle_x, ends = _oracle_argmax(form, form, hi)
    root_value = _argmax_candidate(form, positives, hi, ends)
    interior = step < root_value < hi - step
    residual = abs(form.slope(root_value)[0]) if interior else None

    matches_oracle = abs(root_value - oracle_x) <= step + 1e-12
    residual_ok = residual is None or residual <= _RESIDUAL_TOL

    notes: list[str] = []
    nonreal = mismatch = False
    if closed_form is not None:
        nonreal = math.isnan(closed_form)
        if nonreal:
            notes.append("closed form has no real value at these parameters")
        elif closed_form <= 0.0:
            mismatch = interior
            if interior:
                notes.append("closed form is non-positive but an interior optimum exists")
            else:
                notes.append("closed form claims no positive optimum")
        elif abs(closed_form - root_value) > max(1e-6, 1e-6 * abs(root_value)):
            mismatch = True
            notes.append(
                f"closed form {closed_form:.6g} deviates from the stationary root {root_value:.6g}"
            )

    if not matches_oracle:
        notes.append(
            f"implied decision {root_value:.6g} disagrees with oracle argmax {oracle_x:.6g}"
        )
    if not residual_ok:
        notes.append(f"derivative residual {residual:.3g} exceeds {_RESIDUAL_TOL:g}")

    if not matches_oracle or not residual_ok or mismatch:
        verdict = VERDICT_SUSPECTED_TYPO
    elif nonreal:
        verdict = VERDICT_INFEASIBLE
    else:
        verdict = VERDICT_AGREE
        if not notes:
            if interior:
                notes.append("interior stationary point confirmed by the oracle")
            else:
                notes.append("endpoint decision confirmed by the oracle")

    if closed_form is not None and math.isfinite(closed_form):
        abs_dev = abs(closed_form - oracle_x)
    else:
        abs_dev = abs(root_value - oracle_x)
    rel_dev = abs_dev / max(1.0, abs(oracle_x))

    return _from_checked(
        FormulaCheck,
        {
            "formula_id": formula_id,
            "closed_form_value": closed_form,
            "root_value": root_value,
            "oracle_value": oracle_x,
            "abs_deviation": abs_dev,
            "rel_deviation": rel_dev,
            "derivative_residual": residual,
            "verdict": verdict,
            "note": "; ".join(notes),
        },
    )


# The paper's printed formulas: audit data that no allocation follows.


def relay_cubic_for_j(
    gains: ChannelGains,
    noise: NoiseModel,
    *,
    p_j: float,
    alpha: float,
    price: float,
) -> list[float]:
    """Cubic in ``p_ab`` (partner relaying power for j's message).

    Mirror of :func:`relay_cubic_for_a` with the roles swapped.  One bracket
    mixes the two inter-transmitter gains; the validation layer is the place
    that measures what that does to the roots.  Raises ``OverflowError``
    when a coefficient term overflows a float, as ``g_ab**2`` does at
    ``g_ab = 1e160``.
    """

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    p_j = _as_nonnegative("p_j", p_j)
    g_ab, g_jb, g_je, g_ja, g_aj = gains.g_ab, gains.g_jb, gains.g_je, gains.g_ja, gains.g_aj
    s2 = noise.sigma2
    f1 = s2 * g_ab**2 + g_ab**2 * g_jb * p_j + g_ab**2 * g_ja * p_j
    f2 = (s2 * g_ab + 2 * g_ab * g_jb * p_j + g_ab * g_ja * p_j + s2 * g_ab) * (g_ja * p_j + s2)
    f3 = (g_jb * p_j + s2) * (g_ja * p_j + s2) ** 2
    f4 = a * s2 * g_je * lam * p_j + a * g_je
    f5 = a**2 * s2 * g_ja * g_ab * g_je * lam * p_j**2 * (g_ja * p_j + s2)
    kappa = g_ja * g_ab * g_je * p_j * (g_aj * p_j + s2)
    return [
        g_je * f1,
        g_je * f2 + f1 * f4,
        g_je * f3 + f2 * f4 - a * kappa,
        f3 * f4 - f5,
    ]


def mac_quadratic_pj(
    gains: ChannelGains, noise: NoiseModel, *, alpha: float, price: float
) -> list[float]:
    """Quadratic in ``p_j`` for the power-swap mode (a's message side)."""

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    g_ab, g_ae = gains.g_ab, gains.g_ae
    s2 = noise.sigma2
    return [
        lam * a**2 * g_ab * g_ae,
        lam * (a * s2 * g_ab + a * s2 * g_ae),
        -(s2 * g_ab - s2 * g_ae - lam * s2**2),
    ]


def mac_quadratic_pa(
    gains: ChannelGains, noise: NoiseModel, *, alpha: float, price: float
) -> list[float]:
    """Quadratic in ``p_a`` for the power-swap mode (j's message side)."""

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    g_jb, g_je = gains.g_jb, gains.g_je
    s2 = noise.sigma2
    return [
        lam * g_je * g_jb / a**2,
        lam * (s2 * g_jb / a + s2 * g_je / a),
        -(s2 * g_jb - s2 * g_je - lam * s2**2),
    ]


def one_side_quadratic_pa(gains: ChannelGains, noise: NoiseModel, *, price: float) -> list[float]:
    """Quadratic in ``p_a`` when a transmits its own message directly."""

    lam = _as_nonnegative("price", price)
    g_ab, g_ae = gains.g_ab, gains.g_ae
    s2 = noise.sigma2
    return [
        lam * g_ab * g_ae,
        lam * (s2 * g_ab + s2 * g_ae),
        -(s2 * g_ab - s2 * g_ae - lam * s2**2),
    ]


def noncoop_quadratic_pj_variant(
    gains: ChannelGains, noise: NoiseModel, *, price: float
) -> list[float]:
    """Alternate spelling of the j-side quadratic with a cross-indexed term.

    Its linear coefficient mixes ``g_ab`` into a condition that otherwise
    only involves j's links.  Kept for the validation report; allocations use
    :func:`noncoop_quadratic` on ``(g_jb, g_je)``.
    """

    lam = _as_nonnegative("price", price)
    s2 = noise.sigma2
    return [
        lam * gains.g_jb * gains.g_je,
        lam * (s2 * gains.g_ab + s2 * gains.g_je),
        -(s2 * gains.g_jb - s2 * gains.g_je - lam * s2**2),
    ]


def distance_mac_quadratic_pj(
    gains: ChannelGains,
    noise: NoiseModel,
    geometry: Geometry,
    *,
    alpha: float,
    price: float,
) -> list[float]:
    """Geometry-aware form of :func:`mac_quadratic_pj`.

    Derived by substituting path-loss-scaled gains and clearing denominators,
    so its roots coincide with ``mac_quadratic_pj`` evaluated on
    ``gains.effective(geometry)``.
    """

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    g_ab, g_ae = gains.g_ab, gains.g_ae
    s2 = noise.sigma2
    dab = geometry.d_ab**geometry.eta
    dae = geometry.d_ae**geometry.eta
    return [
        lam * a**2 * g_ab * g_ae,
        lam * a * s2 * (g_ab * dae + g_ae * dab),
        -(s2 * g_ab * dae - s2 * g_ae * dab - lam * s2**2 * dab * dae),
    ]


def distance_mac_quadratic_pj_variant(
    gains: ChannelGains,
    noise: NoiseModel,
    geometry: Geometry,
    *,
    alpha: float,
    price: float,
) -> list[float]:
    """Alternate route for the geometry-aware j-side quadratic.

    Fixes the square-law exponent and pairs each gain with its own distance
    in the linear term instead of the partner's.  Kept for comparison;
    allocations use ``gains.effective(geometry)``, not a distance quadratic.
    """

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    g_ab, g_ae = gains.g_ab, gains.g_ae
    s2 = noise.sigma2
    dab = geometry.d_ab**2
    dae = geometry.d_ae**2
    return [
        lam * a**2 * g_ab * g_ae,
        lam * a * s2 * (g_ab * dab + g_ae * dae),
        -(s2 * g_ab * dae - s2 * g_ae * dab - lam * s2**2 * dab * dae),
    ]


def distance_mac_quadratic_pa(
    gains: ChannelGains,
    noise: NoiseModel,
    geometry: Geometry,
    *,
    alpha: float,
    price: float,
) -> list[float]:
    """Geometry-aware form of :func:`mac_quadratic_pa` (substitution route)."""

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    g_jb, g_je = gains.g_jb, gains.g_je
    s2 = noise.sigma2
    djb = geometry.d_jb**geometry.eta
    dje = geometry.d_je**geometry.eta
    return [
        lam * g_je * g_jb / a**2,
        (lam * s2 / a) * (g_jb * dje + g_je * djb),
        -(s2 * g_jb * dje - s2 * g_je * djb - lam * s2**2 * djb * dje),
    ]


def distance_mac_quadratic_pa_variant(
    gains: ChannelGains,
    noise: NoiseModel,
    geometry: Geometry,
    *,
    alpha: float,
    price: float,
) -> list[float]:
    """Alternate route for the geometry-aware a-side quadratic.

    Square-law exponent, with the constant term pairing each gain with its
    own distance.  Kept for comparison only.
    """

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    g_jb, g_je = gains.g_jb, gains.g_je
    s2 = noise.sigma2
    djb = geometry.d_jb**2
    dje = geometry.d_je**2
    return [
        lam * g_je * g_jb / a**2,
        (lam * s2 / a) * (g_jb * dje + g_je * djb),
        -(s2 * g_jb * djb - s2 * g_je * dje - lam * s2**2 * djb * dje),
    ]


def _noncoop_on(main: str, eve: str) -> Callable[..., list[float]]:
    """:func:`coopsec.allocator.noncoop_quadratic` on the link pair ``(main,
    eve)``, called as the printed builders are."""

    return lambda gains, noise, *, price: noncoop_quadratic(
        getattr(gains, main), getattr(gains, eve), noise.sigma2, price
    )


# One row per audited formula, per scenario in report order: (formula_id,
# printed builder, the inputs it takes besides gains and noise, closed-form
# key).  An entry is checked against ``penalized_objective``'s form for its
# decision variable, searched up to that variable's budget (for the relay
# slices, what half-budget seeds leave free).
_PLACED = ("geometry", "alpha", "price")  # the geometry-aware quadratics' inputs
_AUDIT = {
    ScenarioKind.NON_COOP: (
        ("non_coop.p_a", _noncoop_on("g_ab", "g_ae"), ("price",), "noncoop_pa"),
        ("non_coop.p_j", _noncoop_on("g_jb", "g_je"), ("price",), "noncoop_pj"),
        ("non_coop.p_j.variant", noncoop_quadratic_pj_variant, ("price",), None),
    ),
    ScenarioKind.ONE_SIDE_COOP: (
        ("one_side_coop.p_a", one_side_quadratic_pa, ("price",), "one_side_pa"),
        # j's donation rides a's links with the power-swap billing
        ("one_side_coop.p_j", mac_quadratic_pj, ("alpha", "price"), "one_side_pj"),
    ),
    ScenarioKind.MAC_COOP: (
        ("mac_coop.p_j", mac_quadratic_pj, ("alpha", "price"), "mac_pj"),
        ("mac_coop.p_a", mac_quadratic_pa, ("alpha", "price"), "mac_pa"),
        ("mac_coop.p_j.distance", distance_mac_quadratic_pj, _PLACED, None),
        ("mac_coop.p_j.distance.variant", distance_mac_quadratic_pj_variant, _PLACED, None),
        ("mac_coop.p_a.distance", distance_mac_quadratic_pa, _PLACED, None),
        ("mac_coop.p_a.distance.variant", distance_mac_quadratic_pa_variant, _PLACED, None),
    ),
    ScenarioKind.RELAY_COOP: (
        ("relay_coop.p_jb", relay_cubic_for_a, ("p_a", "alpha", "price"), None),
        ("relay_coop.p_ab", relay_cubic_for_j, ("p_j", "alpha", "price"), None),
    ),
}

# Read off the table once: each entry's decision variable (its id's second
# dotted part) and link row, the distinct input sets, and the scenarios that
# read closed forms or attenuated gains (a builder that takes the geometry).
_SIDES = {
    fid: (fid.split(".")[1], _objective_row(kind, fid.split(".")[1]))
    for kind, rows in _AUDIT.items()
    for fid, *_ in rows
}
_INPUT_SETS = frozenset(r[2] for rows in _AUDIT.values() for r in rows)
_CLOSED_KINDS = frozenset(kind for kind, rows in _AUDIT.items() if any(r[3] for r in rows))
_PATH_LOSS_KINDS = frozenset(
    kind for kind, rows in _AUDIT.items() if any("geometry" in r[2] for r in rows)
)


def validate_scenario(
    kind: ScenarioKind | str,
    gains: ChannelGains,
    geometry: Geometry,
    sigma2: float,
    alpha: float,
    price: float,
    budgets: PowerBudget,
) -> ValidationReport:
    """Run every formula of one scenario against the numeric oracle.

    For each optimized power the entry compares (a) the decision implied by
    the published polynomial condition, (b) the printed closed form where one
    exists, and (c) the oracle argmax of the penalized objective.  The
    cooperative-MAC scenario additionally checks the geometry-aware
    quadratics (both the substitution route and the alternate printed
    spellings) against the objective over distance-attenuated gains; the
    non-cooperative scenario checks the alternate j-side spelling with the
    cross-indexed linear term.  The printed closed forms divide by every
    direct link gain, so when one of those gains is zero they are reported
    absent and only the roots are audited; so they are when one of their
    float powers overflows, or one of their divisors underflows to zero,
    and a scenario none of whose entries has one does not evaluate them.
    A polynomial whose coefficients overflow, or divide by a number that
    underflows to zero, is a ``ValueError`` naming its entry.

    Relay entries evaluate their cubic coefficients at the half-budget seeds
    :func:`coopsec.allocator.relay_allocation` uses, and the relaying slice
    ranges over what those seeds leave free.

    The entries come from a table with one row per audited formula: its
    id, its printed builder, the inputs that builder takes besides the gains
    and the noise, and its closed-form key.  The id's second dotted part is
    the decision variable, and an entry's objective runs over
    distance-attenuated gains exactly when its builder takes the geometry.
    Each entry builds its form once, from the inputs checked here; the form
    is both the objective and the oracle's key.

    Parameters
    ----------
    kind:
        Scenario selector; strings are accepted.
    gains, geometry:
        Channel gains and node geometry.  Geometry matters only for the
        distance entries.
    sigma2:
        Receiver noise power, positive.
    alpha:
        Cooperation level in ``(0, 1]``.
    price:
        Positive power price (the closed forms divide by it).
    budgets:
        Per-transmitter power budgets bounding the search intervals.

    Returns
    -------
    ValidationReport
        Deterministic for identical inputs.
    """

    return _validate((ScenarioKind(kind),), gains, geometry, sigma2, alpha, price, budgets)[0]


def _validate(kinds, gains, geometry, sigma2, alpha, price, budgets) -> list[ValidationReport]:
    """:func:`validate_scenario` of each of ``kinds``, in one pass that checks
    the inputs and computes the closed forms, the relay seeds, each input
    set's keywords and the attenuated gains once for all (the gains before
    the first kind that reads them, where one scenario alone would)."""

    noise = NoiseModel(sigma2)
    s2, a = noise.sigma2, _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    if lam == 0:
        raise ValueError("price must be positive for closed-form evaluation")
    closed: dict[str, float] = {}
    if _CLOSED_KINDS & set(kinds) and min(gains.g_ab, gains.g_ae, gains.g_jb, gains.g_je) > 0:
        try:
            closed = evaluate_closed_forms(gains, noise, alpha=a, price=lam)
        except (OverflowError, ZeroDivisionError):
            pass
    seed_a, seed_j, hi_jb, hi_ab = _relay_seeds(budgets, a)
    values = {"geometry": geometry, "alpha": a, "price": lam, "p_a": seed_a, "p_j": seed_j}
    bounds = {"p_a": budgets.p_a_max, "p_j": budgets.p_j_max, "p_jb": hi_jb, "p_ab": hi_ab}
    inputs_of = {names: {name: values[name] for name in names} for names in _INPUT_SETS}
    attenuated = None
    reports = []
    for kind in kinds:
        if attenuated is None and kind in _PATH_LOSS_KINDS:
            attenuated = gains.effective(geometry)
        entries = []
        for formula_id, build, names, closed_key in _AUDIT[kind]:
            side, row = _SIDES[formula_id]
            form = _objective_key(
                row, attenuated if "geometry" in names else gains, s2, lam, a, values[row.power]
            )
            try:
                coeffs = build(gains, noise, **inputs_of[names])
            except OverflowError:
                raise ValueError(f"{formula_id}: polynomial coefficients overflow") from None
            except ZeroDivisionError:
                message = "a polynomial coefficient's divisor underflows"
                raise ValueError(f"{formula_id}: {message}") from None
            roots = solve_cubic_real(coeffs) if len(coeffs) == 4 else solve_quadratic_real(coeffs)
            entries.append(
                _check_formula(formula_id, form, roots, closed.get(closed_key), bounds[side])
            )
        reports.append(ValidationReport(kind=kind, entries=tuple(entries)))
    return reports
