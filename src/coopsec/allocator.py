"""Priced power allocation from stationarity polynomials.

Each transmitter is billed for the power its request makes the pair spend:
its decision variable times ``rates._scale`` of the variable's link row,
``alpha`` or ``1 / alpha`` when cooperating and one otherwise.  An
allocation maximises

    f(p) = secrecy-rate term(p) - price * billed(p)

over the feasible interval.  The stationary candidates come from fixed
coefficient formulas rather than from a numerical derivative, so results are
reproducible bit for bit.  Both root solvers are closed forms on Python
floats, polished by Newton steps where needed; no allocation calls a numpy
eigenvalue or polynomial routine.

Every direct-mode decision (non-cooperative, one-sided and power swap) is the
same priced secrecy gap ``log(1 + g x / s2) - log(1 + e x / s2) - price x`` in
the carried power ``x = scale * p``; which links and which scale each message
uses comes from the direct-mode link table in :mod:`coopsec.rates`, by the
secrecy rates' own rule, so at price zero each objective is its message's
secrecy rate, bit for bit.  One kernel solves :func:`noncoop_quadratic` in
``x`` for all six decisions.  Relaying solves the cubic
:func:`relay_cubic_for_a` at fixed own-message seeds of half of each budget;
the relay slices' objectives read their links from the relay link table.
Every number a public function takes goes through the one check family of
:mod:`coopsec.model`.

Public entry points check their inputs.  An allocation checks ``alpha``
and ``price`` once and passes the floats to private kernels that do the
public functions' arithmetic in the same order, so the results are the same
bits: :func:`_gap_quadratic` behind :func:`noncoop_quadratic`,
:func:`_relay_cubic` behind :func:`relay_cubic_for_a` and
``rates._secrecy_rate`` behind :func:`coopsec.rates.secrecy_rate`.  One
builder makes every result with ``model._from_checked``, without re-running
the dataclass checks.  Each objective is one form, :class:`_Gap` or
:class:`_RelaySlice`, that owns its value, its analytic slope and its exact
argmax; it evaluates a Python float with ``math.log1p`` and anything else,
arrays included, with ``np.log1p``.

This module holds only what decides an allocation.  The paper's printed
per-mode formulas, which no allocation follows, live with their audit in
:mod:`coopsec.oracle`; :func:`evaluate_closed_forms` is the one exception
(see its comment).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .model import (
    ChannelGains,
    NoiseModel,
    PowerBudget,
    _as_alpha,
    _as_nonnegative,
    _as_positive,
    _from_checked,
)
from .rates import _DIRECT_LINKS, _RELAY_LINKS, RatePair, ScenarioKind, _scale, _secrecy_rate

__all__ = [
    "OptimalAllocation",
    "Provenance",
    "bisect_price_for_budget",
    "evaluate_closed_forms",
    "mac_allocation",
    "noncoop_allocation",
    "noncoop_quadratic",
    "one_side_allocation",
    "penalized_objective",
    "relay_allocation",
    "relay_cubic_for_a",
    "solve_cubic_real",
    "solve_quadratic_real",
]


class Provenance(str, Enum):
    """How a power value was decided."""

    INTERIOR = "interior-stationary"
    BUDGET = "budget-clamped"
    ZERO = "zero-clamped"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class OptimalAllocation:
    """Outcome of one allocation call.

    ``p_a``/``p_j`` are the powers left for each side's own message,
    ``p_ab``/``p_jb`` the relaying slices (zero outside relay mode), ``cs``
    the secrecy rates at those powers.  ``provenance`` maps each decided
    variable to how it was picked; variables pinned by the power-exchange
    ratio do not appear in it.
    """

    mode: ScenarioKind
    p_a: float
    p_j: float
    p_ab: float
    p_jb: float
    cs: RatePair
    provenance: Mapping[str, Provenance]


# ---------------------------------------------------------------------------
# root finding


def solve_quadratic_real(coeffs: Sequence[float]) -> list[float]:
    """Real roots of ``c0 x^2 + c1 x + c2``, ascending.

    Uses the cancellation-free closed form (Numerical Recipes, section 5.6):
    with ``q = -(c1 + sign(c1) sqrt(c1^2 - 4 c0 c2)) / 2`` the roots are
    ``q / c0`` and ``c2 / q``.  A leading coefficient below 2**-1022 of the
    largest one degrades to the linear (or empty) case: the root it drops
    lies beyond the float range.  Roots within 1e-9 (relative) of each other
    merge, and a complex pair whose imaginary part is at most 1e-8 of its
    modulus counts as one double root.
    """

    if len(coeffs) != 3:
        raise ValueError(f"expected 3 coefficients, got {len(coeffs)}")
    a, b, c = map(float, coeffs)
    top = max(abs(a), abs(b), abs(c))
    if top == 0.0:
        raise ValueError("polynomial is identically zero")
    # an exact power-of-two rescale keeps b * b from overflowing
    shift = -math.frexp(top)[1]
    a, b, c = math.ldexp(a, shift), math.ldexp(b, shift), math.ldexp(c, shift)
    if abs(a) < sys.float_info.min:
        return [-c / b] if abs(b) >= sys.float_info.min else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        re = -b / (2.0 * a)
        im = math.sqrt(-disc) / (2.0 * abs(a))
        return [re] if im <= 1e-8 * math.hypot(re, im) else []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:  # b == c == 0: a double root at the origin
        return [0.0]
    lo, hi = sorted((q / a, c / q))
    if hi - lo <= 1e-9 * max(1.0, abs(hi)):
        return [lo]
    return [lo, hi]


def _newton_polish(a: float, b: float, c: float, d: float, x: float) -> float:
    """Up to three Newton steps on ``a x^3 + b x^2 + c x + d``, in Horner form.

    Near a multiple root the derivative is ~zero and a raw step can fling
    the iterate away, so only steps that shrink the residual are accepted.
    """

    value = ((a * x + b) * x + c) * x + d
    best = abs(value)
    for _ in range(3):
        slope = (3.0 * a * x + 2.0 * b) * x + c
        if slope == 0.0 or not math.isfinite(slope):
            break
        step = value / slope
        if not math.isfinite(step):
            break
        candidate = x - step
        candidate_value = ((a * candidate + b) * candidate + c) * candidate + d
        if not abs(candidate_value) < best:
            break
        x, value, best = candidate, candidate_value, abs(candidate_value)
    return x


# A critical point at which the cubic vanishes to within this many rounding
# units of its Horner evaluation is a double root.  At the double root of
# 20000 random cubics with rounded coefficients the residual stayed below
# 0.8 units, while distinct roots 1e-6 apart near 7.25 leave 4.
_DOUBLE_ROOT_ULPS = 2.0


def _merge_double_roots(
    a: float, b: float, c: float, d: float, roots: list[float]
) -> list[float]:
    """Replace the computed roots that are one double root split by rounding.

    A double root of the cubic is a critical point (a root of its derivative)
    at which the cubic vanishes.  When one critical point does so to
    rounding, the roots on its side of the other critical point are its
    split halves and give way to it; when both do, the cubic has one triple
    root, at its inflection point.
    """

    critical = solve_quadratic_real((3.0 * a, 2.0 * b, c))
    doubles = []
    for m in critical:
        t = abs(m)
        bound = (((abs(a) * t + abs(b)) * t + abs(c)) * t + abs(d)) * sys.float_info.epsilon
        if abs(((a * m + b) * m + c) * m + d) <= _DOUBLE_ROOT_ULPS * bound < math.inf:
            doubles.append(m)
    if not doubles:
        return roots
    if len(doubles) == len(critical):
        return [-b / (3.0 * a)]
    m, other = doubles[0], critical[1] if doubles[0] == critical[0] else critical[0]
    return [r for r in roots if (r - other) * (m - other) < 0.0] + [m]


def solve_cubic_real(coeffs: Sequence[float]) -> list[float]:
    """Real roots of ``c0 x^3 + c1 x^2 + c2 x + c3``, ascending.

    Closed form (Numerical Recipes, section 5.6) on the monic cubic in
    ``y = x / 2**k``, a power of two that bounds its coefficients by two so
    that nothing under- or overflows: the trigonometric form when there are
    three real roots, else Cardano's form summed without cancellation.  It
    gives one root, the largest in magnitude when there are three; deflating
    by it leaves a quadratic for :func:`solve_quadratic_real`, solved only
    when its roots can be real.  Every root is polished by guarded Newton
    steps on the given coefficients, and near a multiple root
    :func:`_merge_double_roots` joins the roots that rounding split apart.

    Roots within 1e-9 (relative) of each other merge, and a complex pair
    whose imaginary part is at most 1e-8 of its modulus counts as one root.
    A leading coefficient below 2**-1022 of the largest one lowers the
    degree.  An identically zero polynomial or a non-finite coefficient
    raises ``ValueError``.
    """

    if len(coeffs) != 4:
        raise ValueError(f"expected 4 coefficients, got {len(coeffs)}")
    a, b, c, d = map(float, coeffs)
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"coefficients must be finite, got {list(coeffs)!r}")
    top = max(abs(a), abs(b), abs(c), abs(d))
    if top == 0.0:
        raise ValueError("polynomial is identically zero")
    # an exact power-of-two rescale bounds every coefficient by one
    shift = -math.frexp(top)[1]
    a, b = math.ldexp(a, shift), math.ldexp(b, shift)
    c, d = math.ldexp(c, shift), math.ldexp(d, shift)
    if abs(a) < sys.float_info.min:
        return solve_quadratic_real((b, c, d))

    if not (b or c or d):
        return [0.0]
    # the smallest k with |b/a| < 2**(k+1), |c/a| < 2**(2k+1) and
    # |d/a| < 2**(3k+1), read off the exponents: no quotient loses digits
    e = math.frexp(a)[1]
    k = max(
        math.frexp(b)[1] - e if b else -math.inf,
        (math.frexp(c)[1] - e + 1) // 2 if c else -math.inf,
        (math.frexp(d)[1] - e + 2) // 3 if d else -math.inf,
    )
    A, B, C = math.ldexp(b, -k) / a, math.ldexp(c, -2 * k) / a, math.ldexp(d, -3 * k) / a
    Q = (A * A - 3.0 * B) / 9.0
    R = (A * (2.0 * A * A - 9.0 * B) + 27.0 * C) / 54.0
    Q3, R2 = Q * Q * Q, R * R
    # Q^3 - R^2 is the discriminant over 108; with coefficients below two it
    # is this small whenever the cubic could hold a double root to rounding
    multiple = abs(Q3 - R2) <= 1e-10
    if R2 < Q3:
        theta = math.acos(max(-1.0, min(1.0, R / math.sqrt(Q3))))
        scale = -2.0 * math.sqrt(Q)
        smallest = scale * math.cos(theta / 3.0) - A / 3.0
        largest = scale * math.cos((theta + 2.0 * math.pi) / 3.0) - A / 3.0
        y = smallest if abs(smallest) > abs(largest) else largest
        outermost = deflate = True
    else:
        s = -math.copysign((abs(R) + math.sqrt(R2 - Q3)) ** (1.0 / 3.0), R)
        u = Q / s if s != 0.0 else 0.0
        y = s + u - A / 3.0
        # the other roots are -(s + u)/2 - A/3 +- i sqrt(3)/2 (s - u); a pair
        # within 1e-8 relative is near a multiple root, and one within 1e-8
        # absolute has |s - u| below 2e-8; the deflated quadratic then keeps
        # only a pair within 1e-8 relative
        re, im = -0.5 * (s + u) - A / 3.0, 0.5 * math.sqrt(3.0) * (s - u)
        outermost = y * y >= re * re + im * im
        deflate = multiple or math.ldexp(abs(s - u), k) <= 2e-8
    x = _newton_polish(a, b, c, d, math.ldexp(y, k))
    roots = [x]
    if deflate:
        # divide out (t - x): from the constant term down when x is the
        # largest root in magnitude, from the leading term up otherwise
        if outermost and x != 0.0:
            gamma = -d / x
            beta = (gamma - c) / x
        else:
            beta = b + a * x
            gamma = c + beta * x
        roots += [_newton_polish(a, b, c, d, r) for r in solve_quadratic_real((a, beta, gamma))]
    if multiple:
        roots = _merge_double_roots(a, b, c, d, roots)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-9 * max(1.0, abs(r)):
            continue
        merged.append(r)
    return merged


# ---------------------------------------------------------------------------
# stationarity polynomials


def relay_cubic_for_a(
    gains: ChannelGains,
    noise: NoiseModel,
    *,
    p_a: float,
    alpha: float,
    price: float,
) -> list[float]:
    """Cubic in ``p_jb`` (partner relaying power for a's message).

    Coefficients are evaluated at a fixed own-message power ``p_a``; the
    allocation layer decides what to seed that with.
    """

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    return _relay_cubic(gains, noise.sigma2, _as_nonnegative("p_a", p_a), a, lam)


def _relay_cubic(gains: ChannelGains, s2: float, p_a: float, a: float, lam: float) -> list[float]:
    """:func:`relay_cubic_for_a` on checked floats."""

    g_ab, g_ae, g_aj, g_jb = gains.g_ab, gains.g_ae, gains.g_aj, gains.g_jb
    w1 = s2 * g_jb**2 + g_jb**2 * g_ab * p_a + g_jb**2 * g_aj * p_a
    w2 = (s2 * g_jb + 2 * g_jb * g_ab * p_a + g_aj * g_jb * p_a + s2 * g_jb) * (g_aj + s2)
    w3 = (g_ab * p_a + s2) * (g_aj * p_a + s2) ** 2
    w4 = a * s2 + a * g_ae * (1.0 + lam * p_a)
    w5 = a**2 + g_ae * lam * p_a
    kappa = g_aj * g_jb * p_a * (g_aj * p_a + s2)
    return [
        w1 * a**2 * g_ae,
        w1 * w4 + w2 * a**2 * g_ae,
        w2 * w4 + w3 * a**2 * g_ae - a * g_ae * kappa,
        w3 * w4 - w5 * kappa,
    ]


def noncoop_quadratic(g_main: float, g_eve: float, sigma2: float, price: float) -> list[float]:
    """Quadratic in the carried power of a single directly sent message.

    Generic in the link pair: pass ``(g_ab, g_ae)`` for a message on a's
    links or ``(g_jb, g_je)`` for one on j's.  Every direct-mode allocation
    solves this polynomial; :mod:`coopsec.oracle` audits its per-mode
    printed spellings.
    """

    g_main, g_eve = _as_nonnegative("g_main", g_main), _as_nonnegative("g_eve", g_eve)
    sigma2 = _as_positive("sigma2", sigma2)
    return _gap_quadratic(g_main, g_eve, sigma2, _as_nonnegative("price", price))


def _gap_quadratic(g_main: float, g_eve: float, sigma2: float, lam: float) -> list[float]:
    """:func:`noncoop_quadratic` on checked floats.  ``sigma2 * sigma2``,
    unlike C ``pow``, is exact under a power-of-two change of units."""

    s4 = sigma2 * sigma2
    if s4 == math.inf:
        raise OverflowError("sigma2 * sigma2 overflows")
    return [
        lam * g_main * g_eve,
        lam * sigma2 * (g_main + g_eve),
        -(sigma2 * g_main - sigma2 * g_eve - lam * s4),
    ]


# Printed audit data like the builders in :mod:`coopsec.oracle`, but it stays
# here: the benchmark's tracer wraps it under ``coopsec.allocator``.
def evaluate_closed_forms(
    gains: ChannelGains, noise: NoiseModel, *, alpha: float, price: float
) -> dict[str, float]:
    """Compact square-root expressions for the six direct-mode stationary points.

    Evaluated exactly as written, for cross-checking against the quadratic
    roots; an entry whose radicand is negative comes back as NaN.  Requires a
    strictly positive price (the expressions divide by it) and strictly
    positive gains (they divide by those too).

    Raises ``OverflowError`` when an intermediate term overflows a float, as
    a squared bracket does at ``g_ab = 1e160``, and ``ZeroDivisionError``
    when a divisor underflows to zero, as ``(lam * g_jb * g_je) ** 2`` does
    at ``lam = 1e-300``.

    Keys: ``mac_pa``, ``mac_pj``, ``one_side_pa``, ``one_side_pj``,
    ``noncoop_pa``, ``noncoop_pj``.
    """

    a = _as_alpha(alpha)
    lam = _as_nonnegative("price", price)
    if lam == 0.0:
        raise ValueError("closed forms require a strictly positive price")
    g_ab, g_ae, g_jb, g_je = gains.g_ab, gains.g_ae, gains.g_jb, gains.g_je
    if min(g_ab, g_ae, g_jb, g_je) <= 0:
        raise ValueError("closed forms require strictly positive link gains")
    s2 = noise.sigma2
    s4 = s2 * s2

    def root_or_nan(numerator: float, denominator: float) -> float:
        radicand = numerator / denominator
        if radicand < 0:
            return math.nan
        return math.sqrt(radicand)

    slack_a = s2 * g_ab - s2 * g_ae - lam * s4
    slack_j = s2 * g_jb - s2 * g_je - lam * s4

    mac_pa = (a / 2.0) * root_or_nan(
        lam**2 * s4 * (g_jb + g_je) ** 2 + 4 * lam * g_jb * g_je * slack_j,
        (lam * g_jb * g_je) ** 2,
    ) - s2 * (1.0 / g_je + 1.0 / g_jb)
    mac_pj = (1.0 / (2.0 * lam * a)) * root_or_nan(
        (s2 * g_ab + s2 * g_ae) ** 2 + 4 * lam * g_ab * g_ae * slack_a,
        (g_ab * g_ae) ** 2,
    ) - s2 * (1.0 / g_ae + 1.0 / g_ab)
    one_side_pa = 0.5 * root_or_nan(
        lam**2 * s4 * (g_ab + g_ae) ** 2 + 4 * lam * g_ab * g_ae * slack_a,
        (lam * g_ab * g_ae) ** 2,
    ) - s2 * (1.0 / g_ae + 1.0 / g_ab)
    noncoop_pj = 0.5 * root_or_nan(
        lam**2 * s4 * (g_jb + g_je) ** 2 + 4 * lam * g_jb * g_je * slack_j,
        (lam * g_jb * g_je) ** 2,
    ) - s2 * (1.0 / g_je + 1.0 / g_jb)

    return {
        "mac_pa": mac_pa,
        "mac_pj": mac_pj,
        "one_side_pa": one_side_pa,
        "one_side_pj": mac_pj,
        "noncoop_pa": one_side_pa,
        "noncoop_pj": noncoop_pj,
    }


# ---------------------------------------------------------------------------
# penalised objectives


class _Gap(NamedTuple):
    """Priced secrecy gap of a message carried at ``x = scale * p``."""

    g_main: float
    g_eve: float
    s2: float
    lam: float
    scale: float

    def __call__(self, p):
        g_main, g_eve, s2, lam, scale = self
        log1p = math.log1p if type(p) is float else np.log1p
        x = scale * p
        return log1p(g_main * x / s2) - log1p(g_eve * x / s2) - lam * x

    def slope(self, p: float) -> tuple[float, float]:
        """The derivative in ``p`` and its terms' summed magnitudes; NaN when a
        divisor underflows to zero."""

        g_main, g_eve, s2, lam, scale = self
        x = scale * p
        try:
            terms = (g_main / (s2 + g_main * x), -g_eve / (s2 + g_eve * x), -lam)
        except ZeroDivisionError:
            return math.nan, math.nan
        return scale * sum(terms), scale * sum(map(abs, terms))

    def argmax(self, hi: float) -> float | None:
        """The argmax on ``[0, hi]``, by the priced-gap kernel's argmax rule;
        ``None`` when the quadratic's coefficients overflow."""

        try:
            return _priced_gap_optimum(*self, hi, _ARGMAX)[0]
        except OverflowError:
            return None


class _RelaySlice(NamedTuple):
    """Priced relay secrecy rate in the relaying slice ``p``."""

    g_direct: float
    g_eve: float
    g_hop1: float
    g_hop2: float
    s2: float
    lam: float
    own_power: float
    pay_scale: float

    def __call__(self, p):
        g_direct, g_eve, g_hop1, g_hop2, s2, lam, own_power, pay_scale = self
        log1p = math.log1p if type(p) is float else np.log1p
        base_main, eve_term = g_direct * own_power / s2, math.log1p(g_eve * own_power / s2)
        first_hop, second_hop = g_hop1 * own_power, g_hop2 * p
        relayed = first_hop * second_hop / (s2 * (first_hop + second_hop + s2))
        return log1p(base_main + relayed) - eve_term - lam * pay_scale * p

    def slope(self, p: float) -> tuple[float, float]:
        """As :meth:`_Gap.slope`."""

        g_direct, _, g_hop1, g_hop2, s2, lam, own_power, pay_scale = self
        h1 = g_hop1 * own_power
        d = h1 + g_hop2 * p + s2
        try:
            relayed = h1 * g_hop2 * p / (s2 * d)
            gain = h1 * g_hop2 * (h1 + s2) / (s2 * d * d)
            gain /= 1.0 + g_direct * own_power / s2 + relayed
        except ZeroDivisionError:
            return math.nan, math.nan
        return gain - lam * pay_scale, gain + lam * pay_scale

    def argmax(self, hi: float) -> float | None:
        """The argmax on ``[0, hi]``: the concave slice's stationary point,
        clamped (KKT; Boyd & Vandenberghe, *Convex Optimization*, 5.5).  With
        ``h1 = g_hop1 own``, ``u = h1 + s2 + g_hop2 p``, ``A = s2 (1 + g_direct
        own / s2) + h1``, ``K = h1 (h1 + s2)`` and ``c = lam pay_scale``, the
        slope ``g_hop2 K / (u (A u - K)) - c`` falls in ``u`` to zero at the
        larger root of ``c A u^2 - c K u - g_hop2 K``.  An end when ``c``,
        ``K`` or ``g_hop2`` is zero; ``None`` when not finite."""

        g_direct, _, g_hop1, g_hop2, s2, lam, own_power, pay_scale = self
        h1 = g_hop1 * own_power
        K = h1 * (h1 + s2)
        c = lam * pay_scale
        if K == 0.0 or g_hop2 == 0.0:
            return 0.0
        if c == 0.0:
            return hi
        A = s2 * (1.0 + g_direct * own_power / s2) + h1
        coeffs = (c * A, -c * K, -g_hop2 * K)
        if not (all(map(math.isfinite, coeffs)) and any(coeffs)):
            return None
        roots = solve_quadratic_real(coeffs)
        p = (roots[-1] - h1 - s2) / g_hop2 if roots else math.nan
        return min(max(p, 0.0), hi) if math.isfinite(p) else None


def _objective_key(
    kind: ScenarioKind,
    side: str,
    gains: ChannelGains,
    noise: NoiseModel,
    price: float,
    alpha: float | None = None,
    p_a: float | None = None,
    p_j: float | None = None,
) -> _Gap | _RelaySlice:
    """The form of :func:`penalized_objective`'s objective: its defining
    floats, so two equal forms agree bit for bit at every point."""

    kind = ScenarioKind(kind)
    lam = _as_nonnegative("price", price)
    s2 = noise.sigma2

    for link in _DIRECT_LINKS.get(kind, ()):
        if link.power == side:
            scale = _scale(link.alpha_power, _as_alpha(alpha) if link.alpha_power else None)
            return _Gap(getattr(gains, link.main), getattr(gains, link.eve), s2, lam, scale)
    for row in _RELAY_LINKS.get(kind, ()):
        if row.slice == side:
            own = {"p_a": p_a, "p_j": p_j}[row.power]
            if own is None:
                raise ValueError(f"relay side {side!r} needs the seed power {row.power}")
            own = _as_nonnegative(row.power, own)
            scale = _scale(row.alpha_power, _as_alpha(alpha))
            return _RelaySlice(*row.gains(gains), s2, lam, own, scale)
    raise ValueError(f"unknown decision variable {side!r} for {kind.value}")


def penalized_objective(
    kind: ScenarioKind,
    side: str,
    gains: ChannelGains,
    noise: NoiseModel,
    *,
    price: float,
    alpha: float | None = None,
    p_a: float | None = None,
    p_j: float | None = None,
) -> Callable[[float], float]:
    """Objective that a given allocation decision maximises.

    ``side`` names the decision variable: ``"p_a"``/``"p_j"`` for the direct
    modes, ``"p_jb"``/``"p_ab"`` for the relay slices (those additionally
    need the transmitting side's own power ``p_a``/``p_j``).  The returned
    callable accepts scalars or numpy arrays; a Python float takes
    ``math.log1p``, which raises ``ValueError`` below its domain.
    """

    return _objective_key(kind, side, gains, noise, price, alpha, p_a, p_j)


# ---------------------------------------------------------------------------
# candidate selection


def _argmax_candidate(
    objective: Callable[[float], float], roots: Sequence[float], hi: float
) -> tuple[float, Provenance]:
    """The best of 0, ``hi`` and the roots inside ``(0, hi)`` under ``objective``.

    Ties go to the smaller power.  A candidate whose value is not finite is
    skipped, and so is one whose scalar evaluation divides by a number that
    underflows to zero, where an array evaluation gives NaN.
    """

    candidates = [0.0]
    if hi > 0:
        candidates.append(float(hi))
    candidates.extend(float(r) for r in roots if math.isfinite(r) and 0.0 < r < hi)
    best_p = 0.0
    best_v = -math.inf
    for p in sorted(candidates):
        try:
            v = float(objective(p))
        except ZeroDivisionError:
            continue
        if math.isfinite(v) and v > best_v:
            best_p, best_v = p, v
    if best_p == 0.0:
        return best_p, Provenance.ZERO
    if best_p == hi:
        return best_p, Provenance.BUDGET
    return best_p, Provenance.INTERIOR


# Pick rules of the priced-gap kernel: ``_ARGMAX`` keeps the best objective
# value among 0, the budget and the interior roots; ``_THRESHOLD`` is the
# direct-transmission rule of :func:`_threshold_pick`, used by non_coop only.
_ARGMAX = "argmax"
_THRESHOLD = "threshold"


def _threshold_pick(
    roots: Sequence[float], hi: float, main_stronger: bool
) -> tuple[float, Provenance]:
    """Take the smallest interior stationary point, else go all-in iff the
    legitimate link is the stronger one.

    The price enters only through the roots, so at a high price this spends
    the whole budget where the argmax rule would spend nothing.
    """

    interior = [r for r in roots if math.isfinite(r) and 0.0 < r < hi]
    if interior:
        return min(interior), Provenance.INTERIOR
    if main_stronger and hi > 0:
        return float(hi), Provenance.BUDGET
    return 0.0, Provenance.ZERO


def _priced_gap_optimum(
    g_main: float, g_eve: float, s2: float, lam: float, scale: float, hi: float, pick: str
) -> tuple[float, Provenance]:
    """Power ``p`` in ``[0, hi]`` for a message carried at ``x = scale * p``.

    Solves :func:`noncoop_quadratic` in ``x`` and maps its roots back to
    ``x / scale``.  Without a price over identical links the objective is
    flat and the decision is zero, with no root to solve for.
    """

    coeffs = _gap_quadratic(g_main, g_eve, s2, lam)
    if not any(coeffs):
        return 0.0, Provenance.ZERO
    roots = [x / scale for x in solve_quadratic_real(coeffs)]
    if pick == _THRESHOLD:
        return _threshold_pick(roots, hi, g_main > g_eve)
    return _argmax_candidate(_Gap(g_main, g_eve, s2, lam, scale).__call__, roots, hi)


# ---------------------------------------------------------------------------
# allocations


def _allocation(kind, gains, s2, alpha, p_a, p_j, p_ab, p_jb, provenance) -> OptimalAllocation:
    """The allocation at the decided powers, with their secrecy rates; every
    argument is checked."""

    cs = _secrecy_rate(kind, gains, s2, p_a, p_j, alpha, p_ab, p_jb)
    fields = {"mode": kind, "p_a": p_a, "p_j": p_j, "p_ab": p_ab, "p_jb": p_jb, "cs": cs}
    fields["provenance"] = provenance
    return _from_checked(OptimalAllocation, fields)


def _direct_allocation(
    kind: ScenarioKind,
    gains: ChannelGains,
    noise: NoiseModel,
    budget: PowerBudget,
    alpha: float | None,
    lam: float,
    pick: str,
) -> OptimalAllocation:
    hi = {"p_a": budget.p_a_max, "p_j": budget.p_j_max}
    try:
        decided = {
            link.power: _priced_gap_optimum(
                getattr(gains, link.main),
                getattr(gains, link.eve),
                noise.sigma2,
                lam,
                _scale(link.alpha_power, alpha),
                hi[link.power],
                pick,
            )
            for link in _DIRECT_LINKS[kind]
        }
    except OverflowError:  # sigma2 * sigma2 in the quadratic
        raise ValueError(f"{kind.value}: polynomial coefficients overflow") from None
    (p_a, prov_a), (p_j, prov_j) = decided["p_a"], decided["p_j"]
    provenance = {"p_a": prov_a, "p_j": prov_j}
    return _allocation(kind, gains, noise.sigma2, alpha, p_a, p_j, 0.0, 0.0, provenance)


def noncoop_allocation(
    gains: ChannelGains, noise: NoiseModel, budget: PowerBudget, *, price: float
) -> OptimalAllocation:
    """Independent direct transmission on both sides, by the threshold rule."""

    lam = _as_nonnegative("price", price)
    return _direct_allocation(ScenarioKind.NON_COOP, gains, noise, budget, None, lam, _THRESHOLD)


def one_side_allocation(
    gains: ChannelGains,
    noise: NoiseModel,
    budget: PowerBudget,
    *,
    alpha: float,
    price: float,
) -> OptimalAllocation:
    """j donates power, a forwards j's message over its own links."""

    a, lam = _as_alpha(alpha), _as_nonnegative("price", price)
    return _direct_allocation(ScenarioKind.ONE_SIDE_COOP, gains, noise, budget, a, lam, _ARGMAX)


def mac_allocation(
    gains: ChannelGains,
    noise: NoiseModel,
    budget: PowerBudget,
    *,
    alpha: float,
    price: float,
) -> OptimalAllocation:
    """Mutual power swap: each message rides the partner-funded power.

    Path loss enters through the gains: pass ``gains.effective(geometry)``.
    """

    a, lam = _as_alpha(alpha), _as_nonnegative("price", price)
    return _direct_allocation(ScenarioKind.MAC_COOP, gains, noise, budget, a, lam, _ARGMAX)


# Relay mode's first row: a's message, whose slice p_jb the cubic decides.
_RELAY_REQUEST = _RELAY_LINKS[ScenarioKind.RELAY_COOP][0]


def _relay_seeds(budget: PowerBudget, alpha: float) -> tuple[float, float, float, float]:
    """Relay mode's fixed own-message seeds and the slice bounds they leave.

    Returns ``(seed_a, seed_j, hi_jb, hi_ab)``: the seeds are half of each
    budget, ``p_jb`` may use what they leave free of j's budget and, at the
    exchange ratio, of a's, and ``p_ab`` mirrors that.
    """

    scale = _scale(_RELAY_REQUEST.alpha_power, alpha)
    seed_a, seed_j = 0.5 * budget.p_a_max, 0.5 * budget.p_j_max
    free_a, free_j = budget.p_a_max - seed_a, budget.p_j_max - seed_j
    return (
        seed_a,
        seed_j,
        max(min(free_j, free_a / scale), 0.0),
        max(min(free_a, scale * free_j), 0.0),
    )


def relay_allocation(
    gains: ChannelGains,
    noise: NoiseModel,
    budget: PowerBudget,
    *,
    alpha: float,
    price: float,
) -> OptimalAllocation:
    """Mutual relaying with the exchange ratio pinning the return slice.

    The request originates with transmitter a: the cubic picks j's relaying
    power ``p_jb`` and a's return slice is pinned to ``p_ab = alpha * p_jb``.
    The cubic's coefficients are evaluated at fixed own-message seeds of half
    of each budget, and the relaying slice is chosen from what those seeds
    leave free, ``[0, min(p_j_max / 2, p_a_max / (2 alpha))]``.  A zero
    budget simply yields zero relaying, flagged ``zero-clamped``.

    The returned own-message powers are the budget remainders
    ``p_a_max - p_ab`` and ``p_j_max - p_jb``, which can differ from the
    seeds the coefficients saw.
    """

    a, lam = _as_alpha(alpha), _as_nonnegative("price", price)
    s2 = noise.sigma2
    seed_a, _, hi, _ = _relay_seeds(budget, a)
    try:
        coeffs = _relay_cubic(gains, s2, seed_a, a, lam)
    except OverflowError:  # a float ** 2 raises where x * x would give inf
        raise ValueError("relay_coop: polynomial coefficients overflow") from None
    roots = solve_cubic_real(coeffs)
    kind = ScenarioKind.RELAY_COOP
    scale = _scale(_RELAY_REQUEST.alpha_power, a)
    # penalized_objective(RELAY_COOP, "p_jb", ...) at the seed, on the checked floats
    objective = _RelaySlice(*_RELAY_REQUEST.gains(gains), s2, lam, seed_a, scale)
    p_jb, prov = _argmax_candidate(objective.__call__, roots, hi)
    p_ab = scale * p_jb
    p_a, p_j = max(budget.p_a_max - p_ab, 0.0), max(budget.p_j_max - p_jb, 0.0)
    return _allocation(kind, gains, s2, None, p_a, p_j, p_ab, p_jb, {"p_jb": prov})


# ---------------------------------------------------------------------------
# dual-price search


def bisect_price_for_budget(
    consumed_power: Callable[[float], float],
    target: float,
    *,
    price_lo: float = 0.0,
) -> float:
    """Smallest price at which consumption drops to the target.

    ``consumed_power`` maps a price to total allocated power and must be
    non-increasing.  The bracket's upper end starts at ``max(1, 2 * price_lo)``
    and doubles until it meets the target; the bracket is then bisected to a
    width of ``1e-10`` relative to the price.  Returns ``price_lo`` at once
    when the target is met there.

    Raises
    ------
    ValueError
        On a ``target`` or ``price_lo`` that is not a finite non-negative
        number, on a probe that consumes strictly more than a probe at a
        lower price, or when 120 doublings miss the target.
    """

    target = _as_nonnegative("target", target)
    probes: list[tuple[float, float]] = []

    def consumed(price: float) -> float:
        power = consumed_power(price)
        for low, high in (sorted([probe, (price, power)]) for probe in probes):
            if low[0] < high[0] and low[1] < high[1]:
                raise ValueError(
                    f"consumption rises with price: {low[1]} at price {low[0]} "
                    f"but {high[1]} at price {high[0]}"
                )
        probes.append((price, power))
        return power

    lo = _as_nonnegative("price_lo", price_lo)
    if consumed(lo) <= target:
        return lo
    hi = max(1.0, 2.0 * lo)
    for _ in range(121):
        if consumed(hi) <= target:
            break
        hi *= 2.0
    else:
        raise ValueError("no price within range brings consumption to the target")
    for _ in range(200):
        if hi - lo <= 1e-10 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if consumed(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi
