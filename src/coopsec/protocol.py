"""Cooperation gating and the distributed mode negotiation.

Whether the two transmitters should help each other at all depends on where
the eavesdropper sits.  This module evaluates the four pairing inequalities
that encode that question and walks the negotiation ladder they gate: mutual
relaying first, then power cooperation without relaying, then one-sided
help, and finally no cooperation.

Two spellings of the inequalities ship side by side.  The published
spelling keeps every index and placement exactly as printed, including a
pair-distance term that reads ``d_ab`` where the surrounding construction
calls for the inter-transmitter distance ``d_aj``; the corrected spelling
substitutes ``d_aj`` there and changes nothing else.  The divergence is
selected by :class:`ConstraintMode`, never applied silently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .allocator import (
    OptimalAllocation,
    mac_allocation,
    noncoop_allocation,
    one_side_allocation,
    relay_allocation,
)
from .model import (
    ChannelGains,
    Geometry,
    NoiseModel,
    PowerBudget,
    _as_alpha,
    _as_nonnegative,
    _as_positive,
    _from_checked,
)
from .rates import ScenarioKind

__all__ = [
    "ConstraintMode",
    "ConstraintVerdict",
    "NegotiationPolicy",
    "distance_constraints_met",
    "negotiate",
]


class ConstraintMode(str, Enum):
    """Which spelling of the pairing inequalities to evaluate."""

    AS_PUBLISHED = "paper"
    CORRECTED = "corrected"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _leq(lhs: float, rhs: float) -> bool:
    """Non-strict comparison with a relative guard for boundary equality.

    The inequalities are non-strict, so a bound hit exactly (for instance a
    squared distance landing on ``6`` through ``sqrt(6)**2``) must count as
    satisfied despite float rounding.
    """

    return lhs <= rhs or math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


def _leaks_less(k_pair: float, c_pair: float, k_eve: float, c_eve: float, p: float) -> bool:
    """``k_pair / (c_pair + k_pair p) <= k_eve / (c_eve + k_eve p)``: the pair
    link leaks no more than the eavesdropper's, cross-multiplied (both
    denominators are positive).  Both sides' SNR-style conditions are this
    test."""

    return _leq(k_pair * (c_eve + k_eve * p), k_eve * (c_pair + k_pair * p))


@dataclass(frozen=True)
class ConstraintVerdict:
    """Outcome of the four pairing inequalities.

    Attributes
    ----------
    snr_condition_alice:
        Leakage comparison on a's side: the inter-transmitter link must not
        out-leak the link a's donated power feeds toward the eavesdropper.
    snr_condition_john:
        Mirrored leakage comparison on j's side.
    distance_alice_eve:
        ``d_ae^eta <= (g_ae / g_aj) * d_aj^eta`` (cross-multiplied).
    distance_john_eve:
        ``d_je^eta <= (g_je / g_ja) * d_aj^eta`` (cross-multiplied).
    all_met:
        Conjunction of the four; this is what gates cooperation.
    """

    snr_condition_alice: bool
    snr_condition_john: bool
    distance_alice_eve: bool
    distance_john_eve: bool
    all_met: bool

    def as_dict(self) -> dict[str, bool]:
        """JSON-ready mapping of all five flags."""

        return asdict(self)


def distance_constraints_met(
    gains: ChannelGains,
    geometry: Geometry,
    sigma2: float,
    alpha: float,
    p_a: float,
    p_j: float,
    mode: ConstraintMode | str = ConstraintMode.AS_PUBLISHED,
) -> ConstraintVerdict:
    """Evaluate the four cooperation-gating inequalities.

    The two SNR-style conditions compare leakage ratios at the current main
    powers; their pair-distance term is squared regardless of the configured
    path-loss exponent, exactly as printed.  The two distance conditions use
    the configured exponent.  All four are evaluated in cross-multiplied
    form (every denominator is positive), with a relative-tolerance guard so
    boundary equality counts as satisfied.

    Parameters
    ----------
    gains, geometry:
        Channel gains and node placement.
    sigma2:
        Receiver noise power, positive.
    alpha:
        Cooperation level in (0, 1].
    p_a, p_j:
        Main transmit powers entering the SNR-style conditions; pass the
        budgets when no allocation has been made yet.
    mode:
        ``ConstraintMode.AS_PUBLISHED`` keeps the printed ``d_ab``
        pair-distance term; ``ConstraintMode.CORRECTED`` substitutes
        ``d_aj``.

    Returns
    -------
    ConstraintVerdict
        The four flags plus their conjunction.
    """

    mode = ConstraintMode(mode)
    s2 = _as_positive("sigma2", sigma2)
    a = _as_alpha(alpha)
    p_a, p_j = _as_nonnegative("p_a", p_a), _as_nonnegative("p_j", p_j)

    # the pair distance, squared whatever the path-loss exponent
    d_sq = (geometry.d_ab if mode is ConstraintMode.AS_PUBLISHED else geometry.d_aj) ** 2
    pair_loss = geometry.d_aj**geometry.eta

    # a's side: k = alpha g and c = d^2 s2, at j's power; j's side: k = g and
    # c = alpha d^2 s2, at a's power
    snr_alice = _leaks_less(a * gains.g_aj, d_sq * s2, a * gains.g_ae, geometry.d_ae**2 * s2, p_j)
    snr_john = _leaks_less(gains.g_ja, a * d_sq * s2, gains.g_je, a * geometry.d_je**2 * s2, p_a)
    dist_alice = _leq(gains.g_aj * geometry.d_ae**geometry.eta, gains.g_ae * pair_loss)
    dist_john = _leq(gains.g_ja * geometry.d_je**geometry.eta, gains.g_je * pair_loss)

    return _from_checked(
        ConstraintVerdict,
        {
            "snr_condition_alice": snr_alice,
            "snr_condition_john": snr_john,
            "distance_alice_eve": dist_alice,
            "distance_john_eve": dist_john,
            "all_met": snr_alice and snr_john and dist_alice and dist_john,
        },
    )


@dataclass(frozen=True)
class NegotiationPolicy:
    """Accept/reject switches for each rung of the negotiation ladder.

    The negotiation leaves each party's acceptance criteria external, so
    they are plain inputs here rather than derived from utilities.  ``alpha``
    is the cooperation level j announces when accepting, in (0, 1].  Each
    switch must be a ``bool``.
    """

    john_accepts_relay: bool = True
    alice_accepts_relay: bool = True
    john_accepts_mac: bool = True
    john_accepts_one_side: bool = True
    alpha: float = 0.8

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if name != "alpha" and type(value) is not bool:
                raise ValueError(f"{name} must be a bool, got {value!r}")
        object.__setattr__(self, "alpha", _as_alpha(self.alpha))


def negotiate(
    policy: NegotiationPolicy,
    gains: ChannelGains,
    geometry: Geometry,
    sigma2: float,
    price: float,
    budgets: PowerBudget,
    mode: ConstraintMode | str = ConstraintMode.AS_PUBLISHED,
) -> tuple[ScenarioKind, OptimalAllocation]:
    """Walk the negotiation ladder and return the agreed mode's allocation.

    a initiates and requests relay service.  When the pairing constraints
    hold (evaluated at the full budgets, since no allocation exists yet) the
    ladder runs: mutual relaying if j offers it and a reciprocates, else
    two-sided power cooperation if j accepts that, else one-sided help, else
    no cooperation.  Constraints failing skips the ladder entirely and falls
    straight to no cooperation.

    Allocations are computed over distance-attenuated gains
    (``gains.effective(geometry)``), so the geometry that gates the decision
    also shapes the powers.

    Returns
    -------
    tuple
        ``(mode, allocation)``; ``allocation.mode`` always equals the
        returned mode.
    """

    verdict = distance_constraints_met(
        gains,
        geometry,
        sigma2,
        policy.alpha,
        budgets.p_a_max,
        budgets.p_j_max,
        mode,
    )
    # the gate has checked sigma2
    noise = _from_checked(NoiseModel, {"sigma2": float(sigma2)})
    attenuated = gains.effective(geometry)
    if verdict.all_met and policy.john_accepts_relay and policy.alice_accepts_relay:
        allocation = relay_allocation(
            attenuated, noise, budgets, alpha=policy.alpha, price=price
        )
    elif verdict.all_met and policy.john_accepts_mac:
        allocation = mac_allocation(attenuated, noise, budgets, alpha=policy.alpha, price=price)
    elif verdict.all_met and policy.john_accepts_one_side:
        allocation = one_side_allocation(
            attenuated, noise, budgets, alpha=policy.alpha, price=price
        )
    else:
        allocation = noncoop_allocation(attenuated, noise, budgets, price=price)
    # the allocation's mode is the allocator's module-level member
    return allocation.mode, allocation
