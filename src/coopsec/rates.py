"""Secrecy-rate expressions for the four operating modes.

All rates are natural-log values (nats per channel use).  A secrecy rate is
the gap ``log(1 + snr_legitimate) - log(1 + snr_eavesdropper)``; it may be
negative, in which case the operational secrecy capacity is zero and callers
can apply :meth:`RatePair.clamped`.

The four modes:

``non_coop``
    Each transmitter sends its own message with its own power.

``one_side_coop``
    Transmitter j hands ``alpha * p_j`` to transmitter a, which forwards j's
    message over its own links.  a's own rate is the plain direct rate.

``mac_coop``
    A mutual power swap: a's message is carried by the borrowed power
    ``alpha * p_j`` over a's links, j's message by ``p_a / alpha`` over j's
    links.

``relay_coop``
    Each side keeps transmitting directly and additionally relays the
    partner's signal with a dedicated power slice (``p_jb`` at j for a's
    message, ``p_ab`` at a for j's).  The destination combines the direct and
    two-hop observations; the eavesdropper is only credited with the direct
    link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .model import ChannelGains, NoiseModel, snr_direct, snr_relay_path

__all__ = [
    "RatePair",
    "ScenarioKind",
    "SecrecyRegion",
    "mac_secrecy_region",
    "rate_mrc_relay",
    "rate_p2p",
    "secrecy_rate",
]

_LN2 = math.log(2.0)


class ScenarioKind(str, Enum):
    """Operating mode selected by the negotiation layer."""

    RELAY_COOP = "relay_coop"
    MAC_COOP = "mac_coop"
    ONE_SIDE_COOP = "one_side_coop"
    NON_COOP = "non_coop"

    def __str__(self) -> str:  # keep CSV/JSON output free of enum repr noise
        return self.value


@dataclass(frozen=True)
class RatePair:
    """Secrecy rates of the two messages, in nats.

    ``cs1`` belongs to transmitter a's message and ``cs2`` to transmitter
    j's, regardless of which node physically carries them.
    """

    cs1: float
    cs2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "cs1", float(self.cs1))
        object.__setattr__(self, "cs2", float(self.cs2))

    def clamped(self) -> "RatePair":
        """Positive part of both rates (the operational secrecy capacity)."""

        return RatePair(max(self.cs1, 0.0), max(self.cs2, 0.0))

    def to_base(self, base: float) -> "RatePair":
        """Convert both rates from nats to logarithms of ``base``."""

        if base <= 1.0:
            raise ValueError(f"log base must exceed 1, got {base}")
        scale = math.log(base)
        return RatePair(self.cs1 / scale, self.cs2 / scale)


def rate_p2p(snr: float) -> float:
    """Point-to-point rate ``log(1 + snr)`` in nats."""

    if snr < 0:
        raise ValueError(f"snr must be non-negative, got {snr}")
    return math.log1p(snr)


def rate_mrc_relay(snr_direct_path: float, snr_relayed_path: float) -> float:
    """Rate after combining a direct and a two-hop observation.

    Ratio combining of the two branches adds their SNRs, so this is simply
    ``log(1 + snr_direct_path + snr_relayed_path)``.
    """

    if snr_direct_path < 0 or snr_relayed_path < 0:
        raise ValueError("branch SNRs must be non-negative")
    return math.log1p(snr_direct_path + snr_relayed_path)


class _Link(NamedTuple):
    """How one message travels in a direct (non-relaying) mode.

    The message reaches the receiver over gain ``main`` and leaks over gain
    ``eve``.  It is funded by the decision variable ``power`` and goes on
    air at ``power * alpha**alpha_power``.
    """

    main: str
    eve: str
    power: str
    alpha_power: int


# Message 1 (a's) and message 2 (j's) of each direct mode.  Secrecy rates,
# the allocator's objectives and its allocations all read this one table.
_DIRECT_LINKS: dict[ScenarioKind, tuple[_Link, _Link]] = {
    ScenarioKind.NON_COOP: (_Link("g_ab", "g_ae", "p_a", 0), _Link("g_jb", "g_je", "p_j", 0)),
    ScenarioKind.ONE_SIDE_COOP: (
        _Link("g_ab", "g_ae", "p_a", 0),
        _Link("g_ab", "g_ae", "p_j", 1),
    ),
    ScenarioKind.MAC_COOP: (_Link("g_ab", "g_ae", "p_j", 1), _Link("g_jb", "g_je", "p_a", -1)),
}


def _gap(snr_main: float, snr_eve: float) -> float:
    return math.log1p(snr_main) - math.log1p(snr_eve)


def _message_gap(link: _Link, gains: ChannelGains, power: float, alpha, s2: float) -> float:
    if link.alpha_power > 0:
        power = alpha * power
    elif link.alpha_power < 0:
        power = power / alpha
    return _gap(
        snr_direct(getattr(gains, link.main), power, s2),
        snr_direct(getattr(gains, link.eve), power, s2),
    )


def secrecy_rate(
    kind: ScenarioKind,
    gains: ChannelGains,
    noise: NoiseModel,
    *,
    p_a: float,
    p_j: float,
    alpha: float | None = None,
    p_ab: float = 0.0,
    p_jb: float = 0.0,
) -> RatePair:
    """Secrecy-rate pair of an operating mode at a concrete power point.

    Parameters
    ----------
    kind:
        Operating mode; decides which powers and links matter.
    p_a, p_j:
        Power spent on each side's own message.  Every power must be finite.
    alpha:
        Power-exchange ratio; required for the MAC and one-sided modes.
    p_ab, p_jb:
        Relaying power slices (a relaying j's message, j relaying a's);
        only read in ``relay_coop`` mode.

    Returns
    -------
    RatePair
        Unclamped rates in nats.

    Raises
    ------
    ValueError
        On a non-finite or negative power, or when a rate is not finite
        because a gain over ``sigma2`` overflows its SNR.
    """

    if not all(map(math.isfinite, (p_a, p_j, p_ab, p_jb))):
        raise ValueError(f"powers must be finite: p_a={p_a}, p_j={p_j}, p_ab={p_ab}, p_jb={p_jb}")
    if p_a < 0 or p_j < 0:
        raise ValueError("message powers must be non-negative")
    s2 = noise.sigma2
    kind = ScenarioKind(kind)

    links = _DIRECT_LINKS.get(kind)
    if links is not None:
        if any(link.alpha_power for link in links):
            if alpha is None:
                raise ValueError(f"{kind.value} requires alpha")
            alpha = float(alpha)
            if alpha <= 0 and any(link.alpha_power < 0 for link in links):
                raise ValueError(f"{kind.value} requires alpha > 0 (power swap divides by it)")
        powers = {"p_a": p_a, "p_j": p_j}
        cs1, cs2 = (_message_gap(link, gains, powers[link.power], alpha, s2) for link in links)
    else:  # relay_coop
        if p_ab < 0 or p_jb < 0:
            raise ValueError("relay powers must be non-negative")
        relayed_a = snr_relay_path(gains.g_aj, gains.g_jb, p_a, p_jb, s2)
        cs1 = rate_mrc_relay(snr_direct(gains.g_ab, p_a, s2), relayed_a) - rate_p2p(
            snr_direct(gains.g_ae, p_a, s2)
        )
        relayed_j = snr_relay_path(gains.g_ja, gains.g_ab, p_j, p_ab, s2)
        cs2 = rate_mrc_relay(snr_direct(gains.g_jb, p_j, s2), relayed_j) - rate_p2p(
            snr_direct(gains.g_je, p_j, s2)
        )
    if not (math.isfinite(cs1) and math.isfinite(cs2)):
        raise ValueError(
            f"{kind.value} secrecy rates are not finite (cs1={cs1}, cs2={cs2}): "
            "a gain over sigma2 overflows the SNR"
        )
    return RatePair(cs1, cs2)


@dataclass(frozen=True)
class SecrecyRegion:
    """Rectangle-with-a-cut region of simultaneously achievable rate pairs.

    Membership means ``0 <= r1 <= r1_max``, ``0 <= r2 <= r2_max`` and
    ``r1 + r2 <= sum_max``.  The sum bound is independent of the individual
    bounds; no ordering between them is assumed or enforced.
    """

    r1_max: float
    r2_max: float
    sum_max: float

    def __post_init__(self) -> None:
        for name in ("r1_max", "r2_max", "sum_max"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
            object.__setattr__(self, name, value)

    def contains(self, pair: RatePair, tol: float = 1e-12) -> bool:
        cs1, cs2 = pair.cs1, pair.cs2
        return (
            cs1 >= -tol
            and cs2 >= -tol
            and cs1 <= self.r1_max + tol
            and cs2 <= self.r2_max + tol
            and cs1 + cs2 <= self.sum_max + tol
        )

    def vertices(self) -> list[tuple[float, float]]:
        """Boundary corners, counter-clockwise from the origin.

        Collapses to the plain rectangle when the sum constraint is slack,
        and drops the dominated corners when it bites.
        """

        c1, c2, cs = self.r1_max, self.r2_max, self.sum_max
        points: list[tuple[float, float]] = [(0.0, 0.0)]
        x_right = min(c1, cs)
        points.append((x_right, 0.0))
        if c1 + c2 > cs:
            # the diagonal cut is active
            if c1 < cs:
                points.append((c1, cs - c1))
            if c2 < cs:
                points.append((cs - c2, c2))
        else:
            points.append((c1, c2))
        points.append((0.0, min(c2, cs)))
        deduped: list[tuple[float, float]] = []
        for pt in points:
            if not deduped or not (
                math.isclose(pt[0], deduped[-1][0], abs_tol=1e-15)
                and math.isclose(pt[1], deduped[-1][1], abs_tol=1e-15)
            ):
                deduped.append(pt)
        return deduped


def mac_secrecy_region(
    gains: ChannelGains,
    noise: NoiseModel,
    *,
    p_a: float,
    p_j: float,
    one_side: bool = False,
) -> SecrecyRegion:
    """Achievable secrecy-rate region when both messages share the channel.

    The single-user caps compare each transmitter's own link pair; the sum
    cap compares the superposed receive SNRs:

        r1       <= log((s2 + g_ab p_a) / (s2 + g_ae p_a))
        r2       <= log((s2 + g_jb p_j) / (s2 + g_je p_j))
        r1 + r2  <= log((s2 + g_ab p_a + g_jb p_j) / (s2 + g_ae p_a + g_je p_j))

    With ``one_side=True`` only message 1 needs secrecy: the r2 cap keeps the
    full direct rate (no eavesdropper subtraction) and the sum cap subtracts
    only the tap on transmitter a's signal.

    Negative caps are clamped to zero, so a channel favouring the
    eavesdropper yields a degenerate (empty-interior) region.
    """

    if p_a < 0 or p_j < 0:
        raise ValueError("powers must be non-negative")
    s2 = noise.sigma2
    snr_ab = snr_direct(gains.g_ab, p_a, s2)
    snr_ae = snr_direct(gains.g_ae, p_a, s2)
    snr_jb = snr_direct(gains.g_jb, p_j, s2)
    snr_je = snr_direct(gains.g_je, p_j, s2)
    r1_max = _gap(snr_ab, snr_ae)
    if one_side:
        r2_max = rate_p2p(snr_jb)
        sum_max = _gap(snr_ab + snr_jb, snr_ae)
    else:
        r2_max = _gap(snr_jb, snr_je)
        sum_max = _gap(snr_ab + snr_jb, snr_ae + snr_je)
    return SecrecyRegion(
        r1_max=max(r1_max, 0.0),
        r2_max=max(r2_max, 0.0),
        sum_max=max(sum_max, 0.0),
    )
