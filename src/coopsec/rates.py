"""Secrecy-rate expressions for the four operating modes.

All rates are natural-log values (nats per channel use).  A secrecy rate is
the gap ``log(1 + snr_legitimate) - log(1 + snr_eavesdropper)``; it may be
negative, in which case the operational secrecy capacity is zero and callers
can apply :meth:`RatePair.clamped`.  Each message's rate is the gap on its
own link pair: the two messages do not interfere.

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

from .model import (
    ChannelGains,
    NoiseModel,
    _as_alpha,
    _as_nonnegative,
    _from_checked,
    _relay_snr,
    _require_finite,
)

__all__ = [
    "RatePair",
    "ScenarioKind",
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


def rate_p2p(snr: float) -> float:
    """Point-to-point rate ``log(1 + snr)`` in nats."""

    return math.log1p(_as_nonnegative("snr", snr))


def rate_mrc_relay(snr_direct_path: float, snr_relayed_path: float) -> float:
    """Rate after combining a direct and a two-hop observation.

    Ratio combining of the two branches adds their SNRs, so this is simply
    ``log(1 + snr_direct_path + snr_relayed_path)``.
    """

    snr_direct_path = _as_nonnegative("snr_direct_path", snr_direct_path)
    return math.log1p(snr_direct_path + _as_nonnegative("snr_relayed_path", snr_relayed_path))


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
    # the SNRs of model.snr_direct, on secrecy_rate's checked floats
    if link.alpha_power > 0:
        power = alpha * power
    elif link.alpha_power < 0:
        power = power / alpha
    return _gap(getattr(gains, link.main) * power / s2, getattr(gains, link.eve) * power / s2)


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
        Power spent on each side's own message.  Every power must be a
        finite number.
    alpha:
        Power-exchange ratio in ``(0, 1]``; required for the MAC and
        one-sided modes, and checked whenever it is given.
    p_ab, p_jb:
        Relaying power slices (a relaying j's message, j relaying a's);
        only read, and so only required non-negative, in ``relay_coop``
        mode.

    Returns
    -------
    RatePair
        Unclamped rates in nats.

    Raises
    ------
    ValueError
        On a power that is no number, is not finite or is negative, or
        when a rate is not finite because a gain over ``sigma2`` overflows
        its SNR.
    """

    p_a, p_j = _as_nonnegative("p_a", p_a), _as_nonnegative("p_j", p_j)
    kind = ScenarioKind(kind)
    slice_check = _as_nonnegative if kind is ScenarioKind.RELAY_COOP else _require_finite
    p_ab, p_jb = slice_check("p_ab", p_ab), slice_check("p_jb", p_jb)
    if alpha is not None:
        alpha = _as_alpha(alpha)
    if alpha is None and any(link.alpha_power for link in _DIRECT_LINKS.get(kind, ())):
        raise ValueError(f"{kind.value} requires alpha")
    return _secrecy_rate(kind, gains, noise.sigma2, p_a, p_j, alpha, p_ab, p_jb)


def _secrecy_rate(
    kind: ScenarioKind,
    gains: ChannelGains,
    s2: float,
    p_a: float,
    p_j: float,
    alpha: float | None,
    p_ab: float,
    p_jb: float,
) -> RatePair:
    """:func:`secrecy_rate` on checked floats.

    ``kind`` is a :class:`ScenarioKind`, the powers are finite non-negative
    floats, ``s2`` is a checked ``sigma2`` and ``alpha`` a checked ratio, or
    ``None`` in a mode that does not read it.  The arithmetic is
    :func:`secrecy_rate`'s, so the rates are the same bits.  Raises
    ``ValueError`` when a rate is not finite, which no input check can
    foresee.
    """

    links = _DIRECT_LINKS.get(kind)
    if links is not None:
        powers = {"p_a": p_a, "p_j": p_j}
        cs1, cs2 = (_message_gap(link, gains, powers[link.power], alpha, s2) for link in links)
    else:  # relay_coop
        # the direct branch and the relayed one add up, as in rate_mrc_relay
        relayed_a = _relay_snr(gains.g_aj, gains.g_jb, p_a, p_jb, s2)
        cs1 = math.log1p(gains.g_ab * p_a / s2 + relayed_a) - math.log1p(gains.g_ae * p_a / s2)
        relayed_j = _relay_snr(gains.g_ja, gains.g_ab, p_j, p_ab, s2)
        cs2 = math.log1p(gains.g_jb * p_j / s2 + relayed_j) - math.log1p(gains.g_je * p_j / s2)
    if not (math.isfinite(cs1) and math.isfinite(cs2)):
        raise ValueError(
            f"{kind.value} secrecy rates are not finite (cs1={cs1}, cs2={cs2}): "
            "a gain over sigma2 overflows the SNR"
        )
    return _from_checked(RatePair, {"cs1": cs1, "cs2": cs2})
