"""Link-level primitives for a two-transmitter cooperative wiretap setup.

Two transmitters (labelled ``a`` and ``j``) send to a common receiver ``b``
while an eavesdropper ``e`` listens.  Every link is summarised by a flat
power gain, so a received SNR is ``gain * power / sigma2``.  Cooperative
relaying uses a two-hop amplify-and-forward path whose end-to-end SNR is the
usual harmonic-style combination of the two hop SNRs.

Distances enter only through a path-loss exponent: a link at distance ``d``
with exponent ``eta`` behaves exactly like a unit-distance link whose gain is
``gain / d**eta``.  All higher layers rely on that equivalence instead of
carrying distances around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "ChannelGains",
    "CooperationLevel",
    "Geometry",
    "NoiseModel",
    "PowerBudget",
    "effective_gain",
    "snr_direct",
    "snr_relay_path",
]


def _require_finite(name: str, value: float) -> float:
    # a str, bytes or bool is no number; testing float first keeps negotiate cheap
    if type(value) is not float:
        if isinstance(value, (str, bytes, bool)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ChannelGains:
    """Per-link power gains.

    ``g_ab``/``g_ae`` are transmitter a's links to the receiver and the
    eavesdropper, ``g_jb``/``g_je`` the same for transmitter j, and ``g_aj``
    the inter-transmitter link.  ``g_ja`` may be given separately for a
    non-reciprocal inter-transmitter channel; when omitted it defaults to
    ``g_aj``.
    """

    g_ab: float
    g_ae: float
    g_jb: float
    g_je: float
    g_aj: float
    g_ja: float | None = None

    def __post_init__(self) -> None:
        for name in ("g_ab", "g_ae", "g_jb", "g_je", "g_aj"):
            value = _require_finite(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        if self.g_ja is None:
            object.__setattr__(self, "g_ja", self.g_aj)
        else:
            value = _require_finite("g_ja", self.g_ja)
            if value < 0:
                raise ValueError(f"g_ja must be non-negative, got {value}")
            object.__setattr__(self, "g_ja", value)

    def effective(self, geometry: "Geometry") -> "ChannelGains":
        """Fold path loss into the gains.

        Each link gain is divided by its distance raised to ``geometry.eta``;
        the inter-transmitter distance ``d_aj`` applies in both directions.
        """

        eta = geometry.eta
        return ChannelGains(
            g_ab=effective_gain(self.g_ab, geometry.d_ab, eta),
            g_ae=effective_gain(self.g_ae, geometry.d_ae, eta),
            g_jb=effective_gain(self.g_jb, geometry.d_jb, eta),
            g_je=effective_gain(self.g_je, geometry.d_je, eta),
            g_aj=effective_gain(self.g_aj, geometry.d_aj, eta),
            g_ja=effective_gain(self.g_ja, geometry.d_aj, eta),
        )


@dataclass(frozen=True)
class NoiseModel:
    """Common receiver noise power (variance of the additive noise)."""

    sigma2: float

    def __post_init__(self) -> None:
        value = _require_finite("sigma2", self.sigma2)
        if value <= 0:
            raise ValueError(f"sigma2 must be positive, got {value}")
        object.__setattr__(self, "sigma2", value)


@dataclass(frozen=True)
class Geometry:
    """Node distances plus the path-loss exponent."""

    d_ab: float
    d_ae: float
    d_jb: float
    d_je: float
    d_aj: float
    eta: float = 2.0

    def __post_init__(self) -> None:
        for name in ("d_ab", "d_ae", "d_jb", "d_je", "d_aj"):
            value = _require_finite(name, getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        eta = _require_finite("eta", self.eta)
        if eta < 1:
            raise ValueError(f"eta must be at least 1, got {eta}")
        object.__setattr__(self, "eta", eta)

    def with_eve_at(self, d_ae: float, d_je: float) -> "Geometry":
        """Return a copy with the eavesdropper moved to new distances."""

        return replace(self, d_ae=d_ae, d_je=d_je)


@dataclass(frozen=True)
class PowerBudget:
    """Total transmit power available to each transmitter."""

    p_a_max: float
    p_j_max: float

    def __post_init__(self) -> None:
        for name in ("p_a_max", "p_j_max"):
            value = _require_finite(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CooperationLevel:
    """Fraction of a helper's power mirrored by the other side, in [0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        value = _require_finite("alpha", self.alpha)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {value}")
        object.__setattr__(self, "alpha", value)

    def __float__(self) -> float:
        return self.alpha


def snr_direct(gain: float, power: float, sigma2: float) -> float:
    """Received SNR of a single link: ``gain * power / sigma2``.

    Linear in both ``gain`` and ``power``.  Negative gains or powers and a
    non-positive noise variance are rejected.
    """

    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if gain < 0 or power < 0:
        raise ValueError("gain and power must be non-negative")
    return gain * power / sigma2


def snr_relay_path(g_ir: float, g_rk: float, p_i: float, p_rk: float, sigma2: float) -> float:
    """End-to-end SNR of a two-hop amplify-and-forward path.

    ``g_ir``/``p_i`` describe the source-to-relay hop and ``g_rk``/``p_rk``
    the relay-to-destination hop:

        g_ir * g_rk * p_i * p_rk / (sigma2 * (g_ir*p_i + g_rk*p_rk + sigma2))

    The value is symmetric under swapping the two hops, vanishes when either
    power is zero, and is strictly below both single-hop SNRs whenever those
    are positive (the weaker hop is the bottleneck).
    """

    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if min(g_ir, g_rk, p_i, p_rk) < 0:
        raise ValueError("gains and powers must be non-negative")
    hop_i = g_ir * p_i
    hop_k = g_rk * p_rk
    if hop_i == 0.0 or hop_k == 0.0:
        # the denominator below can underflow to zero at a tiny sigma2
        return 0.0
    total = hop_i + hop_k + sigma2
    denominator = sigma2 * total
    if denominator == 0.0:
        # tiny but nonzero hops: divide before multiplying
        return (hop_i / sigma2) * (hop_k / total)
    return hop_i * hop_k / denominator


def effective_gain(gain: float, distance: float, eta: float) -> float:
    """Distance-corrected gain ``gain / distance**eta``.

    Feeding the result into :func:`snr_direct` reproduces the path-loss form
    ``gain * power / (distance**eta * sigma2)`` exactly, so geometry-aware
    computations can reuse every unit-distance formula unchanged.
    """

    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if eta < 1:
        raise ValueError(f"eta must be at least 1, got {eta}")
    if gain < 0:
        raise ValueError(f"gain must be non-negative, got {gain}")
    return gain / distance**eta
