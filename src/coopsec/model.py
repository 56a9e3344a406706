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
import numbers
import sys
from dataclasses import dataclass, replace

__all__ = [
    "ChannelGains",
    "Geometry",
    "NoiseModel",
    "PowerBudget",
    "effective_gain",
    "snr_direct",
    "snr_relay_path",
]


def _as_number(name: str, value: float) -> float:
    """``value`` as a float: the one test that an input is a number.

    A str, bytes or bool is no number, nor is anything ``float()`` refuses.
    """

    if type(value) is float:
        return value
    try:
        if isinstance(value, (str, bytes, bool)):
            raise TypeError
        return float(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _require_finite(name: str, value: float) -> float:
    # testing float first keeps negotiate cheap
    if type(value) is not float:
        value = _as_number(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _from_checked(cls, fields):
    """An instance of the frozen dataclass ``cls`` that holds ``fields``.

    ``fields`` maps every field name to its value, as a dict or as
    ``(name, value)`` pairs.  ``__init__`` and ``__post_init__`` do not run,
    so each value must already be checked and converted to what
    ``__post_init__`` would store.  The instance then compares, hashes and
    prints like the constructed one, and ``dataclasses.replace`` builds its
    copies through ``__init__``.  Kernels that take checked floats build
    their results with it.
    """

    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


# The one check family: every number a public function takes is a number,
# finite, and in its range.  A range error shows the checked float.


def _as_nonnegative(name: str, value: float) -> float:
    x = _require_finite(name, value)
    if x < 0:
        raise ValueError(f"{name} must be non-negative, got {x!r}")
    return x


def _as_positive(name: str, value: float) -> float:
    x = _require_finite(name, value)
    if x <= 0:
        raise ValueError(f"{name} must be positive, got {x!r}")
    return x


def _as_eta(eta: float) -> float:
    e = _require_finite("eta", eta)
    if e < 1:
        raise ValueError(f"eta must be at least 1, got {e!r}")
    return e


def _as_alpha(alpha: float) -> float:
    a = _require_finite("alpha", alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"cooperative modes need alpha in (0, 1], got {alpha!r}")
    return a


def _as_whole(name: str, value: object) -> int:
    """``value`` as an ``int``; only an integer or an integral float is accepted."""

    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


_GAIN_FIELDS = ("g_ab", "g_ae", "g_jb", "g_je", "g_aj", "g_ja")
_DISTANCE_FIELDS = ("d_ab", "d_ae", "d_jb", "d_je", "d_aj")


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
        if self.g_ja is None:
            object.__setattr__(self, "g_ja", self.g_aj)
        for name in _GAIN_FIELDS:
            object.__setattr__(self, name, _as_nonnegative(name, getattr(self, name)))

    def effective(self, geometry: "Geometry") -> "ChannelGains":
        """Fold path loss into the gains.

        Each link gain is divided by its distance raised to ``geometry.eta``,
        as :func:`effective_gain` does; the inter-transmitter distance
        ``d_aj`` applies in both directions.  A quotient that overflows is
        rejected like a non-finite gain.
        """

        # both inputs are checked: the gains are non-negative and every
        # distance to the power eta is a positive normal float
        eta = geometry.eta
        pair_loss = geometry.d_aj**eta
        values = (
            self.g_ab / geometry.d_ab**eta,
            self.g_ae / geometry.d_ae**eta,
            self.g_jb / geometry.d_jb**eta,
            self.g_je / geometry.d_je**eta,
            self.g_aj / pair_loss,
            self.g_ja / pair_loss,
        )
        if not all(map(math.isfinite, values)):
            for name, value in zip(_GAIN_FIELDS, values):
                _require_finite(name, value)
        return _from_checked(ChannelGains, zip(_GAIN_FIELDS, values))


@dataclass(frozen=True)
class NoiseModel:
    """Common receiver noise power (variance of the additive noise)."""

    sigma2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma2", _as_positive("sigma2", self.sigma2))


@dataclass(frozen=True)
class Geometry:
    """Node distances plus the path-loss exponent.

    Path loss divides by ``d**eta`` and the gating inequalities of
    :mod:`coopsec.protocol` multiply by ``d**2``, so ``d**max(eta, 2)`` must
    be a positive normal float for every distance ``d``: at ``eta = 2``,
    ``d`` from about 1.5e-154 to 1.3e154.
    """

    d_ab: float
    d_ae: float
    d_jb: float
    d_je: float
    d_aj: float
    eta: float = 2.0

    def __post_init__(self) -> None:
        for name in _DISTANCE_FIELDS:
            object.__setattr__(self, name, _as_positive(name, getattr(self, name)))
        eta = _as_eta(self.eta)
        object.__setattr__(self, "eta", eta)
        power = max(eta, 2.0)
        for name in _DISTANCE_FIELDS:
            value = getattr(self, name)
            try:
                loss = value**power
            except OverflowError:
                loss = math.inf
            if not sys.float_info.min <= loss <= sys.float_info.max:
                raise ValueError(f"{name}**{power:g} is out of the float range, got {name}={value}")

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
            object.__setattr__(self, name, _as_nonnegative(name, getattr(self, name)))


def snr_direct(gain: float, power: float, sigma2: float) -> float:
    """Received SNR of a single link: ``gain * power / sigma2``.

    Linear in both ``gain`` and ``power``.  A negative or non-finite gain or
    power and a non-positive noise variance are rejected.
    """

    gain, power = _as_nonnegative("gain", gain), _as_nonnegative("power", power)
    return gain * power / _as_positive("sigma2", sigma2)


def snr_relay_path(g_ir: float, g_rk: float, p_i: float, p_rk: float, sigma2: float) -> float:
    """End-to-end SNR of a two-hop amplify-and-forward path.

    ``g_ir``/``p_i`` describe the source-to-relay hop and ``g_rk``/``p_rk``
    the relay-to-destination hop:

        g_ir * g_rk * p_i * p_rk / (sigma2 * (g_ir*p_i + g_rk*p_rk + sigma2))

    The value is symmetric under swapping the two hops, vanishes when either
    power is zero, and is strictly below both single-hop SNRs whenever those
    are positive (the weaker hop is the bottleneck).
    """

    g_ir, g_rk = _as_nonnegative("g_ir", g_ir), _as_nonnegative("g_rk", g_rk)
    p_i, p_rk = _as_nonnegative("p_i", p_i), _as_nonnegative("p_rk", p_rk)
    return _relay_snr(g_ir, g_rk, p_i, p_rk, _as_positive("sigma2", sigma2))


def _relay_snr(g_ir: float, g_rk: float, p_i: float, p_rk: float, sigma2: float) -> float:
    """:func:`snr_relay_path` on checked floats: non-negative gains and
    powers, positive finite ``sigma2``."""

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
    computations can reuse every unit-distance formula unchanged.  A
    ``distance**eta`` that under- or overflows, or a quotient that
    overflows, is a ``ValueError``.
    """

    gain, distance = _as_nonnegative("gain", gain), _as_positive("distance", distance)
    eta = _as_eta(eta)
    try:
        loss = distance**eta
    except OverflowError:
        loss = math.inf
    if not 0.0 < loss < math.inf:
        raise ValueError(f"distance**{eta:g} is out of the float range, got distance={distance}")
    return _require_finite(f"gain / distance**{eta:g}", gain / loss)
