"""Shared fixtures: the standard parameter block used across the suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from coopsec import (
    ChannelGains,
    Geometry,
    NoiseModel,
    PowerBudget,
    ScenarioKind,
    mac_allocation,
    noncoop_allocation,
    one_side_allocation,
)

# Every hypothesis property draws the same examples on every run, so a
# failure reproduces and a pass means the same thing each time.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# The three direct allocations behind one positional signature,
# ``(gains, noise, budget, alpha, price)``; non_coop ignores ``alpha``.
DIRECT_ALLOCATIONS = {
    ScenarioKind.NON_COOP: lambda gains, noise, budget, alpha, price: noncoop_allocation(
        gains, noise, budget, price=price
    ),
    ScenarioKind.ONE_SIDE_COOP: lambda gains, noise, budget, alpha, price: one_side_allocation(
        gains, noise, budget, alpha=alpha, price=price
    ),
    ScenarioKind.MAC_COOP: lambda gains, noise, budget, alpha, price: mac_allocation(
        gains, noise, budget, alpha=alpha, price=price
    ),
}


@pytest.fixture
def std_gains() -> ChannelGains:
    return ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)


@pytest.fixture
def std_noise() -> NoiseModel:
    return NoiseModel(1.0)


@pytest.fixture
def unit_geometry() -> Geometry:
    return Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0, eta=2.0)


@pytest.fixture
def std_budgets() -> PowerBudget:
    return PowerBudget(p_a_max=5.0, p_j_max=5.0)
