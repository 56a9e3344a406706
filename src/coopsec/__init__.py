"""Physical-layer secrecy rates for two cooperating transmitters.

Two transmitters (a and j) send independent confidential messages to a
common receiver b while an eavesdropper e listens.  The package models
four operating modes the transmitters can negotiate: mutual relaying,
two-sided power exchange over a multiple-access phase, one-sided power
donation, and no cooperation.  For each mode it provides

- exact secrecy-rate evaluation at concrete power points (:mod:`.rates`),
- priced power allocation through stationarity polynomials
  (:mod:`.allocator`),
- an independent numeric oracle that audits the printed closed forms
  (:mod:`.oracle`),
- the distance-gated negotiation protocol (:mod:`.protocol`), and
- reproducible experiment drivers with CSV/JSON output (:mod:`.harness`,
  :mod:`.cli`).
"""

from __future__ import annotations

from .allocator import (
    OptimalAllocation,
    Provenance,
    bisect_price_for_budget,
    evaluate_closed_forms,
    mac_allocation,
    noncoop_allocation,
    one_side_allocation,
    penalized_objective,
    relay_allocation,
)
from .harness import (
    DEFAULT_BUDGETS,
    DEFAULT_GAINS,
    DEFAULT_GEOMETRY,
    PRESETS,
    ExperimentConfig,
    MobilityRow,
    SweepAxis,
    SweepRow,
    load_config,
    mobility_default_config,
    preset_config,
    read_sweep_csv,
    run_mobility,
    run_negotiation,
    run_sweep,
    run_validation,
    write_json,
    write_mobility_csv,
    write_sweep_csv,
)
from .model import (
    ChannelGains,
    Geometry,
    NoiseModel,
    PowerBudget,
    effective_gain,
    snr_direct,
    snr_relay_path,
)
from .oracle import (
    FormulaCheck,
    ValidationReport,
    finite_diff_derivative,
    grid_search_optimum,
    validate_scenario,
)
from .protocol import (
    ConstraintMode,
    ConstraintVerdict,
    NegotiationPolicy,
    distance_constraints_met,
    negotiate,
)
from .rates import (
    RatePair,
    ScenarioKind,
    rate_mrc_relay,
    rate_p2p,
    secrecy_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelGains",
    "ConstraintMode",
    "ConstraintVerdict",
    "DEFAULT_BUDGETS",
    "DEFAULT_GAINS",
    "DEFAULT_GEOMETRY",
    "ExperimentConfig",
    "FormulaCheck",
    "Geometry",
    "MobilityRow",
    "NegotiationPolicy",
    "NoiseModel",
    "OptimalAllocation",
    "PRESETS",
    "PowerBudget",
    "Provenance",
    "RatePair",
    "ScenarioKind",
    "SweepAxis",
    "SweepRow",
    "ValidationReport",
    "bisect_price_for_budget",
    "distance_constraints_met",
    "effective_gain",
    "evaluate_closed_forms",
    "finite_diff_derivative",
    "grid_search_optimum",
    "load_config",
    "mac_allocation",
    "mobility_default_config",
    "negotiate",
    "noncoop_allocation",
    "one_side_allocation",
    "penalized_objective",
    "preset_config",
    "rate_mrc_relay",
    "rate_p2p",
    "read_sweep_csv",
    "relay_allocation",
    "run_mobility",
    "run_negotiation",
    "run_sweep",
    "run_validation",
    "secrecy_rate",
    "snr_direct",
    "snr_relay_path",
    "validate_scenario",
    "write_json",
    "write_mobility_csv",
    "write_sweep_csv",
    "__version__",
]
