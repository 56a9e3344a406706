"""Write the outcomes of 256 seeded ``negotiate`` calls as one JSON report.

Usage, with ``src`` on the path::

    python3 seeded_negotiations.py --out negotiate_seeded.json

The inputs are drawn from ``random.Random(SEED)``: six gains in
``[0.05, 0.6]``, five distances in ``[0.5, 3]`` (square-law path loss),
``sigma2`` in ``[0.5, 2]``, ``alpha`` in ``[0.3, 1]``, a price of
``10**u`` with ``u`` in ``[-3, 0]`` and budgets in ``[1, 10]``.  Call ``i``
takes policy shape ``i % 4`` and constraint mode ``(i // 4) % 2``, so every
policy meets both modes.  Each record holds the agreed mode, the
provenance, the four powers and both secrecy rates in nats.
"""

from __future__ import annotations

import argparse
import random
from typing import Sequence

from coopsec import (
    ChannelGains,
    ConstraintMode,
    Geometry,
    NegotiationPolicy,
    PowerBudget,
    negotiate,
    write_json,
)

SEED = 20141
CALLS = 256

# Policy shape i % 4: all accept; relay declined; relay and mac declined; all declined.
POLICY_SHAPES = (
    dict(),
    dict(john_accepts_relay=False),
    dict(john_accepts_relay=False, john_accepts_mac=False),
    dict(john_accepts_relay=False, john_accepts_mac=False, john_accepts_one_side=False),
)
CONSTRAINT_MODES = (ConstraintMode.CORRECTED, ConstraintMode.AS_PUBLISHED)


def seeded_negotiations() -> dict[str, object]:
    """The report: the seed and one record per call, in draw order."""

    rng = random.Random(SEED)
    calls = []
    for index in range(CALLS):
        gains = ChannelGains(*(rng.uniform(0.05, 0.6) for _ in range(6)))
        geometry = Geometry(*(rng.uniform(0.5, 3.0) for _ in range(5)), eta=2.0)
        sigma2 = rng.uniform(0.5, 2.0)
        alpha = rng.uniform(0.3, 1.0)
        price = 10.0 ** rng.uniform(-3.0, 0.0)
        budgets = PowerBudget(rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0))
        shape = index % len(POLICY_SHAPES)
        constraint_mode = CONSTRAINT_MODES[(index // len(POLICY_SHAPES)) % 2]
        policy = NegotiationPolicy(alpha=alpha, **POLICY_SHAPES[shape])
        mode, allocation = negotiate(
            policy, gains, geometry, sigma2, price, budgets, constraint_mode
        )
        calls.append(
            {
                "call": index,
                "policy": shape,
                "constraint_mode": constraint_mode.value,
                "mode": mode.value,
                "provenance": {key: value.value for key, value in allocation.provenance.items()},
                "p_a": allocation.p_a,
                "p_j": allocation.p_j,
                "p_ab": allocation.p_ab,
                "p_jb": allocation.p_jb,
                "cs1_nat": allocation.cs.cs1,
                "cs2_nat": allocation.cs.cs2,
            }
        )
    return {"seed": SEED, "calls": calls}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="output JSON file")
    args = parser.parse_args(argv)
    write_json(seeded_negotiations(), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
