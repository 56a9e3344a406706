"""Audit the printed closed-form optima against the numeric oracle.

Every allocation decision has three independent answers: the printed
closed form, the positive root of the stationarity polynomial, and the
oracle's argmax of the actual priced objective: the objective's own exact
KKT point, certified by its analytic slope, with a grid search kept only as
a fallback. Where all three agree the verdict is ``agree``; where the
closed form deviates from the other two the verdict is ``suspected-typo``. At the standard
parameter point with a low power price, several printed forms flag.
"""

from __future__ import annotations

from coopsec import (
    ChannelGains,
    Geometry,
    PowerBudget,
    ScenarioKind,
    validate_scenario,
)


def main() -> None:
    gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
    geometry = Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0)
    budgets = PowerBudget(p_a_max=5.0, p_j_max=5.0)
    price = 0.01

    print(f"{'formula':<33} {'closed form':>12} {'root':>9} {'oracle':>9} verdict")
    for kind in ScenarioKind:
        report = validate_scenario(kind, gains, geometry, 1.0, 0.8, price, budgets)
        for entry in report.entries:
            closed = (
                f"{entry.closed_form_value:12.4f}"
                if entry.closed_form_value is not None
                else f"{'-':>12}"
            )
            print(
                f"{entry.formula_id:<33} {closed} {entry.root_value:9.4f}"
                f" {entry.oracle_value:9.4f} {entry.verdict}"
            )

    print(
        "\nthe flagged closed forms disagree with both the polynomial root"
        "\nand the oracle's slope-certified argmax; the roots are the trustworthy path"
    )


if __name__ == "__main__":
    main()
