"""Command-line front end.

Four subcommands, each a thin wrapper over :mod:`coopsec.harness`:

``sweep``
    Evaluate the configured (or preset) sweep and write a CSV table.
``validate``
    Cross-check every closed form against the numeric oracle at the config
    point and at seeded random points; write a JSON report.
``mobility``
    Replay the negotiation along an eavesdropper trajectory; write a CSV
    of per-step modes.
``negotiate``
    Run one negotiation at the config point; write a JSON outcome.

All outputs are deterministic functions of the configuration and seed, so
re-running a command reproduces its files byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .harness import (
    PRESETS,
    ExperimentConfig,
    load_config,
    mobility_default_config,
    preset_config,
    run_mobility,
    run_negotiation,
    run_sweep,
    run_validation,
    write_json,
    write_mobility_csv,
    write_sweep_csv,
)
from .oracle import _most_severe
from .protocol import ConstraintMode

__all__ = ["build_parser", "main"]

_DEFAULT_OUT = {
    "sweep": "sweep.csv",
    "validate": "validation.json",
    "mobility": "mobility.csv",
    "negotiate": "negotiate.json",
}


def _add_common_options(parser: argparse.ArgumentParser, command: str) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", metavar="PATH", help="JSON experiment configuration")
    source.add_argument(
        "--preset", choices=PRESETS, help="named experiment shape (instead of --config)"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=_DEFAULT_OUT[command],
        help=f"output file (default: {_DEFAULT_OUT[command]})",
    )
    parser.add_argument("--seed", type=int, help="override the config's random seed")
    parser.add_argument(
        "--constraint-mode",
        choices=[mode.value for mode in ConstraintMode],
        help="which spelling of the pairing inequalities to gate on",
    )
    parser.add_argument(
        "--log-base",
        choices=["e", "2"],
        help="append base-2 rate columns/fields to the output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsec",
        description="Secrecy-rate simulator for two cooperating transmitters",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "sweep": "evaluate secrecy rates along one swept coordinate",
        "validate": "cross-check closed forms against the numeric oracle",
        "mobility": "replay the negotiation along an eavesdropper trajectory",
        "negotiate": "run one negotiation and report the agreed mode",
    }
    for command, description in descriptions.items():
        sub = subparsers.add_parser(command, help=description, description=description)
        _add_common_options(sub, command)
        if command == "validate":
            sub.add_argument(
                "--samples",
                type=int,
                default=100,
                help="number of random parameter points (default: 100)",
            )
    return parser


def _resolve_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> ExperimentConfig:
    if args.preset is not None:
        config = preset_config(args.preset)
    elif args.config is not None:
        try:
            config = load_config(args.config)
        except OSError as exc:
            parser.error(f"--config: cannot read {args.config}: {exc.strerror or exc}")
        except (TypeError, ValueError) as exc:
            parser.error(f"--config: invalid config in {args.config}: {exc}")
    elif args.command == "mobility":
        config = mobility_default_config()
    else:
        config = ExperimentConfig()
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.constraint_mode is not None:
        overrides["constraint_mode"] = ConstraintMode(args.constraint_mode)
    if args.log_base is not None:
        overrides["log_base"] = args.log_base
    if overrides:
        config = _run(parser, args.command, config.replace, **overrides)
    return config


def _run(parser: argparse.ArgumentParser, command: str, run, *args, **kwargs):
    """Call ``run``, reporting a ``ValueError`` as a one-line usage error."""

    try:
        return run(*args, **kwargs)
    except ValueError as exc:
        parser.error(f"{command}: {exc}")


def _write(parser: argparse.ArgumentParser, path: str, write, data, **kwargs) -> None:
    try:  # an unwritable --out is a one-line usage error, as an unreadable --config is
        write(data, path, **kwargs)
    except OSError as exc:
        parser.error(f"--out: cannot write {path}: {exc.strerror or exc}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _resolve_config(parser, args)

    if args.command == "sweep":
        rows = _run(parser, "sweep", run_sweep, config)
        _write(parser, args.out, write_sweep_csv, rows, log_base=config.log_base)
        print(f"sweep: wrote {len(rows)} rows to {args.out}")
        return 0

    if args.command == "validate":
        report = _run(parser, "validate", run_validation, config, samples=args.samples)
        _write(parser, args.out, write_json, report)
        summary = report["summary"]
        counts = ", ".join(f"{verdict}={count}" for verdict, count in sorted(summary.items()))
        print(f"validate: worst verdict {_most_severe(summary)} ({counts}); wrote {args.out}")
        return 0

    if args.command == "mobility":
        rows = _run(parser, "mobility", run_mobility, config)
        _write(parser, args.out, write_mobility_csv, rows, log_base=config.log_base)
        changes = sum(1 for row in rows if row.changed)
        print(f"mobility: {len(rows)} steps, {changes} mode changes; wrote {args.out}")
        return 0

    # the required subcommand admits only the four commands: this is negotiate
    result = _run(parser, "negotiate", run_negotiation, config)
    _write(parser, args.out, write_json, result)
    print(f"negotiate: mode {result['mode']}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
