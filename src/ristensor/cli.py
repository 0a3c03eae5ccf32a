"""Command-line front end: `estimate run`, `estimate demo`, `estimate complexity`."""

import argparse
import dataclasses
import math
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    aggregate_records,
    emit_results,
    load_config,
    run_experiment,
)
from .metrics import complexity_formula


# Most points an --snr range may give; each costs a set-up and every trial.
_MAX_SNR_POINTS = 10_000


def _parse_snr_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--snr expects a:b:step")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError("--snr start, stop and step must be finite")
    if step <= 0:
        raise argparse.ArgumentTypeError("--snr step must be positive")
    # points start + i * step up to stop, counted by division: a step below
    # the rounding of start would never advance an accumulated value
    span = (stop + 1e-9 - start) / step
    if span >= _MAX_SNR_POINTS:
        raise argparse.ArgumentTypeError(f"--snr gives more than {_MAX_SNR_POINTS} points")
    if span < 0:
        raise argparse.ArgumentTypeError("--snr range has no points (start above stop)")
    return tuple(round(start + i * step, 9) for i in range(math.floor(span) + 1))


def _parse_snr_list(text):
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"--snr-list: {err}")


def _apply_overrides(cfg, args):
    changes = {}
    if getattr(args, "snr", None) is not None:
        changes["snr_grid_db"] = args.snr
    if getattr(args, "snr_list", None) is not None:
        changes["snr_grid_db"] = args.snr_list
    if getattr(args, "trials", None) is not None:
        changes["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        changes["master_seed"] = args.seed
    if getattr(args, "estimators", None):
        changes["estimators_enabled"] = tuple(
            name.strip() for name in args.estimators.split(",") if name.strip()
        )
    if getattr(args, "workers", None) is not None:
        changes["workers"] = args.workers
    if getattr(args, "out", None):
        changes["output_path"] = args.out
    if getattr(args, "format", None):
        changes["output_format"] = args.format
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _print_aggregate_table(aggregates, stream):
    """Mean aggregate NMSE, and sweep statistics, per estimator across the SNR grid."""
    snrs = sorted({row["snr_db"] for row in aggregates})
    names = sorted({row["estimator"] for row in aggregates})
    cells = {(row["estimator"], row["snr_db"]): row for row in aggregates}

    def fmt(value, width=12):
        return f"{value:>{width}.4e}" if value is not None else " " * (width - 1) + "-"

    header = "mean aggregate NMSE" + " " * 3 + "".join(f"{f'{s:g} dB':>12}" for s in snrs)
    print(header, file=stream)
    for name in names:
        row = f"{name:<22}" + "".join(fmt(cells[(name, s)]["mean_nmse_aggregate"]) for s in snrs)
        print(row, file=stream)
    for title, key, spec in (
        ("mean iterations", "mean_iterations", ".2f"),
        ("max iterations", "max_iterations", "d"),
        ("non-converged trials", "nonconverged", "d"),
    ):
        print(title, file=stream)
        for name in names:
            values = []
            for s in snrs:
                value = cells[(name, s)][key]
                values.append(f"{value:>12{spec}}" if value is not None else " " * 11 + "-")
            print(f"{name:<22}" + "".join(values), file=stream)
    failures = sum(row["failures"] for row in aggregates)
    if failures:
        print(f"failures excluded from means: {failures}", file=stream)


def _run_and_report(cfg):
    records = run_experiment(cfg)
    _print_aggregate_table(aggregate_records(records), sys.stdout)
    if cfg.output_path:
        emit_results(records, cfg.output_path, cfg.output_format, config=cfg)
        print(f"wrote {len(records)} records to {cfg.output_path}")
    return 0


def _cmd_run(args):
    return _run_and_report(_apply_overrides(load_config(args.config), args))


def _cmd_demo(args):
    cfg = _apply_overrides(ExperimentConfig(), args)
    print(
        f"default scenario: {cfg.system.m_ap} AP antennas, {cfg.system.k_users} users, "
        f"{cfg.system.n_ris} RIS elements, {cfg.trials} trials per SNR"
    )
    return _run_and_report(cfg)


def _cmd_complexity(args):
    cfg = load_config(args.config)
    system = cfg.system
    for method in ("two_stage", "e_als"):
        tally = complexity_formula(method, system)
        print(f"{method} (B = {system.blocks(method)}, T = {system.training_len(method)})")
        for update, count in tally.one_time.items():
            print(f"  {update:<16} {count:>14,d}  (one-time)")
        for update, count in tally.per_iteration.items():
            print(f"  {update:<16} {count:>14,d}  per iteration")
        print(f"  {'per-iteration':<16} {tally.per_iteration_total:>14,d}  total")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="estimate",
        description="Monte Carlo benchmark of RIS-assisted uplink channel estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="YAML experiment config")
    snr_group = run_p.add_mutually_exclusive_group()
    snr_group.add_argument(
        "--snr", type=_parse_snr_range,
        help="SNR sweep a:b:step (dB, inclusive); write --snr=-5:0:5 for a negative start",
    )
    snr_group.add_argument(
        "--snr-list", type=_parse_snr_list,
        help="comma-separated SNR values (dB); write --snr-list=-5,0 for a negative first value",
    )
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--seed", type=int, help="master seed")
    run_p.add_argument("--estimators", help="comma-separated subset of two_stage,e_als,ls")
    run_p.add_argument("--workers", type=int)
    run_p.add_argument("--out", help="output file path")
    run_p.add_argument("--format", choices=("csv", "json"))

    demo_p = sub.add_parser("demo", help="run the default scenario and print the NMSE table")
    demo_p.add_argument("--trials", type=int)
    demo_p.add_argument("--workers", type=int)
    demo_p.add_argument("--seed", type=int)
    demo_p.add_argument("--out")

    comp_p = sub.add_parser("complexity", help="print analytic operation counts, no simulation")
    comp_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "demo": _cmd_demo, "complexity": _cmd_complexity}[args.command]
    try:
        return handler(args)
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
