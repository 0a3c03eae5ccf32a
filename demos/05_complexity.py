"""Cost accounting: fewer sweeps is not the same as fewer operations.

The joint estimator converges in fewer ALS sweeps than the two-stage one, but
each of its sweeps solves larger subproblems. This script prints the analytic
per-sweep operation counts at the stock dimensions, then measures sweep counts
on a small batch and combines the two into total analytic cost. Last, it sets
the paper's formula beside the operations the code counts per sweep
(`empirical_ops`) as the RIS grows.
"""

import dataclasses

import numpy as np

from ristensor import (
    ChannelModelConfig,
    EstimatorConfig,
    ExperimentConfig,
    complexity_formula,
    draw_channels,
    e_als_estimate,
    make_schedule,
    run_experiment,
    synthesize,
    two_stage_estimate,
)

system = ExperimentConfig().system
print(f"per-sweep analytic operation counts (M={system.m_ap}, K={system.k_users}, N={system.n_ris}, L={system.pilot_len})")
tallies = {}
for method in ("two_stage", "e_als"):
    tally = complexity_formula(method, system)
    tallies[method] = tally
    print(f"\n{method}  (B = {system.blocks(method)})")
    for update, count in tally.one_time.items():
        print(f"  {update:<14}{count:>12,d}   one-time")
    for update, count in tally.per_iteration.items():
        print(f"  {update:<14}{count:>12,d}   per sweep")
    print(f"  {'total':<14}{tally.per_iteration_total:>12,d}   per sweep")

cfg = ExperimentConfig(trials=20, workers=1, master_seed=51, estimators_enabled=("two_stage", "e_als"))
records = run_experiment(cfg)

def mean(name, field, snr=None):
    values = [
        getattr(r, field)
        for r in records
        if r.estimator_name == name and (snr is None or r.snr_db == snr)
    ]
    return sum(values) / len(values)

print(f"\nmeasured sweeps ({cfg.trials} trials per SNR point)")
print(f"{'':<12}" + "".join(f"{f'{s:g} dB':>9}" for s in cfg.snr_grid_db) + f"{'overall':>10}")
for name in ("two_stage", "e_als"):
    row = "".join(f"{mean(name, 'iterations', s):>9.2f}" for s in cfg.snr_grid_db)
    print(f"{name:<12}" + row + f"{mean(name, 'iterations'):>10.2f}")

print("\ntotal analytic operations = one-time + sweeps x per-sweep (batch mean)")
for name in ("two_stage", "e_als"):
    print(f"  {name:<12}{mean(name, 'analytic_ops'):>14,.0f}")
print("\nthe joint method needs fewer sweeps yet more operations overall.")

# one frame per RIS size; a sweep's empirical count is the op_count of two
# sweeps less that of one
print("\noperations per sweep as the RIS grows: paper's formula / counted by the code")
print(f"{'N':>5}" + "".join(f"{name:>28}" for name in ("two_stage", "e_als")))
estimators = {"two_stage": two_stage_estimate, "e_als": e_als_estimate}
for side in (5, 10, 16):
    dims = dataclasses.replace(system, n_ris=side * side, snr_db=10.0)
    channel = ChannelModelConfig(ris_rows=side, ris_cols=side)
    ch = draw_channels(channel, (dims.m_ap, dims.k_users, dims.n_ris), np.random.default_rng(52))
    row = f"{dims.n_ris:>5}"
    for name, estimator in estimators.items():
        sched = make_schedule(dims, name)
        recv = synthesize(ch, sched, dims, np.random.default_rng(53))
        ops = []
        for sweeps in (1, 2):
            est_cfg = EstimatorConfig(max_iters=sweeps, conv_threshold=1e-300)
            ops.append(estimator(recv, sched, est_cfg).op_count)
        analytic = complexity_formula(name, dims).per_iteration_total
        row += f"{analytic:>15,d} / {ops[1] - ops[0]:>10,d}"
    print(row)
