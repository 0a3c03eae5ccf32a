"""Cost accounting: fewer sweeps is not the same as fewer operations.

The joint estimator converges in fewer ALS sweeps than the two-stage one, but
each of its sweeps solves larger subproblems. This script prints the analytic
per-sweep operation counts at the stock dimensions, then measures sweep counts
on a small batch and combines the two into total analytic cost.
"""

from ristensor import ExperimentConfig, complexity_formula, run_experiment

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
