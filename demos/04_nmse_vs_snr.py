"""NMSE versus SNR for the three estimators, desk-scale batch.

Runs a reduced Monte Carlo sweep (40 paired trials per SNR point instead of
the default 200) and prints the aggregate-parameter NMSE plus the per-channel
break-down. Expected ordering at every point: e_als < ls < two_stage on the
aggregate metric, and e_als below two_stage on each individual channel.
"""

from ristensor import ExperimentConfig, aggregate_records, run_experiment

cfg = ExperimentConfig(trials=40, workers=1, master_seed=2024)
print(
    f"{cfg.system.m_ap} antennas, {cfg.system.k_users} users, {cfg.system.n_ris} RIS elements; "
    f"{cfg.trials} paired trials per SNR point"
)
records = run_experiment(cfg)

aggregates = aggregate_records(records)
snrs = sorted({row["snr_db"] for row in aggregates})
cells = {(row["estimator"], row["snr_db"]): row for row in aggregates}

print(f"\nmean aggregate NMSE{'':<4}" + "".join(f"{f'{s:g} dB':>12}" for s in snrs))
for name in ("e_als", "ls", "two_stage"):
    row = "".join(f"{cells[(name, s)]['mean_nmse_aggregate']:>12.3e}" for s in snrs)
    print(f"{name:<22}" + row)

def mean_field(name, field, snr):
    values = [
        getattr(r, field)
        for r in records
        if r.estimator_name == name and r.snr_db == snr and not r.failure_flag
    ]
    return sum(values) / len(values)

for field, label in (
    ("nmse_h_ua", "direct channel"),
    ("nmse_h_ra", "RIS -> AP (resolved)"),
    ("nmse_h_ur", "users -> RIS (resolved)"),
):
    print(f"\n{label}")
    for name in ("e_als", "two_stage"):
        row = "".join(f"{mean_field(name, field, s):>12.3e}" for s in snrs)
        print(f"{name:<22}" + row)

print("\nmean ALS sweeps to convergence")
for name in ("e_als", "two_stage"):
    row = "".join(f"{cells[(name, s)]['mean_iterations']:>12.2f}" for s in snrs)
    print(f"{name:<22}" + row)
