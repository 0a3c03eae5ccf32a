"""End-to-end acceptance checks, one test (and one printed verdict line) each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
the shared 200-trial batch takes a couple of minutes.
"""

import csv
import dataclasses
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from ristensor.channels import ChannelModelConfig, ChannelSet, draw_channels
from ristensor.estimators import (
    ChannelEstimate,
    EstimatorConfig,
    e_als_estimate,
    resolve_scaling,
    two_stage_estimate,
)
from ristensor.harness import ExperimentConfig, run_experiment, run_trial
from ristensor.metrics import complexity_formula, nmse
from ristensor.signals import (
    SystemConfig,
    make_schedule,
    noiseless_tensor,
)
from ristensor.tensor_ops import crandn, khatri_rao, unfold_mode1, unfold_mode2

BASE = SystemConfig()  # 4 AP antennas, 8 users, 25 RIS elements, L = L' = 8


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _mean(records, name, field, snr=None):
    values = [
        getattr(r, field)
        for r in records
        if r.estimator_name == name
        and not r.failure_flag
        and (snr is None or r.snr_db == snr)
    ]
    return sum(values) / len(values)


@pytest.fixture(scope="module")
def batch():
    """200 paired trials per SNR point, shared by the ordering/gap/cost checks."""
    cfg = ExperimentConfig(workers=1)
    records = run_experiment(cfg)
    assert len(records) == len(cfg.snr_grid_db) * cfg.trials * 3
    assert not any(r.failure_flag for r in records)
    return cfg, records


# 1 ------------------------------------------------------------------------


def test_criterion_1_tensor_model_identity():
    sched = make_schedule(BASE, "e_als")  # B = 26 blocks of L = 8
    x, psi = sched.pilots, sched.ris_phases
    b = psi.shape[0]
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ch = ChannelSet(
            h_ua=crandn(rng, (4, 8)), h_ra=crandn(rng, (4, 25)), h_ur=crandn(rng, (25, 8))
        )
        recv = noiseless_tensor(ch, sched, BASE)
        z = ch.h_ur @ x
        y1 = ch.h_ua @ khatri_rao(np.ones((b, 8)), x.T).T + ch.h_ra @ khatri_rao(psi, z.T).T
        y2 = x.T @ khatri_rao(np.ones((b, 8)), ch.h_ua).T + z.T @ khatri_rao(psi, ch.h_ra).T
        err1 = np.linalg.norm(unfold_mode1(recv.tensor) - y1) / np.linalg.norm(y1)
        err2 = np.linalg.norm(unfold_mode2(recv.tensor) - y2) / np.linalg.norm(y2)
        worst = max(worst, err1, err2)
    _report(1, worst <= 1e-12, f"both unfoldings match the factor formulas, worst rel err {worst:.2e}")


# 2 ------------------------------------------------------------------------


def test_criterion_2_noiseless_exact_recovery():
    est_cfg = EstimatorConfig(max_iters=50)
    worst_ua, worst_cas_ea, worst_cas_ts = 0.0, 0.0, 0.0
    start = time.perf_counter()
    for seed in range(20):
        ch = draw_channels(
            ChannelModelConfig(), (BASE.m_ap, BASE.k_users, BASE.n_ris), np.random.default_rng(seed)
        )
        sched_ea = make_schedule(BASE, "e_als")
        sched_ts = make_schedule(BASE, "two_stage")
        ea = e_als_estimate(
            noiseless_tensor(ch, sched_ea, BASE), sched_ea, est_cfg, np.random.default_rng(1000 + seed)
        )
        ts = two_stage_estimate(
            noiseless_tensor(ch, sched_ts, BASE), sched_ts, est_cfg, np.random.default_rng(2000 + seed)
        )
        assert not ea.failed and not ts.failed
        assert ea.iterations <= 50 and ts.iterations <= 50
        worst_ua = max(worst_ua, nmse(ea.h_ua, ch.h_ua))
        worst_cas_ea = max(worst_cas_ea, nmse(ea.cascade, ch.cascade))
        worst_cas_ts = max(worst_cas_ts, nmse(ts.cascade, ch.cascade))
    elapsed = time.perf_counter() - start
    ok = worst_ua <= 1e-8 and worst_cas_ea <= 1e-6 and worst_cas_ts <= 1e-6 and elapsed < 60
    _report(
        2,
        ok,
        f"noiseless recovery over 20 seeds: direct {worst_ua:.2e} (<=1e-8), cascade "
        f"{worst_cas_ea:.2e}/{worst_cas_ts:.2e} (<=1e-6), {elapsed:.1f}s (<60s)",
    )


# 3 ------------------------------------------------------------------------


def test_criterion_3_estimator_ordering(batch):
    cfg, records = batch
    ok = True
    parts = []
    for snr in cfg.snr_grid_db:
        ea = _mean(records, "e_als", "nmse_aggregate", snr)
        ls = _mean(records, "ls", "nmse_aggregate", snr)
        ts = _mean(records, "two_stage", "nmse_aggregate", snr)
        ok = ok and ea <= ls <= ts
        parts.append(f"{snr:g}dB: {ea:.2e} <= {ls:.2e} <= {ts:.2e}")
    _report(3, ok, "mean aggregate NMSE e_als <= ls <= two_stage; " + "; ".join(parts))


# 4 ------------------------------------------------------------------------


def test_criterion_4_individual_channel_gap(batch):
    cfg, records = batch
    ok = True
    worst_ratio = 0.0
    for snr in cfg.snr_grid_db:
        for field in ("nmse_h_ua", "nmse_h_ur", "nmse_h_ra"):
            ea = _mean(records, "e_als", field, snr)
            ts = _mean(records, "two_stage", field, snr)
            ok = ok and ea < ts
            worst_ratio = max(worst_ratio, ea / ts)
    _report(
        4,
        ok,
        f"per-channel mean NMSE lower for e_als at every SNR, worst e_als/two_stage ratio {worst_ratio:.3f}",
    )


# 5 ------------------------------------------------------------------------


def test_criterion_5_monotone_als_objective():
    cfg = dataclasses.replace(ExperimentConfig(), estimators_enabled=("two_stage", "e_als"))
    violations = 0
    transitions = 0
    for snr_index in range(len(cfg.snr_grid_db)):
        for trial in range(10):
            _, estimates, _ = run_trial(cfg, snr_index, trial, details=True)
            for est in estimates.values():
                trace = est.residual_trace
                assert len(trace) == est.iterations
                for prev, cur in zip(trace, trace[1:]):
                    transitions += 1
                    if cur > prev * (1 + 1e-9):
                        violations += 1
    _report(
        5,
        violations == 0,
        f"residual traces non-increasing in all recorded trials ({transitions} transitions, {violations} violations)",
    )


# 6 ------------------------------------------------------------------------


def test_criterion_6_complexity_accounting(batch):
    rng = np.random.default_rng(2026)
    formulas_ok = True
    for _ in range(10):
        m = int(rng.integers(1, 9))
        l = int(rng.integers(1, 13))
        k = int(rng.integers(1, l + 1))
        n = int(rng.integers(1, 31))
        lp = int(rng.integers(1, 13))
        dims = SystemConfig(m_ap=m, k_users=k, n_ris=n, pilot_len=l, off_stage_len=lp)
        ts = complexity_formula("two_stage", dims)
        b = n
        formulas_ok &= ts.one_time["h_ua_stage1"] == m * k * lp
        formulas_ok &= (
            ts.per_iteration["h_ra_iter"] == n**3 + n**2 * b * l + n * b * l * (b * l + m + 1)
        )
        formulas_ok &= (
            ts.per_iteration["z_iter"] == n**3 + n**2 * m * l + n * m * l * (m * l + b + 1)
        )
        ea = complexity_formula("e_als", dims)
        b, j = n + 1, n + k
        formulas_ok &= (
            ea.per_iteration["h_joint_iter"] == j**3 + j**2 * b * l + j * (b * l + m + 1) * b * l
        )
        formulas_ok &= ea.per_iteration["z_eals_iter"] == (
            n**3 + n**2 * b * m + n * b * m * (b * m + l + 1) + b * m * (k + k * l + l)
        )

    cfg, records = batch
    ops_ea = _mean(records, "e_als", "analytic_ops")
    ops_ts = _mean(records, "two_stage", "analytic_ops")
    it_ea = _mean(records, "e_als", "iterations")
    it_ts = _mean(records, "two_stage", "iterations")
    ok = formulas_ok and ops_ea > ops_ts and it_ea < it_ts
    _report(
        6,
        ok,
        f"formulas exact on 10 random tuples; mean total ops {ops_ea:.3e} > {ops_ts:.3e} "
        f"while mean iterations {it_ea:.2f} < {it_ts:.2f}",
    )


# 7 ------------------------------------------------------------------------


def test_criterion_7_training_budget_parity():
    t_ts = BASE.training_len("two_stage")
    t_ea = BASE.training_len("e_als")
    _report(7, t_ts == 208 and t_ea == 208, f"training length {t_ts}/{t_ea} slots (expect 208/208)")


# 8 ------------------------------------------------------------------------


def test_criterion_8_ambiguity_invariance():
    rng = np.random.default_rng(81)
    worst_inv = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 9))
        truth = ChannelSet(
            h_ua=crandn(rng, (m, k)), h_ra=crandn(rng, (m, n)), h_ur=crandn(rng, (n, k))
        )
        est = ChannelEstimate(
            h_ua=crandn(rng, (m, k)), h_ra=crandn(rng, (m, n)), h_ur=crandn(rng, (n, k))
        )
        fixed = resolve_scaling(est, truth)
        worst_inv = max(
            worst_inv,
            np.linalg.norm(fixed.cascade - est.cascade) / np.linalg.norm(est.cascade),
        )

    # a pure diagonal scaling must be undone to the original factors
    truth = ChannelSet(
        h_ua=crandn(rng, (4, 8)), h_ra=crandn(rng, (4, 25)), h_ur=crandn(rng, (25, 8))
    )
    delta = rng.uniform(0.25, 4.0, 25) * np.exp(2j * np.pi * rng.random(25))
    warped = ChannelEstimate(
        h_ua=truth.h_ua, h_ra=truth.h_ra * delta[None, :], h_ur=truth.h_ur / delta[:, None]
    )
    fixed = resolve_scaling(warped, truth)
    err_ra = np.abs(fixed.h_ra - truth.h_ra).max()
    err_ur = np.abs(fixed.h_ur - truth.h_ur).max()
    ok = worst_inv <= 1e-12 and err_ra <= 1e-12 and err_ur <= 1e-12
    _report(
        8,
        ok,
        f"cascade invariant over 100 cases (worst {worst_inv:.2e}) and synthetic scaling inverted "
        f"(errors {err_ra:.2e}/{err_ur:.2e})",
    )


# 9 ------------------------------------------------------------------------


def _strip_wall_column(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("wall_time_seconds")
    return [row[:idx] + row[idx + 1 :] for row in rows]


def test_criterion_9_worker_count_determinism(tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(
        "system:\n"
        "  m_ap: 2\n"
        "  k_users: 2\n"
        "  n_ris: 4\n"
        "  pilot_len: 2\n"
        "  off_stage_len: 2\n"
        "channel:\n"
        "  ris_rows: 2\n"
        "  ris_cols: 2\n"
        "snr_grid_db: [0, 20]\n"
        "trials: 8\n"
        "master_seed: 11\n"
    )
    launcher = [shutil.which("estimate") or ""]
    if not launcher[0]:
        launcher = [sys.executable, "-m", "ristensor"]
    outputs = []
    for workers, name in ((1, "a.csv"), (3, "b.csv")):
        out = tmp_path / name
        proc = subprocess.run(
            launcher
            + ["run", "--config", str(config), "--workers", str(workers), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(_strip_wall_column(out))
    ok = outputs[0] == outputs[1]
    _report(
        9,
        ok,
        f"CSV identical for 1 vs 3 workers outside the wall-time column ({len(outputs[0]) - 1} rows)",
    )
