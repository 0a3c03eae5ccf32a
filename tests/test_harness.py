"""Monte Carlo runner: config parsing, determinism, emission."""

import concurrent.futures
import csv
import dataclasses
import importlib.util
import json
import math
import weakref
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ristensor.channels import ChannelModelConfig, ChannelSet
import ristensor.harness
from ristensor.estimators import ChannelEstimate, StackedLsSolver, resolve_scaling
from ristensor.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    aggregate_records,
    emit_results,
    load_config,
    run_experiment,
    run_trial,
)
from ristensor.metrics import (
    aggregate_vector_nmse,
    complexity_formula,
    nmse,
    stacked_parameter_vector,
)
from ristensor.signals import SystemConfig, make_schedule, noiseless_tensor, synthesize
from ristensor.tensor_ops import crandn


def tiny_config(**overrides):
    # smallest geometry where all three estimators are well posed:
    # two_stage 16 >= 16 observations, e_als 10 >= 6, stacked LS exactly square
    defaults = dict(
        system=SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2),
        channel=ChannelModelConfig(ris_rows=2, ris_cols=2),
        snr_grid_db=(10.0,),
        trials=1,
        master_seed=7,
        workers=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def records_without_wall_time(records):
    rows = []
    for rec in records:
        row = dataclasses.asdict(rec)
        row.pop("wall_time_seconds")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# config loading


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == ExperimentConfig()


@pytest.mark.parametrize("text", ["[]\n", "0\n", "false\n", "''\n", "[trials]\n", "stock\n"])
def test_non_mapping_config_file_is_an_error(tmp_path, text):
    # only an empty file means defaults; any other top level must be a mapping
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        load_config(path)


def test_config_sections_and_scalars(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "system:\n"
        "  m_ap: 2\n"
        "  k_users: 2\n"
        "  n_ris: 4\n"
        "  pilot_len: 2\n"
        "  off_stage_len: 2\n"
        "channel:\n"
        "  ris_rows: 2\n"
        "  ris_cols: 2\n"
        "estimator:\n"
        "  max_iters: 30\n"
        "snr_grid_db: [0, 10]\n"
        "trials: 5\n"
        "master_seed: 99\n"
        "estimators: [e_als, ls]\n"
        "output: out.csv\n"
        "format: csv\n"
        "workers: 2\n"
    )
    cfg = load_config(path)
    assert cfg.system.n_ris == 4
    assert cfg.channel.ris_rows == 2
    assert cfg.estimator.max_iters == 30
    assert cfg.snr_grid_db == (0.0, 10.0)
    assert cfg.trials == 5
    assert cfg.master_seed == 99
    assert cfg.estimators_enabled == ("e_als", "ls")
    assert cfg.output_path == "out.csv"
    assert cfg.workers == 2


def test_config_rejects_bad_system_value(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("system:\n  n_ris: 0\n")
    with pytest.raises(ConfigError, match="n_ris"):
        load_config(path)


def test_config_rejects_unknown_section_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("system:\n  antennas: 4\n")
    with pytest.raises(ConfigError, match="antennas"):
        load_config(path)


def test_config_rejects_unknown_top_level_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("snr_points: [0, 10]\n")
    with pytest.raises(ConfigError, match="snr_points"):
        load_config(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ("trials: 1\ntrials: 5\n", "'trials'"),
        ("system:\n  m_ap: 4\nsystem:\n  m_ap: 2\n", "'system'"),
        ("system:\n  m_ap: 4\n  m_ap: 2\n", "'m_ap'"),
        ("10: 1\n10: 2\n", "10"),
    ],
)
def test_config_rejects_a_key_given_twice(tmp_path, text, key):
    # PyYAML would keep the later value without a word
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"duplicate key {key}"):
        load_config(path)


@pytest.mark.parametrize(
    "text, keys",
    [
        ("estimators: [ls]\nestimators_enabled: [e_als]\n", ("estimators", "estimators_enabled")),
        ("output_path: a.csv\noutput: b.csv\n", ("output_path", "output")),
        ("format: csv\noutput_format: json\n", ("format", "output_format")),
    ],
)
def test_config_rejects_a_key_and_its_alias(tmp_path, text, keys):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"'{keys[0]}' and '{keys[1]}' both set"):
        load_config(path)


def test_config_merge_key_may_be_overridden(tmp_path):
    # a YAML merge key is not a repeat of the keys it merges in
    path = tmp_path / "exp.yaml"
    path.write_text("system:\n  <<: {m_ap: 4, k_users: 8}\n  m_ap: 2\n")
    assert load_config(path).system.m_ap == 2


def test_config_rejects_unknown_estimator(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("estimators: [genie]\n")
    with pytest.raises(ConfigError, match="unknown estimator"):
        load_config(path)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(trials=0), "trials"),
        (dict(estimators_enabled=()), "estimators_enabled"),
        (dict(estimators_enabled=("oracle",)), "unknown estimator"),
        (dict(output_format="xml"), "format"),
        (dict(workers=0), "workers"),
        (dict(master_seed=-1), "master_seed"),
        (dict(snr_grid_db=()), "snr_grid_db"),
        (dict(trials=2.5), "trials"),
        (dict(workers=1.5), "workers"),
        (dict(master_seed=True), "master_seed"),
        (dict(snr_grid_db=(0.0, math.nan)), "snr_grid_db"),
        (dict(snr_grid_db=10.0), "snr_grid_db"),
        (dict(estimators_enabled="two_stage"), "estimators_enabled"),
        (dict(estimator=dict(max_iters=2.5)), "max_iters"),
        (dict(estimator=dict(conv_threshold=math.nan)), "conv_threshold"),
        (dict(estimator=dict(pinv_tol=math.nan)), "pinv_tol"),
        (dict(estimator=dict(pinv_tol=1.0)), "pinv_tol"),
        (dict(system=dict(noise_var=math.nan)), "noise_var"),
        (dict(system=dict(snr_db=math.inf)), "snr_db"),
        (dict(channel=dict(n_paths="2")), "n_paths"),
        (dict(snr_grid_db=(None,)), "snr_grid_db"),
        (dict(snr_grid_db=("10",)), "snr_grid_db"),
        (dict(snr_grid_db=(0.0, True)), "snr_grid_db"),
        (dict(snr_grid_db=(10**400,)), "snr_grid_db"),
        (dict(output_path=1), "output_path"),
        (dict(output_path=["out.csv"]), "output_path"),
        (dict(output_format=1), "output_format"),
        (dict(output_format=None), "output_format"),
        (dict(fixed_geometry="false"), "fixed_geometry"),
        (dict(fixed_geometry=0), "fixed_geometry"),
        (dict(fixed_geometry=None), "fixed_geometry"),
        (dict(channel=dict(normalize_to_direct="no")), "normalize_to_direct"),
        (dict(channel=dict(normalize_to_direct=1)), "normalize_to_direct"),
        (dict(estimators_enabled=("e_als", "e_als")), "estimators_enabled repeats 'e_als'"),
        (dict(estimators_enabled=("ls", "two_stage", "ls")), "estimators_enabled repeats 'ls'"),
        (dict(snr_grid_db=(10.0, 10)), "snr_grid_db repeats 10.0"),
        (dict(snr_grid_db=(0.0, 5.0, -0.0)), "snr_grid_db repeats 0.0"),
        (dict(output_path=""), "output_path must not be empty"),
        (dict(snr_grid_db=(0.0, 4000.0)), r"snr_grid_db point 4000\.0 dB overflows the pilot"),
        (dict(snr_grid_db=(3083.0,)), "snr_grid_db point 3083.0 dB overflows"),
        (dict(snr_grid_db=(0.0, 100.0), system=dict(noise_var=1e300)),
         "snr_grid_db point 100.0 dB overflows the pilot power"),
        (dict(snr_grid_db=(0.0, -4000.0)), r"snr_grid_db point -4000\.0 dB underflows the pilot"),
    ],
)
def test_experiment_config_validation(kwargs, message):
    # a section given as a mapping is built the way load_config builds it
    harness = ristensor.harness
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{
            key: harness._build_section(harness._SECTION_TYPES[key], value, key)
            if isinstance(value, dict) else value
            for key, value in kwargs.items()
        })


# ---------------------------------------------------------------------------
# trial execution


def test_single_trial_produces_one_record_per_estimator():
    cfg = tiny_config()
    records = run_experiment(cfg)
    assert len(records) == 3
    assert [r.estimator_name for r in records] == ["e_als", "ls", "two_stage"]
    assert all(r.trial_index == 0 for r in records)
    assert all(r.snr_db == 10.0 for r in records)
    # paired trial: every estimator saw the same channel/noise realization
    assert len({r.channel_hash for r in records}) == 1
    assert records[0].channel_hash != ""


def test_record_fields_per_estimator():
    records = run_experiment(tiny_config(snr_grid_db=(30.0,)))
    by_name = {r.estimator_name: r for r in records}
    ls = by_name["ls"]
    assert ls.iterations == 0 and ls.converged is True
    assert ls.analytic_ops is None
    assert ls.nmse_h_ua is None and ls.nmse_cascade is None
    assert ls.nmse_aggregate > 0
    for name in ("two_stage", "e_als"):
        rec = by_name[name]
        assert rec.iterations >= 1
        assert rec.analytic_ops > 0
        assert rec.empirical_ops > 0
        for field in ("nmse_aggregate", "nmse_h_ua", "nmse_h_ur", "nmse_h_ra", "nmse_cascade"):
            assert getattr(rec, field) >= 0


def test_records_sorted_by_snr_then_trial_then_name():
    cfg = tiny_config(snr_grid_db=(20.0, 0.0), trials=2)
    records = run_experiment(cfg)
    keys = [(r.snr_db, r.trial_index, r.estimator_name) for r in records]
    assert keys == sorted(keys)
    assert len(records) == 2 * 2 * 3


def test_channel_hash_varies_across_trials_and_snrs():
    cfg = tiny_config(snr_grid_db=(0.0, 20.0), trials=2)
    records = run_experiment(cfg)
    hashes = {}
    for rec in records:
        hashes.setdefault((rec.snr_db, rec.trial_index), set()).add(rec.channel_hash)
    # one hash per (snr, trial) cell, all cells distinct
    assert all(len(s) == 1 for s in hashes.values())
    flat = [next(iter(s)) for s in hashes.values()]
    assert len(set(flat)) == len(flat)


def test_trial_streams_are_the_first_two_spawned_children():
    cfg = tiny_config(master_seed=31)
    for snr_index, trial_index in ((0, 0), (2, 5)):
        got = ristensor.harness._trial_streams(cfg, snr_index, trial_index)
        root = np.random.SeedSequence([cfg.master_seed, snr_index, trial_index])
        want = root.spawn(3)[:2]
        assert len(got) == 2
        for a, b in zip(got, want):
            assert (a.entropy, a.spawn_key, a.pool_size, a.n_children_spawned) == (
                b.entropy, b.spawn_key, b.pool_size, b.n_children_spawned
            )
            np.testing.assert_array_equal(a.generate_state(8), b.generate_state(8))
            np.testing.assert_array_equal(
                np.random.default_rng(a).standard_normal(16),
                np.random.default_rng(b).standard_normal(16),
            )


# NMSE columns of a fixed-seed stock run, (snr_db, trial, estimator) -> the
# non-empty ones of nmse_aggregate, _h_ua, _h_ur, _h_ra, _cascade in order
PINNED_NMSE = {
    (0, 0, 'e_als'): (0.008306744607414, 0.001476686312463, 0.01482698224737, 0.004770933035833, 0.003578826650055),
    (0, 0, 'ls'): (0.02130206329247,),
    (0, 0, 'two_stage'): (0.02676425871703, 0.02562252385951, 0.02623977060712, 0.007538017316869, 0.004822899990916),
    (0, 1, 'e_als'): (0.01508718046568, 0.00202408400732, 0.03111376407094, 0.009301469923549, 0.01790959814587),
    (0, 1, 'ls'): (0.04283858939687,),
    (0, 1, 'two_stage'): (0.07677229210173, 0.06290311317523, 0.06769112385593, 0.03124874948759, 0.06802741012267),
    (0, 2, 'e_als'): (0.007472232372177, 0.002606268216255, 0.007885954414538, 0.002336941426868, 0.01801966370828),
    (0, 2, 'ls'): (0.01921471779013,),
    (0, 2, 'two_stage'): (0.03389884072083, 0.0528330628383, 0.02027545331265, 0.003490199673952, 0.04869473791112),
    (20, 0, 'e_als'): (0.0001568171384052, 3.00975453738e-05, 0.0002430380540754, 8.882007618267e-05, 0.0001404488340101),
    (20, 0, 'ls'): (0.0004627651735192,),
    (20, 0, 'two_stage'): (0.0005647741266412, 0.0005723270890675, 0.0004361428023215, 0.0001294125137945, 0.000202609799948),
    (20, 1, 'e_als'): (0.0001461215119867, 2.70462427904e-05, 0.0002184560171625, 7.120803048614e-05, 0.001656367028507),
    (20, 1, 'ls'): (0.0003982413521958,),
    (20, 1, 'two_stage'): (0.000588030629473, 0.0006420596578696, 0.0003841477214834, 0.0001092658469048, 0.004169461884053),
    (20, 2, 'e_als'): (0.0001791917488955, 2.28339161235e-05, 0.0005400956723328, 0.0002122282165993, 0.0006057391468324),
    (20, 2, 'ls'): (0.0004911049816635,),
    (20, 2, 'two_stage'): (0.000710535797264, 0.0005060096240184, 0.001092005470535, 0.0003184619549501, 0.001971078088063),
}


def test_fixed_seed_run_pins_every_nmse():
    # a change to any stream or draw order moves these by far more than the
    # tolerance; a change of rounding alone (another product order) does not
    cfg = ExperimentConfig(snr_grid_db=(0.0, 20.0), trials=3, master_seed=2024)
    records = run_experiment(cfg)
    assert len(records) == len(PINNED_NMSE)
    columns = ("nmse_aggregate", "nmse_h_ua", "nmse_h_ur", "nmse_h_ra", "nmse_cascade")
    for rec in records:
        got = [getattr(rec, c) for c in columns if getattr(rec, c) is not None]
        want = PINNED_NMSE[(rec.snr_db, rec.trial_index, rec.estimator_name)]
        assert not rec.failure_flag
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def _memory_owner(array):
    # a view of a view names the array that owns the memory as its base
    return array if array.base is None else array.base


def test_frames_are_released_after_the_last_estimator_that_reads_them(monkeypatch):
    # the e_als fit runs after two_stage's, and nothing after it reads the
    # two_stage frames: no group stack of them may still be alive when it
    # starts; the arrays that own each stack's memory are tracked
    stacks = {"two_stage": [], "e_als": []}
    synthesize = ristensor.harness.synthesize
    e_als_estimate = ristensor.harness.e_als_estimate

    def tracked_synthesize(channels, sched, cfg, noise):
        recv = synthesize(channels, sched, cfg, noise)
        assert recv.tensor.ndim == 4 and len(recv.tensor) == len(channels.h_ua)
        arrays = [recv.tensor] if recv.off_stage is None else [recv.tensor, recv.off_stage]
        mode = "two_stage" if sched.off_pilots is not None else "e_als"
        stacks[mode].extend(weakref.ref(_memory_owner(a)) for a in arrays)
        return recv

    def checked_e_als(*args, **kwargs):
        assert stacks["two_stage"] and all(ref() is None for ref in stacks["two_stage"])
        assert all(ref() is not None for ref in stacks["e_als"])
        return e_als_estimate(*args, **kwargs)

    monkeypatch.setattr(ristensor.harness, "synthesize", tracked_synthesize)
    monkeypatch.setattr(ristensor.harness, "e_als_estimate", checked_e_als)
    cfg = tiny_config(trials=3, estimators_enabled=("two_stage", "e_als", "ls"))
    records = run_experiment(cfg)
    assert len(records) == 9 and not any(r.failure_flag for r in records)
    assert all(ref() is None for refs in stacks.values() for ref in refs)


def test_rerun_is_deterministic():
    cfg = tiny_config(trials=2)
    first = records_without_wall_time(run_experiment(cfg))
    second = records_without_wall_time(run_experiment(cfg))
    assert first == second


def test_worker_count_does_not_change_records():
    base = tiny_config(snr_grid_db=(0.0, 10.0), trials=4)
    serial = records_without_wall_time(run_experiment(base))
    parallel = records_without_wall_time(run_experiment(dataclasses.replace(base, workers=2)))
    assert serial == parallel


def test_worker_count_does_not_change_records_across_group_makeups(monkeypatch):
    # stock dimensions, MAX_STACK / 2 + 6 trials (70 at 128): workers 1, 2
    # and 3 cut each SNR point into one chunk of 70, two of 35 and three of
    # 23 or 24, so the stacked calls see a different makeup under each
    # worker count; three usable CPUs keep the third makeup on a smaller
    # machine
    monkeypatch.setattr(ristensor.harness, "_usable_cpus", lambda: 3)
    trials = ristensor.harness.MAX_STACK // 2 + 6
    base = ExperimentConfig(snr_grid_db=(0.0, 20.0), trials=trials, master_seed=11)
    assert math.ceil(trials / ristensor.harness.MAX_STACK) == 1 and trials >= 3
    runs = [
        records_without_wall_time(run_experiment(dataclasses.replace(base, workers=workers)))
        for workers in (1, 2, 3)
    ]
    assert len(runs[0]) == 2 * trials * 3
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "snr_grid_db, trials, workers, cpus, pools",
    [
        ((10.0,), 2, 64, 64, [2]),         # two chunks of one trial: a pool of 2, not 64
        ((0.0, 10.0), 2, 3, 4, [3]),       # four chunks, three workers
        ((10.0,), 1, 4, 4, []),            # one chunk runs serially
    ],
    ids=["two-chunks", "four-chunks", "one-chunk"],
)
def test_pool_has_no_more_workers_than_chunks(
    monkeypatch, snr_grid_db, trials, workers, cpus, pools
):
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(ristensor.harness, "_usable_cpus", lambda: cpus)
    base = tiny_config(snr_grid_db=snr_grid_db, trials=trials)
    records = run_experiment(dataclasses.replace(base, workers=workers))
    assert InlinePool.sizes == pools
    assert records_without_wall_time(records) == records_without_wall_time(run_experiment(base))


@pytest.mark.parametrize(
    "workers, cpus, pools, chunks",
    [
        (1000, 2, [2], [(0, 3), (3, 6)]),   # 2 CPUs: two chunks of 3 per SNR point, not 6 of 1
        (8, 1, [], [(0, 6)]),               # 1 CPU: one chunk per SNR point, run in-process
        (2, 4, [2], [(0, 3), (3, 6)]),      # fewer workers than CPUs: workers decide
    ],
    ids=["1000-workers-2-cpus", "8-workers-1-cpu", "2-workers-4-cpus"],
)
def test_pool_has_no_more_workers_than_usable_cpus(monkeypatch, workers, cpus, pools, chunks):
    # the cap comes before chunking, so chunks stay as large as they can
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(ristensor.harness, "_usable_cpus", lambda: cpus)
    run_chunk = ristensor.harness._run_chunk
    seen = []

    def recorded_chunk(cfg, snr_index, start, stop):
        seen.append((snr_index, start, stop))
        return run_chunk(cfg, snr_index, start, stop)

    monkeypatch.setattr(ristensor.harness, "_run_chunk", recorded_chunk)
    base = tiny_config(snr_grid_db=(0.0, 10.0), trials=6)
    records = run_experiment(dataclasses.replace(base, workers=workers))
    assert InlinePool.sizes == pools
    assert seen == [(snr_index, *chunk) for snr_index in (0, 1) for chunk in chunks]
    assert records_without_wall_time(records) == records_without_wall_time(run_experiment(base))


def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(monkeypatch):
    harness = ristensor.harness
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    assert harness._usable_cpus() == 3
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    assert harness._usable_cpus() == 64
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._usable_cpus() == 1


def test_chunk_runs_balanced_groups(monkeypatch):
    # MAX_STACK + 2 trials (130 at 128) of one SNR point run serially as two
    # stacked calls of MAX_STACK / 2 + 1 frames per estimator, not as
    # MAX_STACK and a straggler of 2
    size = ristensor.harness.MAX_STACK
    trials = size + 2
    sizes = {}

    def sized(name):
        original = getattr(ristensor.harness, name)

        def wrapper(frames, *args):
            sizes.setdefault(name, []).append(len(frames.tensor))
            return original(frames, *args)

        return wrapper

    assert size % 2 == 0
    estimators = ("two_stage_estimate", "e_als_estimate", "ls_baseline")
    for name in estimators:
        monkeypatch.setattr(ristensor.harness, name, sized(name))
    records = run_experiment(tiny_config(trials=trials))
    assert sizes == {name: [trials // 2] * 2 for name in estimators}
    assert sorted({r.trial_index for r in records}) == list(range(trials))


def test_group_size_does_not_change_records(monkeypatch):
    # stock dimensions, 70 trials run as 70 stacks of 1, 10 of 7, 3 of 23 or
    # 24, and one of 70: every record but its wall time is the same
    base = ExperimentConfig(snr_grid_db=(0.0, 20.0), trials=70, master_seed=3)
    runs = []
    for size in (1, 7, 32, 70):
        monkeypatch.setattr(ristensor.harness, "MAX_STACK", size)
        runs.append(records_without_wall_time(run_experiment(base)))
    assert len(runs[0]) == 2 * 70 * 3 and not any(r["failure_flag"] for r in runs[0])
    for run in runs[1:]:
        assert run == runs[0]


def test_group_records_equal_single_trial_records():
    # a trial fitted in a stacked group gives the records run_trial gives it alone
    cfg = tiny_config(snr_grid_db=(0.0,), trials=5)
    grouped = records_without_wall_time(run_experiment(cfg))
    alone = [
        record
        for trial in range(5)
        for record in records_without_wall_time(run_trial(cfg, 0, trial))
    ]
    key = lambda r: (r["trial_index"], r["estimator_name"])  # noqa: E731
    assert sorted(grouped, key=key) == sorted(alone, key=key)


def test_serial_run_sets_up_once_per_snr_point(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(ristensor.harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # through the harness's own names, as the benchmark's span wrappers are
    estimators = ("two_stage_estimate", "e_als_estimate", "ls_baseline")
    for name in ("StackedLsSolver", "make_schedule", "draw_channels", "synthesize", *estimators):
        monkeypatch.setattr(ristensor.harness, name, counted(name))
    run_experiment(tiny_config(snr_grid_db=(0.0, 10.0, 20.0), trials=8))
    # one LS solver and the two schedules per SNR point, one draw_channels
    # call per trial, and on each SNR point's one group of 8 trials one
    # synthesize call per schedule and one stacked call per estimator
    assert calls == {
        "StackedLsSolver": 3, "make_schedule": 6, "draw_channels": 24, "synthesize": 6,
        **dict.fromkeys(estimators, 3),
    }


def test_max_stack_trials_run_as_one_chunk_and_one_more_as_two(monkeypatch):
    # serially, MAX_STACK trials per SNR point are one chunk: one set-up and
    # one stacked call per estimator; MAX_STACK + 1 are two balanced chunks
    calls = Counter()
    chunks = []

    def counted(name):
        original = getattr(ristensor.harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_run_chunk":
                chunks.append(args[1:])
            return original(*args, **kwargs)

        return wrapper

    estimators = ("two_stage_estimate", "e_als_estimate", "ls_baseline")
    for name in ("_snr_setup", "_run_chunk", *estimators):
        monkeypatch.setattr(ristensor.harness, name, counted(name))
    size = ristensor.harness.MAX_STACK
    records = run_experiment(tiny_config(snr_grid_db=(0.0, 10.0), trials=size))
    assert len(records) == 2 * size * 3
    assert calls == {"_snr_setup": 2, "_run_chunk": 2, **dict.fromkeys(estimators, 2)}
    assert chunks == [(0, 0, size), (1, 0, size)]
    calls.clear()
    chunks.clear()
    run_experiment(tiny_config(trials=size + 1))
    assert calls == {"_snr_setup": 2, "_run_chunk": 2, **dict.fromkeys(estimators, 2)}
    assert chunks == [(0, 0, size // 2), (0, size // 2, size + 1)]


def test_estimator_subset_runs_alone():
    cfg = tiny_config(estimators_enabled=("ls",))
    records = run_experiment(cfg)
    assert [r.estimator_name for r in records] == ["ls"]


def test_subset_matches_full_run_per_estimator():
    # seeding is keyed by estimator identity, not position, so disabling one
    # estimator must not change another's estimates; channel_hash may differ
    # because it digests every frame synthesized in the trial
    def strip(rows):
        rows = [dict(r) for r in rows]
        for row in rows:
            row.pop("channel_hash")
        return rows

    full = records_without_wall_time(run_experiment(tiny_config(trials=2)))
    only_eals = records_without_wall_time(
        run_experiment(tiny_config(trials=2, estimators_enabled=("e_als",)))
    )
    full_eals = [r for r in full if r["estimator_name"] == "e_als"]
    assert strip(full_eals) == strip(only_eals)


def _realized(monkeypatch, cfg, snr_index, trials):
    # _run_group on one group: each trial's channels and hash, and the
    # group's stacked frames per schedule with the noise synthesize was given
    synthesize = ristensor.harness.synthesize
    stacks = {}

    def captured(channels, sched, system, noise):
        recv = synthesize(channels, sched, system, noise)
        stacks["two_stage" if sched.off_pilots is not None else "e_als"] = (recv, noise)
        return recv

    monkeypatch.setattr(ristensor.harness, "synthesize", captured)
    system, schedules, ls_solver = ristensor.harness._snr_setup(cfg, snr_index)
    records, _, channels = ristensor.harness._run_group(
        cfg, system, schedules, ls_solver, snr_index, trials
    )
    monkeypatch.setattr(ristensor.harness, "synthesize", synthesize)
    by_trial = {record.trial_index: record.channel_hash for record in records}
    return channels, stacks, [by_trial[trial] for trial in trials], system, schedules


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(1, ristensor.harness.MAX_STACK),
    where=st.sampled_from(["first", "middle", "last"]),
    fixed_geometry=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@example(size=ristensor.harness.MAX_STACK, where="middle", fixed_geometry=False, seed=0)
@example(size=13, where="last", fixed_geometry=True, seed=1)
def test_trial_realized_in_a_group_equals_the_trial_alone(size, where, fixed_geometry, seed):
    # channels, frames and channel_hash of a trial are the same bits whatever
    # group it is realized in and wherever it sits there
    cfg = tiny_config(
        master_seed=seed, fixed_geometry=fixed_geometry, estimators_enabled=("two_stage", "e_als"),
        channel=ChannelModelConfig(ris_rows=2, ris_cols=2, n_paths=3),
    )
    start = 40
    row = {"first": 0, "middle": size // 2, "last": size - 1}[where]
    with pytest.MonkeyPatch.context() as monkeypatch:
        group = _realized(monkeypatch, cfg, 0, range(start, start + size))
        alone = _realized(monkeypatch, cfg, 0, [start + row])
    (g_channels, g_stacks, g_hashes, _, _), (a_channels, a_stacks, a_hashes, _, _) = group, alone
    for name in ("h_ua", "h_ra", "h_ur"):
        _assert_same_bits(getattr(g_channels[row], name), getattr(a_channels[0], name))
    assert sorted(g_stacks) == sorted(a_stacks) == ["e_als", "two_stage"]
    for mode, (recv, _) in g_stacks.items():
        lone = a_stacks[mode][0]
        _assert_same_bits(recv.tensor[row], lone.tensor[0])
        if mode == "two_stage":
            _assert_same_bits(recv.off_stage[row], lone.off_stage[0])
        else:
            assert recv.off_stage is None and lone.off_stage is None
    assert g_hashes[row] == a_hashes[0]
    assert len(set(g_hashes)) == size


def test_equal_training_lengths_share_one_noise_draw(monkeypatch):
    # stock config: both schedules train for T = 208 symbols, so one (M, T)
    # draw from the trial's noise stream is the noise of both frames
    cfg = ExperimentConfig(snr_grid_db=(10.0,), master_seed=5)
    channels, stacks, _, system, schedules = _realized(monkeypatch, cfg, 0, range(3))
    assert system.training_len("two_stage") == system.training_len("e_als") == 208
    assert stacks["two_stage"][1] is stacks["e_als"][1]
    m, l = system.m_ap, system.pilot_len
    for row in range(3):
        _, noise_ss = ristensor.harness._trial_streams(cfg, 0, row)
        want = np.sqrt(system.noise_var) * crandn(np.random.default_rng(noise_ss), (m, 208))
        for mode, (recv, _) in stacks.items():
            quiet = noiseless_tensor(channels[row], schedules[mode], system)
            # each frame is its noiseless frame plus the one draw, bit for bit
            t_off = 0 if quiet.off_stage is None else quiet.off_stage.shape[1]
            blocks = want[:, t_off:].reshape(m, -1, l).transpose(0, 2, 1)
            _assert_same_bits(recv.tensor[row], quiet.tensor + blocks)
            recovered = (recv.tensor[row] - quiet.tensor).transpose(0, 2, 1).reshape(m, -1)
            if t_off:
                _assert_same_bits(recv.off_stage[row], quiet.off_stage + want[:, :t_off])
                recovered = np.concatenate([recv.off_stage[row] - quiet.off_stage, recovered], axis=1)
            # frame minus noiseless frame, in time order, is the draw up to rounding
            np.testing.assert_allclose(recovered, want, rtol=0, atol=1e-12)


def test_unequal_training_lengths_draw_noise_per_schedule(monkeypatch):
    # an OFF stage longer than a pilot block: T = 12 + 25 * 8 for two_stage
    # and 26 * 8 for e_als, so each schedule draws its own noise from a fresh
    # generator on the trial's noise stream, as synthesize does alone
    system = SystemConfig(off_stage_len=12)
    cfg = ExperimentConfig(system=system, snr_grid_db=(10.0,), master_seed=6)
    channels, stacks, _, system, schedules = _realized(monkeypatch, cfg, 0, range(4))
    assert system.training_len("two_stage") == 212 and system.training_len("e_als") == 208
    assert stacks["two_stage"][1].shape[-1] == 212 and stacks["e_als"][1].shape[-1] == 208
    for row in range(4):
        _, noise_ss = ristensor.harness._trial_streams(cfg, 0, row)
        for mode, (recv, _) in stacks.items():
            rng = np.random.default_rng(noise_ss)
            alone = synthesize(channels[row], schedules[mode], system, rng)
            _assert_same_bits(recv.tensor[row], alone.tensor)
            if mode == "two_stage":
                _assert_same_bits(recv.off_stage[row], alone.off_stage)


def test_fixed_geometry_repeats_angles_across_trials():
    channel = ChannelModelConfig(ris_rows=2, ris_cols=2, n_paths=1)
    cfg = tiny_config(channel=channel, fixed_geometry=True, trials=2)
    _, _, ch0 = run_trial(cfg, 0, 0, details=True)
    _, _, ch1 = run_trial(cfg, 0, 1, details=True)
    # single path: a column normalized by its first entry is pure steering,
    # so frozen geometry means identical normalized columns while gains move
    dir0 = ch0.h_ua[:, 0] / ch0.h_ua[0, 0]
    dir1 = ch1.h_ua[:, 0] / ch1.h_ua[0, 0]
    np.testing.assert_allclose(dir0, dir1, rtol=1e-10)
    assert abs(ch0.h_ua[0, 0] - ch1.h_ua[0, 0]) > 1e-6

    cfg_free = dataclasses.replace(cfg, fixed_geometry=False)
    _, _, ch0f = run_trial(cfg_free, 0, 0, details=True)
    _, _, ch1f = run_trial(cfg_free, 0, 1, details=True)
    dir0f = ch0f.h_ua[:, 0] / ch0f.h_ua[0, 0]
    dir1f = ch1f.h_ua[:, 0] / ch1f.h_ua[0, 0]
    assert np.abs(dir0f - dir1f).max() > 1e-3


# ---------------------------------------------------------------------------
# aggregation and emission


def _synthetic_records():
    shared = dict(snr_db=0.0, estimator_name="e_als")
    return [
        TrialRecord(trial_index=0, nmse_aggregate=0.1, iterations=4, wall_time_seconds=0.5, **shared),
        TrialRecord(trial_index=1, nmse_aggregate=0.3, iterations=6, wall_time_seconds=1.5, **shared),
        TrialRecord(trial_index=2, failure_flag=True, **shared),
    ]


def test_aggregate_mean_and_failure_exclusion():
    [entry] = aggregate_records(_synthetic_records())
    assert entry["estimator"] == "e_als"
    assert entry["trials"] == 3
    assert entry["failures"] == 1
    assert entry["mean_nmse_aggregate"] == pytest.approx(0.2)
    # the even count's median is the mean of its middle pair, as a float
    assert entry["median_nmse_aggregate"] == (0.1 + 0.3) / 2
    assert type(entry["median_nmse_aggregate"]) is float
    assert entry["mean_iterations"] == pytest.approx(5.0)
    assert entry["mean_wall_time_seconds"] == pytest.approx(1.0)
    assert entry["mean_analytic_ops"] is None


def test_aggregate_counts_nonconverged_trials_and_max_iterations():
    shared = dict(snr_db=0.0, estimator_name="two_stage")
    records = [
        TrialRecord(trial_index=0, nmse_aggregate=0.1, iterations=20, converged=False, **shared),
        TrialRecord(trial_index=1, nmse_aggregate=0.2, iterations=7, converged=True, **shared),
        TrialRecord(trial_index=2, nmse_aggregate=0.3, iterations=20, converged=False, **shared),
        # a failed trial is neither counted as unconverged nor in the max
        TrialRecord(trial_index=3, iterations=25, converged=False, failure_flag=True, **shared),
    ]
    [entry] = aggregate_records(records)
    assert entry["median_nmse_aggregate"] == 0.2
    assert entry["nonconverged"] == 2
    assert entry["max_iterations"] == 20
    [only_failed] = aggregate_records(records[3:])
    assert only_failed["nonconverged"] == 0
    assert only_failed["max_iterations"] is None


def test_csv_emission_layout(tmp_path):
    cfg = tiny_config()
    records = run_experiment(cfg)
    out = tmp_path / "results.csv"
    emit_results(records, out, "csv", cfg, aggregate_records(records))
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + one row per estimator
    rows = list(csv.reader(lines))
    assert tuple(rows[0]) == CSV_COLUMNS
    by_name = {row[rows[0].index("estimator_name")]: row for row in rows[1:]}
    ls_row = by_name["ls"]
    for col in ("nmse_h_ua", "nmse_h_ur", "nmse_h_ra", "nmse_cascade", "analytic_ops"):
        assert ls_row[rows[0].index(col)] == ""
    assert by_name["e_als"][rows[0].index("converged")] in ("true", "false")


def test_csv_floats_round_trip(tmp_path):
    cfg = tiny_config()
    records = run_experiment(cfg)
    out = tmp_path / "results.csv"
    emit_results(records, out, "csv", cfg, aggregate_records(records))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, rec in zip(rows, records):
        assert float(row["nmse_aggregate"]) == rec.nmse_aggregate
        assert row["channel_hash"] == rec.channel_hash


def test_json_round_trip(tmp_path):
    cfg = tiny_config(trials=2)
    records = run_experiment(cfg)
    out = tmp_path / "results.json"
    aggregates = aggregate_records(records)
    emit_results(records, out, "json", cfg, aggregates)
    with open(out) as fh:
        document = json.load(fh)
    assert document["aggregates"] == aggregates
    back = [TrialRecord(**rec) for rec in document["records"]]
    assert [dataclasses.asdict(r) for r in back] == [dataclasses.asdict(r) for r in records]


def test_json_document_bytes_equal_the_asdict_document(tmp_path):
    # records are written from their fields, not through dataclasses.asdict,
    # and the aggregates as given; the bytes are the same
    cfg = tiny_config(trials=2)
    records = run_experiment(cfg) + _synthetic_records()
    aggregates = aggregate_records(records)
    want = tmp_path / "want.json"
    with open(want, "w") as fh:
        json.dump(
            {
                "config": dataclasses.asdict(cfg),
                "records": [dataclasses.asdict(rec) for rec in records],
                "aggregates": aggregates,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    out = tmp_path / "results.json"
    emit_results(records, out, "json", cfg, aggregates)
    assert out.read_bytes() == want.read_bytes()


def test_json_writes_a_non_finite_score_as_null(tmp_path):
    # RFC 8259 has no NaN or Infinity; CSV keeps them
    failed = TrialRecord(
        trial_index=3, snr_db=0.0, estimator_name="e_als", failure_flag=True,
        nmse_aggregate=math.nan, nmse_h_ua=math.inf, nmse_h_ur=-math.inf, nmse_h_ra=0.5,
    )
    records = _synthetic_records() + [failed]
    cfg = tiny_config()

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    out = tmp_path / "results.json"
    emit_results(records, out, "json", cfg, aggregate_records(records))
    row = json.loads(out.read_text(), parse_constant=refuse)["records"][-1]
    assert [row[col] for col in ("nmse_aggregate", "nmse_h_ua", "nmse_h_ur", "nmse_h_ra")] == [
        None, None, None, 0.5
    ]
    out = tmp_path / "results.csv"
    emit_results(records, out, "csv", cfg, aggregate_records(records))
    with open(out, newline="") as fh:
        row = list(csv.DictReader(fh))[-1]
    assert [row[col] for col in ("nmse_aggregate", "nmse_h_ua", "nmse_h_ur")] == ["nan", "inf", "-inf"]


def test_emit_rejects_empty_records(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        emit_results([], tmp_path / "x.csv", "csv", tiny_config(), [])


def test_emit_rejects_an_unknown_format(tmp_path):
    records = _synthetic_records()
    out = tmp_path / "results.xml"
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_results(records, out, "xml", tiny_config(), aggregate_records(records))
    assert not out.exists()


# ---------------------------------------------------------------------------
# non-finite frames and scores


def test_run_trial_on_nan_frame_records_failures(monkeypatch):
    synthesize = ristensor.harness.synthesize

    def nan_frame(*args, **kwargs):
        # one NaN in every trial's frame of the group's (G, M, L, B) stack
        recv = synthesize(*args, **kwargs)
        tensor = recv.tensor.copy()
        tensor[:, 0, 0, 0] = np.nan
        return dataclasses.replace(recv, tensor=tensor)

    monkeypatch.setattr(ristensor.harness, "synthesize", nan_frame)
    cfg = tiny_config()
    records = run_trial(cfg, 0, 0)
    assert [r.estimator_name for r in records] == list(cfg.estimators_enabled)
    assert all(r.failure_flag for r in records)
    assert aggregate_records(records)[0]["mean_nmse_aggregate"] is None


def _group_truth(*channel_sets):
    # the scorer's truth terms for a group of trials' channels, stacked in order
    return ristensor.harness._truth_terms(ChannelSet(*(
        np.stack([getattr(c, name) for c in channel_sets]) for name in ("h_ua", "h_ra", "h_ur")
    )))


def test_score_flags_a_non_finite_nmse():
    cfg = tiny_config()
    system, schedules, ls_solver = ristensor.harness._snr_setup(cfg, 0)
    _, estimates, [channels] = ristensor.harness._run_group(
        cfg, system, schedules, ls_solver, 0, [0]
    )
    est = estimates["ls"]
    est.theta[0, 0] = np.inf
    [record] = ristensor.harness._score_group(
        "ls", est, _group_truth(channels), cfg.system, 10.0, [0], 0.0, [""]
    )
    assert record.failure_flag
    assert record.nmse_aggregate is None


def _random_stack(rng, name, m, k, n, failed):
    # a stacked estimate of len(failed) rows, C-ordered as the estimators
    # write it; a failed row's factor rows are NaN, which no score may read
    failed = np.array(failed)
    rows = np.arange(len(failed))
    est = ChannelEstimate(
        iterations=np.where(failed, rows, 0 if name == "ls" else rows + 1),
        converged=~failed & ((name == "ls") | (rows % 2 == 1)),
        op_count=np.where(failed, 3, 5 if name == "ls" else 7 * rows),
        residual_trace=np.zeros((len(rows), 0)),
        failed=failed,
        failure_reason=np.where(failed, "singular", "").astype(object),
    )
    if name == "ls":
        est.theta = crandn(rng, (len(rows), (n + 1) * k * m))
    else:
        shapes = ((m, k), (m, n), (n, k))
        est.h_ua, est.h_ra, est.h_ur = (crandn(rng, (len(rows), *shape)) for shape in shapes)
    for factor in (est.h_ua, est.h_ra, est.h_ur, est.theta):
        if factor is not None:
            factor[failed] = np.nan
    return est


def _take(est, g):
    # row g of a stacked estimate as a stack of one
    return ChannelEstimate(**{
        f.name: None if getattr(est, f.name) is None else getattr(est, f.name)[g:g + 1]
        for f in dataclasses.fields(est)
    })


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ristensor.harness.ESTIMATOR_NAMES),
    failed=st.lists(st.booleans(), min_size=1, max_size=9),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 7)),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="e_als", failed=[False, True, False], dims=(4, 8, 25), zero_column=False, seed=0)
def test_group_scores_equal_each_row_scored_alone(name, failed, dims, zero_column, seed):
    # each row of a group scored as a stack gets the record it gets alone, bit
    # for bit, whatever else is in the group and wherever its failed rows
    # are; and its scores are the single-pair nmse, aggregate_vector_nmse and
    # resolve_scaling-then-nmse ones, up to rounding
    m, k, n = dims
    rng = np.random.default_rng(seed)
    channels = []
    for _ in failed:
        h_ra = crandn(rng, (m, n))
        if zero_column:   # no usable column scale; with n = 1, a zero-norm reference
            h_ra[:, 0] = 0
        channels.append(ChannelSet(crandn(rng, (m, k)), h_ra, crandn(rng, (n, k))))
    stacked = _random_stack(rng, name, m, k, n, failed)
    system = tiny_config().system
    trials = [10 + row for row in range(len(failed))]
    hashes = [f"hash{row}" for row in range(len(failed))]
    score = ristensor.harness._score_group
    group = score(name, stacked, _group_truth(*channels), system, 5.0, trials, 0.5, hashes)
    assert len(group) == len(failed)
    for g, (record, ch, trial, chash) in enumerate(zip(group, channels, trials, hashes)):
        alone_est, truth = _take(stacked, g), _group_truth(ch)
        [alone] = score(name, alone_est, truth, system, 5.0, [trial], 0.5, [chash])
        assert repr(record) == repr(alone)   # repr: every float to its last bit
        assert (record.trial_index, record.channel_hash) == (trial, chash)
        # Python scalars only, as the CSV and JSON writers need them
        values = dataclasses.astuple(record)
        assert all(type(v) in (type(None), bool, int, float, str) for v in values)
        est = stacked.row(g)
        if est.failed or record.failure_flag:
            assert record.failure_flag
            continue
        assert record.nmse_aggregate == pytest.approx(aggregate_vector_nmse(est, ch), rel=1e-12)
        if name == "ls":
            assert record.analytic_ops is None and record.nmse_h_ua is None
            continue
        fixed = resolve_scaling(est, ch)
        expected = (
            nmse(est.h_ua, ch.h_ua), nmse(fixed.h_ur, ch.h_ur),
            nmse(fixed.h_ra, ch.h_ra), nmse(est.cascade, ch.cascade),
        )
        got = (record.nmse_h_ua, record.nmse_h_ur, record.nmse_h_ra, record.nmse_cascade)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        assert record.analytic_ops == complexity_formula(name, system).total(est.iterations)


def test_scoring_runs_once_per_estimator_and_group(monkeypatch):
    # the cost formula and the column fit run once per (ALS estimator,
    # chunk), not once per record: MAX_STACK + 2 trials per SNR point run
    # as 2 chunks
    calls = Counter()

    def counted(name):
        original = getattr(ristensor.harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("complexity_formula", "column_scales"):
        monkeypatch.setattr(ristensor.harness, name, counted(name))
    trials = ristensor.harness.MAX_STACK + 2
    records = run_experiment(tiny_config(snr_grid_db=(0.0, 10.0), trials=trials))
    assert len(records) == 2 * trials * 3 and not any(r.failure_flag for r in records)
    assert calls == {"complexity_formula": 2 * 2 * 2, "column_scales": 2 * 2 * 2}


# ---------------------------------------------------------------------------
# benchmark contract


def test_benchmark_span_targets_resolve_to_callables():
    # perfbench wraps these names on every call, traced or not: one that no
    # longer resolves makes every benchmark call fail
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


# ---------------------------------------------------------------------------
# analytic references


def test_ls_monte_carlo_nmse_meets_its_exact_expectation():
    # ls applies a fixed linear map to the frame, so given the channels its
    # expected squared error is sigma^2 M tr(P_phase P_phase^H)
    # tr(P_pilot P_pilot^H), and a trial's expected NMSE is that over
    # ||theta||^2.  NMSE over this reference has a standard deviation near
    # 1 / sqrt(M K (N + 1)) = 0.035 per stock trial, so the mean of 200 trials
    # is within 1% of 1 at about four standard errors; the seed was fixed
    # before the test first ran
    cfg = ExperimentConfig(trials=200, master_seed=8, estimators_enabled=("ls",))
    for snr_index, snr_db in enumerate(cfg.snr_grid_db):
        ratio = _mean_nmse_over_expected_ls(cfg, snr_index)["ls"]
        assert abs(ratio - 1) < 0.01, (snr_db, ratio)


def _mean_nmse_over_expected_ls(cfg, snr_index):
    # each enabled estimator's mean over cfg.trials of its NMSE over ls's
    # expected NMSE on the trial's channels, sigma^2 M tr(P_phase P_phase^H)
    # tr(P_pilot P_pilot^H) / ||theta||^2
    system = dataclasses.replace(cfg.system, snr_db=cfg.snr_grid_db[snr_index])
    solver = StackedLsSolver(make_schedule(system, "e_als"), system.m_ap)
    error = (system.noise_var * system.m_ap
             * np.linalg.norm(solver.p_phase) ** 2 * np.linalg.norm(solver.p_pilot) ** 2)
    ratios = {name: [] for name in cfg.estimators_enabled}
    for trial in range(cfg.trials):
        records, _, ch = run_trial(cfg, snr_index, trial, details=True)
        theta = stacked_parameter_vector(ch.h_ua, ch.h_ra, ch.h_ur)
        for record in records:
            ratios[record.estimator_name].append(
                record.nmse_aggregate * np.vdot(theta, theta).real / error
            )
    return {name: np.mean(values) for name, values in ratios.items()}


def test_als_monte_carlo_nmse_meets_its_high_snr_limit():
    # at high SNR the ML fit keeps only the LS error's projection onto the
    # model's tangent space, MK + MN + NK - N of ls's MK(N + 1) complex
    # dimensions (-N for the column-scaling ambiguity), so e_als's NMSE tends
    # to ls's expected NMSE times 307/832 at stock; two_stage's OFF stage sees
    # one block of pilots, its direct-path error is N + 1 times ls's per entry
    # and lands in the cascade's first column, where the tangent space keeps
    # M + K - 1 dimensions of it: [MK + (MN + NK - N)/N + M + K - 1] / MK =
    # 54/32.  The mean of 200 trials has a standard error near 0.4%, so 2% is
    # about five; the seed was fixed before the test first ran
    cfg = ExperimentConfig(
        snr_grid_db=(20.0, 30.0), trials=200, master_seed=9,
        estimators_enabled=("two_stage", "e_als"),
    )
    m, k, n = cfg.system.m_ap, cfg.system.k_users, cfg.system.n_ris
    limits = {
        "e_als": (m * k + m * n + n * k - n) / (m * k * (n + 1)),
        "two_stage": (m * k + (m * n + n * k - n) / n + m + k - 1) / (m * k),
    }
    assert limits == {"e_als": 307 / 832, "two_stage": 54 / 32}
    for snr_index, snr_db in enumerate(cfg.snr_grid_db):
        ratios = _mean_nmse_over_expected_ls(cfg, snr_index)
        for name, limit in limits.items():
            assert abs(ratios[name] / limit - 1) < 0.02, (name, snr_db, ratios[name] / limit)
