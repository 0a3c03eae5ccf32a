"""Seeded Monte Carlo experiment runner with CSV/JSON emission.

Every (snr, trial) pair derives its own RNG substreams from the master seed,
so the record set is bit-identical no matter how trials are chunked across
workers; all enabled estimators inside a trial share one channel realization
and one noise realization (paired comparison): the trial's noise is drawn
once per training length, so schedules of equal length share the draw.  A
chunk runs its trials in the fewest groups of at most GROUP_SIZE (32),
balanced to within one trial: a chunk of 50 as 2 groups of 25, one of 100
as 4 of 25.  Each trial of a group draws its channels with its
own draw_channels call; the group's channels are then stacked and each
schedule's frames built in one synthesize call for all its trials, each
from its own row, so a trial's channels, frames and hash are the ones it
gets alone.  Each enabled estimator then takes its schedule's stack of
frames, as synthesize built it, in one call, whose one stacked estimate
holds the per-trial estimates as rows, bit for bit, so the grouping, like
the chunking, leaves the records unchanged; each record's wall_time_seconds
is its group's call time divided by the group size.  Scoring reads that
estimate's arrays: the truth's terms are formed once per group, and each
row is reduced on its own, so a record's scores do not depend on the rest
of its group either.  The pool gets no more workers than usable CPUs or
chunks.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import yaml

from .channels import ChannelModelConfig, ChannelSet, draw_channels
from .estimators import (
    EstimatorConfig,
    StackedLsSolver,
    column_scales,
    e_als_estimate,
    ls_baseline,
    resolve_scaling,  # unused here, but perfbench/spans.py wraps this name
    two_stage_estimate,
)
from .metrics import (
    aggregate_vector_nmse,  # unused here, but perfbench/spans.py wraps this name
    complexity_formula,
    nmse,  # unused here, but perfbench/spans.py wraps this name
    parameter_stack,
    row_nmse,
    row_sqnorms,
)
from .signals import SystemConfig, draw_noise, make_schedule, synthesize
from .validation import check_field_types, is_finite_number

ESTIMATOR_NAMES = ("two_stage", "e_als", "ls")

# the schedule, and so the frame, each estimator reads: ls solves the e_als frame
_SCHEDULE_OF = {"two_stage": "two_stage", "e_als": "e_als", "ls": "e_als"}
# fixed ordinals keep per-estimator init streams stable under any enabled subset
_INIT_ORDINAL = {"two_stage": 0, "e_als": 1}
_GEOMETRY_TAG = 104729  # entropy word marking the shared-geometry stream
# most trials a chunk solves per stacked estimator call: larger groups spread
# numpy's per-call overhead thinner but hold more frames and temporaries at
# once.  One CLI call of 100 trials at two SNR points with both ALS
# estimators peaked at 41.7 / 42.7 / 43.1 / 46.4 / 52.7 MB of its own
# (VmHWM) at 16 / 24 / 32 / 50 / 100 (2-vCPU VM, one BLAS thread), and 32
# against 16 took a stock call from 171.8 to 146.9 ms and that ALS-only one
# from 251.8 to 220.1 ms (in-process medians, same VM)
GROUP_SIZE = 32


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


@dataclass
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    channel: ChannelModelConfig = field(default_factory=ChannelModelConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    snr_grid_db: tuple = (0.0, 10.0, 20.0, 30.0)
    trials: int = 200
    master_seed: int = 12345
    estimators_enabled: tuple = ESTIMATOR_NAMES
    output_path: str = None
    output_format: str = "csv"
    workers: int = 1
    fixed_geometry: bool = False

    def __post_init__(self):
        check_field_types(self, ConfigError)
        grid = (self.channel.ris_rows, self.channel.ris_cols)
        if self.system.n_ris != grid[0] * grid[1]:
            raise ConfigError(
                f"system.n_ris = {self.system.n_ris} does not match the RIS grid {grid}"
            )
        for name in ("snr_grid_db", "estimators_enabled"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        if not self.snr_grid_db or not all(map(is_finite_number, self.snr_grid_db)):
            raise ConfigError(
                f"snr_grid_db must be a non-empty list of finite numbers, got {self.snr_grid_db!r}"
            )
        self.snr_grid_db = tuple(float(v) for v in self.snr_grid_db)
        for snr_db in self.snr_grid_db:
            try:
                power = dataclasses.replace(self.system, snr_db=snr_db).power
            except OverflowError:   # 10 ** (snr_db / 10) past the largest float
                power = math.inf
            if not math.isfinite(power):
                raise ConfigError(f"snr_grid_db point {snr_db!r} dB overflows the pilot power")
            if power == 0.0:   # zero pilots: no schedule has a pseudoinverse
                raise ConfigError(
                    f"snr_grid_db point {snr_db!r} dB underflows the pilot power to 0"
                )
        self.estimators_enabled = tuple(self.estimators_enabled)
        # a repeat would redo the work and give two records one key
        for name in ("snr_grid_db", "estimators_enabled"):
            repeated = [v for v, count in Counter(getattr(self, name)).items() if count > 1]
            if repeated:
                raise ConfigError(f"{name} repeats {repeated[0]!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.estimators_enabled:
            raise ConfigError("estimators_enabled must not be empty")
        for name in self.estimators_enabled:
            if name not in ESTIMATOR_NAMES:
                raise ConfigError(
                    f"unknown estimator {name!r}, choose from {', '.join(ESTIMATOR_NAMES)}"
                )
        if self.output_path == "":
            raise ConfigError("output_path must not be empty")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")


@dataclass
class TrialRecord:
    trial_index: int
    snr_db: float
    estimator_name: str
    nmse_aggregate: float = None
    nmse_h_ua: float = None
    nmse_h_ur: float = None
    nmse_h_ra: float = None
    nmse_cascade: float = None
    iterations: int = None
    converged: bool = None
    analytic_ops: int = None
    empirical_ops: int = None
    wall_time_seconds: float = None
    failure_flag: bool = False
    channel_hash: str = ""


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord))
_FLOAT_COLUMNS = {f.name for f in dataclasses.fields(TrialRecord) if f.type is float}

_KEY_ALIASES = {"estimators": "estimators_enabled", "output": "output_path", "format": "output_format"}
_SECTION_TYPES = {"system": SystemConfig, "channel": ChannelModelConfig, "estimator": EstimatorConfig}


def _build_section(cls, data, section):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in section '{section}'")
    try:
        return cls(**data)
    except ValueError as err:
        raise ConfigError(f"section '{section}': {err}") from err


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a mapping key given twice; PyYAML keeps the later value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # the base class rejects a key that is no scalar (unhashable) and
            # resolves a merge key (<<), which has no constructor of its own
            if isinstance(key_node, yaml.ScalarNode) and not key_node.tag.endswith(":merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path):
    """Read a YAML experiment config; every omitted field keeps its default."""
    with open(path) as fh:
        try:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as err:
            raise ConfigError(f"{path}: {err}") from err
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    kwargs, given = {}, {}
    for key, value in raw.items():
        name = _KEY_ALIASES.get(key, key)
        if name in given:
            raise ConfigError(f"{path}: '{given[name]}' and '{key}' both set {name}")
        given[name] = key
        if name in _SECTION_TYPES:
            kwargs[name] = _build_section(_SECTION_TYPES[name], value, name)
        elif name in {f.name for f in dataclasses.fields(ExperimentConfig)}:
            kwargs[name] = value
        else:
            raise ConfigError(f"unknown top-level key '{name}'")
    return ExperimentConfig(**kwargs)


def _channel_hash(channels, received, row):
    # a trial's channels and its row of each stacked frame: all contiguous,
    # so hashed in place
    digest = hashlib.sha256()
    for arr in (channels.h_ua, channels.h_ra, channels.h_ur):
        digest.update(arr)
    for mode in sorted(received):
        digest.update(received[mode].tensor[row])
        if received[mode].off_stage is not None:
            digest.update(received[mode].off_stage[row])
    return digest.hexdigest()[:16]


# a score of an overflowing or vanishing channel is inf or NaN, without a
# warning, and its record is failed (_score_group)
@np.errstate(all="ignore")
def _truth_terms(channels):
    """Each score's truth stack and its rows' squared norms, for a group's stacked channels.

    Formed once per group and read by every estimator's scores: the stacked
    parameter vectors (their Khatri-Rao block included), the three channels
    and the cascade.
    """
    terms = {
        "theta": parameter_stack(channels.h_ua, channels.h_ra, channels.h_ur),
        "h_ua": channels.h_ua,
        "h_ur": channels.h_ur,
        "h_ra": channels.h_ra,
        "cascade": channels.cascade,
    }
    return {key: (term, row_sqnorms(term)) for key, term in terms.items()}


@np.errstate(all="ignore")
def _score_group(name, est, truth, system, snr_db, trials, wall, hashes):
    """One estimator's records for a group: its stacked estimate scored against truth.

    Each score is one row-wise NMSE over the estimate's arrays
    (metrics.row_nmse) against the group's truth terms (_truth_terms), ALS
    estimates after one column fit (column_scales) of the stack; each row's
    score is the one it gets alone, and a failed row's is dropped.  A row
    whose reference norm is 0 or not finite, or whose score is not finite,
    is a failed record, kept out of the aggregate means.
    complexity_formula runs once per call.
    """
    failed, flagged = est.failed.tolist(), est.failed.copy()
    columns = {}
    if not all(failed):   # a call whose every row failed may hold no factors
        if name == "ls":
            # no decoupled factors: only the stacked parameter vector is scored
            scored = {"nmse_aggregate": (est.theta, "theta")}
        else:
            lam, _ = column_scales(est.h_ra, truth["h_ra"][0])
            scored = {
                "nmse_aggregate": (parameter_stack(est.h_ua, est.h_ra, est.h_ur), "theta"),
                "nmse_h_ua": (est.h_ua, "h_ua"),
                "nmse_h_ur": (est.h_ur * lam[:, :, None], "h_ur"),
                "nmse_h_ra": (est.h_ra / lam[:, None, :], "h_ra"),
                "nmse_cascade": (est.cascade, "cascade"),
            }
        for column, (stack, key) in scored.items():
            term, den = truth[key]
            scores = row_nmse(stack, term, den)
            flagged |= ~((den > 0) & np.isfinite(den) & np.isfinite(scores))
            columns[column] = [None if f else v for f, v in zip(failed, scores.tolist())]
    tally = None if name == "ls" else complexity_formula(name, system)
    iterations = est.iterations.tolist()
    # per-row values as Python scalars, as the CSV and JSON writers take them
    columns.update(
        trial_index=trials,
        iterations=iterations,
        converged=est.converged.tolist(),
        analytic_ops=[
            None if tally is None or f else tally.total(i) for i, f in zip(iterations, failed)
        ],
        empirical_ops=est.op_count.tolist(),
        failure_flag=flagged.tolist(),
        channel_hash=hashes,
    )
    shared = dict(snr_db=snr_db, estimator_name=name, wall_time_seconds=wall)
    return [TrialRecord(**shared, **dict(zip(columns, row))) for row in zip(*columns.values())]


def _trial_streams(cfg, snr_index, trial_index):
    # children 0 and 1 of SeedSequence([master_seed, snr_index, trial_index]),
    # built by their spawn keys: the channel stream and the noise stream
    entropy = [cfg.master_seed, snr_index, trial_index]
    return tuple(np.random.SeedSequence(entropy, spawn_key=(i,)) for i in range(2))


def _init_rng(cfg, snr_index, trial_index, name):
    seq = np.random.SeedSequence(
        [cfg.estimator.init_seed, snr_index, trial_index, _INIT_ORDINAL[name]]
    )
    return np.random.default_rng(seq)


def _snr_setup(cfg, snr_index):
    """Per-SNR-point work shared by all its trials: system, schedules, LS solver."""
    system = dataclasses.replace(cfg.system, snr_db=cfg.snr_grid_db[snr_index])
    modes = {_SCHEDULE_OF[name] for name in cfg.estimators_enabled}
    schedules = {mode: make_schedule(system, mode) for mode in sorted(modes)}
    ls_solver = None
    if "ls" in cfg.estimators_enabled:
        sched = schedules[_SCHEDULE_OF["ls"]]
        ls_solver = StackedLsSolver(sched, system.m_ap, cfg.estimator.pinv_tol)
    return system, schedules, ls_solver


def run_trial(cfg, snr_index, trial_index, details=False):
    """Run every enabled estimator on one shared (channel, noise) realization."""
    system, schedules, ls_solver = _snr_setup(cfg, snr_index)
    records, estimates, [channels] = _run_group(
        cfg, system, schedules, ls_solver, snr_index, [trial_index]
    )
    if details:
        return records, {name: est.row(0) for name, est in estimates.items()}, channels
    return records


def _run_group(cfg, system, schedules, ls_solver, snr_index, trials):
    """Every enabled estimator on a group: records, {name: stacked estimate}, channel sets.

    Each trial draws its channels with its own draw_channels call, from
    its own channel stream.  The group's channels are then stacked, and
    each schedule's frames are built in one synthesize call from every
    trial's noise, so a trial's row is the one it gets alone.  Each
    estimator takes its schedule's stack unchanged and solves it in one
    call, whose estimate's rows equal the per-trial estimates bit for bit,
    and whose wall time is split evenly over the group's records.  The last
    argument is all that differs: ls gets the cached solver, the ALS
    estimators their generators.  The truth's score terms are formed once
    from the stacked channels, and each estimator's estimate is scored
    against them in one stacked pass (_score_group) whose rows are each the
    score the trial gets alone.
    """
    snr_db = cfg.snr_grid_db[snr_index]
    names = cfg.estimators_enabled
    streams = [_trial_streams(cfg, snr_index, trial) for trial in trials]
    dims = (system.m_ap, system.k_users, system.n_ris)
    # draw_channels, synthesize and the estimators are looked up at call
    # time, so a rebound module name is the one called (perfbench/spans.py
    # wraps them there and counts one draw_channels call per trial)
    trial_channels = []
    for channel_ss, _ in streams:
        geometry_rng = None
        if cfg.fixed_geometry:
            # a fresh generator on the shared stream: every trial, the same angles
            geometry_rng = np.random.default_rng(
                np.random.SeedSequence([cfg.master_seed, _GEOMETRY_TAG])
            )
        trial_channels.append(
            draw_channels(cfg.channel, dims, np.random.default_rng(channel_ss), geometry_rng)
        )
    channels = ChannelSet(*(
        np.stack([getattr(c, name) for c in trial_channels]) for name in ("h_ua", "h_ra", "h_ur")
    ))
    truth = _truth_terms(channels)
    # one noise draw per trial and training length T, from the trial's noise
    # stream: schedules of equal T (the stock config) see the identical noise,
    # which is what makes the comparison paired
    noise, received = {}, {}
    for mode, sched in schedules.items():
        t = system.training_len(mode)
        if t not in noise:
            noise[t] = draw_noise([np.random.default_rng(ss) for _, ss in streams], system, t)
        received[mode] = synthesize(channels, sched, system, noise[t])
    del noise, channels
    hashes = [_channel_hash(c, received, row) for row, c in enumerate(trial_channels)]
    records, estimates = [], {}
    for i, name in enumerate(names):
        if name == "ls":
            estimator, last = ls_baseline, ls_solver
        else:
            estimator = two_stage_estimate if name == "two_stage" else e_als_estimate
            last = [_init_rng(cfg, snr_index, trial, name) for trial in trials]
        mode = _SCHEDULE_OF[name]
        start = time.perf_counter()
        est = estimator(received[mode], schedules[mode], cfg.estimator, last)
        wall = (time.perf_counter() - start) / len(trials)
        records += _score_group(name, est, truth, system, snr_db, trials, wall, hashes)
        estimates[name] = est
        # a schedule's frames go once the last estimator that reads them is done
        if mode not in {_SCHEDULE_OF[later] for later in names[i + 1:]}:
            del received[mode]
    return records, estimates, trial_channels


def _run_chunk(cfg, snr_index, start, stop):
    system, schedules, ls_solver = _snr_setup(cfg, snr_index)
    # the fewest groups of at most GROUP_SIZE, balanced: 100 trials run as
    # 4 groups of 25, not 3 x 32 and a straggler group of 4
    count = stop - start
    groups = math.ceil(count / GROUP_SIZE)
    records = []
    for g in range(groups):
        group = range(start + count * g // groups, start + count * (g + 1) // groups)
        records += _run_group(cfg, system, schedules, ls_solver, snr_index, group)[0]
    return records


def _usable_cpus():
    # the CPUs this process may run on, which an affinity mask can narrow
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(cfg):
    """All (snr, trial) pairs for every enabled estimator, sorted deterministically."""
    # no more workers than usable CPUs, capped before chunking so that chunks
    # stay as large as they can: one chunk per SNR point per worker, so each
    # chunk's set-up is shared by as many trials as possible
    workers = min(cfg.workers, _usable_cpus())
    chunk = math.ceil(cfg.trials / workers)
    tasks = [
        (snr_index, start, min(start + chunk, cfg.trials))
        for snr_index in range(len(cfg.snr_grid_db))
        for start in range(0, cfg.trials, chunk)
    ]
    # a forked pool starts every worker at its first submit: none beyond the chunks
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # a serial run imports no pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, cfg, *task) for task in tasks]
            records = [record for future in futures for record in future.result()]
    else:
        records = [record for task in tasks for record in _run_chunk(cfg, *task)]
    records.sort(key=lambda r: (r.snr_db, r.trial_index, r.estimator_name))
    return records


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _median(values):
    values = sorted(v for v in values if v is not None)
    if not values:
        return None
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def aggregate_records(records):
    """Per-(estimator, snr) summary; failed trials are excluded and counted.

    Besides the NMSE and cost means, each entry counts the non-failed trials
    that hit the sweep cap unconverged and gives the largest sweep count.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec.estimator_name, rec.snr_db), []).append(rec)
    summary = []
    for (name, snr_db), recs in sorted(groups.items()):
        ok = [r for r in recs if not r.failure_flag]
        summary.append(
            {
                "estimator": name,
                "snr_db": snr_db,
                "trials": len(recs),
                "failures": len(recs) - len(ok),
                "mean_nmse_aggregate": _mean([r.nmse_aggregate for r in ok]),
                "median_nmse_aggregate": _median([r.nmse_aggregate for r in ok]),
                "mean_iterations": _mean([r.iterations for r in ok]),
                "max_iterations": max(
                    (r.iterations for r in ok if r.iterations is not None), default=None
                ),
                # stopped at the sweep cap rather than by the change threshold
                "nonconverged": sum(1 for r in ok if r.converged is False),
                "mean_wall_time_seconds": _mean([r.wall_time_seconds for r in ok]),
                "mean_analytic_ops": _mean([r.analytic_ops for r in ok]),
            }
        )
    return summary


def _csv_cell(column, value):
    if value is None:
        return ""
    if column in _FLOAT_COLUMNS:
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_record(rec):
    # JSON has no NaN or Infinity: a failed record's non-finite score is null
    row = {col: getattr(rec, col) for col in CSV_COLUMNS}
    if rec.failure_flag:   # only a failed record can hold one
        row.update((col, None) for col in _FLOAT_COLUMNS if not math.isfinite(row[col] or 0))
    return row


def emit_results(records, path, fmt, config, aggregates):
    """Write records to path as CSV rows or a JSON document with config and aggregates."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow(
                    [_csv_cell(col, getattr(rec, col)) for col in CSV_COLUMNS]
                )
    elif fmt == "json":
        document = {
            "config": dataclasses.asdict(config),
            # asdict's deep copy of each record's scalar fields is wasted work
            "records": [_json_record(rec) for rec in records],
            "aggregates": aggregates,
        }
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
