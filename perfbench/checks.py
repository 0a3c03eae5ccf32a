"""Correctness checks on the records one CLI call wrote; any violation raises CheckFailed."""

import csv
import json
import math

NMSE_FIELDS = ("nmse_aggregate", "nmse_h_ua", "nmse_h_ur", "nmse_h_ra", "nmse_cascade")
_INT_FIELDS = ("trial_index", "iterations", "analytic_ops", "empirical_ops")
_FLOAT_FIELDS = ("snr_db", "wall_time_seconds") + NMSE_FIELDS
_BOOL_FIELDS = ("converged", "failure_flag")

# Relative tolerance on each per-(estimator, SNR) mean NMSE against the
# recorded reference. A solve by normal equations (Gram matrices) instead of
# SVD moves these means by far less than 1e-6 on the benchmark's well
# conditioned DFT schedules; a wrong answer moves them by percent or more.
REFERENCE_RTOL = 1e-3


class CheckFailed(Exception):
    """The program's output violates a correctness condition of the benchmark."""


def read_records(path, fmt):
    """Records as dicts with typed values; an empty CSV cell reads as None."""
    if fmt == "json":
        with open(path) as fh:
            return json.load(fh)["records"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, text in row.items():
            if text == "":
                row[key] = None
            elif key in _INT_FIELDS:
                row[key] = int(text)
            elif key in _FLOAT_FIELDS:
                row[key] = float(text)
            elif key in _BOOL_FIELDS:
                row[key] = text == "true"
    return rows


def without_wall_time(records):
    return [{k: v for k, v in r.items() if k != "wall_time_seconds"} for r in records]


def check_records(records, trials, snr_grid, estimators):
    expected = trials * len(snr_grid) * len(estimators)
    if len(records) != expected:
        raise CheckFailed(
            f"{len(records)} records, expected {trials} trials x {len(snr_grid)} SNR points"
            f" x {len(estimators)} estimators = {expected}"
        )
    for r in records:
        if r["failure_flag"]:
            continue
        for field in NMSE_FIELDS:
            value = r[field]
            if value is not None and not math.isfinite(value):
                raise CheckFailed(
                    f"non-finite {field}={value} for {r['estimator_name']} at"
                    f" {r['snr_db']} dB, trial {r['trial_index']}"
                )
        if r["nmse_aggregate"] is None:
            raise CheckFailed(f"missing nmse_aggregate in a non-failed record: {r}")


def check_same(records, reference, what):
    """Equality of every column except wall_time_seconds."""
    if without_wall_time(records) != without_wall_time(reference):
        raise CheckFailed(f"records differ from {what} outside wall_time_seconds")


def mean_nmse(records):
    """Mean aggregate NMSE per (estimator, snr_db) over non-failed records."""
    sums = {}
    for r in records:
        if not r["failure_flag"]:
            total, count = sums.get((r["estimator_name"], r["snr_db"]), (0.0, 0))
            sums[(r["estimator_name"], r["snr_db"])] = (total + r["nmse_aggregate"], count + 1)
    return {key: total / count for key, (total, count) in sums.items()}


def check_ordering(means, snr_grid):
    """The paper's ordering of the three estimators: e_als <= ls <= two_stage."""
    for snr in snr_grid:
        e_als, ls, two = (means[(name, float(snr))] for name in ("e_als", "ls", "two_stage"))
        if not e_als <= ls <= two:
            raise CheckFailed(
                f"ordering e_als <= ls <= two_stage broken at {snr} dB:"
                f" {e_als:.4e}, {ls:.4e}, {two:.4e}"
            )


def reference_key(name, snr):
    return f"{name}@{float(snr):g}"


def check_reference(means, reference):
    """Each recorded (estimator, SNR) mean within REFERENCE_RTOL of the reference."""
    if set(reference) != {reference_key(*key) for key in means}:
        raise CheckFailed(f"reference covers {sorted(reference)}, run has {sorted(means)}")
    for key, value in means.items():
        expected = reference[reference_key(*key)]
        if abs(value - expected) > REFERENCE_RTOL * abs(expected):
            raise CheckFailed(
                f"mean NMSE of {key[0]} at {key[1]:g} dB is {value:.10e},"
                f" reference {expected:.10e} (rtol {REFERENCE_RTOL:g})"
            )
