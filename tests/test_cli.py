"""CLI subcommands: run, demo, complexity."""

import csv
import dataclasses
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ristensor.cli
import ristensor.harness
from ristensor.cli import _parse_snr_list, _parse_snr_range, main
from ristensor.harness import ConfigError, TrialRecord, load_config


TINY_YAML = (
    "system:\n"
    "  m_ap: 2\n"
    "  k_users: 2\n"
    "  n_ris: 4\n"
    "  pilot_len: 2\n"
    "  off_stage_len: 2\n"
    "channel:\n"
    "  ris_rows: 2\n"
    "  ris_cols: 2\n"
    "snr_grid_db: [10]\n"
    "trials: 1\n"
    "master_seed: 3\n"
)


@pytest.fixture
def tiny_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return path


def test_parse_snr_range_inclusive():
    assert _parse_snr_range("0:30:10") == (0.0, 10.0, 20.0, 30.0)
    assert _parse_snr_range("5:5:1") == (5.0,)


def test_parse_snr_range_rejects_malformed():
    with pytest.raises(Exception, match="a:b:step"):
        _parse_snr_range("0:30")
    with pytest.raises(Exception, match="positive"):
        _parse_snr_range("0:30:0")


@pytest.mark.parametrize("spec", ["0:inf:5", "-inf:0:5", "nan:10:5", "0:nan:5", "0:10:inf"])
def test_run_non_finite_snr_range_exits_2(tiny_yaml, spec, capsys):
    # an infinite stop or start would grow the grid without end, and a NaN
    # one would give an empty grid
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tiny_yaml), f"--snr={spec}"])
    assert exc.value.code == 2
    assert "--snr start, stop and step must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["10:0:5", "0:-1:0.5"])
def test_run_snr_range_with_no_points_exits_2(tiny_yaml, spec, capsys):
    # a start above the stop gives no point; the config's own grid must not
    # run in its place
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tiny_yaml), f"--snr={spec}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--snr range has no points" in captured.err and not captured.out


@pytest.fixture
def one_second_limit():
    # a grid that grows without end fails the test within a second instead
    # of hanging it
    def expire(signum, frame):
        raise TimeoutError("--snr parsing did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("spec", ["1e20:2e20:5", "0:1e9:1e-3"])
def test_run_snr_range_of_too_many_points_exits_2(tiny_yaml, spec, capsys, one_second_limit):
    # 1e20 + 5 == 1e20 would never advance an accumulated value, and the
    # second range asks for 1e12 points
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tiny_yaml), f"--snr={spec}"])
    assert exc.value.code == 2
    assert "--snr gives more than 10000 points" in capsys.readouterr().err


def test_parse_snr_list():
    assert _parse_snr_list("0,7.5,30") == (0.0, 7.5, 30.0)
    with pytest.raises(Exception):
        _parse_snr_list("0,ten")


def test_run_writes_csv_and_prints_table(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(["run", "--config", str(tiny_yaml), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean aggregate NMSE" in stdout
    assert "10 dB" in stdout
    assert f"wrote 3 records to {out}" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 4


def test_run_snr_list_override(tiny_yaml, tmp_path):
    out = tmp_path / "results.csv"
    code = main(
        ["run", "--config", str(tiny_yaml), "--snr-list", "0,20", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({row["snr_db"] for row in rows}) == ["0", "20"]
    assert len(rows) == 6


def test_run_negative_snr_list_joined_with_equals(tiny_yaml, tmp_path):
    # argparse takes the -5,0 of "--snr-list -5,0" for an option; "=" joins it
    out = tmp_path / "results.csv"
    code = main(["run", "--config", str(tiny_yaml), "--snr-list=-5,0", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({float(row["snr_db"]) for row in rows}) == [-5.0, 0.0]
    assert len(rows) == 6


def test_run_estimator_subset(tiny_yaml, tmp_path):
    out = tmp_path / "results.csv"
    code = main(
        ["run", "--config", str(tiny_yaml), "--estimators", "ls", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["estimator_name"] for row in rows] == ["ls"]


def test_run_seed_override_changes_the_channels(tiny_yaml, tmp_path):
    # --seed replaces the config's master_seed (3), which draws every
    # trial's channels and frames, so their hash follows it
    hashes = {}
    for seed in (None, "3", "4"):
        out = tmp_path / f"results-{seed}.csv"
        extra = [] if seed is None else ["--seed", seed]
        assert main(["run", "--config", str(tiny_yaml), "--out", str(out), *extra]) == 0
        with open(out, newline="") as fh:
            hashes[seed] = {row["channel_hash"] for row in csv.DictReader(fh)}
    assert len(hashes[None]) == 1
    assert hashes["3"] == hashes[None] != hashes["4"]


def test_run_json_format_writes_readable_records(tiny_yaml, tmp_path):
    out = tmp_path / "results.out"
    code = main(["run", "--config", str(tiny_yaml), "--format", "json", "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["config"]["output_format"] == "json"
    records = [TrialRecord(**rec) for rec in document["records"]]
    assert sorted(r.estimator_name for r in records) == ["e_als", "ls", "two_stage"]
    assert [r.channel_hash for r in records] == [r["channel_hash"] for r in document["records"]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_aggregates_once(tiny_yaml, tmp_path, monkeypatch, fmt):
    # the table and the JSON document share one aggregation of the run's records
    calls = []
    aggregate_records = ristensor.harness.aggregate_records

    def counted(records):
        calls.append(len(records))
        return aggregate_records(records)

    monkeypatch.setattr(ristensor.harness, "aggregate_records", counted)
    monkeypatch.setattr(ristensor.cli, "aggregate_records", counted)
    out = tmp_path / f"results.{fmt}"
    assert main(["run", "--config", str(tiny_yaml), "--format", fmt, "--out", str(out)]) == 0
    assert calls == [3]


def test_run_missing_config_exits_2(capsys, tmp_path):
    code = main(["run", "--config", str(tmp_path / "missing.yaml")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("system:\n  n_ris: 0\n")
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "n_ris" in capsys.readouterr().err


@pytest.mark.parametrize(
    "channel",
    [
        "{ref_loss_db: -4000, normalize_to_direct: false}",   # every gain underflows to 0
        "{ref_loss_db: -4000}",   # 0 / 0 when normalized to the direct link
        "{ref_loss_db: 4000}",    # inf / inf
    ],
)
def test_run_link_gain_out_of_range_exits_2(tmp_path, capsys, channel):
    # refused before any simulation, not after every trial has run
    path = tmp_path / "bad.yaml"
    path.write_text(f"trials: 2\nsnr_grid_db: [10]\nchannel: {channel}\n")
    code = main(["run", "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "section 'channel': link 'ua' has gain" in captured.err and not captured.out


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize(
    "ref_loss_db, failures",
    [
        (-2000, 4),   # the cascade underflows: its reference has zero norm
        (3000, 6),    # the RIS links overflow every estimator's fit or score
    ],
)
def test_run_with_a_vanishing_or_overflowing_ris_path_completes(tmp_path, capsys, ref_loss_db, failures):
    # gains that pass the channel check but take a score's reference to 0,
    # or a fit to inf, fail those records, silently: the run completes and
    # its table counts them
    path = tmp_path / "gains.yaml"
    path.write_text(
        "trials: 2\nsnr_grid_db: [10]\n"
        f"channel: {{normalize_to_direct: false, ref_loss_db: {ref_loss_db}}}\n"
    )
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert f"failures excluded from means: {failures}\n" in capsys.readouterr().out
    rows = _csv_rows(out)
    assert sum(row["failure_flag"] == "true" for row in rows) == failures
    assert all(row["failure_flag"] == "true" for row in rows if row["estimator_name"] != "ls")
    # a failed record carries no scores, whether its estimator or its scorer failed it
    nmse_columns = [column for column in rows[0] if column.startswith("nmse_")]
    assert len(nmse_columns) == 5
    assert all(row[column] == "" for row in rows if row["failure_flag"] == "true" for column in nmse_columns)


def test_run_at_a_subnormal_pilot_power_fails_its_records_silently(tmp_path):
    # -3100 dB leaves a pilot power of 1e-310: the fits overflow to inf or
    # NaN without a warning, every record of that point fails, and the other
    # point's records are those of a run without it
    path = tmp_path / "stock.yaml"
    path.write_text("master_seed: 3\n")
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    base = ["run", "--config", str(path), "--trials", "2"]
    assert main([*base, "--snr-list=0,-3100", "--out", str(both)]) == 0
    assert main([*base, "--snr-list=0", "--out", str(alone)]) == 0
    rows = _csv_rows(both)
    assert len(rows) == 2 * 2 * 3
    assert all(row["failure_flag"] == "true" for row in rows if row["snr_db"] == "-3100")

    def without_wall_time(rows):
        return [{k: v for k, v in row.items() if k != "wall_time_seconds"} for row in rows]

    zero_db = [row for row in rows if row["snr_db"] == "0"]
    assert without_wall_time(zero_db) == without_wall_time(_csv_rows(alone))


@pytest.mark.parametrize(
    "text, field",
    [("fixed_geometry: \"false\"\n", "fixed_geometry"),
     ("channel:\n  normalize_to_direct: \"no\"\n", "normalize_to_direct")],
)
def test_run_quoted_bool_exits_2(tmp_path, capsys, text, field):
    # a quoted "false" is a truthy string, not false
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert f"{field} must be true or false" in capsys.readouterr().err


def test_run_prints_sweep_statistics(tiny_yaml, capsys):
    assert main(["run", "--config", str(tiny_yaml)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.index("mean iterations") < stdout.index("max iterations")
    assert stdout.index("max iterations") < stdout.index("non-converged trials")


def test_run_non_integer_trials_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("trials: 2.5\n")
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "error: trials must be an integer" in capsys.readouterr().err


def test_run_null_snr_grid_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("snr_grid_db: [null]\n")
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "error: snr_grid_db must be" in capsys.readouterr().err


def test_run_non_string_output_exits_2(tmp_path, capsys):
    # an integer output path would otherwise be opened as a file descriptor
    path = tmp_path / "bad.yaml"
    path.write_text(TINY_YAML + "output: 1\n")
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "error: output_path must be a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "arg, message",
    [
        ("--estimators=", "estimators_enabled must not be empty"),
        ("--out=", "output_path must not be empty"),
        # 9-decimal rounding gives 0.0 five times, then 1e-09
        ("--snr=0:1e-9:1e-10", "snr_grid_db repeats 0.0"),
        ("--estimators=e_als,e_als", "estimators_enabled repeats 'e_als'"),
        ("--snr-list=10,10", "snr_grid_db repeats 10.0"),
    ],
)
def test_run_empty_or_repeating_override_exits_2(tiny_yaml, capsys, arg, message):
    # an empty override is not ignored in favour of the config's value
    code = main(["run", "--config", str(tiny_yaml), arg])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("arg", ["--snr-list=4000", "--snr-list=10,3083", "--snr=4000:4010:10"])
def test_run_snr_point_overflowing_the_pilot_power_exits_2(tiny_yaml, capsys, arg):
    # 10 ** (snr_db / 10) overflows a float above about 3082.5 dB
    code = main(["run", "--config", str(tiny_yaml), arg])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: snr_grid_db point " in captured.err
    assert "dB overflows the pilot power" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_yaml_snr_point_overflowing_the_pilot_power_exits_2(tmp_path, capsys):
    path = tmp_path / "overflow.yaml"
    path.write_text(TINY_YAML.replace("snr_grid_db: [10]", "snr_grid_db: [10, 4000]"))
    with pytest.raises(ConfigError, match=r"snr_grid_db point 4000\.0 dB overflows"):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert "error: snr_grid_db point 4000.0 dB overflows the pilot power" in capsys.readouterr().err
    # the largest point whose power is a finite float still loads
    path.write_text(TINY_YAML.replace("snr_grid_db: [10]", "snr_grid_db: [3082]"))
    assert load_config(path).snr_grid_db == (3082.0,)


@pytest.mark.parametrize("arg", ["--snr-list=0,-4000", "--snr=-4000:-3990:10"])
def test_run_snr_point_underflowing_the_pilot_power_exits_2(tiny_yaml, capsys, arg):
    # 10 ** (snr_db / 10) underflows to 0 below about -3240 dB: zero pilots,
    # which no estimator can invert, are rejected before any point runs
    code = main(["run", "--config", str(tiny_yaml), arg])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: snr_grid_db point -4000.0 dB underflows the pilot power to 0" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_yaml_snr_point_underflowing_the_pilot_power_exits_2(tmp_path, capsys):
    path = tmp_path / "underflow.yaml"
    path.write_text(TINY_YAML.replace("snr_grid_db: [10]", "snr_grid_db: [0, -4000]"))
    with pytest.raises(ConfigError, match=r"snr_grid_db point -4000\.0 dB underflows"):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert "error: snr_grid_db point -4000.0 dB underflows" in capsys.readouterr().err
    # a point whose power is a tiny but normal float (1e-300) still loads
    path.write_text(TINY_YAML.replace("snr_grid_db: [10]", "snr_grid_db: [-3000]"))
    assert load_config(path).snr_grid_db == (-3000.0,)


def test_run_repeated_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(TINY_YAML + "estimators: [ls]\nestimators_enabled: [e_als]\n")
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "'estimators' and 'estimators_enabled' both set" in capsys.readouterr().err


def test_run_directory_out_exits_2(tiny_yaml, tmp_path, capsys):
    code = main(["run", "--config", str(tiny_yaml), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["run", "complexity"])
def test_ris_size_off_its_grid_exits_2(tmp_path, command, capsys):
    # n_ris = 4 on the stock 5 x 5 grid is rejected when the config loads
    path = tmp_path / "mismatch.yaml"
    path.write_text(TINY_YAML.replace("  ris_rows: 2\n", ""))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "system.n_ris = 4 does not match the RIS grid (5, 2)" in captured.err
    assert captured.out == ""


def test_complexity_prints_counts(tmp_path, capsys):
    path = tmp_path / "defaults.yaml"
    path.write_text("")  # empty config: the stock 4x8x25 scenario
    code = main(["complexity", "--config", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "two_stage (B = 25, T = 208)" in out
    assert "e_als (B = 26, T = 208)" in out
    assert "256" in out
    assert "1,165,625" in out
    assert "82,025" in out
    assert "1,247,650" in out
    assert "1,724,481" in out
    assert "382,745" in out
    assert "2,107,226" in out


def test_demo_smoke(capsys):
    code = main(["demo", "--trials", "1", "--workers", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "default scenario" in out
    assert "mean aggregate NMSE" in out
    assert "e_als" in out and "two_stage" in out and "ls" in out


def test_table_counts_failures_excluded_from_means(tiny_yaml, monkeypatch, capsys):
    synthesize = ristensor.harness.synthesize

    def nan_frame(*args, **kwargs):
        # one NaN in every trial's frame of the group's (G, M, L, B) stack
        recv = synthesize(*args, **kwargs)
        tensor = recv.tensor.copy()
        tensor[:, 0, 0, 0] = np.nan
        return dataclasses.replace(recv, tensor=tensor)

    monkeypatch.setattr(ristensor.harness, "synthesize", nan_frame)
    assert main(["run", "--config", str(tiny_yaml)]) == 0
    # one trial at one SNR point, failed by each of the three estimators
    assert "failures excluded from means: 3\n" in capsys.readouterr().out


def test_demo_runs_without_scipy(tmp_path):
    # the package depends on numpy and pyyaml alone (pyproject.toml)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import ristensor.cli\n"
        "raise SystemExit(ristensor.cli.main(['demo', '--trials', '1']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mean aggregate NMSE" in proc.stdout


def test_serial_demo_imports_no_process_pool(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import ristensor.cli\n"
        "assert ristensor.cli.main(['demo', '--trials', '1']) == 0\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_module_entry_point(tiny_yaml):
    proc = subprocess.run(
        [sys.executable, "-m", "ristensor", "complexity", "--config", str(tiny_yaml)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "two_stage" in proc.stdout


def test_a_huge_sweep_cap_costs_only_the_sweeps_run(tmp_path):
    # the residual trace grows with the sweeps run, not with max_iters: a
    # stock e_als run at 30 dB converges in a few sweeps, so a cap of 10^9
    # sweeps fits in a 3 GB address space (a trace sized by the cap would
    # ask for 14.9 GiB); the limit is set in the child alone
    limit = 3 * 2**30
    config = tmp_path / "cap.yaml"
    config.write_text(
        "estimator: {max_iters: 1000000000}\n"
        "estimators: [e_als]\n"
        "snr_grid_db: [30]\n"
        "trials: 2\n"
        "output: out.csv\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ristensor", "run", "--config", str(config)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(row["converged"] == "true" and row["failure_flag"] == "false" for row in rows)
