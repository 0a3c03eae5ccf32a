"""Fast self-test of the benchmark at tiny dimensions (a few seconds).

    python3 -m pytest perfbench/test_selftest.py -q
"""

import json
import math
import sys
import time

import pytest

import checks
import run
import spans

TINY = dict(
    snr=(0, 20),
    trials=4,
    estimators=("two_stage", "e_als", "ls"),
    workers=1,
    fmt="csv",
    system=dict(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2),
    channel=dict(ris_rows=2, ris_cols=2),
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(run.WORKLOADS, "tiny_json", dict(TINY, fmt="json"))
    monkeypatch.setitem(run.WORKLOADS, "tiny_parallel", dict(TINY, workers=2, serial="tiny"))


def _declared(kind):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize(
    "trace, kind, workload",
    [(0, "end_to_end", "tiny"), (1, "per_layer", "tiny_json"), (1, "per_layer", "tiny_parallel")],
)
def test_every_metric_printed_with_its_unit(tiny, capsys, trace, kind, workload):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 4 * 2 * 3
    declared = _declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines)
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        # channels are drawn only inside chunks, which run in pool workers
        # at workers=2: these counts prove the worker spans were collected
        assert result["metrics"]["channels.draw_calls"]["value"] == 4 * 2
        assert result["metrics"]["estimators.ls_setup_calls"]["value"] > 0


def _tiny_records(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    w = run.Workload(TINY, 5, work, time.monotonic() + 60)
    return w.call(traced=False)["records"]


def test_check_trips_on_corrupted_record(tiny, tmp_path):
    records = _tiny_records(tmp_path)
    checks.check_records(records, 4, TINY["snr"], TINY["estimators"])

    corrupted = [dict(r) for r in records]
    victim = next(r for r in corrupted if not r["failure_flag"])
    victim["nmse_aggregate"] = float("nan")
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_records(corrupted, 4, TINY["snr"], TINY["estimators"])
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_records(records[1:], 4, TINY["snr"], TINY["estimators"])

    changed = [dict(r) for r in records]
    changed[0]["iterations"] = (changed[0]["iterations"] or 0) + 1
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_same(changed, records, "the reference")
    retimed = [dict(r, wall_time_seconds=1.0) for r in records]
    checks.check_same(retimed, records, "the reference")

    means = checks.mean_nmse(records)
    reference = {checks.reference_key(*k): v for k, v in means.items()}
    checks.check_reference(means, reference)
    key = next(iter(reference))
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_reference(means, dict(reference, **{key: reference[key] * 1.01}))

    swapped = {k: (means[("e_als", k[1])] * 2 if k[0] == "e_als" else v) for k, v in means.items()}
    swapped.update({("ls", s): 1.0 for s in (0.0, 20.0)})
    with pytest.raises(checks.CheckFailed, match="ordering"):
        checks.check_ordering(swapped, TINY["snr"])


def test_wrappers_removed_after_traced_run(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import ristensor.cli

    modules = {name: sys.modules[name] for name in {t[0] for t in spans.TARGETS}}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in spans.TARGETS}
    config = tmp_path / "tiny.yaml"
    config.write_text(run.config_text(TINY, 7).replace("output: out.csv", f"output: {tmp_path / 'o.csv'}"))

    recorder = spans.Recorder(str(tmp_path))
    recorder.install(modules)
    assert not spans.wrappers_removed(modules, originals)
    try:
        with recorder.span("cli.main"):
            assert ristensor.cli.main(["run", "--config", str(config)]) == 0
    finally:
        recorder.uninstall()
    assert spans.wrappers_removed(modules, originals)
    names = {s[0] for s in recorder.spans}
    assert {"cli.main", "harness.run_experiment", "estimators.ls_setup", "tensor_ops.pinv"} <= names
    own = spans.self_times(recorder.spans)
    assert all(t >= -1e-6 for t in own)
    root = recorder.spans[0]
    assert root[0] == "cli.main" and abs(sum(own) - (root[3] - root[2])) < 1e-6
