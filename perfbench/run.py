"""Benchmark of the ristensor CLI on one named workload.

    python3 perfbench/run.py --workload stock_sweep --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`. Each CLI call runs in a fresh interpreter (child.py) through
`ristensor.cli.main`, with a generated YAML config whose `master_seed` is
`--seed`. Calls repeat one after another (a closed loop, one client) until
`--seconds` have passed. Every call's records are checked (checks.py); a
failed check exits 1 and prints no result.

`--trace 0` prints the end-to-end metrics. `--trace 1` traces the calls
(spans.py) and prints the per-layer metrics, the self time per layer, and
the tracing overhead against untraced calls interleaved with the traced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0

_STOCK = dict(snr=(0, 10, 20, 30), trials=50, estimators=("two_stage", "e_als", "ls"))

# Why each workload: see also `why` in BENCHMARK.json. 50 and 100 trials give
# every estimator 200 calls per CLI call, so a traced call alone puts twenty
# samples beyond the p90, and keep the seed-to-seed spread of the NMSE
# metrics near 5%.
WORKLOADS = {
    # The paper's headline experiment. The LS set-up (an 832x832 SVD rebuilt
    # once per SNR point and chunk, 16 times a call) takes most of the time,
    # so a change to the LS baseline or the setup path shows here.
    "stock_sweep": dict(_STOCK, workers=1, fmt="csv", ordering=True),
    # Low SNR with the ALS estimators only: sweeps run at their highest
    # counts and LS never runs, so an ALS change shows here and an LS change
    # should show no change.
    "als_low_snr": dict(
        snr=(-5, 0), trials=100, estimators=("two_stage", "e_als"), workers=1, fmt="json"
    ),
    # stock_sweep at workers=2: the process pool, twice the per-chunk LS
    # set-ups, and the multi-threaded BLAS forked workers inherit. Its
    # pairs_per_s over stock_sweep's is the scaling efficiency. Not in
    # BENCHMARK.json: one call takes 50-135 s here and varies too much from
    # call to call to fit any bound; run it by hand to diagnose.
    "stock_parallel": dict(_STOCK, workers=2, fmt="csv", ordering=True, serial="stock_sweep"),
}

END_TO_END_UNITS = {
    "pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nmse_two_stage": "ratio",
    "nmse_e_als": "ratio",
    "ok_frac": "ratio",
}

ESTIMATOR_SPANS = ("estimators.two_stage", "estimators.e_als", "estimators.ls", "estimators.ls_setup")
SCORE_SPANS = (
    "metrics.resolve_scaling",
    "metrics.nmse",
    "metrics.aggregate_vector_nmse",
    "metrics.complexity_formula",
)
LAYERS = ("cli", "harness", "channels", "signals", "estimators", "tensor_ops", "metrics")


class BenchError(Exception):
    """The benchmark could not run the program to completion."""


def config_text(spec, seed, workers=None):
    fmt = spec["fmt"]
    lines = [
        f"snr_grid_db: [{', '.join(str(float(s)) for s in spec['snr'])}]",
        f"trials: {spec['trials']}",
        f"master_seed: {seed}",
        f"estimators: [{', '.join(spec['estimators'])}]",
        f"workers: {spec['workers'] if workers is None else workers}",
        f"output: out.{fmt}",
        f"format: {fmt}",
    ]
    for section in ("system", "channel"):
        if section in spec:
            items = ", ".join(f"{k}: {v}" for k, v in spec[section].items())
            lines.append(f"{section}: {{{items}}}")
    return "\n".join(lines) + "\n"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _stop_group(pgid):
    """Kill whatever is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(args, cwd, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {args[0]} before the {RUN_DEADLINE_S:g} s deadline")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        raise BenchError(f"child {args[0]} still running at the {RUN_DEADLINE_S:g} s deadline")
    finally:
        _stop_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    with open(Path(cwd) / args[2]) as fh:
        result = json.load(fh)
    result["stdout"] = out
    return result


class Workload:
    """One benchmark run: a config, its work directory and the calls made."""

    def __init__(self, spec, seed, work, deadline):
        self.spec, self.seed = spec, seed
        self.work, self.deadline = work, deadline
        self.config = config_text(spec, seed)
        (work / "config.yaml").write_text(self.config)
        self.first_records = None
        self.calls = 0

    def setup(self, sample):
        return run_child(["setup", "config.yaml", f"setup-{sample}.json"], self.work, self.deadline)

    def call(self, traced):
        """One CLI call; returns the child's result with the checked records."""
        self.calls += 1
        args = ["run", "config.yaml", f"call-{self.calls}.json"]
        span_dir = None
        if traced:
            span_dir = self.work / f"spans-{self.calls}"
            span_dir.mkdir()
            args.append(str(span_dir))
        result = run_child(args, self.work, self.deadline)
        if traced and not result["wrappers_removed"]:
            raise BenchError("tracing wrappers were still installed after the call")
        spec = self.spec
        records = checks.read_records(self.work / f"out.{spec['fmt']}", spec["fmt"])
        checks.check_records(records, spec["trials"], spec["snr"], spec["estimators"])
        if self.first_records is None:
            self.first_records = records
        else:
            checks.check_same(records, self.first_records, "the first call of this run")
        result["records"] = records
        if span_dir is not None:
            result["worker_spans"] = [
                json.loads(line)
                for path in sorted(span_dir.glob("worker-*.jsonl"))
                for line in path.read_text().splitlines()
            ]
        return result

    def check_against_serial(self):
        """Records of a workers=1 call of the same config, as criterion 9 compares them."""
        serial_dir = self.work / "serial"
        serial_dir.mkdir()
        (serial_dir / "config.yaml").write_text(config_text(self.spec, self.seed, workers=1))
        run_child(["run", "config.yaml", "call.json"], serial_dir, self.deadline)
        fmt = self.spec["fmt"]
        serial = checks.read_records(serial_dir / f"out.{fmt}", fmt)
        checks.check_same(self.first_records, serial, f"the same config at workers=1 ({self.spec['serial']})")


def load_reference(name, seed):
    data = json.loads((HERE / "reference.json").read_text())
    return data.get(name, {}).get(str(seed))


def _median(values):
    return statistics.median(values) if values else 0.0


def _pct(values, q):
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(spec, calls, setup_samples, means):
    pairs = spec["trials"] * len(spec["snr"])
    records = [r for c in calls for r in c["records"]]
    failed = sum(1 for r in records if r["failure_flag"])
    snrs = [float(s) for s in spec["snr"]]
    values = {
        "pairs_per_s": _median([pairs / c["main_s"] for c in calls]),
        "setup_s": _median(setup_samples),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
        "nmse_two_stage": _gmean([means[("two_stage", s)] for s in snrs]),
        "nmse_e_als": _gmean([means[("e_als", s)] for s in snrs]),
        "ok_frac": (len(records) - failed) / len(records),
    }
    return values, len(records), failed


def per_layer(spec, calls, setup_results):
    """Per-layer metrics from the spans and records of the traced calls, per CLI call."""
    n_calls = len(calls)
    durations, self_by_name = {}, {}
    for c in calls:
        for batch in [c["spans"], *c["worker_spans"]]:
            for span, own in zip(batch, spans.self_times(batch)):
                durations.setdefault(span[0], []).append(span[3] - span[2])
                self_by_name[span[0]] = self_by_name.get(span[0], 0.0) + own / n_calls

    def count(name):
        return len(durations.get(name, ())) / n_calls

    def total(*names):
        return sum(sum(durations.get(n, ())) for n in names) / n_calls

    def ms(name):
        return [d * 1e3 for d in durations.get(name, ())]

    records = [r for c in calls for r in c["records"]]
    by_est = {name: [r for r in records if r["estimator_name"] == name] for name in ("two_stage", "e_als", "ls")}
    als = by_est["two_stage"] + by_est["e_als"]
    m = {
        "cli.import_s": _median([s["import_s"] for s in setup_results]),
        "cli.load_config_s": _median(durations.get("cli.load_config", [])),
        "harness.run_s": total("harness.run_experiment"),
        "harness.emit_s": total("harness.emit_results"),
        "harness.aggregate_s": total("harness.aggregate_records"),
        "channels.draw_calls": count("channels.draw_channels"),
        "channels.draw_s": total("channels.draw_channels"),
        "signals.schedule_calls": count("signals.make_schedule"),
        "signals.synth_calls": count("signals.synthesize"),
        "signals.synth_s": total("signals.synthesize"),
        "estimators.ls_setup_calls": count("estimators.ls_setup"),
        "estimators.ls_setup_s": total("estimators.ls_setup"),
        "estimators.ls_ms_p50": _pct(ms("estimators.ls"), 0.5),
    }
    for name in ("two_stage", "e_als"):
        span = f"estimators.{name}"
        sweeps = sum(r["iterations"] or 0 for r in by_est[name])
        m[f"estimators.{name}_ms_p50"] = _pct(ms(span), 0.5)
        m[f"estimators.{name}_ms_p90"] = _pct(ms(span), 0.9)
        m[f"estimators.{name}_sweeps_mean"] = sweeps / len(by_est[name]) if by_est[name] else 0.0
        m[f"estimators.{name}_ms_per_sweep"] = sum(ms(span)) / sweeps if sweeps else 0.0
    m["estimators.nonconv_frac"] = (
        sum(1 for r in als if not r["converged"] and not r["failure_flag"]) / len(als) if als else 0.0
    )
    m["estimators.failed"] = sum(1 for r in records if r["failure_flag"]) / n_calls
    for name in ("two_stage", "e_als", "ls"):
        rows = by_est[name]
        ops = sum(r["empirical_ops"] for r in rows)
        seconds = total(f"estimators.{name}") * n_calls
        m[f"estimators.{name}_empirical_ops_per_call"] = ops / len(rows) if rows else 0.0
        if name != "ls":
            analytic = [r["analytic_ops"] for r in rows if r["analytic_ops"] is not None]
            m[f"estimators.{name}_analytic_ops_per_call"] = (
                sum(analytic) / len(analytic) if analytic else 0.0
            )
        m[f"estimators.{name}_gmac_per_s"] = ops / seconds / 1e9 if seconds else 0.0
    estimator_s = total(*ESTIMATOR_SPANS)
    m["tensor_ops.pinv_calls"] = count("tensor_ops.pinv")
    m["tensor_ops.pinv_s"] = total("tensor_ops.pinv")
    m["tensor_ops.pinv_share"] = m["tensor_ops.pinv_s"] / estimator_s if estimator_s else 0.0
    m["tensor_ops.khatri_rao_calls"] = count("tensor_ops.khatri_rao")
    m["tensor_ops.khatri_rao_s"] = total("tensor_ops.khatri_rao")
    m["metrics.score_calls"] = sum(count(n) for n in SCORE_SPANS)
    m["metrics.score_s"] = total(*SCORE_SPANS)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items() if spans.layer_of(k) == layer)

    main_s = statistics.mean(c["main_s"] for c in calls)
    als_s = total("estimators.two_stage", "estimators.e_als")
    report = {
        "traced_calls": n_calls,
        "estimator_calls_per_name": {n: len(ms(f"estimators.{n}")) for n in ("two_stage", "e_als", "ls")},
        "self_s_by_span_name": dict(sorted(self_by_name.items(), key=lambda kv: -kv[1])),
        "als_share_of_main": als_s / main_s,
        "main_s_mean": main_s,
    }
    if any(c["worker_spans"] for c in calls):
        report["worker_spans"] = "collected from pool workers (flushed after each chunk)"
    return m, report


def per_layer_units(name):
    if name.endswith("_calls") or name == "estimators.failed":
        return "count"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90") or name.endswith("_ms_per_sweep"):
        return "ms"
    if name.endswith("_gmac_per_s"):
        return "GMAC/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ops_per_call"):
        return "MAC"
    if name.endswith("_sweeps_mean"):
        return "sweeps"
    return "ratio"


def run(name, seed, seconds, trace):
    """Run one workload; returns the result object, raises on any failure."""
    spec = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_run" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        w = Workload(spec, seed, work, deadline)
        w.setup("warmup")  # compiles bytecode and warms the file cache once
        setup_results = [w.setup(i) for i in range(SETUP_SAMPLES)]
        # traced runs alternate traced and untraced calls, so the tracing
        # overhead is measured against calls made at the same time; a call
        # too slow to repeat before the deadline (stock_parallel) gets none
        calls, untraced = [], []
        t_loop = time.monotonic()
        while not calls or time.monotonic() - t_loop < seconds:
            calls.append(w.call(traced=bool(trace)))
            if trace and time.monotonic() + 2 * calls[-1]["main_s"] < deadline:
                untraced.append(w.call(traced=False))
        if "serial" in spec:
            w.check_against_serial()

        means = checks.mean_nmse(w.first_records)
        if spec.get("ordering"):
            checks.check_ordering(means, spec["snr"])
        reference = load_reference(spec.get("serial", name), seed)
        if reference is not None:
            checks.check_reference(means, reference)
        setup_results += calls
        values, attempted, failed = end_to_end(
            spec, calls, [s["setup_s"] for s in setup_results], means
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    env = dict(calls[0]["env"], git_commit=git_commit())
    print(f"workload {name}  seed {seed}  {len(calls)} CLI calls in {time.monotonic() - t_loop:.1f} s"
          f"  (closed loop, one client){'  traced' if trace else ''}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print("main() seconds per call: " + " ".join(f"{c['main_s']:.3f}" for c in calls))
    print(f"config_sha256 {hashlib.sha256(w.config.encode()).hexdigest()}")
    print(f"reference check: {'seed ' + str(seed) + ' matched' if reference else 'no reference recorded for this seed'}")
    print("mean aggregate NMSE (dB) by SNR: " + "  ".join(
        f"{est}@{snr:g}={10 * math.log10(v):.3f}" for (est, snr), v in sorted(means.items())))
    for key, value in values.items():
        if key.startswith("nmse_"):
            print(f"  ({key} is {10 * math.log10(value):.3f} dB)")
    if trace:
        metrics, report = per_layer(spec, calls, setup_results)
        report["tracing_overhead"] = None
        if untraced:
            untraced_pps = _median([spec["trials"] * len(spec["snr"]) / c["main_s"] for c in untraced])
            report["tracing_overhead"] = (untraced_pps - values["pairs_per_s"]) / untraced_pps
        print(f"trace report {json.dumps(report)}")
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for key, entry in metrics.items():
        print(f"metric {key} = {entry['value']:.6g} {entry['unit']}")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "ristensor" / "cli.py").is_file():
        print(f"error: no ristensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except checks.CheckFailed as err:
        print(f"correctness check failed: {err}", file=sys.stderr)
        return 1
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # on SIGTERM unwind normally, so the running child's process group is
    # killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
