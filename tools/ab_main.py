"""Time a cold `ristensor.cli.main` call in two checkouts, interleaved.

    python3 tools/ab_main.py PARENT_ROOT CHANGE_ROOT --workload stock_sweep --seed 7 --runs 21

Each run is a fresh interpreter that imports `ristensor.cli` from the
checkout's `src/` and then times one `main(["run", "--config", ...])` call
on the benchmark's generated config (`perfbench/run.py`'s `WORKLOADS` and
`config_text`, read from this checkout), by CPU time of the process and by
wall time. The import is not timed. Each run also reports its memory: the
process's own peak resident size after `main` (VmHWM, from
`/proc/self/status`, so Linux only) and the minor page faults `main` took
(`ru_minflt` before and after it). Runs alternate between the checkouts,
and which one goes first alternates from round to round. One untimed run
per checkout first writes its bytecode. The environment is passed on as it
is, BLAS thread settings included. Prints each side's median and quartiles
of every measure, the change in the medians, and in how many rounds the
second checkout read lower; the last line is the same as one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS, config_text  # noqa: E402

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import ristensor.cli
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cpu, wall = time.process_time(), time.perf_counter()
status = ristensor.cli.main(["run", "--config", "config.yaml"])
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
if status:
    sys.exit(status)
with open("/proc/self/status") as fh:
    hwm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"cpu_ms": cpu * 1e3, "wall_ms": wall * 1e3,
                  "vmhwm_mb": hwm_kib / 1024, "minflt": faults}))
"""
# each measure and its unit, in print order
MEASURES = {"cpu_ms": "ms", "wall_ms": "ms", "vmhwm_mb": "MB", "minflt": "faults"}


def timed_call(root, work):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(root).resolve() / "src")],
        cwd=work, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the first checkout")
    parser.add_argument("change", help="root of the second checkout")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="stock_sweep")
    parser.add_argument("--seed", type=int, default=7, help="master_seed of the config")
    parser.add_argument("--runs", type=int, default=21, help="timed runs per checkout")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    sides = {"parent": args.parent, "change": args.change}
    measured = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "config.yaml").write_text(config_text(WORKLOADS[args.workload], args.seed))
        for root in sides.values():
            timed_call(root, work)
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                measured[side].append(timed_call(sides[side], work))

    print(f"workload {args.workload}  seed {args.seed}  {args.runs} runs per side, interleaved")
    summary = {"workload": args.workload, "seed": args.seed, "runs": args.runs}
    for key, unit in MEASURES.items():
        quartiles = {}
        for side in sides:
            values = [t[key] for t in measured[side]]
            quartiles[side] = statistics.quantiles(values, n=4, method="inclusive")
            q1, median, q3 = quartiles[side]
            print(f"  {key:8s} {side:6s} median {median:9.1f}  "
                  f"quartiles {q1:9.1f} {q3:9.1f} {unit}")
        lower = sum(c[key] < p[key] for p, c in zip(measured["parent"], measured["change"]))
        change = quartiles["change"][1] / quartiles["parent"][1] - 1
        print(f"  {key:8s} change {100 * change:+.1f}% by medians, "
              f"lower in {lower} of {args.runs} rounds")
        summary[key] = {**{f"{side}_q1_median_q3": q for side, q in quartiles.items()},
                        "change_lower_rounds": lower}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
