"""Time a cold `ristensor.cli.main` call in two checkouts, interleaved.

    python3 tools/ab_main.py PARENT_ROOT CHANGE_ROOT --workload stock_sweep --seed 7 --runs 21

Each run is a fresh interpreter that imports `ristensor.cli` from the
checkout's `src/` and then times one `main(["run", "--config", ...])` call
on the benchmark's generated config (`perfbench/run.py`'s `WORKLOADS` and
`config_text`, read from this checkout), by CPU time of the process and by
wall time. The import is not timed. Runs alternate between the checkouts,
and which one goes first alternates from round to round. One untimed run
per checkout first writes its bytecode. The environment is passed on as it
is, BLAS thread settings included. Prints each side's median and quartiles
in ms, the change in the medians, and how many rounds the second checkout
won.
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
import json, sys, time
sys.path.insert(0, sys.argv[1])
import ristensor.cli
cpu, wall = time.process_time(), time.perf_counter()
status = ristensor.cli.main(["run", "--config", "config.yaml"])
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
if status:
    sys.exit(status)
print(json.dumps({"cpu_ms": cpu * 1e3, "wall_ms": wall * 1e3}))
"""


def timed_call(root, work):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(root) / "src")],
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
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "config.yaml").write_text(config_text(WORKLOADS[args.workload], args.seed))
        for root in sides.values():
            timed_call(root, work)
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                times[side].append(timed_call(sides[side], work))

    print(f"workload {args.workload}  seed {args.seed}  {args.runs} runs per side, interleaved")
    for key in ("cpu_ms", "wall_ms"):
        medians = {}
        for side in sides:
            values = [t[key] for t in times[side]]
            q1, medians[side], q3 = statistics.quantiles(values, n=4, method="inclusive")
            print(f"  {key:7s} {side:6s} median {medians[side]:8.1f}  "
                  f"quartiles {q1:8.1f} {q3:8.1f}")
        won = sum(c[key] < p[key] for p, c in zip(times["parent"], times["change"]))
        gain = medians["parent"] / medians["change"] - 1
        print(f"  {key:7s} change is {100 * gain:+.1f}% faster by medians, "
              f"won {won} of {args.runs} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
