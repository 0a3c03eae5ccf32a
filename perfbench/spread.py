"""Run-to-run spread of the metrics: run.py on several seeds per workload.

    python3 perfbench/spread.py --runs 10 --first-seed 101 [--trace 1] [--out FILE]

For each workload in BENCHMARK.json (or those given with --workload), runs
run.py once per seed, one run at a time, and prints per metric the median,
the quartiles, and the spread (Q3 - Q1) / median next to the metric's bound.
With --out, writes the same figures and the environment as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "trace": args.trace, "runs": args.runs, "workloads": {}}
    worst_ok = True
    for name in names:
        values, seeds = {}, list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            summary.setdefault("environment", next(
                json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")
            ))
            for key, entry in json.loads(lines[-1])["metrics"].items():
                values.setdefault(key, []).append(entry["value"])
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
        rows = {}
        print(f"\n{name}: {args.runs} runs, seeds {seeds[0]}-{seeds[-1]}, {seconds} s each")
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(key)
            mark = ""
            if bound is not None and key != "setup_s":
                mark = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
                worst_ok &= spread <= bound
            print(f"  {key:<44} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:8.4f}  bound {bound if bound is not None else '-'}  {mark}")
            rows[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        summary["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
