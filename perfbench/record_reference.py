"""Record the reference mean NMSE per (estimator, SNR) that run.py checks against.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED

Runs one CLI call of each checked workload per seed and rewrites
perfbench/reference.json. Record again only in a change that is meant to
alter the estimates, and say so in that change.
"""

import json
import shutil
import sys
import time

import checks
import run

CHECKED = ("stock_sweep", "als_low_snr")


def main(argv):
    first, last = (int(a) for a in argv)
    reference = {}
    for name in CHECKED:
        for seed in range(first, last + 1):
            work = run.ROOT / ".perfbench_run" / f"reference-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                w = run.Workload(run.WORKLOADS[name], seed, work, time.monotonic() + run.RUN_DEADLINE_S)
                w.call(traced=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            means = checks.mean_nmse(w.first_records)
            reference.setdefault(name, {})[str(seed)] = {
                checks.reference_key(*key): value for key, value in sorted(means.items())
            }
            print(f"{name} seed {seed}: {len(means)} means", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
