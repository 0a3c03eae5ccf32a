"""Compare the records two checkouts write for the benchmark's configs.

    python3 tools/diff_records.py PARENT_ROOT CHANGE_ROOT --seeds 1-3 --workers 1,2

For each benchmark workload (stock_sweep and als_low_snr), seed and worker
count, runs `python -m ristensor run` on the benchmark's generated config
(`perfbench/run.py`'s `WORKLOADS` and `config_text`, read from this
checkout) once per checkout, each importing the package from its own
`src/`, in a temporary directory. It then compares the CSV rows or the JSON
document the two runs wrote, with the `--ignore`d columns or keys left out
wherever they appear: by default the wall times and the output path.
Prints one line per run pair and the first few differences of each that
differs, and exits 1 if any pair differs (2 if a run fails).
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS, config_text  # noqa: E402

WORKLOADS_COMPARED = ("stock_sweep", "als_low_snr")
IGNORED = ("wall_time_seconds", "mean_wall_time_seconds", "output_path")
SHOWN = 5   # differences printed per run pair


def _range_list(text):
    # "1-3,7" -> [1, 2, 3, 7]
    values = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        values.extend(range(int(first), int(last or first) + 1))
    return values


def run_records(root, config, work):
    """Run the CLI of the checkout at root on config in directory work; return its output's text."""
    (Path(work) / "config.yaml").write_text(config)
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ristensor", "run", "--config", "config.yaml"],
        cwd=work, env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr}")
    (out,) = Path(work).glob("out.*")
    return out.suffix, out.read_text()


def _strip(value, ignored):
    # value with every ignored key of every mapping in it removed
    if isinstance(value, dict):
        return {k: _strip(v, ignored) for k, v in value.items() if k not in ignored}
    if isinstance(value, list):
        return [_strip(v, ignored) for v in value]
    return value


def parse(suffix, text, ignored):
    """CSV rows or the JSON document, without the ignored columns or keys."""
    if suffix == ".csv":
        return _strip(list(csv.DictReader(text.splitlines())), ignored)
    return _strip(json.loads(text), ignored)


def differences(a, b, path=""):
    """Each place where a and b differ, as 'path: a != b' lines."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = [f"{path}/{k}: missing on one side" for k in sorted(a.keys() ^ b.keys())]
        for k in sorted(a.keys() & b.keys()):
            out += differences(a[k], b[k], f"{path}/{k}")
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = [] if len(a) == len(b) else [f"{path}: {len(a)} != {len(b)} entries"]
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, f"{path}[{i}]")
        return out
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the first checkout")
    parser.add_argument("change", help="root of the second checkout")
    parser.add_argument("--seeds", type=_range_list, default=[1], help="master seeds, e.g. 1-3")
    parser.add_argument("--workers", type=_range_list, default=[1], help="worker counts, e.g. 1,2")
    parser.add_argument("--ignore", default=",".join(IGNORED),
                        help="comma-separated columns and keys left out of the comparison")
    args = parser.parse_args(argv)
    ignored = set(filter(None, args.ignore.split(",")))

    differing = 0
    for name in WORKLOADS_COMPARED:
        for seed in args.seeds:
            for workers in args.workers:
                config = config_text(WORKLOADS[name], seed, workers)
                parsed = []
                for root in (args.parent, args.change):
                    with tempfile.TemporaryDirectory() as work:
                        try:
                            suffix, text = run_records(root, config, work)
                        except RuntimeError as err:
                            print(err, file=sys.stderr)
                            return 2
                    parsed.append(parse(suffix, text, ignored))
                found = differences(*parsed)
                differing += bool(found)
                label = f"{name} seed {seed} workers {workers}"
                print(f"{label}: {'DIFFERS' if found else 'same'}")
                for line in found[:SHOWN]:
                    print(f"    {line}")
    print(f"{differing} of {len(WORKLOADS_COMPARED) * len(args.seeds) * len(args.workers)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
