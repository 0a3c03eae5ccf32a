"""tools/diff_records.py: the record comparison between two checkouts."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from diff_records import differences, parse  # noqa: E402


def test_the_repo_writes_the_same_records_as_itself():
    # both benchmark workloads (CSV and JSON), one seed, run twice from this checkout
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diff_records.py"), str(ROOT), str(ROOT), "--seeds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 of 2 differ"


def test_a_changed_cell_differs_and_an_ignored_one_does_not():
    header = "snr_db,empirical_ops,wall_time_seconds\n"
    ignored = {"wall_time_seconds"}
    a = parse(".csv", header + "0,100,0.5\n", ignored)
    assert differences(a, parse(".csv", header + "0,100,0.7\n", ignored)) == []
    assert differences(a, parse(".csv", header + "0,99,0.5\n", ignored)) == ["[0]/empirical_ops: '100' != '99'"]
    doc = '{"records": [{"x": 1, "output_path": "a"}], "aggregates": []}'
    moved = '{"records": [{"x": 2, "output_path": "b"}], "aggregates": []}'
    assert differences(parse(".json", doc, {"output_path"}), parse(".json", moved, {"output_path"})) == [
        "/records[0]/x: 1 != 2"
    ]
