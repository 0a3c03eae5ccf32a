"""tools/ab_main.py: the interleaved timing and memory comparison of two checkouts."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_repo_against_itself_reports_time_and_memory():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_main.py"), str(ROOT), str(ROOT),
         "--workload", "als_low_snr", "--seed", "1", "--runs", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["workload"], summary["seed"], summary["runs"]) == ("als_low_snr", 1, 2)
    for key in ("cpu_ms", "wall_ms", "vmhwm_mb", "minflt"):
        for side in ("parent", "change"):
            q1, median, q3 = summary[key][f"{side}_q1_median_q3"]
            assert 0 < q1 <= median <= q3, (key, side)
        assert 0 <= summary[key]["change_lower_rounds"] <= 2
        assert f"  {key}" in proc.stdout
    # a call's own peak holds at least the interpreter, numpy and its frames
    assert summary["vmhwm_mb"]["parent_q1_median_q3"][1] > 10
