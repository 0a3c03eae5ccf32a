"""Every demo script runs to completion against the package in src/, and
every name the demos and the README import from ristensor resolves."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ristensor

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def _top_level_imports(source):
    # the names of every `from ristensor import ...` statement in source
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "ristensor" and node.level == 0
        for alias in node.names
    ]


def test_documented_imports_resolve():
    # a trim of the top-level namespace must keep what the demos and the
    # README's python blocks import, and each name it drops in its module
    readme = (ROOT / "README.md").read_text()
    sources = [path.read_text() for path in DEMOS]
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    names = {name for source in sources for name in _top_level_imports(source)}
    assert names
    assert [name for name in sorted(names) if not hasattr(ristensor, name)] == []
    moved = {
        "channels": ("steer_ula", "steer_ura"),
        "estimators": ("ChannelEstimate", "StackedLsSolver", "als_ris"),
        "harness": ("TrialRecord", "emit_results", "load_config", "run_trial"),
        "metrics": ("ComplexityTally", "aggregate_vector_nmse"),
        "signals": ("ReceiveTensor", "TrainingSchedule", "make_phase_schedule", "make_pilots",
                    "model_unfoldings"),
        "tensor_ops": ("SingularMatrixError", "ShapeError", "pinv_left", "pinv_right"),
    }
    missing = [
        f"{module}.{name}"
        for module, module_names in moved.items()
        for name in module_names
        if not hasattr(importlib.import_module(f"ristensor.{module}"), name)
    ]
    assert missing == []
