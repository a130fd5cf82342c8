"""The package as a user starts it: its import path and the demo scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, timeout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=timeout,
                          capture_output=True, text=True)


def test_import_loads_no_heavy_modules():
    # -S skips site hooks, which may import typing and would hide a regression.
    heavy = ("ast", "dataclasses", "inspect", "typing")
    code = f"import quadratize, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    proc = run_python(["-S", "-c", code], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_runs_as_the_command():
    proc = subprocess.run([sys.executable, "-m", "quadratize", "--stats"], input="x' = x^5\n",
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          timeout=30, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "z1 = x^4" in proc.stdout
    assert "pruned_by_symmetry: 0" in proc.stdout


@pytest.mark.parametrize("demo", ["01_worked_examples.py", "02_pruning_rules.py",
                                  "03_laurent_lifting.py", "04_graph_capacity.py"])
def test_demo_runs(demo):
    # The pruning-rules demo takes about 8 s, the others under one; the
    # timeout only stops a hang.
    proc = run_python([str(ROOT / "demos" / demo)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
