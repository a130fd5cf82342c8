"""The package as a user starts it: its import path, the demo scripts, the
README's example output and the benchmark's tracer."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quadratize import bnb_search, parse_system, render_result

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


# The order in which a set iterates may change with the hash seed (string
# hashes are salted by it); no such order may reach the output.
@pytest.mark.parametrize("args", [["--benchmark", "cubic_cycle:5", "--format", "structured"],
                                  ["--benchmark", "rf", "--format", "structured"],
                                  ["--benchmark", "rf", "--laurent"]], ids=" ".join)
def test_output_does_not_depend_on_the_hash_seed(args):
    outputs = []
    for seed in ("1", "987"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "quadratize", *args], cwd=ROOT, env=env,
                              timeout=60, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/0*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    # Every demo script.  The pruning-rules demo takes about 1 s on a
    # 2-vCPU machine, the others well under; the timeout only stops a hang.
    proc = run_python([str(demo)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_structured_example_matches_the_output():
    readme = (ROOT / "README.md").read_text()
    block, = re.findall(r"```json\n(.*?)```", readme, re.S)
    result, _ = bnb_search(parse_system("x' = x^5"))
    assert json.loads(block) == json.loads(render_result(result.document, "structured"))


# The counters perfbench/layers.py gets by wrapping the package's internals by
# name; each reads zero when a wrapped name is renamed or no longer looked up.
TRACED_COUNTERS = ("pruning.quadratic_calls", "pruning.c4_calls", "pruning.quotient_pairs",
                   "state.extended_calls", "branching.calls", "polynomials.lie_calls")


def test_benchmark_tracer_sees_every_layer():
    # A fresh interpreter: install() patches the package's modules for good.
    code = (
        "import json, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from layers import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from quadratize import benchmark_system, bnb_search\n"
        "result, _ = bnb_search(benchmark_system('cubic_cycle', 4))\n"
        "print(json.dumps([result.order, tracer.metrics()]))\n"
    )
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    order, metrics = json.loads(proc.stdout)
    assert order == 8
    assert {name: metrics[name] for name in TRACED_COUNTERS if not metrics[name]} == {}
