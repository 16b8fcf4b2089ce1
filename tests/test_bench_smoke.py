"""Smoke test of the benchmark harness in bench/.

The traced runs wrap every tape op of `spans.AUTODIFF_OPS`, `model.rollout`
and the other public functions it spans by name, so renaming or deleting one
of them breaks the benchmark; this test catches that on a training workload
and on the Pareto solve. The harness runs from a copy of bench/ beside a copy
of src/, so its outputs stay out of the checkout's bench/out/ (a symlinked
src/ would fail the harness's check that it imports the program from its own
checkout).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train-desk", "solve-m100-n100"])
def test_bench_traced_run_is_correct(tmp_path, workload):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0 and last["attempted"] >= 2
    if workload == "train-desk":
        assert last["metrics"]["autodiff.nodes_per_iter"]["value"] > 0
