"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric ``BENCHMARK.json`` declares is emitted with its
unit on every workload, in both modes; that the benchmark's own checkers
count a corrupted expected value as a failure; and that the benchmark
refuses to run without the program under test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7",
                "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == {m["name"]: m["unit"]
                                           for m in declared}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def _pass_failures(workload, corrupt) -> tuple[int, int]:
    """(failed ops before, after) corrupting one expected value."""
    from calib import Calibrator
    from workloads import Meter

    calibrator = Calibrator()
    state = workload.setup(7, calibrator)
    clean = workload.run_pass(state, Meter(calibrator))
    corrupt(state)
    dirty = workload.run_pass(state, Meter(calibrator))
    return len(clean.failed), len(dirty.failed)


def test_kernel_checker_counts_a_wrong_oracle_value():
    from workloads import KERNELS, KernelEval

    def corrupt(state):
        kernel, args, expected = state["cases"][0]
        state["cases"][0] = (kernel, args, expected + 1)

    before, after = _pass_failures(
        KernelEval(draws=1, kernels=KERNELS[:1]), corrupt)
    assert before == 0 and after > 0


def test_serve_checker_counts_a_wrong_reference_assembly():
    from workloads import ServeMixed

    def corrupt(state):
        tag = next(iter(state["expected"]))
        state["expected"][tag] = {name: text + "\n# corrupted"
                                  for name, text in
                                  state["expected"][tag].items()}

    before, after = _pass_failures(
        ServeMixed(sources=4, requests=12, batch=3), corrupt)
    assert before == 0 and after > 0


def test_serve_checker_counts_a_wrong_cache_hit_prediction():
    from workloads import ServeMixed

    def corrupt(state):
        state["hits"] += 1

    before, after = _pass_failures(
        ServeMixed(sources=4, requests=12, batch=3), corrupt)
    assert before == 0 and after == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
