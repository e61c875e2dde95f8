"""Structural checks for the tracked perf suite (benchmarks/perf/).

Runs the individual bench functions on a tiny workload so the suite
cannot rot silently; the real campaign (full corpus, committed
``BENCH_pipeline.json``) runs in CI via
``python benchmarks/perf/run_pipeline_bench.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "benchmarks" / "perf" / "run_pipeline_bench.py"


@pytest.fixture(scope="module")
def suite():
    spec = importlib.util.spec_from_file_location("run_pipeline_bench",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def largest(suite):
    corpus = suite._corpus(3)
    index, program, func = suite._largest_program(corpus)
    return corpus, index, program, func


def test_corpus_is_fixed_seed(suite):
    a = suite._corpus(2)
    b = suite._corpus(2)
    assert [p.source for p in a] == [p.source for p in b]


def test_largest_program_selection(suite, largest):
    corpus, index, program, func = largest
    assert 0 <= index < len(corpus)
    assert corpus[index] is program
    assert sum(len(b.instrs) for b in func.blocks) > 0


def test_bench_region_ddg_shape(suite, largest):
    _, _, _, func = largest
    result = suite.bench_region_ddg(func, repeats=1)
    assert set(result) == {"region_blocks", "region_instrs",
                           "reachable_pairs", "edges", "new_ms",
                           "reference_ms", "speedup"}
    assert result["new_ms"] > 0 and result["reference_ms"] > 0
    assert result["speedup"] == pytest.approx(
        result["reference_ms"] / result["new_ms"])


def test_bench_schedule_shape(suite, largest):
    _, _, _, func = largest
    result = suite.bench_schedule(func, repeats=1)
    assert set(result) == {"instrs", "new_ms", "reference_ms", "speedup"}


def test_identity_check_passes_on_small_program(suite, largest):
    _, _, program, _ = largest
    identity = suite.check_schedule_identity(program)
    assert identity["mismatches"] == []
    assert identity["verifier_enabled"] is True
    assert identity["compiles"] == 2 * len(identity["machines"]) * len(
        identity["levels"])


def test_committed_scorecard_is_well_formed():
    """The repo ships the last full run; keep it parseable and gated."""
    data = json.loads((REPO_ROOT / "BENCH_pipeline.json").read_text())
    assert {"meta", "identity", "region_ddg", "compile", "schedule",
            "fuzz", "thresholds"} <= set(data)
    assert data["identity"]["mismatches"] == []
    assert data["thresholds"]["region_ddg_ok"] is True
    assert data["thresholds"]["fuzz_ok"] is True
    assert data["thresholds"]["schedule_ok"] is True


@pytest.fixture(scope="module")
def micro():
    spec = importlib.util.spec_from_file_location(
        "run_sched_microbench",
        REPO_ROOT / "benchmarks" / "perf" / "run_sched_microbench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_microbench_passes_its_gate(micro):
    """The committed ``BENCH_sched_micro.json`` must carry the floors it
    was gated against and actually clear them -- a regression committed
    alongside a code change fails here even before CI reruns the bench."""
    data = json.loads((REPO_ROOT / "BENCH_sched_micro.json").read_text())
    assert data["meta"]["gated"] is True
    assert data["gate_min_speedup"] == {
        str(k): v for k, v in micro.GATE_MIN_SPEEDUP.items()}
    assert micro.gate(data["sizes"]) == []
    by_chunk = {row["chunk"]: row for row in data["sizes"]}
    # the ISSUE-level target: >= 10x over the scan engine at chunk 30
    assert by_chunk[30]["speedup"] >= 10.0


def test_microbench_gate_flags_floor_misses(micro):
    rows = [{"chunk": 30, "speedup": 9.0}, {"chunk": 4, "speedup": 2.0}]
    messages = micro.gate(rows)
    assert len(messages) == 1 and "chunk 30" in messages[0]


def test_microbench_region_timer_times_engine_only(micro):
    """The accumulator charges time spent inside ``schedule_region``
    (restoring the real binding afterwards) and nothing else."""
    import repro.sched.driver as drv
    from repro.compiler import compile_c
    from repro.machine.configs import CONFIGS
    from repro.sched.candidates import ScheduleLevel

    real = drv.schedule_region
    machine = CONFIGS["rs6k"]()
    unit = compile_c(
        "int f(int a[], int n) {\n"
        "    int s = 0; int i = 0;\n"
        "    while (i < n) { s = s + a[i]; i = i + 1; }\n"
        "    return s;\n"
        "}\n",
        machine=machine, level=ScheduleLevel.NONE)["f"]
    with micro.region_timer() as acc:
        assert drv.schedule_region is not real
        assert acc["s"] == 0.0
        drv.global_schedule(unit.func, machine, ScheduleLevel.SPECULATIVE)
    assert acc["s"] > 0.0
    assert drv.schedule_region is real
