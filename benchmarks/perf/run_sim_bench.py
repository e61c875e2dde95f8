"""Simulator bench: the decoded simulator vs the seed one it replaced.

Runs the five paper kernels at all three levels on rs6k -- the runs
``kernel_eval`` and Figure 8 make -- through both simulators and writes
``BENCH_sim.json``::

    PYTHONPATH=src python benchmarks/perf/run_sim_bench.py

Each kernel is compiled once per level; both arms then execute it from
the same initial state (the functional half, ``Executor.run``) and time
the executed trace (the cycle half: ``TraceSimulator.run_trace`` for the
decoded arm, one ``issue`` per dynamic instruction for the seed arm,
``tests/sim/reference_sim.py``).  The arms must agree on the execution
result and on every issue cycle before any timing is reported.

Every timing is in calibration units: the time of the measured half
divided by the time of ``perfbench/calib.reference_routine`` run just
before it, so minute-to-minute CPU drift cancels.  The arms alternate
within each of :data:`REPEATS` repeats and each half keeps its best.
Costs are reported per 1,000 simulated instructions.

The speedup of the decoded arm (exec + timing, summed over all cases and
per kernel) is **gated** at :data:`GATE_MIN_SPEEDUP`; a miss exits with
status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from calib import reference_routine  # noqa: E402

from repro.bench.programs import MINMAX_WORKLOAD, WORKLOADS  # noqa: E402
from repro.compiler import compile_c  # noqa: E402
from repro.machine.rs6k import rs6k  # noqa: E402
from repro.sched.candidates import ScheduleLevel  # noqa: E402
from repro.sim.executor import Executor  # noqa: E402
from repro.sim.machine_sim import TraceSimulator, layout_addresses  # noqa: E402
from tests.sim import reference_sim  # noqa: E402

KERNELS = [MINMAX_WORKLOAD, *WORKLOADS]

#: CI floor on the decoded arm's exec + timing speedup over the seed
#: arm, overall and per kernel.  The measured speedups are 6-10x; the
#: floor sits well below them so a loaded runner does not flake the gate,
#: and well above 1x, so a fallback to per-instruction re-interpretation
#: trips it.
GATE_MIN_SPEEDUP = 3.0

#: timed repeats per case; each arm and half keeps its best
REPEATS = 5


def _calibration() -> float:
    gc.collect()
    started = time.perf_counter()
    reference_routine()
    return time.perf_counter() - started


def _timed_cal(fn, samples: list[float]):
    """Run ``fn`` after a calibration sample; ``(result, cal)``."""
    unit = _calibration()
    samples.append(unit)
    started = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - started) / unit


def _arms(func, machine, regs, memory, handlers):
    """(exec, timing) callables per arm; timing takes the exec result."""
    addresses = layout_addresses(func)

    def decoded_exec():
        return Executor(func, regs=regs, memory=memory,
                        call_handlers=handlers).run()

    def decoded_timing(execution):
        sim = TraceSimulator(machine, addresses=addresses)
        return sim.run_trace(execution.instr_trace).issue_cycles

    def seed_exec():
        return reference_sim.Executor(func, regs=regs, memory=memory,
                                      call_handlers=handlers).run()

    def seed_timing(execution):
        sim = reference_sim.TraceSimulator(machine, addresses=addresses)
        return [sim.issue(ins) for ins in execution.instr_trace]

    return {"decoded": (decoded_exec, decoded_timing),
            "seed": (seed_exec, seed_timing)}


def bench_case(kernel, level, rng, samples) -> dict:
    machine = rs6k()
    unit = compile_c(kernel.source, machine=machine,
                     level=level)[kernel.entry]
    regs, memory, _ = unit.initial_state(*kernel.make_args(rng))
    arms = _arms(unit.func, machine, regs, memory, kernel.call_handlers)

    # both arms must simulate the same thing for the timing to mean
    # anything (the full equivalence proof lives in the test suite)
    outputs = {}
    for name, (run_exec, run_timing) in arms.items():
        execution = run_exec()
        outputs[name] = (execution, run_timing(execution))
    if outputs["decoded"] != outputs["seed"]:
        raise SystemExit(f"simulator divergence: {kernel.name} at "
                         f"{level.value}")
    instrs = outputs["decoded"][0].steps

    best = {name: {"exec": float("inf"), "timing": float("inf")}
            for name in arms}
    order = list(arms)
    for _ in range(REPEATS):
        for name in order:
            run_exec, run_timing = arms[name]
            execution, cal = _timed_cal(run_exec, samples)
            best[name]["exec"] = min(best[name]["exec"], cal)
            _, cal = _timed_cal(lambda: run_timing(execution), samples)
            best[name]["timing"] = min(best[name]["timing"], cal)
        order.reverse()  # alternate which arm runs first

    per_k = instrs / 1e3
    row = {"kernel": kernel.name, "level": level.value, "instrs": instrs}
    for name in arms:
        for half in ("exec", "timing"):
            row[f"{name}_{half}_cal"] = best[name][half]
            row[f"{name}_{half}_cal_per_kinstr"] = best[name][half] / per_k
    row["speedup"] = _speedup([row])
    return row


def _speedup(rows: list[dict]) -> float:
    seed = sum(r["seed_exec_cal"] + r["seed_timing_cal"] for r in rows)
    decoded = sum(r["decoded_exec_cal"] + r["decoded_timing_cal"]
                  for r in rows)
    return seed / decoded


def _summary(rows: list[dict]) -> dict:
    instrs = sum(r["instrs"] for r in rows)
    out = {"instrs": instrs}
    for name in ("decoded", "seed"):
        for half in ("exec", "timing"):
            out[f"{name}_{half}_cal_per_kinstr"] = (
                sum(r[f"{name}_{half}_cal"] for r in rows) / (instrs / 1e3))
    for half in ("exec", "timing"):
        out[f"{half}_speedup"] = (out[f"seed_{half}_cal_per_kinstr"]
                                  / out[f"decoded_{half}_cal_per_kinstr"])
    out["speedup"] = _speedup(rows)
    return out


def gate(rows: list[dict]) -> list[str]:
    """Regression messages for the overall and per-kernel speedups."""
    groups = {"all cases": rows}
    for kernel in KERNELS:
        groups[kernel.name] = [r for r in rows if r["kernel"] == kernel.name]
    failures = []
    for name, group in groups.items():
        if group and _speedup(group) < GATE_MIN_SPEEDUP:
            failures.append(f"{name}: speedup {_speedup(group):.2f}x below "
                            f"gate floor {GATE_MIN_SPEEDUP:.1f}x")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="decoded vs seed simulator bench "
                    "(emits BENCH_sim.json)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sim.json"))
    args = parser.parse_args(argv)

    rng = random.Random(1991)
    samples: list[float] = []
    for _ in range(20):
        reference_routine()  # warm up
    rows = []
    for kernel in KERNELS:
        for level in ScheduleLevel:
            row = bench_case(kernel, level, rng, samples)
            rows.append(row)
            print(f"  {row['kernel']:<14} {row['level']:<12} "
                  f"{row['instrs']:6d} instrs: exec "
                  f"{row['seed_exec_cal_per_kinstr']:6.3f} -> "
                  f"{row['decoded_exec_cal_per_kinstr']:6.3f}, timing "
                  f"{row['seed_timing_cal_per_kinstr']:6.3f} -> "
                  f"{row['decoded_timing_cal_per_kinstr']:6.3f} "
                  f"cal/kinstr ({row['speedup']:.2f}x)", flush=True)

    summary = _summary(rows)
    print(f"  all: exec {summary['exec_speedup']:.2f}x, timing "
          f"{summary['timing_speedup']:.2f}x, exec + timing "
          f"{summary['speedup']:.2f}x")
    failures = gate(rows)
    results = {
        "meta": {
            "suite": "sim",
            "repeats": REPEATS,
            "machine": "rs6k",
            "calibration_median_ms": statistics.median(samples) * 1e3,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "summary": summary,
        "cases": rows,
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")
    if failures:
        for message in failures:
            print(f"GATE FAIL: {message}", file=sys.stderr)
        return 1
    else:
        print("gate ok: overall and per-kernel speedups at or above "
              f"{GATE_MIN_SPEEDUP:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
