"""Scheduler inner-loop microbench: production block pass vs seed scan.

Times the *engine only* -- ``schedule_region`` as invoked by the driver,
no parsing, no region finding, no liveness setup -- on synthetic
programs whose block size scales geometrically, and writes
``BENCH_sched_micro.json``::

    PYTHONPATH=src python benchmarks/perf/run_sched_microbench.py
    PYTHONPATH=src python benchmarks/perf/run_sched_microbench.py --quick

Each size is one C function with a loop body split by a branch, so the
region scheduler sees equivalent *and* speculative candidates; the two
arms are the production block pass (a flat cycle loop over dense
dependence state, packed priority keys, cached Section 5.3 verdicts and
bitmask liveness) and the seed inner loop
(``repro.reference.oracle_arm("scheduler")``: full candidate rescans per
issue slot on the per-query dependence state, plus per-motion liveness
traversals).  Both arms schedule freshly parsed copies of the same
function and must agree on the printed schedule before their timings are
reported.

A ``catalogue`` row times the same seam over the real traffic: the 120
programs of ``repro.verify.generator.catalogue()`` (the benchmark's
``corpus_compile`` corpus) compiled at SPECULATIVE on rs6k through the
whole pipeline, both arms, plus the distribution of candidates per block
pass.  It is reported, not gated.

The engine is timed through an accumulating wrapper around
``repro.sched.driver.schedule_region`` -- the exact seam the two engines
differ behind -- so the shared fixed costs (parsing, CFG analyses,
region-DDG construction) no longer dilute the ratio the way whole-
``global_schedule`` timing did.

The per-size speedups are **gated**: any size whose speedup falls below
its floor in :data:`GATE_MIN_SPEEDUP` fails the run with exit status 1
(``--no-gate`` reports only).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

import repro.sched.driver as drv
from repro.compiler import compile_c
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.machine.configs import CONFIGS
from repro.reference import oracle_arm
from repro.obs import CollectingTracer
from repro.obs.events import CandidatesCollected
from repro.sched.candidates import ScheduleLevel
from repro.verify.generator import catalogue
from repro.xform.pipeline import PipelineConfig

#: statements per straight-line chunk, one function per entry; the top
#: size keeps the loop region just under ``regions.MAX_REGION_INSTRS``
#: (a larger region is skipped outright and would time nothing)
SIZES = (4, 8, 16, 24, 30)
SIZES_QUICK = (4, 16, 30)

#: CI regression floors per chunk size.  Set well below the measured
#: speedups (see README's performance table) so scheduler jitter on
#: loaded runners does not flake the gate, but far above the pre-SoA
#: event engine -- a fallback to object-graph storage or a packing
#: regression trips them immediately.  Each floor is the earlier
#: dict-state-baseline floor times the measured per-size ratio of the
#: seed per-query state's baseline time to the dict state's (1.423, 1.628,
#: 1.735, 1.775, 1.707), rounded up, so the gate is no looser than before.
GATE_MIN_SPEEDUP = {4: 1.57, 8: 2.94, 16: 5.21, 24: 10.65, 30: 17.07}


def make_source(k: int) -> str:
    """A loop whose body holds ~4*k statements across a diamond."""
    decl = [f"        int t{i} = a[i] * {i + 2} + s;" for i in range(k)]
    acc = [f"        s = s + t{i};" for i in range(k)]
    then = [f"            s = s + t{i % k} * 2;" for i in range(k)]
    els = [f"            s = s - t{i % k};" for i in range(k)]
    body = "\n".join(
        decl + acc
        + ["        if (s > n) {"] + then
        + ["        } else {"] + els + ["        }"]
    )
    return (
        "int bench(int a[], int n) {\n"
        "    int s = 0;\n"
        "    int i = 0;\n"
        "    while (i < n) {\n"
        f"{body}\n"
        "        i = i + 1;\n"
        "    }\n"
        "    return s;\n"
        "}\n"
    )


@contextmanager
def region_timer():
    """Accumulate time spent inside ``schedule_region`` calls.

    The driver resolves the symbol through its module global, so
    rebinding ``drv.schedule_region`` intercepts every region of every
    sweep; the accumulator sums them (a function schedules several
    regions per pass)."""
    real = drv.schedule_region
    acc = {"s": 0.0}

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            acc["s"] += time.perf_counter() - t0

    drv.schedule_region = timed
    try:
        yield acc
    finally:
        drv.schedule_region = real


def _engine_time(fn) -> float:
    with region_timer() as acc:
        fn()
    return acc["s"]


def bench_size(k: int, repeats: int) -> dict:
    machine = CONFIGS["rs6k"]()
    unit = compile_c(make_source(k), machine=machine,
                     level=ScheduleLevel.NONE)["bench"]
    text = format_function(unit.func)
    instrs = sum(len(b.instrs) for b in unit.func.blocks)

    def run():
        func = parse_function(text)
        drv.global_schedule(func, machine, ScheduleLevel.SPECULATIVE)
        return func

    # both arms must produce the same schedule for the timing to mean
    # anything (the full equivalence proof lives in the test suite)
    soa_out = format_function(run())
    with oracle_arm("scheduler"):
        scan_out = format_function(run())
    if soa_out != scan_out:
        raise SystemExit(f"engine divergence at size {k}")

    # best-of-N per arm, interleaved so CPU drift hits both arms alike
    soa_s = scan_s = float("inf")
    for _ in range(repeats):
        soa_s = min(soa_s, _engine_time(run))
        with oracle_arm("scheduler"):
            scan_s = min(scan_s, _engine_time(run))
    return {
        "chunk": k,
        "instrs": instrs,
        "soa_ms": soa_s * 1e3,
        "scan_ms": scan_s * 1e3,
        "speedup": scan_s / soa_s,
    }


def _percentile(values: list[int], q: float) -> int:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def bench_catalogue(repeats: int) -> dict:
    """Engine time over the catalogue's real regions, both arms, and the
    candidates-per-pass distribution of the production arm."""
    machine = CONFIGS["rs6k"]()
    sources = [program.source for program in catalogue()]

    def run():
        return [[unit.assembly() for unit in
                 compile_c(source, machine=machine,
                           level=ScheduleLevel.SPECULATIVE)]
                for source in sources]

    soa_out = run()
    with oracle_arm("scheduler"):
        scan_out = run()
    if soa_out != scan_out:
        raise SystemExit("engine divergence on the catalogue")

    tracer = CollectingTracer()
    for source in sources:
        compile_c(source, machine=machine, level=ScheduleLevel.SPECULATIVE,
                  config=PipelineConfig(level=ScheduleLevel.SPECULATIVE,
                                        trace=tracer))
    per_pass = [e.own + e.useful + e.speculative + e.duplication
                for e in tracer.events if isinstance(e, CandidatesCollected)]

    soa_s = scan_s = float("inf")
    for _ in range(repeats):
        soa_s = min(soa_s, _engine_time(run))
        with oracle_arm("scheduler"):
            scan_s = min(scan_s, _engine_time(run))
    return {
        "programs": len(sources),
        "block_passes": len(per_pass),
        "candidates_per_pass": {
            "median": _percentile(per_pass, 0.5),
            "p90": _percentile(per_pass, 0.9),
            "max": max(per_pass),
        },
        "soa_ms": soa_s * 1e3,
        "scan_ms": scan_s * 1e3,
        "speedup": scan_s / soa_s,
    }


def gate(rows: list[dict]) -> list[str]:
    """Regression messages for every row below its floor."""
    failures = []
    for row in rows:
        floor = GATE_MIN_SPEEDUP.get(row["chunk"])
        if floor is not None and row["speedup"] < floor:
            failures.append(
                f"chunk {row['chunk']}: speedup {row['speedup']:.2f}x "
                f"below gate floor {floor:.1f}x")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="scheduler inner-loop microbench "
                    "(emits BENCH_sched_micro.json)")
    parser.add_argument("--out", default=str(REPO_ROOT /
                                             "BENCH_sched_micro.json"))
    parser.add_argument("--quick", action="store_true",
                        help="fewer sizes / fewer repeats (CI smoke)")
    parser.add_argument("--no-gate", action="store_true",
                        help="report only, never fail on a floor miss")
    args = parser.parse_args(argv)

    sizes = SIZES_QUICK if args.quick else SIZES
    repeats = 3 if args.quick else 5
    rows = []
    for k in sizes:
        row = bench_size(k, repeats)
        rows.append(row)
        print(f"  chunk {row['chunk']:3d} ({row['instrs']:4d} instrs): "
              f"scan {row['scan_ms']:8.2f} ms -> soa "
              f"{row['soa_ms']:7.2f} ms ({row['speedup']:.2f}x)",
              flush=True)

    cat = bench_catalogue(repeats)
    dist = cat["candidates_per_pass"]
    print(f"  catalogue ({cat['programs']} programs, {cat['block_passes']} "
          f"block passes; candidates/pass median {dist['median']}, p90 "
          f"{dist['p90']}, max {dist['max']}): scan {cat['scan_ms']:8.2f} "
          f"ms -> soa {cat['soa_ms']:7.2f} ms ({cat['speedup']:.2f}x)",
          flush=True)

    gated = not args.no_gate
    failures = gate(rows) if gated else []
    results = {
        "meta": {
            "suite": "sched_micro",
            "quick": args.quick,
            "gated": gated,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "gate_min_speedup": {str(k): v for k, v in GATE_MIN_SPEEDUP.items()},
        "sizes": rows,
        "catalogue": cat,
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")
    if not gated:
        print("gate skipped (--no-gate)")
    elif failures:
        for message in failures:
            print(f"GATE FAIL: {message}", file=sys.stderr)
        return 1
    else:
        print("gate ok: all sizes at or above their speedup floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
