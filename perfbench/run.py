"""The repository benchmark: compile, evaluate and serve latency in
calibration units, with a traced per-layer ledger.

    python3 perfbench/run.py --workload corpus_compile --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` alternates untraced and traced passes and reports the per-layer
ledger plus the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Everything before it is a human-readable report, and a ``meta`` JSON line
with the raw milliseconds, the calibration record and the paper report
(none of which is gated).  See ``perfbench/README.md``.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-up repetitions per run; setup_s reports their median
SETUP_REPEATS = 3
#: a run keeps measuring past --seconds until this many samples lie
#: beyond its p90
TAIL_SAMPLES = 10
#: hard stop for the measuring loop, seconds since process start
HARD_STOP_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50": "cal", "op_p90": "cal", "pass_cal": "cal",
    "sched_overhead_p50": "cal", "sim_cycles": "cycles",
    "static_instrs": "count", "peak_rss_mb": "MB",
}

WHY_NOT_GATED = (
    "CTO% and RTI% are printed, not gated: each divides by a BASE figure "
    "(NONE compile time, BASE cycles) that an unrelated speedup moves -- a "
    "faster front end or post-pass shrinks the CTO denominator and reads "
    "as a CTO regression.")


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else (values[0] if values else 0.0)


def _beyond_p90(values: list[float]) -> int:
    if len(values) < 2:
        return 0
    p90 = _p90(values)
    return sum(1 for v in values if v > p90)


def _make_workload(name: str, smoke: bool):
    from workloads import KERNELS, WORKLOAD_TYPES

    cls = WORKLOAD_TYPES[name]
    if not smoke:
        return cls()
    return {
        "corpus_compile": lambda: cls(programs=4),
        "kernel_eval": lambda: cls(draws=1, kernels=KERNELS[:2]),
        "serve_mixed": lambda: cls(sources=4, requests=12, batch=3),
    }[name]()


class Run:
    """One invocation: set-up, the pass loop, the checks and the report."""

    def __init__(self, args):
        from calib import Calibrator

        self.args = args
        self.calibrator = Calibrator()
        self.calibrator.warm_up()
        self.workload = _make_workload(args.workload, args.smoke)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        before_setup = perf_counter() - PROCESS_START
        repeats = []
        #: NONE/SPECULATIVE overheads timed in set-up (serve_mixed)
        self.setup_overheads: list[float] = []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            self.state = self.workload.setup(self.args.seed, self.calibrator)
            repeats.append(perf_counter() - started)
            self.setup_overheads.extend(self.state.get("overheads", ()))
        # set-up's objects live for the whole run: keep them out of the
        # collections that precede every calibration sample
        gc.collect()
        gc.freeze()
        return before_setup + statistics.median(repeats)

    # -- the pass loop -------------------------------------------------------

    def _fold(self, result, reference_counts: dict | None) -> dict:
        """Account one pass's checks; returns its exact counts."""
        self.attempted += result.attempted
        self.failed += len(result.failed)
        self.failures.extend(result.failures)
        if reference_counts is not None and result.counts != reference_counts:
            self.attempted += 1
            self.failed += 1
            self.failures.append(
                f"determinism guard: pass counts {result.counts} != "
                f"first pass {reference_counts}")
        return result.counts

    def measure(self) -> list:
        """Untraced passes until --seconds have passed and the p90 has
        enough samples beyond it."""
        from workloads import Meter

        meter = Meter(self.calibrator)
        deadline = perf_counter() + self.args.seconds
        passes, counts, samples = [], None, []
        while True:
            result = self.workload.run_pass(self.state, meter)
            counts = self._fold(result, counts)
            passes.append(result)
            samples.extend(cal for cal, _ in result.ops)
            if perf_counter() - PROCESS_START > HARD_STOP_S:
                break
            if perf_counter() >= deadline and (
                    self.args.smoke or _beyond_p90(samples) >= TAIL_SAMPLES):
                break
        return passes

    def measure_traced(self):
        """Alternate untraced and traced passes (the order flips every
        pair) until --seconds have passed; returns both lists plus the
        per-traced-pass ledgers."""
        from layers import EXACT_LAYER_COUNTS, PROBES, derive
        from ledger import Ledger, PassLedger
        from repro.obs.metrics import MetricsCollector
        from workloads import Meter

        meter = Meter(self.calibrator)
        deadline = perf_counter() + self.args.seconds
        untraced, traced, layer_rows, ledgers = [], [], [], []
        pass_ledgers = []
        counts = layer_counts = None
        token_memo: dict[str, int] = {}
        pair = 0
        while True:
            order = (False, True) if pair % 2 == 0 else (True, False)
            for with_trace in order:
                if not with_trace:
                    result = self.workload.run_pass(self.state, meter)
                    counts = self._fold(result, counts)
                    untraced.append(result)
                    continue
                ledger = Ledger(PROBES)
                meter.ledger, meter.pass_ledger = ledger, PassLedger()
                meter.metrics = MetricsCollector()
                ledger.install()
                try:
                    result = self.workload.run_pass(self.state, meter)
                finally:
                    ledger.uninstall()
                ledger.program_counters.update(meter.metrics.counters)
                pass_ledger = meter.pass_ledger
                pass_ledgers.append(pass_ledger)
                meter.ledger = meter.pass_ledger = meter.metrics = None
                counts = self._fold(result, counts)
                traced.append(result)
                ledgers.append(ledger)
                row = derive(ledger, pass_ledger, result.extra, token_memo)
                exact = {key: row[key] for key in EXACT_LAYER_COUNTS}
                if layer_counts is not None and exact != layer_counts:
                    self.attempted += 1
                    self.failed += 1
                    self.failures.append(
                        f"determinism guard: layer counts {exact} != "
                        f"first traced pass {layer_counts}")
                layer_counts = exact
                layer_rows.append(row)
            pair += 1
            if perf_counter() >= deadline \
                    or perf_counter() - PROCESS_START > HARD_STOP_S:
                break
        self.unattributed_shares = [
            share for ledger in pass_ledgers
            for share in ledger.unattributed_shares]
        return untraced, traced, layer_rows, ledgers

    # -- reporting -----------------------------------------------------------

    def end_to_end(self, passes: list, setup_s: float) -> tuple[dict, dict]:
        cal = [c for p in passes for c, _ in p.ops]
        ms = [s * 1e3 for p in passes for _, s in p.ops]
        overheads = self.setup_overheads or [
            o for p in passes for o in p.overheads]
        counts = passes[0].counts
        values = {
            "setup_s": setup_s,
            "op_p50": statistics.median(cal),
            "op_p90": _p90(cal),
            "pass_cal": statistics.median(p.pass_cal for p in passes),
            "sched_overhead_p50": statistics.median(overheads),
            "sim_cycles": counts["sim_cycles"],
            "static_instrs": counts["static_instrs"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw = {
            "op_samples": len(cal),
            "passes": len(passes),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": _p90(ms),
            "pass_ms": statistics.median(p.pass_seconds * 1e3
                                         for p in passes),
            "overhead_samples": len(overheads),
        }
        if "cache_hit_rate" in counts:
            raw["cache_hit_rate"] = counts["cache_hit_rate"]
        return values, raw

    def paper_report(self, passes: list) -> dict:
        name = self.workload.name
        if name == "corpus_compile":
            ratios = [p.paper["spec_cal"] / p.paper["none_cal"] - 1
                      for p in passes if p.paper.get("none_cal")]
            return {"corpus_cto_pct": 100 * statistics.median(ratios)}
        if name != "kernel_eval":
            return {}
        rows = {}
        for kernel in passes[0].paper:
            first = passes[0].paper[kernel]
            cycles = first["cycles"]
            compile_cal = {level: [c for p in passes
                                   for c in p.paper[kernel]["compile_cal"]
                                   [level]]
                           for level in cycles}
            base = statistics.median(compile_cal["none"])
            rows[kernel] = {
                "cto_pct": 100 * (statistics.median(
                    compile_cal["speculative"]) / base - 1),
                "rti_useful_pct": 100 * (cycles["none"] - cycles["useful"])
                / cycles["none"],
                "rti_speculative_pct": 100 * (
                    cycles["none"] - cycles["speculative"]) / cycles["none"],
                "bsp_gap": first["sim_cycles"] / first["bsp_bound"],
            }
        return {"kernels": rows}


def _print_report(title: str, metrics: dict, meta: dict) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:14.4f} {entry['unit']}")
    for key, value in meta.items():
        if key not in ("paper", "paper_note"):
            print(f"  [{key}] {value}")
    paper = meta.get("paper") or {}
    if "corpus_cto_pct" in paper:
        print(f"  Figure 7 CTO (corpus): {paper['corpus_cto_pct']:.1f}%")
    if "kernels" in paper:
        print(f"  {'kernel':16s} {'CTO%':>8s} {'RTI useful%':>12s} "
              f"{'RTI spec%':>10s} {'bsp_gap':>8s}")
        for kernel, row in paper["kernels"].items():
            print(f"  {kernel:16s} {row['cto_pct']:8.1f} "
                  f"{row['rti_useful_pct']:12.1f} "
                  f"{row['rti_speculative_pct']:10.1f} {row['bsp_gap']:8.3f}")
    if paper:
        print(f"  ({meta['paper_note']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus_compile", "kernel_eval",
                                 "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no tail-sample floor (tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program under test is missing ({SRC / 'repro'} "
              "not found); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args)
    setup_s = run.setup()
    meta: dict = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        from layers import PER_LAYER_UNITS

        untraced, traced, rows, ledgers = run.measure_traced()
        values = {name: statistics.median(row[name] for row in rows)
                  for name in rows[0]}
        plain = statistics.median(p.pass_cal for p in untraced)
        values["trace.overhead_pct"] = 100 * (
            statistics.median(p.pass_cal for p in traced) / plain - 1)
        calibration = run.calibrator.summary()
        values["cal.median_ms"] = calibration["median_ms"]
        values["cal.spread_pct"] = 100 * calibration["spread"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        meta["traced_passes"] = len(traced)
        meta["untraced_passes"] = len(untraced)
        shares = run.unattributed_shares
        meta["unattributed_per_op_pct"] = {
            "p50": 100 * statistics.median(shares),
            "p90": 100 * _p90(shares), "ops": len(shares)}
        meta["spans"] = _write_spans(args, ledgers)
    else:
        passes = run.measure()
        values, raw = run.end_to_end(passes, setup_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        meta["raw_ms"] = raw
        meta["paper"] = run.paper_report(passes)
        if meta["paper"]:
            meta["paper_note"] = WHY_NOT_GATED
        calibration = run.calibrator.summary()
    meta["error_rate"] = run.failed / max(run.attempted, 1)
    meta["calibration"] = calibration
    if calibration["noisy"]:
        meta["clean"] = False
        print(f"warning: calibration spread {calibration['spread']:.0%} "
              "says the machine was too noisy; these numbers are not clean",
              file=sys.stderr)
    for message in run.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    _print_report(f"{args.workload} seed={args.seed} trace={args.trace}",
                  metrics, meta)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def _write_spans(args, ledgers) -> str:
    """Write every traced span at run end: JSONL, one list per span, with
    start and end in microseconds since the run's first span.  The tag
    field (whole request payloads) is not written."""
    from ledger import SPAN_FIELDS

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    origin = min((ledger.spans[0][2] for ledger in ledgers if ledger.spans),
                 default=0.0)
    with path.open("w") as handle:
        handle.write(json.dumps({"fields": ["pass", *SPAN_FIELDS[:-1]],
                                 "time_unit": "us"}) + "\n")
        for number, ledger in enumerate(ledgers):
            for op, name, start, end, parent, _tag in ledger.spans:
                handle.write(json.dumps([
                    number, op, name, round((start - origin) * 1e6, 1),
                    round((end - origin) * 1e6, 1), parent]) + "\n")
    return str(path.relative_to(HERE.parent))


if __name__ == "__main__":
    sys.exit(main())
