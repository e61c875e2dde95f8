"""The per-layer ledger: which calls are timed, what is counted, and how
the per-layer metrics are derived from one traced pass.

Layer names follow ``src/repro/``.  Every probe names one public function
or method; its span name is ``<layer>:<function>``.
"""

from __future__ import annotations

import statistics

from ledger import Ledger, PassLedger, Probe


def _inc(key: str, amount=1):
    def count(ledger, result, args, kwargs, error):
        ledger.counts[key] += amount
    return count


def _irverify(ledger, result, args, kwargs, error):
    func = args[0] if args else kwargs["func"]
    ledger.counts["irverify.calls"] += 1
    ledger.counts["irverify.instrs_checked"] += sum(
        len(block.instrs) for block in func.blocks)


def _parse(ledger, result, args, kwargs, error):
    ledger.sources.append(args[0] if args else kwargs["source"])


def _region_ddg(ledger, result, args, kwargs, error):
    if result is not None:
        ledger.counts["pdg.ddg_edges"] += result.edge_count()


def _global(ledger, result, args, kwargs, error):
    if result is not None:
        ledger.counts["sched.global.motions_useful"] += len(
            result.useful_motions)
        ledger.counts["sched.global.motions_speculative"] += len(
            result.speculative_motions)


def _bb(ledger, result, args, kwargs, error):
    if result is not None:
        ledger.counts["sched.bb.blocks"] += len(result)


def _verify(ledger, result, args, kwargs, error):
    ledger.counts["verify.calls"] += 1
    if error is not None or not result.ok:
        ledger.counts["verify.rejections"] += 1


def _unit_run(ledger, result, args, kwargs, error):
    if result is not None:
        ledger.counts["sim.instrs_executed"] += result.instructions


def _compile_request(ledger, result, args, kwargs, error):
    if result is not None:
        ledger.counts["service.trace_events"] += len(result["trace"])
        ledger.program_counters.update(result["counters"])


def request_tag(payload: dict) -> tuple:
    """What identifies one compile request (the cache key's inputs)."""
    return (payload["source"], payload["machine"], payload["level"],
            tuple(sorted(payload["config"].items())))


def _payload_tag(args, kwargs):
    return request_tag(args[0] if args else kwargs["payload"])


PROBES = [
    Probe("lang:parse_c", "repro.lang.parser:parse_c", _parse),
    Probe("lang:lower_program", "repro.lang.lower:lower_program"),
    Probe("xform:strength_reduce", "repro.xform.strength:strength_reduce"),
    Probe("xform:unroll_loop", "repro.xform.unroll:unroll_loop",
          _inc("xform.unrolled")),
    Probe("xform:rotate_loop", "repro.xform.rotate:rotate_loop",
          _inc("xform.rotated")),
    Probe("irverify:verify_function", "repro.ir.verify:verify_function",
          _irverify),
    *[Probe(f"analysis:{query}",
            f"repro.dataflow.cache:AnalysisCache.{query}")
      for query in ("cfg", "dominators", "loop_nest", "liveness",
                    "dense_cfg", "block_use_def_masks")],
    Probe("pdg:build_region_pdg", "repro.sched.regions:build_region_pdg",
          _inc("pdg.regions")),
    Probe("pdg:build_region_ddg", "repro.pdg.data_deps:build_region_ddg",
          _region_ddg),
    Probe("pdg:transitive_reduce", "repro.pdg.data_deps:transitive_reduce"),
    Probe("pdg:to_dense",
          "repro.pdg.data_deps:DataDependenceGraph.to_dense"),
    Probe("sched.global:global_schedule", "repro.sched.driver:global_schedule",
          _global),
    Probe("sched.global:schedule_region",
          "repro.sched.global_sched:schedule_region"),
    Probe("sched.bb:schedule_function_blocks",
          "repro.sched.bb_sched:schedule_function_blocks", _bb),
    Probe("verify:verify_schedule", "repro.verify.verifier:verify_schedule",
          _verify),
    Probe("sim:executor", "repro.sim.executor:Executor.run"),
    Probe("sim:timing", "repro.compiler:CompiledUnit.run", _unit_run),
    Probe("sim:bsp_bound", "repro.sim.bsp:bsp_bound"),
    Probe("service:serve_batch_lines",
          "repro.service.daemon:Daemon.serve_batch_lines"),
    Probe("service:cache_key", "repro.service.cache:cache_key"),
    Probe("service:cache_get", "repro.service.cache:ArtifactCache.get"),
    Probe("service:cache_put", "repro.service.cache:ArtifactCache.put"),
    Probe("service:compile_request", "repro.service.worker:compile_request",
          _compile_request, tag=_payload_tag),
]

LAYERS = ("lang", "xform", "irverify", "analysis", "pdg", "sched.global",
          "sched.bb", "verify", "sim", "service")


#: per-layer metrics and their units, in report order
PER_LAYER_UNITS = {
    "lang.self_cal": "cal", "lang.tokens": "count",
    "lang.cal_per_ktoken": "cal/ktoken",
    "xform.self_cal": "cal", "xform.unrolled": "count",
    "xform.rotated": "count",
    "irverify.calls": "count", "irverify.instrs_checked": "count",
    "irverify.self_cal": "cal",
    "analysis.self_cal": "cal", "analysis.cfg_builds": "count",
    "analysis.liveness_solves": "count", "analysis.usedef_hit_ratio": "ratio",
    "pdg.self_cal": "cal", "pdg.regions": "count", "pdg.ddg_edges": "count",
    "pdg.to_dense_cal": "cal",
    "sched.global.self_cal": "cal", "sched.global.motions_useful": "count",
    "sched.global.motions_speculative": "count",
    "sched.global.rejected_live": "count",
    "sched.global.motion_ratio": "ratio",
    "sched.bb.blocks": "count", "sched.bb.self_cal": "cal",
    "verify.calls": "count", "verify.self_cal": "cal",
    "verify.rejections": "count",
    "sim.instrs_executed": "count", "sim.exec_cal": "cal",
    "sim.timing_cal": "cal", "sim.cal_per_kinstr": "cal/kinstr",
    "sim.stall_cycles": "cycles", "sim.bsp_gap": "ratio",
    "service.self_cal": "cal", "service.cache_hit_rate": "ratio",
    "service.compile_cal": "cal", "service.queue_wait_cal": "cal",
    "service.frontdoor_cal": "cal", "service.trace_events": "count",
    "trace.pass_cal": "cal", "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%", "trace.closure_pct": "%",
    "cal.median_ms": "ms", "cal.spread_pct": "%",
}

#: per-layer counts that must repeat exactly across traced passes
EXACT_LAYER_COUNTS = ("pdg.ddg_edges", "sched.global.motions_useful",
                      "sched.global.motions_speculative",
                      "sim.instrs_executed", "service.cache_hit_rate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _token_count(sources: list[str], memo: dict[str, int]) -> int:
    from repro.lang.lexer import tokenize

    total = 0
    for source in sources:
        if source not in memo:
            memo[source] = len(tokenize(source))
        total += memo[source]
    return total


def _service_waits(ledger: Ledger, requests: list[dict]) -> tuple:
    """Median per-request queue wait and per-batch front-door time, in
    cal, from the spans of one traced serve pass.  ``requests`` holds one
    ``{"op": id, "tag": request_tag}`` entry per request sent."""
    compile_cal: dict[tuple[int, tuple], float] = {}
    per_op_compiles: dict[int, float] = {}
    for op, name, start, end, _parent, tag in ledger.spans:
        if name != "service:compile_request":
            continue
        unit = ledger.op_units[op]
        cal = (end - start) / unit
        compile_cal[(op, tag)] = cal
        per_op_compiles[op] = per_op_compiles.get(op, 0.0) + cal
    waits = []
    for request in requests:
        op = request["op"]
        seconds, unit = ledger.op_seconds[op], ledger.op_units[op]
        own = compile_cal.pop((op, request["tag"]), 0.0)
        waits.append(seconds / unit - own)
    ops = sorted({request["op"] for request in requests})
    front = [ledger.op_seconds[op] / ledger.op_units[op]
             - per_op_compiles.get(op, 0.0) for op in ops]
    return (statistics.median(waits) if waits else 0.0,
            statistics.median(front) if front else 0.0)


def derive(ledger: Ledger, pass_ledger: PassLedger, extra: dict,
           token_memo: dict[str, int]) -> dict[str, float]:
    """Per-layer metric values of one traced pass.

    ``extra`` carries what the workload measured itself: ``bsp_bound``
    and ``sim_cycles`` (summed over checked runs), ``stall_cycles``,
    ``cache_hit_rate`` and, for serve passes, ``requests``.
    """
    counts = ledger.counts
    program = ledger.program_counters
    self_of = pass_ledger.layer_self_cal
    name_cal = pass_ledger.self_cal
    out: dict[str, float] = {}

    tokens = _token_count(ledger.sources, token_memo)
    out["lang.self_cal"] = self_of("lang")
    out["lang.tokens"] = tokens
    out["lang.cal_per_ktoken"] = _ratio(out["lang.self_cal"], tokens / 1e3)

    out["xform.self_cal"] = self_of("xform")
    out["xform.unrolled"] = counts["xform.unrolled"]
    out["xform.rotated"] = counts["xform.rotated"]

    out["irverify.calls"] = counts["irverify.calls"]
    out["irverify.instrs_checked"] = counts["irverify.instrs_checked"]
    out["irverify.self_cal"] = self_of("irverify")

    out["analysis.self_cal"] = self_of("analysis")
    out["analysis.cfg_builds"] = program["analysis.dense.cfg_builds"]
    out["analysis.liveness_solves"] = program["analysis.dense.liveness_solves"]
    out["analysis.usedef_hit_ratio"] = _ratio(
        program["analysis.dense.usedef_hits"],
        program["analysis.dense.usedef_hits"]
        + program["analysis.dense.usedef_builds"])

    out["pdg.self_cal"] = self_of("pdg")
    out["pdg.regions"] = counts["pdg.regions"]
    out["pdg.ddg_edges"] = counts["pdg.ddg_edges"]
    out["pdg.to_dense_cal"] = name_cal.get("pdg:to_dense", 0.0)

    motions = (counts["sched.global.motions_useful"]
               + counts["sched.global.motions_speculative"])
    candidates = sum(program[f"sched.candidates.{kind}"]
                     for kind in ("useful", "speculative", "duplication"))
    out["sched.global.self_cal"] = self_of("sched.global")
    out["sched.global.motions_useful"] = counts["sched.global.motions_useful"]
    out["sched.global.motions_speculative"] = counts[
        "sched.global.motions_speculative"]
    out["sched.global.rejected_live"] = program[
        "sched.speculation.rejected_live"]
    out["sched.global.motion_ratio"] = _ratio(motions, candidates)

    out["sched.bb.blocks"] = counts["sched.bb.blocks"]
    out["sched.bb.self_cal"] = self_of("sched.bb")

    out["verify.calls"] = counts["verify.calls"]
    out["verify.self_cal"] = self_of("verify")
    out["verify.rejections"] = counts["verify.rejections"]

    instrs = counts["sim.instrs_executed"]
    out["sim.instrs_executed"] = instrs
    out["sim.exec_cal"] = name_cal.get("sim:executor", 0.0)
    out["sim.timing_cal"] = name_cal.get("sim:timing", 0.0)
    out["sim.cal_per_kinstr"] = _ratio(
        out["sim.exec_cal"] + out["sim.timing_cal"], instrs / 1e3)
    out["sim.stall_cycles"] = extra.get("stall_cycles", 0)
    out["sim.bsp_gap"] = _ratio(extra.get("sim_cycles", 0),
                                extra.get("bsp_bound", 0))

    queue_wait, frontdoor = _service_waits(ledger, extra.get("requests", []))
    out["service.self_cal"] = self_of("service")
    out["service.cache_hit_rate"] = extra.get("cache_hit_rate", 0.0)
    out["service.compile_cal"] = sum(
        (end - start) / ledger.op_units[op]
        for op, name, start, end, _parent, _tag in ledger.spans
        if name == "service:compile_request")
    out["service.queue_wait_cal"] = queue_wait
    out["service.frontdoor_cal"] = frontdoor
    out["service.trace_events"] = counts["service.trace_events"]

    attributed = sum(self_of(layer) for layer in LAYERS)
    out["trace.pass_cal"] = pass_ledger.op_cal
    out["trace.unattributed_pct"] = 100 * _ratio(
        pass_ledger.unattributed_cal, pass_ledger.op_cal)
    out["trace.closure_pct"] = 100 * _ratio(
        abs(attributed + pass_ledger.unattributed_cal - pass_ledger.op_cal),
        pass_ledger.op_cal)
    return out
