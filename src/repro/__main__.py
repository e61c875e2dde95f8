"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile FILE.c`` -- compile mini-C and print the scheduled assembly;
* ``run FILE.c FUNC ARGS...`` -- compile, execute on the simulator, and
  report results and cycle counts (array arguments as ``1,2,3`` lists);
* ``schedule FILE.ir`` -- globally schedule a textual-IR function;
* ``dot FILE.c --graph cfg|cspdg|ddg`` -- emit Graphviz for the graphs of
  the paper's Figures 3 and 4;
* ``figures`` -- regenerate the paper's Figure 7/8 tables;
* ``scorecard`` -- regenerate the Figure-8-style ``program x machine x
  level`` matrix across the whole machine zoo, with the static verifier,
  the event-vs-scan engine diff and the BSP cost cross-check run on every
  cell (``--out matrix.json`` writes the deterministic JSON artifact);
* ``verify FILE.c`` -- compile with the static schedule verifier enabled
  and report every sweep's verification result;
* ``stats FILE.c`` -- compile with metrics on and print the paper-style
  scheduling report (motions by kind, speculation accounting, ready-list
  pressure, per-block schedule lengths);
* ``fuzz --n 500 --seed 1991`` -- differential fuzzing: generated programs
  compiled at every level on several machines, outputs compared, failures
  minimised (``--reproduce SEED:INDEX`` re-runs one case).  Campaigns can
  bound each program (``--timeout``), park repeat offenders instead of
  aborting (on unless ``--no-quarantine``; ``--quarantine-out`` writes the
  report), and checkpoint/resume (``--checkpoint FILE`` / ``--resume
  FILE``) with results identical to an uninterrupted run;
* ``serve`` -- batch compile-as-a-service: JSONL requests on stdin (or
  ``--socket PATH``), JSONL responses in request order, backed by a
  sharded job pool (``--jobs``) and a content-addressed artifact cache
  (``--cache-entries`` / ``--cache-dir``); responses are identical for
  every job count, and ``--scorecard`` prints the live operator report
  (QPS, cache hit rate, rung histogram, queue depth) after every batch.
  The service is self-healing: dead or hung workers are detected and
  the pool rebuilt in place (``--hang-timeout``; repeated rebuilds trip
  a circuit breaker into inline mode), ``--journal FILE`` keeps a
  write-ahead journal so ``--resume-journal`` replays whatever a crash
  interrupted, ``--high-water``/``--low-water`` shed load above a
  queue-depth watermark (fast-fail ``overloaded`` or, with
  ``--degrade-under-load``, one re-verified ladder rung down), and
  ``--max-request-bytes``/``--read-deadline`` harden the framing
  against oversized frames and stalled clients;
* ``chaos --n 200 --seed 1991`` -- fault injection: seeded faults (pass
  crashes/hangs, corrupted dependence graphs, stale analyses, blinded
  live-on-exit sets) against the resilient pipeline, asserting every one
  is absorbed at a verified degradation rung or reported as a typed
  error -- never an uncaught traceback or a surviving miscompile.
  ``--service`` swaps in service-boundary faults instead -- worker
  kills/hangs, client disconnects, torn journal writes, partial frames
  -- against a live daemon, asserting every response is the
  BSP-cross-checked reference answer or a typed error, and the daemon
  never hangs or dies.

``compile`` and ``stats`` accept ``--resilient`` (fail-soft pipeline:
pass isolation plus the speculative -> useful -> bb -> identity
degradation ladder) and ``--pass-budget`` / ``--program-budget``
(wall-clock seconds, implying ``--resilient``).

``compile`` and ``stats`` accept ``--trace-out trace.jsonl`` (the JSONL
decision trace) and ``--trace-chrome trace.json`` (the same trace in
Chrome-trace format, loadable in Perfetto / chrome://tracing).

Examples::

    python -m repro compile examples/minmax.c --level speculative
    python -m repro run tests.c minmax 5,3,9,1 3 0,0
    python -m repro figures
    python -m repro verify examples/minmax.c
    python -m repro stats examples/minmax.c --trace-out minmax.jsonl
    python -m repro fuzz --n 500 --seed 1991
"""

from __future__ import annotations

import argparse
import json
import sys

from .compiler import compile_c
from .lang import FRONT_END_ERRORS
from .machine.configs import CONFIGS
from .sched.candidates import ScheduleLevel
from .xform.pipeline import PipelineConfig

_LEVELS = {level.value: level for level in ScheduleLevel}


class CLIError(Exception):
    """A user-facing error: printed as one line, exits with status 2."""


def _machine_factory(name: str):
    """Resolve a machine name, or fail with the one-line CLI idiom."""
    try:
        return CONFIGS[name]
    except KeyError:
        raise CLIError(
            f"error: unknown machine {name!r}; available: "
            f"{', '.join(sorted(CONFIGS))}") from None


def _read_source(path: str) -> str:
    """Read an input file, turning OS errors into one-line CLI errors."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror or exc.__class__.__name__
        raise CLIError(f"error: cannot read {path!r}: {reason}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--level", choices=sorted(_LEVELS),
                        default="speculative",
                        help="scheduling level (default: speculative)")
    parser.add_argument("--machine", default="rs6k", metavar="NAME",
                        help="machine configuration (default: rs6k; "
                             "see the machine zoo in repro.machine.configs)")


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the JSONL decision trace to FILE")
    parser.add_argument("--trace-chrome", metavar="FILE",
                        help="write a Chrome-trace/Perfetto JSON to FILE")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resilient", action="store_true",
                        help="fail-soft pipeline: pass isolation + the "
                             "degradation ladder")
    parser.add_argument("--pass-budget", type=float, metavar="SECONDS",
                        help="wall-clock budget per pipeline stage "
                             "(implies --resilient)")
    parser.add_argument("--program-budget", type=float, metavar="SECONDS",
                        help="wall-clock budget per function, across all "
                             "ladder rungs (implies --resilient)")


def _resilience_config(args):
    """The ResilienceConfig the flags ask for, or None (inert pipeline)."""
    if not (args.resilient or args.pass_budget is not None
            or args.program_budget is not None):
        return None
    from .resilience import ResilienceConfig

    return ResilienceConfig(pass_budget_s=args.pass_budget,
                            program_budget_s=args.program_budget)


class _TraceOutputs:
    """Resolves --trace-out/--trace-chrome into one tracer + a finaliser."""

    def __init__(self, trace_out: str | None, trace_chrome: str | None):
        from .obs import CollectingTracer, JsonlTracer, TeeTracer

        self._chrome_path = trace_chrome
        self._collector = CollectingTracer() if trace_chrome else None
        self._jsonl = JsonlTracer(trace_out) if trace_out else None
        sinks = [s for s in (self._jsonl, self._collector) if s is not None]
        if not sinks:
            self.tracer = None
        elif len(sinks) == 1:
            self.tracer = sinks[0]
        else:
            self.tracer = TeeTracer(*sinks)

    def finish(self) -> None:
        from .obs import write_chrome_trace

        if self._jsonl is not None:
            self._jsonl.close()
        if self._collector is not None:
            write_chrome_trace(self._collector.events, self._chrome_path)


def _compile(path: str, level: str, machine: str, **config_kwargs):
    factory = _machine_factory(machine)
    source = _read_source(path)
    config = PipelineConfig(level=_LEVELS[level], **config_kwargs)
    try:
        return compile_c(source, machine=factory(),
                         level=_LEVELS[level], config=config)
    except FRONT_END_ERRORS as exc:
        # lexer and parser messages already start with "line N: "
        raise CLIError(f"error: {path}: {exc}") from exc


def cmd_compile(args) -> int:
    outputs = _TraceOutputs(args.trace_out, args.trace_chrome)
    result = _compile(args.file, args.level, args.machine,
                      use_counter_register=args.ctr,
                      trace=outputs.tracer,
                      resilience=_resilience_config(args))
    outputs.finish()
    for unit in result:
        if args.function and unit.name != args.function:
            continue
        print(unit.assembly())
        report = unit.report
        motions = report.motions
        useful = sum(1 for m in motions if not m.speculative)
        spec = len(motions) - useful
        print(f"; {unit.name}: {useful} useful + {spec} speculative "
              f"motions, compiled in {report.elapsed_seconds * 1e3:.1f} ms")
        print()
    return 0


def cmd_stats(args) -> int:
    from .obs import MetricsCollector, format_stats

    metrics = MetricsCollector()
    outputs = _TraceOutputs(args.trace_out, args.trace_chrome)
    result = _compile(args.file, args.level, args.machine,
                      trace=outputs.tracer, metrics=metrics,
                      resilience=_resilience_config(args))
    outputs.finish()
    units = [(unit.name, unit.report) for unit in result]
    print(format_stats(args.file, args.machine, args.level, units, metrics))
    return 0


def _parse_arg(text: str):
    if "," in text or text.startswith("["):
        items = text.strip("[]").split(",")
        return [int(i) for i in items if i.strip() != ""]
    return int(text)


def cmd_run(args) -> int:
    result = _compile(args.file, args.level, args.machine)
    unit = result[args.function]
    call_args = [_parse_arg(a) for a in args.args]
    run = unit.run(*call_args)
    print(f"return value: {run.return_value}")
    for i, array in enumerate(run.arrays):
        print(f"array arg {i}: {array}")
    print(f"cycles: {run.cycles}  instructions: {run.instructions}  "
          f"IPC: {run.timing.ipc:.2f}")
    return 0


def cmd_schedule(args) -> int:
    from .ir.parser import ParseError, parse_function
    from .ir.printer import format_function
    from .sched.driver import global_schedule

    machine = _machine_factory(args.machine)()
    try:
        func = parse_function(_read_source(args.file))
    except ParseError as exc:
        raise CLIError(f"error: {args.file}: {exc}") from exc
    report = global_schedule(func, machine, _LEVELS[args.level])
    print(format_function(func))
    for motion in report.motions:
        print(f"; {motion!r}")
    return 0


def cmd_dot(args) -> int:
    from .sched.regions import build_region_pdg, find_regions
    from .viz import cfg_to_dot, cspdg_to_dot, ddg_to_dot

    result = _compile(args.file, args.level, args.machine)
    unit = result[args.function] if args.function else next(iter(result))
    func = unit.func
    if args.graph == "cfg":
        print(cfg_to_dot(func, instructions=args.instructions), end="")
        return 0
    # PDG graphs are per region: pick the first loop (or the body region)
    regions = find_regions(func)
    spec = next((r for r in regions if r.kind == "loop"), regions[-1])
    pdg = build_region_pdg(func, unit.machine, spec)
    if args.graph == "cspdg":
        print(cspdg_to_dot(pdg), end="")
    else:
        print(ddg_to_dot(pdg.ddg, name=func.name), end="")
    return 0


def cmd_figures(args) -> int:
    from .bench.harness import (figure7_table, figure8_table,
                                format_figure7, format_figure8)

    print(format_figure8(figure8_table()))
    print()
    print(format_figure7(figure7_table(repeats=args.repeats)))
    return 0


def cmd_scorecard(args) -> int:
    from .bench.scorecard import format_scorecard, run_scorecard
    from .machine.configs import ZOO

    machines = (tuple(args.machines.split(",")) if args.machines else ZOO)
    for name in machines:
        _machine_factory(name)
    progress = (lambda line: print(line, flush=True)) if args.verbose \
        else None
    card = run_scorecard(machines, seed=args.seed, progress=progress)
    print(format_scorecard(card))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(card.to_json())
        print(f"wrote scorecard JSON ({len(card.cells)} cells) to "
              f"{args.out}")
    return 0 if card.ok else 1


def cmd_verify(args) -> int:
    from .verify import ScheduleVerificationError

    try:
        result = _compile(args.file, args.level, args.machine, verify=True)
    except ScheduleVerificationError as exc:
        print(exc.report.format())
        return 1
    for unit in result:
        for report in unit.report.verify_reports:
            print(f"{unit.name}: {report.format().splitlines()[0]} -- ok")
    print("all schedules verified")
    return 0


def cmd_fuzz(args) -> int:
    from .resilience.errors import BudgetExceeded, CheckpointError
    from .verify import fuzz, reproduce
    from .verify.differential import DEFAULT_MACHINES
    from .verify.generator import GenProgram

    machines = (tuple(args.machines.split(","))
                if args.machines else DEFAULT_MACHINES)
    for name in machines:
        _machine_factory(name)
    if args.jobs < 1:
        print(f"--jobs must be a positive integer, got {args.jobs}",
              file=sys.stderr)
        return 2

    if args.reproduce:
        # replays are single-process by construction: one derived seed,
        # one program, fully deterministic
        if args.jobs != 1:
            print("note: --reproduce runs single-process; ignoring --jobs",
                  file=sys.stderr)
        seed_text, sep, index_text = args.reproduce.partition(":")
        if not (sep and seed_text.lstrip("-").isdigit()
                and index_text.isdigit()):
            print(f"--reproduce wants SEED:INDEX (two integers), "
                  f"got {args.reproduce!r}", file=sys.stderr)
            return 2
        try:
            outcome = reproduce(int(seed_text), int(index_text),
                                machines=machines,
                                shrink=not args.no_shrink,
                                timeout_s=args.timeout)
        except BudgetExceeded as exc:
            print(f"reproduce timed out: {exc}", file=sys.stderr)
            return 1
        program = (outcome if isinstance(outcome, GenProgram) else None)
        if program is not None:
            print(f"program {index_text} of seed {seed_text} passes")
            print(program.source)
            code = 0
        else:
            print(outcome.format())
            code = 1
        from .verify.fuzz import degradation_rung, derive_seed
        from .verify.generator import generate_program

        if program is None:
            program = generate_program(
                derive_seed(int(seed_text), int(index_text)))
        print("degradation ladder rung: "
              f"{degradation_rung(program, timeout_s=args.timeout)}")
        return code

    def progress(done: int, failures: int) -> None:
        if done % 50 == 0 or done == args.n:
            print(f"  {done}/{args.n} programs, {failures} failure(s)",
                  flush=True)

    try:
        report = fuzz(args.n, args.seed, machines=machines,
                      shrink=not args.no_shrink, on_progress=progress,
                      jobs=args.jobs,
                      collect_metrics=bool(args.metrics_out),
                      timeout_s=args.timeout,
                      quarantine=not args.no_quarantine,
                      checkpoint_path=args.checkpoint,
                      resume_path=args.resume,
                      interrupt_after=args.interrupt_after)
    except CheckpointError as exc:
        raise CLIError(f"error: {exc}") from exc
    for failure in report.failures:
        print(failure.format())
    for parked in report.quarantined:
        print(parked.format())
    if args.metrics_out:
        payload = {
            "master_seed": report.master_seed,
            "attempted": report.attempted,
            "failures": len(report.failures),
            "programs": report.metric_summaries,
        }
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote per-program metrics for "
              f"{len(report.metric_summaries)} programs to "
              f"{args.metrics_out}")
    if args.quarantine_out:
        from dataclasses import asdict

        payload = {
            "master_seed": report.master_seed,
            "attempted": report.attempted,
            "quarantined": [asdict(q) for q in report.quarantined],
        }
        with open(args.quarantine_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote quarantine report "
              f"({len(report.quarantined)} program(s)) to "
              f"{args.quarantine_out}")
    print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    from .service import Daemon, JournalError, ServeConfig

    _machine_factory(args.machine)
    if args.jobs < 1:
        raise CLIError(f"error: --jobs must be a positive integer, "
                       f"got {args.jobs}")
    if args.batch_size < 1:
        raise CLIError(f"error: --batch-size must be a positive integer, "
                       f"got {args.batch_size}")
    if args.resume_journal and not args.journal:
        raise CLIError("error: --resume-journal requires --journal FILE")
    if args.high_water is not None and args.high_water < 1:
        raise CLIError(f"error: --high-water must be a positive integer, "
                       f"got {args.high_water}")
    if args.low_water is not None and args.high_water is None:
        raise CLIError("error: --low-water requires --high-water")
    if args.low_water is not None and args.low_water >= args.high_water:
        raise CLIError(f"error: --low-water ({args.low_water}) must be "
                       f"below --high-water ({args.high_water})")
    if args.max_request_bytes is not None and args.max_request_bytes < 2:
        raise CLIError(f"error: --max-request-bytes must be at least 2, "
                       f"got {args.max_request_bytes}")
    config = ServeConfig(
        jobs=args.jobs, machine=args.machine, level=args.level,
        timeout_s=args.timeout, resilient=args.resilient,
        cache_entries=args.cache_entries, cache_dir=args.cache_dir,
        batch_size=args.batch_size, queue_size=args.queue_size,
        allow_chaos=args.chaos, scorecard=args.scorecard,
        supervise=not args.no_supervise,
        hang_timeout_s=args.hang_timeout,
        max_rebuilds=args.max_rebuilds,
        rebuild_window_s=args.rebuild_window,
        journal_path=args.journal,
        resume_journal=args.resume_journal,
        high_water=args.high_water, low_water=args.low_water,
        degrade_under_load=args.degrade_under_load,
        max_request_bytes=args.max_request_bytes,
        read_deadline_s=args.read_deadline,
    )
    with Daemon(config) as daemon:
        daemon.install_signal_handlers()
        if args.resume_journal:
            try:
                replayed = daemon.resume_from_journal(sys.stdout,
                                                      sys.stderr)
            except JournalError as exc:
                raise CLIError(f"error: {exc}") from exc
            print(f"serve: replayed {replayed} journaled request(s)",
                  file=sys.stderr)
        elif args.journal:
            daemon.start_journal()
        if args.socket:
            summary = daemon.serve_socket(args.socket, sys.stderr)
        else:
            # own stdin outright: read a private dup and blank
            # sys.stdin, so pool workers forked while the reader thread
            # holds the buffer lock never touch it in _close_stdin
            import os

            in_stream = os.fdopen(os.dup(sys.stdin.fileno()), "r",
                                  encoding="utf-8", errors="replace")
            sys.stdin = None
            summary = daemon.serve_stream(in_stream, sys.stdout,
                                          sys.stderr)
    statuses = summary["statuses"]
    print(f"serve: {summary['requests']} request(s) in "
          f"{summary['batches']} batch(es), "
          f"{summary['cache_hits']} cache hit(s), "
          f"{statuses.get('quarantined', 0)} quarantined, "
          f"{statuses.get('error', 0)} error(s)", file=sys.stderr)
    return 0


def cmd_chaos(args) -> int:
    _machine_factory(args.machine)
    if args.jobs < 1:
        raise CLIError(f"error: --jobs must be a positive integer, "
                       f"got {args.jobs}")

    def progress(result) -> None:
        if args.verbose:
            print(result.format(), flush=True)

    if args.service:
        from .resilience.service_chaos import run_service_chaos

        report = run_service_chaos(args.n, args.seed,
                                   machine_name=args.machine,
                                   jobs=args.jobs, on_progress=progress)
    else:
        from .resilience import run_chaos

        report = run_chaos(args.n, args.seed, machine_name=args.machine,
                           on_progress=progress)
    if not args.verbose:
        for violation in report.violations:
            print(violation.format())
    print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDG-based global instruction scheduling "
                    "(Bernstein & Rodeh, PLDI 1991)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile mini-C, print assembly")
    p.add_argument("file")
    p.add_argument("--function", help="print only this function")
    p.add_argument("--ctr", action="store_true",
                   help="enable counter-register loops (footnote 3)")
    _add_common(p)
    _add_trace_flags(p)
    _add_resilience_flags(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("stats",
                       help="print the paper-style scheduling report")
    p.add_argument("file")
    _add_common(p)
    _add_trace_flags(p)
    _add_resilience_flags(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("run", help="compile and execute on the simulator")
    p.add_argument("file")
    p.add_argument("function")
    p.add_argument("args", nargs="*",
                   help="ints for scalars, comma lists for arrays")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("schedule",
                       help="globally schedule a textual-IR function")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("dot", help="emit Graphviz for CFG/CSPDG/DDG")
    p.add_argument("file")
    p.add_argument("--graph", choices=["cfg", "cspdg", "ddg"],
                   default="cfg")
    p.add_argument("--function")
    p.add_argument("--instructions", action="store_true",
                   help="include instruction listings in CFG nodes")
    _add_common(p)
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser("figures",
                       help="regenerate the paper's Figure 7/8 tables")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("scorecard",
                       help="regenerate the program x machine x level "
                            "matrix across the machine zoo")
    p.add_argument("--machines", metavar="NAMES",
                   help="comma-separated machine names "
                        "(default: the full zoo)")
    p.add_argument("--seed", type=int, default=1991,
                   help="workload-input seed (default: 1991)")
    p.add_argument("--out", metavar="FILE",
                   help="write the deterministic JSON matrix to FILE")
    p.add_argument("--verbose", action="store_true",
                   help="print every cell as it is measured")
    p.set_defaults(fn=cmd_scorecard)

    p = sub.add_parser("verify",
                       help="compile with the schedule verifier enabled")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing across levels/machines")
    p.add_argument("--n", type=int, default=100,
                   help="number of generated programs (default: 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign master seed (default: 0)")
    p.add_argument("--machines",
                   help="comma-separated machine names "
                        "(default: rs6k,scalar,ss2)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimising them")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the campaign (default: 1; "
                        "results are identical for any job count)")
    p.add_argument("--reproduce", metavar="SEED:INDEX",
                   help="re-run (and shrink) one campaign program "
                        "(always single-process)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write per-program scheduling metric summaries "
                        "(JSON) to FILE")
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="wall-clock budget per program (default: none)")
    p.add_argument("--no-quarantine", action="store_true",
                   help="legacy fail-fast mode: a crashed worker aborts "
                        "the campaign instead of quarantining the program")
    p.add_argument("--quarantine-out", metavar="FILE",
                   help="write the quarantine report (JSON) to FILE")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="save campaign state to FILE after every program")
    p.add_argument("--resume", metavar="FILE",
                   help="resume a campaign from a --checkpoint FILE")
    p.add_argument("--interrupt-after", type=int, metavar="N",
                   help="stop after N programs this run (for exercising "
                        "--checkpoint/--resume)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("serve",
                       help="batch compile-as-a-service: JSONL requests "
                            "in, JSONL responses out")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="compile worker processes (default: 1; responses "
                        "are identical for any job count)")
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="wall-clock deadline per request (default: none)")
    p.add_argument("--cache-entries", type=int, default=256, metavar="N",
                   help="in-memory artifact-cache capacity (default: 256)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="also persist cached artifacts under DIR")
    p.add_argument("--batch-size", type=int, default=32, metavar="N",
                   help="max requests answered per batch (default: 32)")
    p.add_argument("--queue-size", type=int, default=64, metavar="N",
                   help="job-queue bound before submit blocks "
                        "(default: 64)")
    p.add_argument("--socket", metavar="PATH",
                   help="listen on a Unix socket instead of stdin/stdout")
    p.add_argument("--scorecard", action="store_true",
                   help="print the live service scorecard to stderr "
                        "after every batch")
    p.add_argument("--chaos", action="store_true",
                   help="admit the 'chaos_hang_s' fault-injection "
                        "request hook (tests/CI only)")
    p.add_argument("--resilient", action="store_true",
                   help="default requests to the fail-soft pipeline "
                        "(requests may override per line)")
    p.add_argument("--journal", metavar="FILE",
                   help="write-ahead journal of accepted requests and "
                        "completions, for crash recovery")
    p.add_argument("--resume-journal", action="store_true",
                   help="on start, replay the journal's incomplete "
                        "requests before serving (requires --journal)")
    p.add_argument("--no-supervise", action="store_true",
                   help="raw worker pool without the supervisor (bench "
                        "baseline; a crashed worker can wedge a batch)")
    p.add_argument("--hang-timeout", type=float, metavar="SECONDS",
                   help="supervisor deadline for in-flight jobs; a job "
                        "past it is quarantined and its pool rebuilt "
                        "(default: rely on the per-job watchdog)")
    p.add_argument("--max-rebuilds", type=int, default=3, metavar="N",
                   help="pool rebuilds inside --rebuild-window before "
                        "the circuit breaker trips to inline mode "
                        "(default: 3)")
    p.add_argument("--rebuild-window", type=float, default=60.0,
                   metavar="SECONDS",
                   help="sliding window for the rebuild counter "
                        "(default: 60)")
    p.add_argument("--high-water", type=int, metavar="N",
                   help="unserved-request depth that starts load "
                        "shedding (default: admission control off)")
    p.add_argument("--low-water", type=int, metavar="N",
                   help="depth at which shedding stops "
                        "(default: half of --high-water)")
    p.add_argument("--degrade-under-load", action="store_true",
                   help="shed by compiling one ladder rung down "
                        "(re-verified) instead of fast-failing with "
                        "'overloaded'")
    p.add_argument("--max-request-bytes", type=int, metavar="N",
                   help="longest request line accepted; longer frames "
                        "get a typed 'oversized' error (default: "
                        "unbounded)")
    p.add_argument("--read-deadline", type=float, metavar="SECONDS",
                   help="per-client socket read deadline; a stalled "
                        "client ends its own session only (default: "
                        "patient)")
    _add_common(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("chaos",
                       help="seeded fault injection against the "
                            "resilient pipeline")
    p.add_argument("--n", type=int, default=50,
                   help="number of fault plans (default: 50)")
    p.add_argument("--seed", type=int, default=1991,
                   help="master seed (default: 1991)")
    p.add_argument("--machine", default="rs6k", metavar="NAME",
                   help="machine configuration (default: rs6k)")
    p.add_argument("--service", action="store_true",
                   help="inject service-boundary faults (worker kills/"
                        "hangs, client disconnects, torn journal writes, "
                        "partial frames) against the serve daemon "
                        "instead of pipeline faults")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="daemon pool width for --service plans "
                        "(default: 2)")
    p.add_argument("--verbose", action="store_true",
                   help="print every case as it completes")
    p.set_defaults(fn=cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CLIError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
