"""The three workloads: inputs from a seed, one timed pass, and the checks.

Each workload is a closed loop in this one process.  ``setup(seed,
calibrator)`` builds the inputs and every reference answer the checks need;
``run_pass(state, meter)`` performs one full pass of timed operations and
checks every output outside the timed region.  A pass returns a
:class:`PassResult`; the runner repeats passes for the run's length.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from repro import PipelineConfig, ScheduleLevel, compile_c
from repro.bench.programs import MINMAX_WORKLOAD, WORKLOADS
from repro.machine.configs import CONFIGS
from repro.machine.rs6k import rs6k
from repro.service.daemon import Daemon, ServeConfig
from repro.sim.bsp import check_bsp
from repro.sim.timeline import stall_cycles
from repro.verify.generator import generate_program

from calib import Calibrator
from layers import request_tag

NONE = ScheduleLevel.NONE
USEFUL = ScheduleLevel.USEFUL
SPECULATIVE = ScheduleLevel.SPECULATIVE
LEVELS = (NONE, USEFUL, SPECULATIVE)

#: source-line ventiles of ``generate_program`` output (measured once over
#: 6000 programs); catalogues take an equal quota from each bucket, tail
#: included
SIZE_EDGES = (7, 11, 14, 17, 20, 22, 24, 27, 29, 32, 35, 38, 41, 46, 50,
              56, 64, 74, 89)

#: generator seed of the program-text catalogues.  The texts are fixed:
#: across seeds, a fresh draw of 120 programs moves sim_cycles by ~20% and
#: the median compile overhead by ~9% (IQR / median), more than any
#: bound.  The run's seed varies what the programs compute on instead.
CATALOGUE_SEED = 1991


def catalogue(count: int, salt: int = 0):
    """``count`` generated programs with an equal quota in each size
    bucket (as equal as ``count`` allows); fixed for a given ``salt``."""
    buckets = len(SIZE_EDGES) + 1
    quota = [count // buckets + (1 if b < count % buckets else 0)
             for b in range(buckets)]
    rng = random.Random(CATALOGUE_SEED * 1_000_003 + salt)
    chosen = []
    while len(chosen) < count:
        program = generate_program(rng.randrange(1 << 31))
        bucket = bisect.bisect_right(SIZE_EDGES,
                                     program.source.count("\n"))
        if quota[bucket]:
            quota[bucket] -= 1
            chosen.append(program)
    return chosen


def seeded_args(program, rng: random.Random) -> tuple:
    """Fresh entry arguments of the generator's own shapes and ranges
    (scalars in [-10, 50], 8-word arrays of [-20, 80]); generated
    programs are safe for any such values."""
    return tuple([rng.randint(-20, 80) for _ in arg]
                 if isinstance(arg, list) else rng.randint(-10, 50)
                 for arg in program.entry_args)


def static_instrs(result) -> int:
    """IR instructions across every function of one compile."""
    return sum(len(block.instrs) for unit in result
               for block in unit.func.blocks)


def copy_args(args) -> tuple:
    return tuple(list(a) if isinstance(a, list) else a for a in args)


class Meter:
    """Times operations in calibration units; when a ledger is attached
    (traced pass) each operation also opens a ledger operation, and
    compiles get a metrics collector so the program's own counters are
    read through ``PipelineConfig.metrics``."""

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.ledger = None
        self.pass_ledger = None
        self.metrics = None
        #: operations opened on a ledger so far (the current op's id)
        self.ops = 0

    def config(self, level: ScheduleLevel, **overrides):
        """The pipeline config for one compile (None = the CLI default)."""
        if self.metrics is None and not overrides:
            return None
        return PipelineConfig(level=level, metrics=self.metrics, **overrides)

    def op(self, fn, *args, **kwargs):
        """Run one timed operation; returns ``(result, seconds, cal)``."""
        unit = self.calibrator.measure()
        if self.ledger is not None:
            self.ops += 1
            self.ledger.begin_op(self.ops)
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            if self.ledger is not None:
                self.ledger.end_op(elapsed, unit, self.pass_ledger)
        return result, elapsed, elapsed / unit


@dataclass
class PassResult:
    """What one pass measured and checked."""

    #: per operation: (cal, seconds)
    ops: list[tuple[float, float]] = field(default_factory=list)
    #: total cal / seconds of every timed region in the pass
    pass_cal: float = 0.0
    pass_seconds: float = 0.0
    #: per program: SPECULATIVE minus NONE compile time, cal
    overheads: list[float] = field(default_factory=list)
    #: exact counts (must repeat on every pass of one seed)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    #: one message per failed check; ``failed`` names the failed ops
    failures: list[str] = field(default_factory=list)
    failed: set = field(default_factory=set)
    #: what the per-layer ledger needs from the checks
    extra: dict = field(default_factory=dict)
    #: paper-report raw data
    paper: dict = field(default_factory=dict)

    def add_timed(self, seconds: float, cal: float) -> None:
        self.pass_cal += cal
        self.pass_seconds += seconds

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.failures.append(message)


def _observe(result, program, args):
    run = result.run(program.entry, *copy_args(args))
    return run, (run.return_value, run.arrays, list(run.execution.calls))


# -- corpus_compile -----------------------------------------------------------

class CorpusCompile:
    """Generated programs compiled at NONE and SPECULATIVE on rs6k with the
    default pipeline (the ``repro compile`` path).  The operation is the
    SPECULATIVE compile."""

    name = "corpus_compile"

    def __init__(self, programs: int = 120, draws: int = 2):
        self.programs = programs
        #: seeded argument draws each build is run and checked on
        self.draws = draws

    def setup(self, seed: int, calibrator: Calibrator) -> dict:
        machine = rs6k()
        rng = random.Random(seed)
        cases = [(program, [seeded_args(program, rng)
                            for _ in range(self.draws)])
                 for program in catalogue(self.programs)]
        compile_c(cases[0][0].source, machine=machine, level=SPECULATIVE)
        return {"machine": machine, "cases": cases}

    def run_pass(self, state: dict, meter: Meter) -> PassResult:
        out = PassResult()
        machine = state["machine"]
        sim_cycles = bound = stalls = instrs = 0
        none_cal = spec_cal = 0.0
        for program, draws in state["cases"]:
            source = program.source
            out.attempted += 1
            try:
                base, s_none, c_none = meter.op(
                    compile_c, source, machine=machine, level=NONE,
                    config=meter.config(NONE))
                spec, s_spec, c_spec = meter.op(
                    compile_c, source, machine=machine, level=SPECULATIVE,
                    config=meter.config(SPECULATIVE))
            except Exception as exc:  # a failed compile is a failed op
                out.fail(program.seed,
                         f"seed {program.seed}: compile raised {exc!r}")
                continue
            out.ops.append((c_spec, s_spec))
            out.add_timed(s_none, c_none)
            out.add_timed(s_spec, c_spec)
            out.overheads.append(c_spec - c_none)
            none_cal += c_none
            spec_cal += c_spec
            instrs += static_instrs(spec)
            # -- checks (untimed) --
            for args in draws:
                try:
                    _, base_obs = _observe(base, program, args)
                    run, spec_obs = _observe(spec, program, args)
                except Exception as exc:
                    out.fail(program.seed,
                             f"seed {program.seed}: run raised {exc!r}")
                    continue
                if spec_obs != base_obs:
                    out.fail(program.seed,
                             f"seed {program.seed} on {args}: SPECULATIVE "
                             f"observation {spec_obs} != NONE {base_obs}")
                bsp = check_bsp(run.execution.instr_trace, machine,
                                run.cycles)
                if not bsp.ok:
                    out.fail(program.seed,
                             f"seed {program.seed}: {bsp.format()}")
                sim_cycles += run.cycles
                bound += bsp.bound.lower_bound
                stalls += stall_cycles(run.timing)
        out.counts = {"sim_cycles": sim_cycles, "static_instrs": instrs}
        out.extra = {"sim_cycles": sim_cycles, "bsp_bound": bound,
                     "stall_cycles": stalls}
        out.paper = {"none_cal": none_cal, "spec_cal": spec_cal}
        return out


# -- kernel_eval --------------------------------------------------------------

KERNELS = [MINMAX_WORKLOAD, *WORKLOADS]


def _compile_and_run(kernel, level, machine, config, args):
    """One kernel_eval operation; also returns the compile's seconds."""
    started = perf_counter()
    result = compile_c(kernel.source, machine=machine, level=level,
                       config=config)
    compile_seconds = perf_counter() - started
    run = result[kernel.entry].run(*args, call_handlers=kernel.call_handlers)
    return result, run, compile_seconds


class KernelEval:
    """The paper's five kernels at all three levels on rs6k in
    self-checking mode, each run on seeded inputs and checked against the
    kernel's Python oracle.  The operation is one compile + run."""

    name = "kernel_eval"

    def __init__(self, draws: int = 2, kernels=None):
        self.draws = draws
        self.kernels = kernels or KERNELS

    def setup(self, seed: int, calibrator: Calibrator) -> dict:
        rng = random.Random(seed)
        machine = rs6k()
        cases = []
        for kernel in self.kernels:
            for _ in range(self.draws):
                args = kernel.make_args(rng)
                cases.append((kernel, args,
                              kernel.reference(*copy_args(args))))
        kernel = self.kernels[0]
        _compile_and_run(kernel, SPECULATIVE, machine,
                         PipelineConfig(level=SPECULATIVE, verify=True),
                         copy_args(cases[0][1]))
        return {"machine": machine, "cases": cases}

    def run_pass(self, state: dict, meter: Meter) -> PassResult:
        out = PassResult()
        machine = state["machine"]
        sim_cycles = bound = stalls = instrs = 0
        paper = {}
        for case, (kernel, args, expected) in enumerate(state["cases"]):
            row = paper.setdefault(kernel.name, {
                "cycles": {level.value: 0 for level in LEVELS},
                "compile_cal": {level.value: [] for level in LEVELS},
                "sim_cycles": 0, "bsp_bound": 0})
            observed = {}
            compile_cal = {}
            for level in LEVELS:
                out.attempted += 1
                config = meter.config(level, verify=True)
                call_args = copy_args(args)
                try:
                    (result, run, compile_s), seconds, cal = meter.op(
                        _compile_and_run, kernel, level, machine, config,
                        call_args)
                except Exception as exc:
                    out.fail((case, level),
                             f"{kernel.name}@{level.value}: raised {exc!r}")
                    continue
                # the compile share of this op, in the op's own unit
                compile_cal[level] = compile_s * cal / seconds
                out.ops.append((cal, seconds))
                out.add_timed(seconds, cal)
                row["cycles"][level.value] += run.cycles
                row["compile_cal"][level.value].append(compile_cal[level])
                # -- checks (untimed) --
                if run.return_value != expected:
                    out.fail((case, level),
                             f"{kernel.name}@{level.value}: returned "
                             f"{run.return_value}, oracle says {expected}")
                observed[level] = (run.return_value, run.arrays)
                if level is SPECULATIVE:
                    bsp = check_bsp(run.execution.instr_trace, machine,
                                    run.cycles)
                    if not bsp.ok:
                        out.fail((case, level),
                                 f"{kernel.name}: {bsp.format()}")
                    sim_cycles += run.cycles
                    bound += bsp.bound.lower_bound
                    stalls += stall_cycles(run.timing)
                    instrs += static_instrs(result)
                    row["sim_cycles"] += run.cycles
                    row["bsp_bound"] += bsp.bound.lower_bound
            if len(set(map(repr, observed.values()))) > 1:
                out.fail((case, SPECULATIVE),
                         f"{kernel.name}: outputs differ across levels")
            if NONE in compile_cal and SPECULATIVE in compile_cal:
                out.overheads.append(compile_cal[SPECULATIVE]
                                     - compile_cal[NONE])
        out.counts = {"sim_cycles": sim_cycles, "static_instrs": instrs}
        out.extra = {"sim_cycles": sim_cycles, "bsp_bound": bound,
                     "stall_cycles": stalls}
        out.paper = paper
        return out


# -- serve_mixed --------------------------------------------------------------

#: second-key mix over the pool (the first key of every source is
#: rs6k/speculative), as (value, weight) pairs
_MACHINE_MIX = (("rs6k", 1), ("ss2", 2), ("clus2x2", 2))
_LEVEL_MIX = (("speculative", 2), ("useful", 1), ("none", 1))
_VERIFY_MIX = ((True, 1), (False, 1))


def _deal(rng: random.Random, mix, count: int) -> list:
    """``count`` values dealt in the mix's exact proportions: every run of
    ``sum(weights)`` consecutive entries holds the whole mix, shuffled.
    Dealt over programs in size order, each config lands on programs of
    every size, so the pool's compile cost barely moves with the seed."""
    group = [value for value, weight in mix for _ in range(weight)]
    values = []
    while len(values) < count:
        rng.shuffle(group)
        values.extend(group)
    return values[:count]


def _request_stream(rng: random.Random, keys: list, requests: int,
                    batch: int) -> list[list]:
    """Batches of ``keys`` (``(line, tag, cost)`` triples).

    Every key arrives once, at an even rate: each batch gets the same
    number of first arrivals (give or take one), one from each cost band,
    so no batch piles up the heaviest compiles by chance.  The other
    slots repeat already-seen keys with Zipf(1) popularity over a seeded
    ranking.  Cache hits = requests - keys.
    """
    sizes = [batch] * (requests // batch) + (
        [requests % batch] if requests % batch else [])
    count = len(sizes)
    by_cost = sorted(keys, key=lambda key: key[2])
    arrivals: list[list] = [[] for _ in range(count)]
    for start in range(0, len(by_cost), count):
        band = by_cost[start:start + count]
        rng.shuffle(band)
        slots = rng.sample(range(count), len(band))
        for slot, key in zip(slots, band):
            arrivals[slot].append(key)
    rank = {id(key): 1 / (r + 1) for r, key in enumerate(
        rng.sample(keys, len(keys)))}
    seen: list = []
    batches = []
    for size, new in zip(sizes, arrivals):
        seen.extend(new)
        repeats = rng.choices(seen, weights=[rank[id(k)] for k in seen],
                              k=size - len(new))
        chosen = new + repeats
        rng.shuffle(chosen)
        batches.append(chosen)
    return batches


class ServeMixed:
    """An in-process ``Daemon(ServeConfig(jobs=1))`` driven by one client
    sending JSONL batches through ``serve_batch_lines`` and waiting for
    each answer before the next batch.  The operation is one batch; every
    pass starts a fresh daemon, so the cache hits of a pass are exactly
    the repeats its request stream holds."""

    name = "serve_mixed"

    def __init__(self, sources: int = 40, requests: int = 144,
                 batch: int = 6):
        self.sources = sources
        self.requests = requests
        self.batch = batch

    def setup(self, seed: int, calibrator: Calibrator) -> dict:
        rng = random.Random(seed)
        programs = catalogue(self.sources, salt=1)
        by_size = sorted(programs, key=lambda p: len(p.source))
        first = ("rs6k", "speculative", False)
        while True:
            second = dict(zip(map(id, by_size), zip(
                _deal(rng, _MACHINE_MIX, len(programs)),
                _deal(rng, _LEVEL_MIX, len(programs)),
                _deal(rng, _VERIFY_MIX, len(programs)))))
            if first not in second.values():
                break
        keys = [(program, *config) for program in programs
                for config in (first, second[id(program)])]
        # reference answers: a direct compile_c of every distinct payload.
        # Each source's rs6k NONE/SPECULATIVE pair is timed for
        # sched_overhead_p50, and its SPECULATIVE build is run on the
        # source's own generated arguments for sim_cycles (the served code
        # is checked byte-equal to these builds).
        builds: dict[tuple, object] = {}
        overheads = []
        sim_cycles = 0
        machine = rs6k()
        for program in programs:
            cal = {}
            for level in (NONE, SPECULATIVE):
                unit = calibrator.measure()
                started = perf_counter()
                result = compile_c(program.source, machine=machine,
                                   level=level)
                cal[level] = (perf_counter() - started) / unit
            overheads.append(cal[SPECULATIVE] - cal[NONE])
            sim_cycles += _observe(result, program,
                                   program.entry_args)[0].cycles
            builds[_tag(program, "rs6k", "speculative", False)] = result
        for program, machine_name, level_name, verify in keys:
            tag = _tag(program, machine_name, level_name, verify)
            if tag not in builds:
                level = ScheduleLevel(level_name)
                builds[tag] = compile_c(
                    program.source, machine=CONFIGS[machine_name](),
                    level=level,
                    config=PipelineConfig(level=level, verify=verify))
        # per key: (JSONL request line, request tag, compile-cost proxy:
        # IR instructions of its build, doubled when the verifier runs)
        requests = []
        for program, machine_name, level_name, verify in keys:
            doc = {"source": program.source, "machine": machine_name,
                   "level": level_name}
            if verify:
                doc["config"] = {"verify": True}
            tag = _tag(program, machine_name, level_name, verify)
            requests.append((json.dumps(doc), tag,
                             static_instrs(builds[tag]) * (1 + verify)))
        return {
            "seed": seed, "passes": 0, "requests": requests,
            "expected": {tag: {u.name: u.assembly() for u in result}
                         for tag, result in builds.items()},
            "hits": self.requests - len(builds),
            "overheads": overheads, "sim_cycles": sim_cycles,
            # code size of the one SPECULATIVE build every source is
            # requested at (the seed deals the other keys' levels)
            "static_instrs": sum(
                static_instrs(builds[_tag(program, *first)])
                for program in programs),
        }

    def run_pass(self, state: dict, meter: Meter) -> PassResult:
        """One pass: a fresh daemon and the pass's own request stream.
        Every pass of a seed sends the same keys (so the same compiles and
        cache hits) in a different arrangement, so a run's batch
        latencies cover many batch compositions."""
        out = PassResult()
        rng = random.Random(state["seed"] * 1_000_003 + state["passes"])
        state["passes"] += 1
        stream = _request_stream(rng, state["requests"], self.requests,
                                 self.batch)
        expected = state["expected"]
        hits = 0
        requests = []
        daemon = Daemon(ServeConfig(jobs=1))
        daemon.pool  # build the (inline) pool before the first timed batch
        try:
            for number, batch in enumerate(stream):
                out.attempted += len(batch)
                try:
                    answers, seconds, cal = meter.op(
                        daemon.serve_batch_lines,
                        [line for line, _, _ in batch])
                except Exception as exc:
                    for slot in range(len(batch)):
                        out.fail((number, slot),
                                 f"batch {number} raised {exc!r}")
                    continue
                out.ops.append((cal, seconds))
                out.add_timed(seconds, cal)
                requests.extend({"op": meter.ops, "tag": tag}
                                for _, tag, _ in batch)
                # -- checks (untimed) --
                for slot, ((_, tag, _), answer) in enumerate(
                        zip(batch, answers)):
                    status = answer.get("status")
                    if status not in ("ok", "cache-hit"):
                        out.fail((number, slot),
                                 f"batch {number}.{slot}: status {status}: "
                                 f"{answer.get('error', '')}")
                        continue
                    hits += status == "cache-hit"
                    if answer["assembly"] != expected[tag]:
                        out.fail((number, slot),
                                 f"batch {number}.{slot}: assembly differs "
                                 "from a direct compile_c")
        finally:
            daemon.close()
        out.attempted += 1  # the cache-hit count check
        if hits != state["hits"] or daemon.cache.hits != state["hits"]:
            out.fail("cache", f"cache hits {hits} (daemon "
                     f"{daemon.cache.hits}) != {state['hits']} repeats in "
                     "the request stream")
        total = self.requests
        out.counts = {"sim_cycles": state["sim_cycles"],
                      "static_instrs": state["static_instrs"],
                      "cache_hit_rate": hits / total}
        out.extra = {"cache_hit_rate": hits / total, "requests": requests}
        return out


def _tag(program, machine: str, level: str, verify: bool) -> tuple:
    return request_tag({"source": program.source, "machine": machine,
                        "level": level,
                        "config": {"verify": True} if verify else {}})


WORKLOAD_TYPES = {w.name: w for w in (CorpusCompile, KernelEval, ServeMixed)}
