"""The production block pass must be indistinguishable from the seed scan.

The flat cycle loop of :mod:`repro.sched.global_sched` (packed keys,
dense dependence state, a per-pass Section 5.3 verdict cache, the
bitset/bitmask liveness tracker) and the seed scan-driven oracle
(:mod:`repro.sched.reference`, patched in by ``oracle_arm("scheduler")``
or, for the block pass alone, ``oracle_arm("scan")``) produce
**byte-identical** output at every observable level -- assembly, recorded
motions, and the full decision trace (PriorityDecision runner-ups,
SpeculationRejected, CycleAdvance ready counts, UnitOccupancy) -- across
machines, scheduling levels, and the optional duplication, rename,
deeper-speculation and counter-register paths.  Anything else means the
loop judged a candidate the scan would not have (or vice versa).
"""

import functools

import pytest

from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.obs import CollectingTracer, MetricsCollector
from repro.reference import oracle_arm
from repro.sched.candidates import ScheduleLevel
from repro.verify.fuzz import derive_seed
from repro.verify.generator import catalogue, generate_program
from repro.xform.pipeline import PipelineConfig

MINMAX = (
    "int minmax(int a[], int n, int out[]) {\n"
    "    int min = a[0]; int max = min; int i = 1;\n"
    "    while (i < n) {\n"
    "        int u = a[i]; int v = a[i+1];\n"
    "        if (u > v) { if (u > max) max = u; if (v < min) min = v; }\n"
    "        else       { if (v > max) max = v; if (u < min) min = u; }\n"
    "        i = i + 2;\n"
    "    }\n"
    "    out[0] = min; out[1] = max; return 0;\n"
    "}\n"
)

#: fuzz-corpus seeds; index 13 is the perf suite's largest program
CORPUS_INDICES = (0, 3, 7, 13)


def _compile(source, level, machine, **kwargs):
    """(assembly, motions, scrubbed trace events) for one arm."""
    trace = CollectingTracer()
    config = PipelineConfig(level=level, trace=trace,
                            metrics=MetricsCollector(), **kwargs)
    result = compile_c(source, machine=CONFIGS[machine](), level=level,
                       config=config)
    assembly = "\n\n".join(unit.assembly() for unit in result)
    motions = [list(unit.report.motions) for unit in result]

    def scrub(event):
        d = event.to_dict()
        if "elapsed_ms" in d:
            d["elapsed_ms"] = None
        return d

    return assembly, motions, [scrub(e) for e in trace.events]


def assert_arms_agree(source, level, machine, arm="scheduler", **kwargs):
    """Both engines produce the same output -- or fail the same way.

    A handful of corpus programs hit the (pre-existing, seed-identical)
    scheduler stall guard on narrow machines with duplication enabled;
    equivalence there means both arms raise the *same* stall."""
    def run():
        try:
            return _compile(source, level, machine, **kwargs)
        except RuntimeError as exc:
            return ("raised", str(exc))

    production = run()
    with oracle_arm(arm):
        seed = run()
    if production[0] == "raised" or seed[0] == "raised":
        assert production == seed, "only one arm stalled"
        return
    assert production[0] == seed[0], "assembly diverged"
    assert production[1] == seed[1], "motions diverged"
    assert production[2] == seed[2], "decision traces diverged"


@pytest.mark.parametrize("machine", sorted(CONFIGS))
@pytest.mark.parametrize("level", list(ScheduleLevel))
def test_minmax_identical_everywhere(level, machine):
    assert_arms_agree(MINMAX, level, machine)


#: the pipeline's optional paths, each on its own
OPTIONAL_PATHS = {
    "duplication": {"allow_duplication": True},
    "rename-ahead": {"rename_ahead": True},
    "max-speculation-2": {"max_speculation": 2},
    "counter-register": {"use_counter_register": True},
}


@pytest.mark.parametrize("kwargs", list(OPTIONAL_PATHS.values()),
                         ids=list(OPTIONAL_PATHS))
def test_optional_paths_identical(kwargs):
    assert_arms_agree(MINMAX, ScheduleLevel.SPECULATIVE, "rs6k", **kwargs)


@pytest.mark.parametrize("index", CORPUS_INDICES)
@pytest.mark.parametrize("machine", ["rs6k", "vliw8"])
def test_fuzz_corpus_identical(index, machine):
    program = generate_program(derive_seed(1991, index))
    assert_arms_agree(program.source, ScheduleLevel.SPECULATIVE, machine)


@pytest.mark.parametrize("index", CORPUS_INDICES)
@pytest.mark.parametrize("option", ["max-speculation-2", "counter-register"])
def test_fuzz_corpus_optional_paths_identical(option, index):
    program = generate_program(derive_seed(1991, index))
    assert_arms_agree(program.source, ScheduleLevel.SPECULATIVE, "rs6k",
                      **OPTIONAL_PATHS[option])


@functools.cache
def _catalogue():
    return catalogue()


@pytest.mark.slow
@pytest.mark.parametrize("index", range(120))
def test_catalogue_identical_to_scan_arm(index):
    """The benchmark's 120-program catalogue, at the two motion levels on
    three machines, against the scan arm: the traffic the loop actually
    serves."""
    source = _catalogue()[index].source
    for machine in ("rs6k", "ss4", "clus2x2"):
        for level in (ScheduleLevel.USEFUL, ScheduleLevel.SPECULATIVE):
            assert_arms_agree(source, level, machine, arm="scan")


@pytest.mark.slow
@pytest.mark.parametrize("index", range(30))
def test_fuzz_corpus_identical_wide_sweep(index):
    program = generate_program(derive_seed(2024, index))
    for machine in sorted(CONFIGS):
        assert_arms_agree(program.source, ScheduleLevel.SPECULATIVE,
                          machine, allow_duplication=True)


def test_profile_priority_fn_runs_on_soa_engine():
    """The branch-profile priority function's keys are static all-int
    tuples, so the SoA engine packs them -- byte-identical to the seed
    scan pass, traces included."""
    from repro.sched.profiling import BranchProfile

    profile = BranchProfile({"LH.1": 10, "L.4": 9, "L.6": 1}, runs=1)

    def build():
        trace = CollectingTracer()
        metrics = MetricsCollector()
        config = PipelineConfig(level=ScheduleLevel.SPECULATIVE,
                                profile=profile, trace=trace,
                                metrics=metrics)
        result = compile_c(MINMAX, machine=CONFIGS["rs6k"](),
                           level=ScheduleLevel.SPECULATIVE, config=config)
        assembly = "\n\n".join(unit.assembly() for unit in result)
        events = [{**e.to_dict(), "elapsed_ms": None}
                  for e in trace.events]
        return assembly, events, metrics

    default_asm, default_trace, metrics = build()
    # the profile fn really ran on the dense engine
    assert metrics.counters.get("sched.soa.packed_keys", 0) > 0
    with oracle_arm("scan"):
        scan_asm, scan_trace, scan_metrics = build()
    assert scan_metrics.counters.get("sched.soa.packed_keys", 0) == 0
    assert default_asm == scan_asm
    assert default_trace == scan_trace


def _paper_key(ins, *, useful, priorities):
    d, cp = priorities.get(id(ins), (0, 1))
    return (0 if useful else 1, -d, -cp, ins.uid)


def _no_class_key(ins, *, useful, priorities):
    d, cp = priorities.get(id(ins), (0, 1))
    return (-d, -cp, ins.uid)


def _order_only_key(ins, *, useful, priorities):
    return (ins.uid,)


@pytest.mark.parametrize("priority_fn",
                         [_paper_key, _no_class_key, _order_only_key],
                         ids=["paper", "no-class", "order-only"])
def test_custom_priority_orders_identical(priority_fn):
    """Custom Section 5.2 orders (the ablation bench's) are packed by the
    SoA engine and schedule exactly as the seed scan pass sorts them."""
    from repro.ir.parser import parse_function
    from repro.ir.printer import format_function
    from repro.sched.driver import global_schedule

    source = compile_c(MINMAX, machine=CONFIGS["rs6k"](),
                       level=ScheduleLevel.NONE)["minmax"]
    text = format_function(source.func)

    def build():
        func = parse_function(text)
        trace = CollectingTracer()
        metrics = MetricsCollector()
        global_schedule(func, CONFIGS["rs6k"](), ScheduleLevel.SPECULATIVE,
                        priority_fn=priority_fn, tracer=trace,
                        metrics=metrics)
        events = [{**e.to_dict(), "elapsed_ms": None} for e in trace.events]
        return format_function(func), events, metrics

    soa_out, soa_trace, metrics = build()
    assert metrics.counters.get("sched.soa.packed_keys", 0) > 0
    with oracle_arm("scheduler"):
        scan_out, scan_trace, _ = build()
    assert soa_out == scan_out
    assert soa_trace == scan_trace
