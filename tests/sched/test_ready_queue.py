"""Unit tests for the block pass's ready list (Section 5.1's inner loop).

The equivalence suite proves the flat cycle loop reproduces the seed scan
end to end; these tests pin its mechanisms on small hand-written regions,
read back from the decision trace: only dependence-ready candidates are
ready, each issues exactly once, a satisfied successor still waits for its
earliest start, the terminator closes the block and foreign branches never
move, selection honours unit capacity, a graph mutation re-syncs the
dependence state, and a Section 5.3 verdict is re-judged only when a
motion grew liveness by a register the candidate defines.
"""

from repro.ir import parse_function
from repro.machine import rs6k
from repro.machine.configs import CONFIGS
from repro.obs import CollectingTracer, MetricsCollector
from repro.obs.events import (
    CycleAdvance,
    Issue,
    MotionRecorded,
    SpeculationRejected,
)
from repro.sched import ScheduleLevel, global_schedule

CHAIN = """
function f
a:
    L  r1=x(r10,0)
    AI r2=r1,1
    C  cr0=r2,r3
    BT a,cr0,0x1/lt
"""

#: Section 5.3's sibling definitions of r10, plus an unrelated r11 in B3
SIBLINGS = """
function f
B1:
    C  cr0=r1,r2
    AI r20=r1,1
    BF B3,cr0,0x1/lt
B2:
    LI r10=5
    B B4
B3:
    LI r10=3
    LI r11=7
B4:
    CALL print(r10)
    RET
"""


def schedule(text, level=ScheduleLevel.USEFUL, machine=None, **kwargs):
    """(function, report, trace events, metrics) of one global sweep."""
    func = parse_function(text)
    tracer, metrics = CollectingTracer(), MetricsCollector()
    report = global_schedule(func, machine or rs6k(), level, tracer=tracer,
                             metrics=metrics, **kwargs)
    return func, report, tracer.events, metrics


def issues(events, label):
    return [e for e in events if isinstance(e, Issue) and e.label == label]


def test_terminator_is_held_out_and_foreign_branches_dropped():
    func, report, events, _ = schedule(SIBLINGS, ScheduleLevel.SPECULATIVE,
                                       live_at_exit=frozenset())
    for block in func.blocks:
        branches = [ins for ins in block.instrs if ins.is_branch]
        assert branches == ([block.terminator]
                            if block.terminator is not None else [])
        if block.terminator is not None:
            assert block.instrs[-1] is block.terminator
    # B2's jump was a candidate nowhere but home: no branch ever moved
    assert all(m.opcode not in ("B", "BT", "BF") for m in report.motions)
    assert report.motions, "the sibling LIs should move into B1"


def test_only_roots_become_ready_and_exactly_once():
    func, _, events, _ = schedule(CHAIN)
    first = next(e for e in events if isinstance(e, CycleAdvance))
    assert first.cycle == 0 and first.ready == 1   # the load is the only root
    uids = [e.uid for e in issues(events, "a")]
    assert sorted(uids) == sorted(ins.uid for ins in func.block("a").instrs)
    assert len(set(uids)) == len(uids) == 4


def test_timing_holds_a_satisfied_successor_until_its_earliest_start():
    _, _, events, _ = schedule(CHAIN)
    cycle_of = {e.opcode: e.cycle for e in issues(events, "a")}
    # AI waits out the load's delay (exec 1 + delay 1), the branch the
    # compare's (exec 1 + delay 3), though both are dependence-ready
    assert cycle_of == {"L": 0, "AI": 2, "C": 3, "BT": 7}
    ready = {e.cycle: e.ready for e in events
             if isinstance(e, CycleAdvance) and e.label == "a"}
    assert ready[1] == 0 and ready[2] == 1


def test_select_respects_unit_capacity():
    text = """
function f
a:
    AI r1=r10,1
    AI r2=r11,1
    AI r3=r12,1
    RET
"""
    _, _, narrow, _ = schedule(text, machine=rs6k())
    _, _, wide, _ = schedule(text, machine=CONFIGS["ss2"]())
    narrow_cycles = [e.cycle for e in issues(narrow, "a") if e.opcode == "AI"]
    wide_cycles = [e.cycle for e in issues(wide, "a") if e.opcode == "AI"]
    assert narrow_cycles == [0, 1, 2]              # one fixed-point unit
    assert wide_cycles == [0, 0, 1]                # two


def test_version_bump_triggers_rebuild_at_scan_start():
    # catalogue program 25 renames twice (Section 4.2); each rename edits
    # the graph, and the next scan point re-syncs the dependence state --
    # still byte-identical to the seed scan pass
    from repro.compiler import compile_c
    from repro.reference import oracle_arm
    from repro.verify.generator import catalogue
    from repro.xform.pipeline import PipelineConfig

    source = catalogue()[25].source

    def build():
        metrics = MetricsCollector()
        result = compile_c(source, level=ScheduleLevel.SPECULATIVE,
                           config=PipelineConfig(
                               level=ScheduleLevel.SPECULATIVE,
                               metrics=metrics))
        return [unit.assembly() for unit in result], metrics.counters

    assembly, counters = build()
    assert counters["sched.speculation.renamed"] == 2
    assert counters["sched.ddg_invalidations"] == 2
    with oracle_arm("scan"):
        assert build()[0] == assembly


def test_verdicts_are_rejudged_only_for_the_registers_a_motion_defines():
    # all three LIs pass when first judged; moving B2's x=5 makes r10 live
    # on exit of B1, so B3's x=3 is re-judged (to a veto) while B3's
    # unrelated r11 keeps its cached pass and moves too
    func, report, events, metrics = schedule(
        SIBLINGS, ScheduleLevel.SPECULATIVE, live_at_exit=frozenset())
    x5, x3, r11 = (func.block("B1").instrs[2], func.block("B3").instrs[0],
                   func.block("B1").instrs[3])
    assert [(m.uid, m.src) for m in report.motions] == [(x5.uid, "B2"),
                                                        (r11.uid, "B3")]
    assert x3.opcode.mnemonic == "LI"
    order = [(type(e), e.uid) for e in events
             if isinstance(e, (MotionRecorded, SpeculationRejected))]
    assert order[:2] == [(MotionRecorded, x5.uid),
                         (SpeculationRejected, x3.uid)]
    assert metrics.counters["sched.queue.judgments"] == 4
    assert metrics.counters["sched.queue.verdict_hits"] >= 1
