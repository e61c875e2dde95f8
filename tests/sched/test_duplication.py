"""Definition 6 duplication tests (the paper's future-work extension)."""

import pytest

from repro import ScheduleLevel, compile_c, rs6k
from repro.ir import gpr, parse_function, verify_function
from repro.machine import rs6k
from repro.pdg import RegionPDG
from repro.sched import global_schedule
from repro.sched.candidates import duplication_source
from repro.sim import execute
from repro.xform import PipelineConfig

#: diamond with a join whose work can hoist into both arms
DIAMOND = """
function diamond
top:
    C  cr0=r1,r2
    BF else_arm,cr0,0x1/lt
then_arm:
    AI r10=r1,1
    B  join
else_arm:
    AI r10=r2,7
join:
    MUL r11=r10,r10
    AI  r12=r11,5
    RET r12
"""


def run_diamond(func, r1, r2):
    return execute(func, regs={gpr(1): r1, gpr(2): r2}).return_value


class TestDuplicationSource:
    def test_diamond_arms_qualify(self):
        func = parse_function(DIAMOND)
        pdg = RegionPDG(func, rs6k(), list(func.blocks), "top")
        assert duplication_source(pdg, "then_arm") == ("join", ["else_arm"])
        assert duplication_source(pdg, "else_arm") == ("join", ["then_arm"])

    def test_branching_block_does_not_qualify(self):
        func = parse_function(DIAMOND)
        pdg = RegionPDG(func, rs6k(), list(func.blocks), "top")
        assert duplication_source(pdg, "top") is None

    def test_join_with_side_exit_pred_rejected(self):
        func = parse_function("""
function sidexit
top:
    C  cr0=r1,r2
    BF b,cr0,0x1/lt
a:
    C  cr1=r1,r9
    BF join,cr1,0x2/gt
a2:
    AI r10=r1,1
b:
    AI r10=r2,7
join:
    MUL r11=r10,r10
    RET r11
""")
        pdg = RegionPDG(func, rs6k(), list(func.blocks), "top")
        # b's other pred `a` has two successors: no duplication allowed
        assert duplication_source(pdg, "a2") is None

    def test_region_header_join_rejected(self, figure2):
        pdg = RegionPDG(figure2, rs6k(), list(figure2.blocks), "CL.0")
        for label in pdg.member_labels:
            src = duplication_source(pdg, label)
            assert src is None or src[0] != "CL.0"


class TestDuplicationScheduling:
    def schedule(self, allow):
        func = parse_function(DIAMOND)
        report = global_schedule(
            func, rs6k(), ScheduleLevel.SPECULATIVE,
            live_at_exit=frozenset({gpr(12)}),
            allow_duplication=allow,
        )
        verify_function(func)
        return func, report

    def test_disabled_by_default(self):
        func, report = self.schedule(allow=False)
        assert not any(m.duplicated for m in report.motions)
        assert len(func.block("join").instrs) == 3

    def test_join_work_hoists_into_both_arms(self):
        func, report = self.schedule(allow=True)
        dup = [m for m in report.motions if m.duplicated]
        assert dup, "expected at least one duplicated motion"
        mul = dup[0]
        assert mul.opcode == "MUL"
        assert mul.src == "join"
        # the motion lands in one arm, its copy in the other: both paths
        # end up computing the square before reaching the join
        assert mul.duplicated_into == ("then_arm",)
        for arm in ("then_arm", "else_arm"):
            ops = [i.opcode.mnemonic for i in func.block(arm).instrs]
            assert "MUL" in ops, arm
        join_ops = [i.opcode.mnemonic for i in func.block("join").instrs]
        assert "MUL" not in join_ops

    def test_semantics_preserved_on_both_paths(self):
        func, _report = self.schedule(allow=True)
        for r1, r2 in ((1, 9), (9, 1), (3, 3)):
            expected = run_diamond(parse_function(DIAMOND), r1, r2)
            assert run_diamond(func, r1, r2) == expected

    def test_duplication_shortens_the_join_path(self):
        # hoisting the 5-cycle MUL above the join overlaps it with the
        # arms' own work on both paths
        from repro.sim import simulate_path_iterations, simulate_trace
        plain, _ = self.schedule(allow=False)
        dup, _ = self.schedule(allow=True)
        for path in (["top", "then_arm", "join"],
                     ["top", "else_arm", "join"]):
            p = simulate_trace([plain.block(l) for l in path], rs6k())
            d = simulate_trace([dup.block(l) for l in path], rs6k())
            assert d.cycles <= p.cycles

    def test_duplicated_stores_stay_per_path(self):
        func = parse_function("""
function dupstore
top:
    C  cr0=r1,r2
    BF e,cr0,0x1/lt
t:
    AI r10=r1,1
    B  join
e:
    AI r10=r2,7
join:
    ST r10=>out(r9,0)
    AI r12=r10,1
    RET r12
""")
        report = global_schedule(func, rs6k(), ScheduleLevel.SPECULATIVE,
                                 live_at_exit=frozenset({gpr(12)}),
                                 allow_duplication=True)
        verify_function(func)
        for r1, r2 in ((1, 9), (9, 1)):
            ref = parse_function("""
function dupstore
top:
    C  cr0=r1,r2
    BF e,cr0,0x1/lt
t:
    AI r10=r1,1
    B  join
e:
    AI r10=r2,7
join:
    ST r10=>out(r9,0)
    AI r12=r10,1
    RET r12
""")
            a = execute(ref, regs={gpr(1): r1, gpr(2): r2, gpr(9): 100})
            b = execute(func, regs={gpr(1): r1, gpr(2): r2, gpr(9): 100})
            assert a.return_value == b.return_value
            assert a.memory == b.memory


class TestPipelineIntegration:
    SRC = """
int f(int a[], int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int v = a[i];
        int w = 0;
        if (v < 0) { w = 0 - v; } else { w = v + 3; }
        s = s + w * w;
    }
    return s;
}
"""

    def test_duplication_config_preserves_semantics(self):
        import random
        rng = random.Random(13)
        data = [rng.randrange(-50, 50) for _ in range(30)]
        expected = sum((-v if v < 0 else v + 3) ** 2 for v in data)
        for allow in (False, True):
            config = PipelineConfig(level=ScheduleLevel.SPECULATIVE,
                                    allow_duplication=allow)
            result = compile_c(self.SRC, level=ScheduleLevel.SPECULATIVE,
                               config=config)
            run = result["f"].run(list(data), 30)
            assert run.return_value == expected


#: (generator seed, machine, verifier accepts) for programs whose
#: duplicated copy lands in a join predecessor that is empty and was
#: already visited: the copy was never marked fulfilled and the join's
#: block pass stalled.  The schedule verifier rejects the seed-9 schedules
#: although they are correct: a duplicated original whose dependence
#: source sits in the other arm (where its copy went) reads as "broken
#: across blocks".
EMPTY_VISITED_PRED_CASES = [(109, "rs6k", True), (9, "rs6k", False),
                            (9, "ss4", False), (9, "clus2x2", False),
                            (9, "xdp", False), (38, "xdp", True)]


@pytest.mark.parametrize("seed,machine_name,verifiable",
                         EMPTY_VISITED_PRED_CASES)
def test_copy_into_visited_empty_predecessor_does_not_stall(
        seed, machine_name, verifiable):
    from repro.machine.configs import CONFIGS
    from repro.verify.generator import generate_program

    program = generate_program(seed)
    expected = compile_c(
        program.source, machine=CONFIGS[machine_name](),
        level=ScheduleLevel.NONE,
    )[program.entry].run(*program.entry_args).return_value
    config = PipelineConfig(level=ScheduleLevel.SPECULATIVE,
                            allow_duplication=True, verify=verifiable)
    result = compile_c(program.source, machine=CONFIGS[machine_name](),
                       level=ScheduleLevel.SPECULATIVE, config=config)
    assert any(motion.duplicated
               for sweep in (result[program.entry].report.first_pass,
                             result[program.entry].report.second_pass)
               if sweep is not None
               for region in sweep.regions
               for motion in region.motions)
    assert (result[program.entry].run(*program.entry_args).return_value
            == expected)
