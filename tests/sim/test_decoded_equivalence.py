"""The decoded simulator against the seed one (``reference_sim``).

``repro.sim`` decodes every static instruction once per run; the seed
interpreter and cycle model re-read every dynamic instruction.  They must
agree on everything observable: the whole :class:`ExecutionResult` and
:class:`SimulationResult`, field for field, and -- when a run fails --
the exception type, its message and the step it surfaces at.
"""

from __future__ import annotations

import random

import pytest

from repro import ScheduleLevel, compile_c
from repro.bench.programs import MINMAX_WORKLOAD, WORKLOADS
from repro.ir import cr, gpr, parse_function
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode, UnitType
from repro.ir.operand import CR_GT
from repro.machine.configs import CONFIGS
from repro.machine.model import MachineModel
from repro.sim import (
    ICacheConfig,
    SimConfig,
    TraceSimulator,
    layout_addresses,
    simulate_execution,
)
from repro.sim.executor import Executor
from repro.verify.generator import generate_program

from . import reference_sim as ref

KERNELS = [MINMAX_WORKLOAD, *WORKLOADS]
MACHINES = ("rs6k", "ss4", "clus2x2", "xdp")
SIM_CONFIGS = {
    "perfect": SimConfig(),
    "icache": SimConfig(icache=ICacheConfig(size=128, line=16,
                                            miss_penalty=8)),
    "unfolded": SimConfig(branch_folding=False),
}


def _outcome(fn):
    """What a call did: its result, or the type and message it raised."""
    try:
        return "ok", fn()
    except Exception as exc:  # the comparison is the point
        return "raised", type(exc), str(exc)


def _assert_same_run(func, machine, regs, memory, handlers=None):
    """Both simulators agree on one function under every sim config."""
    for name, config in SIM_CONFIGS.items():
        got = simulate_execution(func, machine, regs=regs, memory=memory,
                                 call_handlers=handlers, config=config)
        want = ref.simulate_execution(func, machine, regs=regs,
                                      memory=memory, call_handlers=handlers,
                                      config=config)
        assert got[0] == want[0], name
        assert got[1] == want[1], name


# -- regular programs -----------------------------------------------------------

@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_paper_kernels_on_every_machine_and_level(kernel):
    rng = random.Random(1991)
    for machine_name in MACHINES:
        machine = CONFIGS[machine_name]()
        for level in ScheduleLevel:
            args = kernel.make_args(rng)
            unit = compile_c(kernel.source, machine=machine,
                             level=level)[kernel.entry]
            regs, memory, _ = unit.initial_state(*args)
            _assert_same_run(unit.func, machine, regs, memory,
                             kernel.call_handlers)


@pytest.mark.parametrize("seed", range(8))
def test_generated_programs(seed):
    program = generate_program(seed)
    for machine_name in MACHINES:
        machine = CONFIGS[machine_name]()
        result = compile_c(program.source, machine=machine,
                           level=ScheduleLevel.SPECULATIVE)
        handlers = result.linked_handlers()
        unit = result[program.entry]
        regs, memory, _ = unit.initial_state(*program.entry_args)
        _assert_same_run(unit.func, machine, regs, memory, handlers)


def test_compiled_unit_run_matches_the_oracle():
    source = MINMAX_WORKLOAD.source
    args = MINMAX_WORKLOAD.make_args(random.Random(7))
    for machine_name in MACHINES:
        machine = CONFIGS[machine_name]()
        unit = compile_c(source, machine=machine)[MINMAX_WORKLOAD.entry]
        run = unit.run(*[list(a) if isinstance(a, list) else a
                         for a in args])
        regs, memory, _ = unit.initial_state(*args)
        want = ref.simulate_execution(unit.func, machine, regs=regs,
                                      memory=memory)
        assert run.execution == want[0]
        assert run.timing == want[1]


# -- errors and edge cases: same type, message and step -------------------------

def _assert_same_at_every_step_limit(func, limit, **kwargs):
    """Sweep ``max_steps`` over ``0..limit``: at every cap both executors
    return the same result or raise the same error -- which pins an error
    to the step it surfaces at."""
    for max_steps in range(limit + 1):
        got = _outcome(lambda: Executor(func, max_steps=max_steps,
                                        **kwargs).run())
        want = _outcome(lambda: ref.Executor(func, max_steps=max_steps,
                                             **kwargs).run())
        assert got == want, max_steps


def _func(text: str) -> Function:
    return parse_function("function t\n" + text)


def test_step_limit_overrun():
    func = _func("""a:
    LI r1=0
b:
    AI r1=r1,1
    C cr0=r1,r9
    BT b,cr0,0x1/lt
    RET r1
""")
    _assert_same_at_every_step_limit(func, 40, regs={gpr(9): 8})
    got = _outcome(lambda: Executor(func, regs={gpr(9): 10**6},
                                    max_steps=500).run())
    assert got[:2] == ("raised", ref.ExecutionError)
    assert "exceeded 500 steps" in got[2]


@pytest.mark.parametrize("op,what", [("DIV", "division"),
                                     ("REM", "remainder"),
                                     ("FD", "division")])
def test_divide_and_remainder_by_zero(op, what):
    reg = "f" if op == "FD" else "r"
    func = _func(f"""a:
    LI r1=7
    LI r2=0
    {op} {reg}3={reg}1,{reg}2
    RET {reg}3
""")
    _assert_same_at_every_step_limit(func, 6)
    got = _outcome(lambda: Executor(func).run())
    assert got[2].startswith(f"{what} by zero at")


def _mid_block_branch() -> Function:
    """``BT`` in the middle of a block (unverified IR): taken, it leaves
    the block; not taken, the rest of the block runs."""
    r1, r2, cr0 = gpr(1), gpr(2), cr(0)
    func = Function("mid")
    a = func.add_block("a")
    func.emit(a, Instruction(Opcode.LI, defs=(r1,), imm=1))
    func.emit(a, Instruction(Opcode.BT, uses=(cr0,), target="c",
                             mask=CR_GT))
    func.emit(a, Instruction(Opcode.LI, defs=(r2,), imm=2))
    func.emit(a, Instruction(Opcode.B, target="c"))
    func.emit(a, Instruction(Opcode.LI, defs=(r2,), imm=99))
    b = func.add_block("b")
    func.emit(b, Instruction(Opcode.LI, defs=(r2,), imm=3))
    c = func.add_block("c")
    func.emit(c, Instruction(Opcode.A, defs=(r1,), uses=(r1, r2)))
    func.emit(c, Instruction(Opcode.RET, uses=(r1,)))
    return func


@pytest.mark.parametrize("cr_value", [CR_GT, 0], ids=["taken", "not-taken"])
def test_taken_branch_mid_block(cr_value):
    func = _mid_block_branch()
    _assert_same_at_every_step_limit(func, 8, regs={cr(0): cr_value})
    got = Executor(func, regs={cr(0): cr_value}).run()
    assert got.return_value == (1 if cr_value else 3)


@pytest.mark.parametrize("cr_value", [CR_GT, 0], ids=["taken", "not-taken"])
def test_branch_to_missing_label(cr_value):
    r1, cr0 = gpr(1), cr(0)
    func = Function("lost")
    a = func.add_block("a")
    func.emit(a, Instruction(Opcode.LI, defs=(r1,), imm=5))
    func.emit(a, Instruction(Opcode.BT, uses=(cr0,), target="nowhere",
                             mask=CR_GT))
    b = func.add_block("b")
    func.emit(b, Instruction(Opcode.RET, uses=(r1,)))
    _assert_same_at_every_step_limit(func, 4, regs={cr0: cr_value})
    got = _outcome(lambda: Executor(func, regs={cr0: cr_value}).run())
    if cr_value:  # only a taken branch needs the label
        assert got[:2] == ("raised", KeyError)
        assert "no block labelled 'nowhere'" in got[2]
    else:
        assert got[1].return_value == 5


def test_malformed_instructions_fail_at_their_own_step():
    r1, r2 = gpr(1), gpr(2)
    for bad in (Instruction(Opcode.AI, defs=(r1,), uses=(r1,)),  # no imm
                Instruction(Opcode.A, defs=(), uses=(r1, r2)),
                Instruction(Opcode.L, defs=(r1,)),  # no memory operand
                Instruction(Opcode.SL, defs=(r1,), uses=(r1,)),
                Instruction(Opcode.DIV, defs=(), uses=(r1, r2))):
        func = Function("bad")
        a = func.add_block("a")
        func.emit(a, Instruction(Opcode.LI, defs=(r1,), imm=3))
        func.emit(a, bad)
        func.emit(a, Instruction(Opcode.RET, uses=(r1,)))
        for r2_value in (0, 4):
            _assert_same_at_every_step_limit(func, 4, regs={r2: r2_value})


@pytest.mark.parametrize("returned", [[], [7], [7, 8]])
def test_call_handler_returning_fewer_results_than_defs(returned):
    r1, r2, r3 = gpr(1), gpr(2), gpr(3)
    func = Function("caller")
    a = func.add_block("a")
    func.emit(a, Instruction(Opcode.LI, defs=(r1,), imm=4))
    func.emit(a, Instruction(Opcode.CALL, defs=(r2, r3), uses=(r1,),
                             target="f"))
    func.emit(a, Instruction(Opcode.A, defs=(r1,), uses=(r1, r2)))
    func.emit(a, Instruction(Opcode.RET, uses=(r1,)))
    handlers = {"f": lambda args: list(returned)}
    _assert_same_at_every_step_limit(func, 5, call_handlers=handlers)
    regs = Executor(func, call_handlers=handlers).run().regs
    assert (r3 in regs) == (len(returned) > 1)


def test_machine_lacking_the_unit_fails_at_the_same_instruction():
    machine = MachineModel("nofpu", units={UnitType.FXU: 2,
                                           UnitType.BRU: 1})
    func = _func("""a:
    LI r1=3
    A r2=r1,r1
    FA f1=f2,f3
    RET r2
""")
    trace = list(func.instructions())
    want_sim = ref.TraceSimulator(machine)
    want = []
    with pytest.raises(ValueError) as want_exc:
        for ins in trace:
            want.append(want_sim.issue(ins))
    got_sim = TraceSimulator(machine)
    got = []
    with pytest.raises(ValueError) as got_exc:
        for ins in trace:
            got.append(got_sim.issue(ins))
    assert got == want == [0, 1]
    assert str(got_exc.value) == str(want_exc.value)
    with pytest.raises(ValueError, match="has no FPU unit"):
        TraceSimulator(machine).run_trace(trace)


# -- block starts -----------------------------------------------------------------

def _corrected_block_starts(blocks, issue_cycles):
    """A block starts where its first instruction issues; an empty block
    where the previous instruction issued (0 before any)."""
    starts, position, last = [], 0, 0
    for block in blocks:
        if block.instrs:
            starts.append(issue_cycles[position])
        else:
            starts.append(last)
        position += len(block.instrs)
        if position:
            last = issue_cycles[position - 1]
    return starts


@pytest.mark.parametrize("config_name", sorted(SIM_CONFIGS))
@pytest.mark.parametrize("machine_name", MACHINES)
def test_run_blocks_starts_match_the_issue_cycles(machine_name,
                                                   config_name):
    machine = CONFIGS[machine_name]()
    config = SIM_CONFIGS[config_name]
    unit = compile_c(MINMAX_WORKLOAD.source, machine=machine)["minmax"]
    func = unit.func
    regs, memory, _ = unit.initial_state(
        *MINMAX_WORKLOAD.make_args(random.Random(3)))
    execution = ref.Executor(func, regs=regs, memory=memory).run()
    blocks = [func.block(label) for label in execution.block_trace]
    # an empty block in the stream starts where its predecessor issued
    blocks.insert(1, Function("pad").add_block("empty"))
    addresses = layout_addresses(func)
    want_sim = ref.TraceSimulator(machine, config, addresses=addresses)
    want = [want_sim.issue(ins) for block in blocks for ins in block.instrs]
    got = TraceSimulator(machine, config,
                         addresses=addresses).run_blocks(blocks)
    assert got.issue_cycles == want
    assert got.block_starts == _corrected_block_starts(blocks, want)
