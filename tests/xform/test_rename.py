"""Standalone local register-renaming tests."""

import tracemalloc

from repro.ir import cr, gpr, parse_function, verify_function
from repro.machine import rs6k
from repro.pdg import DepKind, build_block_ddg
from repro.sim import execute
from repro.xform import rename_function


def test_local_web_renamed():
    func = parse_function("""
function f
a:
    LI r1=5
    AI r2=r1,1
    LI r1=9
    AI r3=r1,1
    RET r3
""")
    rename_function(func)
    verify_function(func)
    block = func.block("a")
    # the two LI/AI webs must use distinct registers now
    assert block.instrs[0].defs[0] != block.instrs[2].defs[0]
    assert block.instrs[1].uses[0] == block.instrs[0].defs[0]
    assert block.instrs[3].uses[0] == block.instrs[2].defs[0]
    assert execute(func).return_value == 10


def test_renaming_removes_output_dependences():
    func = parse_function("""
function f
a:
    LI r1=5
    AI r2=r1,1
    LI r1=9
    AI r3=r1,1
""")
    machine = rs6k()
    before = build_block_ddg(func.block("a"), machine, reduce=False)
    n_before = sum(1 for e in before.edges()
                   if e.kind in (DepKind.ANTI, DepKind.OUTPUT))
    rename_function(func)
    after = build_block_ddg(func.block("a"), machine, reduce=False)
    n_after = sum(1 for e in after.edges()
                  if e.kind in (DepKind.ANTI, DepKind.OUTPUT))
    assert n_before > 0 and n_after == 0


def test_live_out_register_not_renamed():
    func = parse_function("""
function f
a:
    LI r1=5
b:
    AI r2=r1,1
    RET r2
""")
    rename_function(func)
    assert func.block("a").instrs[0].defs[0] == gpr(1)


def test_live_out_with_later_def_renames_first_web():
    func = parse_function("""
function f
a:
    LI r1=5
    AI r2=r1,1
    LI r1=9
b:
    AI r3=r1,1
    RET r3
""")
    rename_function(func)
    block = func.block("a")
    assert block.instrs[0].defs[0] != gpr(1)  # first web is cut off
    assert block.instrs[2].defs[0] == gpr(1)  # last web feeds block b
    assert execute(func).return_value == 10


def test_live_at_exit_respected():
    func = parse_function("""
function f
a:
    LI r1=5
""")
    rename_function(func, live_at_exit=frozenset({gpr(1)}))
    assert func.block("a").instrs[0].defs[0] == gpr(1)
    func2 = parse_function("function f\na:\n    LI r1=5\n")
    rename_function(func2)
    assert func2.block("a").instrs[0].defs[0] != gpr(1)


def test_condition_registers_renamed(figure2):
    report = rename_function(figure2)
    verify_function(figure2)
    renamed_regs = {old for (_b, old, _new, _uid) in report.renames}
    assert cr(7) in renamed_regs  # I3/I4's block-local pair
    # branches follow their renamed compares
    bl1 = figure2.block("CL.0")
    cmp_i, branch = bl1.instrs[2], bl1.instrs[3]
    assert branch.uses[0] == cmp_i.defs[0]


def test_figure2_semantics_preserved():
    import random
    from ..conftest import FIGURE2
    rng = random.Random(3)
    data = [rng.randrange(-50, 50) for _ in range(10)]
    mem = {96 + 4 * i: v for i, v in enumerate(data)}

    def run(func):
        res = execute(func, regs={
            gpr(31): 96, gpr(29): 1, gpr(27): 9,
            gpr(28): data[0], gpr(30): data[0],
        }, memory=dict(mem))
        return res.reg(gpr(28)), res.reg(gpr(30))

    plain = parse_function(FIGURE2)
    renamed = parse_function(FIGURE2)
    rename_function(renamed,
                    live_at_exit=frozenset({gpr(28), gpr(30)}))
    assert run(plain) == run(renamed)


def test_use_def_instruction_ends_web():
    # AI r1=r1,2: its use belongs to the old web, its def starts a new one
    func = parse_function("""
function f
a:
    LI r1=5
    AI r1=r1,2
    AI r2=r1,1
    RET r2
""")
    rename_function(func)
    verify_function(func)
    block = func.block("a")
    li, ai_self, ai_out = block.instrs[0], block.instrs[1], block.instrs[2]
    assert ai_self.uses[0] == li.defs[0]
    assert ai_out.uses[0] == ai_self.defs[0]
    assert li.defs[0] != ai_self.defs[0]
    assert execute(func).return_value == 8


def test_renaming_past_a_huge_register_index_allocates_one_register():
    """Each fresh register past ``r100000000`` is built on its own, not
    together with every index below it."""
    func = parse_function("""
function f
a:
    LI r100000000=5
    AI r2=r100000000,1
    LI r100000000=9
    AI r3=r100000000,1
    RET r3
""")
    tracemalloc.start()
    try:
        rename_function(func)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    defs = [ins.defs[0].index for ins in func.block("a").instrs[:4]]
    assert sorted(defs) == list(range(100000001, 100000005))
    assert execute(func).return_value == 10
