"""A functional (architectural) interpreter for the IR.

Two jobs:

* **Correctness oracle.**  Scheduling must preserve program semantics; the
  test suite runs the original and the scheduled function on the same
  inputs and compares final register/memory state and call side effects.
* **Trace generation.**  The cycle simulator needs to know which blocks
  execute in what order; the executor records the block trace.

Arithmetic wraps to signed 32-bit, matching the RS/6K's fixed point unit.
Memory is word-granular and byte-addressed (aligned accesses assumed);
unwritten locations read as zero.  Calls dispatch to registered Python
callables (the ``printf`` of Figure 1 can be a print capture in tests) and
otherwise behave as no-ops that clobber nothing.

Each static instruction is decoded once per run, the first time control
reaches it, into a closure over *register slots*: every register gets a
per-run index into one ``list`` of values, so the dynamic loop never
hashes a register or re-dispatches on an opcode.  Decoding works a
*segment* at a time -- a block's instructions up to and including the
first one that can leave it (a branch or ``RET``) -- with the taken
target and the fall-through already resolved to segment numbers.  A block
with a branch in its middle (unverified IR) becomes a chain of segments.
A malformed instruction decodes into a closure that raises the error the
instruction would raise, so every error still surfaces at its step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode
from ..ir.operand import CR_EQ, CR_GT, CR_LT, Reg

_WORD_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

#: A call handler: receives argument values, returns result values.
CallHandler = Callable[[list[int]], list[int]]


class ExecutionError(RuntimeError):
    """Raised for runaway executions or malformed programs."""


def wrap32(value: int) -> int:
    """Wrap to signed 32-bit two's complement."""
    value &= _WORD_MASK
    return value - (1 << 32) if value & 0x80000000 else value


def compare_bits(a: int, b: int) -> int:
    """The LT/GT/EQ condition-register mask for a signed compare."""
    if a < b:
        return CR_LT
    if a > b:
        return CR_GT
    return CR_EQ


@dataclass
class ExecutionResult:
    """Final architectural state plus the trace."""

    regs: dict[Reg, int]
    memory: dict[int, int]
    #: visited block labels, in execution order
    block_trace: list[str]
    #: executed instructions, in execution order
    instr_trace: list[Instruction]
    #: (callee, args) of every call, in order
    calls: list[tuple[str, tuple[int, ...]]]
    steps: int
    return_value: int | None = None

    def reg(self, reg: Reg) -> int:
        return self.regs.get(reg, 0)


#: what a segment's exit closure returns for ``RET``
_RETURN = -1


class Executor:
    """Interprets one function from a given initial state."""

    def __init__(
        self,
        func: Function,
        *,
        regs: dict[Reg, int] | None = None,
        memory: dict[int, int] | None = None,
        call_handlers: dict[str, CallHandler] | None = None,
        max_steps: int = 1_000_000,
    ):
        self.func = func
        self.regs: dict[Reg, int] = dict(regs or {})
        self.memory: dict[int, int] = dict(memory or {})
        self.call_handlers = dict(call_handlers or {})
        self.max_steps = max_steps

    def run(self) -> ExecutionResult:
        func = self.func
        max_steps = self.max_steps
        run = _Run(self)
        segments = run.segments
        decode = run.decode
        block_trace: list[str] = []
        instr_trace: list[Instruction] = []
        append_label = block_trace.append
        extend_trace = instr_trace.extend
        steps = 0
        # an empty function executes zero instructions and returns nothing
        sid = 0 if func.blocks else _RETURN
        while sid >= 0:
            seg = segments[sid] or decode(sid)
            label, body, exit_, instrs, count, nxt = seg
            if label is not None:
                append_label(label)
            if steps + count > max_steps:
                for fn in body[:max(max_steps - steps, 0)]:
                    fn()
                raise ExecutionError(
                    f"{func.name}: exceeded {max_steps} steps "
                    f"(infinite loop?)"
                )
            steps += count
            extend_trace(instrs)
            for fn in body:
                fn()
            if exit_ is not None:
                taken = exit_()
                if taken is not None:
                    nxt = taken
            sid = nxt

        self.regs = run.final_regs()
        return ExecutionResult(
            regs=dict(self.regs),
            memory=dict(self.memory),
            block_trace=block_trace,
            instr_trace=instr_trace,
            calls=run.calls,
            steps=steps,
            return_value=run.returned[0],
        )


class _Run:
    """The decoded form of one function for one run.

    ``segments[sid]`` is ``None`` until control first reaches segment
    ``sid``, then ``(label, body, exit, instrs, count, next)``: the block
    label to record (``None`` for the continuation of a block split by a
    mid-block branch), the closures of the non-exiting instructions, the
    exit closure (returns a segment number when taken, ``_RETURN`` on
    ``RET``, ``None`` when it falls through) or ``None``, the
    instructions themselves, their count, and the fall-through segment.
    Segments ``0 .. len(blocks)-1`` start the blocks in layout order.
    """

    def __init__(self, executor: Executor):
        self.func = executor.func
        self.memory = executor.memory
        self.handlers = executor.call_handlers
        blocks = self.func.blocks
        self.index = {block.label: i for i, block in enumerate(blocks)}
        self.segments: list[tuple | None] = [None] * len(blocks)
        #: continuation segment -> (block index, first instruction index)
        self.pending: dict[int, tuple[int, int]] = {}
        self.slots: dict[Reg, int] = {}
        self.values: list[int] = []
        for reg, value in executor.regs.items():
            self.slots[reg] = len(self.values)
            self.values.append(value)
        #: slots holding a value the result must report: the initial
        #: registers and every register a started segment writes
        self.written: set[int] = set(range(len(self.values)))
        self.calls: list[tuple[str, tuple[int, ...]]] = []
        self.returned: list[int | None] = [None]

    def slot(self, reg: Reg) -> int:
        slot = self.slots.get(reg)
        if slot is None:
            slot = self.slots[reg] = len(self.values)
            self.values.append(0)
        return slot

    def final_regs(self) -> dict[Reg, int]:
        values, written = self.values, self.written
        return {reg: values[slot] for reg, slot in self.slots.items()
                if slot in written}

    # -- decoding ------------------------------------------------------------

    def decode(self, sid: int) -> tuple:
        blocks = self.func.blocks
        if sid < len(blocks):
            bi, start, label = sid, 0, blocks[sid].label
        else:
            (bi, start), label = self.pending.pop(sid), None
        instrs = blocks[bi].instrs
        end = start
        # a branch (``RET`` included, calls not) may leave the block
        while end < len(instrs) and not instrs[end].opcode.is_branch:
            end += 1
        body = tuple(self._decode(ins) for ins in instrs[start:end])
        exit_ = None
        if end < len(instrs):
            exit_ = self._decode(instrs[end])
            end += 1
        if end < len(instrs):
            nxt = len(self.segments)
            self.segments.append(None)
            self.pending[nxt] = (bi, end)
        else:
            nxt = bi + 1 if bi + 1 < len(blocks) else _RETURN
        segment = (label, body, exit_, instrs[start:end], end - start, nxt)
        self.segments[sid] = segment
        return segment

    def _decode(self, ins: Instruction) -> Callable:
        try:
            return _DECODERS[ins.opcode](self, ins)
        except (IndexError, AttributeError, TypeError) as exc:
            # a malformed instruction: raise its error when it executes
            error = exc

            def fail():
                raise error.with_traceback(None)
            return fail

    def target(self, ins: Instruction) -> int:
        """The segment a branch jumps to.  A missing label gets a segment
        of no instructions that fails exactly like ``Function.block``
        does, so the branch raises only when it is taken."""
        target = self.index.get(ins.target)
        if target is None:
            func, label = self.func, ins.target

            def jump():
                func.block(label)
            target = len(self.segments)
            self.segments.append((None, (), jump, [], 0, _RETURN))
        return target

    def def_slot(self, reg: Reg) -> int:
        """The slot of a register the decoded instruction always writes."""
        slot = self.slot(reg)
        self.written.add(slot)
        return slot


# -- per-opcode decoders --------------------------------------------------------
#
# Each decoder reads the operands in the order the instruction's semantics
# evaluate them and returns a closure over ``values``.  Every register write
# wraps to 32 bits; ``((x + _SIGN) & _WORD_MASK) - _SIGN`` is ``wrap32(x)``.

def _address(run: _Run, ins: Instruction) -> tuple[int, int]:
    return run.slot(ins.mem.base), ins.mem.disp


def _load(run: _Run, ins: Instruction):
    v, mem = run.values, run.memory
    d = run.def_slot(ins.defs[0])
    base, disp = _address(run, ins)

    def fn():
        x = mem.get(((v[base] + disp + _SIGN) & _WORD_MASK) - _SIGN, 0)
        v[d] = ((x + _SIGN) & _WORD_MASK) - _SIGN
    return fn


def _load_update(run: _Run, ins: Instruction):
    # load from base+disp, then post-increment the base (Figure 2)
    v, mem = run.values, run.memory
    base, disp = _address(run, ins)
    d, b = run.def_slot(ins.defs[0]), run.def_slot(ins.defs[1])

    def fn():
        addr = ((v[base] + disp + _SIGN) & _WORD_MASK) - _SIGN
        v[d] = ((mem.get(addr, 0) + _SIGN) & _WORD_MASK) - _SIGN
        v[b] = addr
    return fn


def _store(run: _Run, ins: Instruction):
    v, mem = run.values, run.memory
    s = run.slot(ins.uses[0])
    base, disp = _address(run, ins)

    def fn():
        mem[((v[base] + disp + _SIGN) & _WORD_MASK) - _SIGN] = v[s]
    return fn


def _store_update(run: _Run, ins: Instruction):
    v, mem = run.values, run.memory
    s = run.slot(ins.uses[0])
    base, disp = _address(run, ins)
    b = run.def_slot(ins.defs[0])

    def fn():
        addr = ((v[base] + disp + _SIGN) & _WORD_MASK) - _SIGN
        mem[addr] = v[s]
        v[b] = addr
    return fn


def _load_immediate(run: _Run, ins: Instruction):
    v = run.values
    d = run.def_slot(ins.defs[0])
    value = wrap32(ins.imm)

    def fn():
        v[d] = value
    return fn


def _unary(op):
    """``rd = op(ra)``; ``op=None`` is a register move."""
    def decode(run: _Run, ins: Instruction):
        v = run.values
        d, a = run.def_slot(ins.defs[0]), run.slot(ins.uses[0])
        if op is None:
            def fn():
                v[d] = ((v[a] + _SIGN) & _WORD_MASK) - _SIGN
        else:
            def fn():
                v[d] = ((op(v[a]) + _SIGN) & _WORD_MASK) - _SIGN
        return fn
    return decode


def _binary(op):
    """``rd = op(ra, rb)``."""
    def decode(run: _Run, ins: Instruction):
        v = run.values
        d = run.def_slot(ins.defs[0])
        a, b = run.slot(ins.uses[0]), run.slot(ins.uses[1])

        def fn():
            v[d] = ((op(v[a], v[b]) + _SIGN) & _WORD_MASK) - _SIGN
        return fn
    return decode


def _immediate(op, shift: bool = False):
    """``rd = op(ra, imm)``; a shift takes its count as ``imm & 31``."""
    def decode(run: _Run, ins: Instruction):
        v = run.values
        d, a = run.def_slot(ins.defs[0]), run.slot(ins.uses[0])
        imm = ins.imm & 31 if shift else ins.imm

        def fn():
            v[d] = ((op(v[a], imm) + _SIGN) & _WORD_MASK) - _SIGN
        return fn
    return decode


def _shift_right_logical(value: int, count: int) -> int:
    return (value & _WORD_MASK) >> count


def _divide(remainder: bool):
    what = "remainder" if remainder else "division"

    def decode(run: _Run, ins: Instruction):
        v = run.values
        b = run.slot(ins.uses[1])
        try:
            a, d = run.slot(ins.uses[0]), run.def_slot(ins.defs[0])
        except IndexError as exc:
            # the zero check runs before the dividend and result are read
            error = exc

            def fail():
                if v[b] == 0:
                    raise ExecutionError(f"{what} by zero at {ins!r}")
                raise error.with_traceback(None)
            return fail

        def fn():
            divisor = v[b]
            if divisor == 0:
                raise ExecutionError(f"{what} by zero at {ins!r}")
            quotient = int(v[a] / divisor)
            x = v[a] - quotient * divisor if remainder else quotient
            v[d] = ((x + _SIGN) & _WORD_MASK) - _SIGN
        return fn
    return decode


def _call(run: _Run, ins: Instruction):
    v, calls, handlers = run.values, run.calls, run.handlers
    uses = [run.slot(reg) for reg in ins.uses]
    defs = [run.slot(reg) for reg in ins.defs]
    target, written = ins.target, run.written

    def fn():
        args = [v[s] for s in uses]
        calls.append((target, tuple(args)))
        handler = handlers.get(target)
        results = handler(args) if handler is not None else []
        # a handler may return fewer results than the call defines:
        # only the registers it does return are written
        for slot, value in zip(defs, results):
            v[slot] = wrap32(value)
            written.add(slot)
    return fn


def _nop(run: _Run, ins: Instruction):
    return lambda: None


# -- exits: return a segment number when taken, None to fall through ----------

def _branch(run: _Run, ins: Instruction):
    target = run.target(ins)
    return lambda: target


def _branch_if(sense: bool):
    def decode(run: _Run, ins: Instruction):
        v = run.values
        c, mask = run.slot(ins.uses[0]), ins.mask
        target = run.target(ins)
        if sense:
            def fn():
                if v[c] & mask:
                    return target
        else:
            def fn():
                if not (v[c] & mask):
                    return target
        return fn
    return decode


def _decrement_branch(run: _Run, ins: Instruction):
    v = run.values
    c = run.slot(ins.uses[0])
    target = run.target(ins)
    d = run.def_slot(ins.defs[0])

    def fn():
        ctr = ((v[c] - 1 + _SIGN) & _WORD_MASK) - _SIGN
        v[d] = ctr
        if ctr != 0:
            return target
    return fn


def _return(run: _Run, ins: Instruction):
    v, returned = run.values, run.returned
    r = run.slot(ins.uses[0]) if ins.uses else None

    def fn():
        returned[0] = None if r is None else v[r]
        return _RETURN
    return fn


_DECODERS = {
    Opcode.L: _load, Opcode.FL: _load,
    Opcode.LU: _load_update,
    Opcode.ST: _store, Opcode.FST: _store,
    Opcode.STU: _store_update,
    Opcode.LI: _load_immediate,
    Opcode.LR: _unary(None), Opcode.FMR: _unary(None),
    Opcode.MTCTR: _unary(None),
    Opcode.A: _binary(operator.add), Opcode.FA: _binary(operator.add),
    Opcode.AI: _immediate(operator.add),
    Opcode.S: _binary(operator.sub), Opcode.FS: _binary(operator.sub),
    Opcode.SI: _immediate(operator.sub),
    Opcode.MUL: _binary(operator.mul), Opcode.FM: _binary(operator.mul),
    Opcode.DIV: _divide(False), Opcode.FD: _divide(False),
    Opcode.REM: _divide(True),
    Opcode.AND: _binary(operator.and_), Opcode.ANDI: _immediate(operator.and_),
    Opcode.OR: _binary(operator.or_), Opcode.ORI: _immediate(operator.or_),
    Opcode.XOR: _binary(operator.xor), Opcode.XORI: _immediate(operator.xor),
    Opcode.SL: _immediate(operator.lshift, shift=True),
    Opcode.SR: _immediate(_shift_right_logical, shift=True),
    Opcode.SRA: _immediate(operator.rshift, shift=True),
    Opcode.NEG: _unary(operator.neg), Opcode.NOT: _unary(operator.invert),
    Opcode.C: _binary(compare_bits), Opcode.FC: _binary(compare_bits),
    Opcode.CI: _immediate(compare_bits),
    Opcode.B: _branch,
    Opcode.BT: _branch_if(True), Opcode.BF: _branch_if(False),
    Opcode.BDNZ: _decrement_branch,
    Opcode.CALL: _call,
    Opcode.RET: _return,
    Opcode.NOP: _nop,
}


def execute(func: Function, **kwargs) -> ExecutionResult:
    """Convenience wrapper: run ``func`` from the given initial state."""
    return Executor(func, **kwargs).run()
