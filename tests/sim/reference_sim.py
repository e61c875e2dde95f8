"""The seed simulator, kept as the oracle of the decoded one.

``Executor`` re-interprets every dynamic instruction through one
``if op is ...`` chain over a ``Reg``-keyed dict, and ``TraceSimulator``
asks the machine model for uses, unit counts and latencies on every
issue, counting slots in tuple-keyed ``defaultdict`` tables.  Both are
the simulator ``repro.sim`` shipped before it decoded each static
instruction once per run; ``tests/sim/test_decoded_equivalence.py``
checks the production simulator against them field for field, and
``benchmarks/perf/run_sim_bench.py`` times both.

Only ``TraceSimulator.issue`` and what it calls are kept: block starts
are derived from issue cycles, which is the definition the production
``run_blocks`` implements.
"""

from __future__ import annotations

from collections import defaultdict

from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode, UnitType
from repro.ir.operand import Reg
from repro.machine.model import MachineModel
from repro.sim.executor import (
    CallHandler,
    ExecutionError,
    ExecutionResult,
    compare_bits,
    wrap32,
)
from repro.sim.machine_sim import SimConfig, SimulationResult, layout_addresses

_WORD_MASK = 0xFFFFFFFF


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

    # -- small helpers ---------------------------------------------------

    def _get(self, reg: Reg) -> int:
        return self.regs.get(reg, 0)

    def _set(self, reg: Reg, value: int) -> None:
        self.regs[reg] = wrap32(value)

    def _addr(self, ins: Instruction) -> int:
        return wrap32(self._get(ins.mem.base) + ins.mem.disp)

    # -- the interpreter loop -----------------------------------------------

    def run(self) -> ExecutionResult:
        func = self.func
        # an empty function executes zero instructions and returns nothing
        block: BasicBlock | None = func.entry if func.blocks else None
        block_trace: list[str] = []
        instr_trace: list[Instruction] = []
        calls: list[tuple[str, tuple[int, ...]]] = []
        steps = 0
        return_value: int | None = None

        while block is not None:
            block_trace.append(block.label)
            next_block: BasicBlock | None = None
            fell_through = True
            for ins in block.instrs:
                steps += 1
                if steps > self.max_steps:
                    raise ExecutionError(
                        f"{func.name}: exceeded {self.max_steps} steps "
                        f"(infinite loop?)"
                    )
                instr_trace.append(ins)
                outcome = self._execute(ins, calls)
                if outcome == "ret":
                    return_value = self._get(ins.uses[0]) if ins.uses else None
                    fell_through = False
                    next_block = None
                    break
                if outcome == "taken":
                    next_block = func.block(ins.target)
                    fell_through = False
                    break
            if fell_through:
                next_block = func.fallthrough(block)
            block = next_block

        return ExecutionResult(
            regs=dict(self.regs),
            memory=dict(self.memory),
            block_trace=block_trace,
            instr_trace=instr_trace,
            calls=calls,
            steps=steps,
            return_value=return_value,
        )

    def _execute(self, ins: Instruction,
                 calls: list[tuple[str, tuple[int, ...]]]) -> str | None:
        """Execute one instruction; returns "taken" / "ret" / None."""
        op = ins.opcode
        get, put = self._get, self._set

        if op in (Opcode.L, Opcode.FL):
            put(ins.defs[0], self.memory.get(self._addr(ins), 0))
        elif op is Opcode.LU:
            # load from base+disp, then post-increment the base (Figure 2)
            addr = self._addr(ins)
            base = ins.mem.base
            new_base = wrap32(get(base) + ins.mem.disp)
            put(ins.defs[0], self.memory.get(addr, 0))
            put(ins.defs[1], new_base)
        elif op in (Opcode.ST, Opcode.FST):
            self.memory[self._addr(ins)] = get(ins.uses[0])
        elif op is Opcode.STU:
            self.memory[self._addr(ins)] = get(ins.uses[0])
            put(ins.defs[0], get(ins.mem.base) + ins.mem.disp)
        elif op is Opcode.LI:
            put(ins.defs[0], ins.imm)
        elif op in (Opcode.LR, Opcode.FMR, Opcode.MTCTR):
            put(ins.defs[0], get(ins.uses[0]))
        elif op is Opcode.A or op is Opcode.FA:
            put(ins.defs[0], get(ins.uses[0]) + get(ins.uses[1]))
        elif op is Opcode.AI:
            put(ins.defs[0], get(ins.uses[0]) + ins.imm)
        elif op is Opcode.S or op is Opcode.FS:
            put(ins.defs[0], get(ins.uses[0]) - get(ins.uses[1]))
        elif op is Opcode.SI:
            put(ins.defs[0], get(ins.uses[0]) - ins.imm)
        elif op is Opcode.MUL or op is Opcode.FM:
            put(ins.defs[0], get(ins.uses[0]) * get(ins.uses[1]))
        elif op is Opcode.DIV or op is Opcode.FD:
            divisor = get(ins.uses[1])
            if divisor == 0:
                raise ExecutionError(f"division by zero at {ins!r}")
            put(ins.defs[0], int(get(ins.uses[0]) / divisor))
        elif op is Opcode.REM:
            divisor = get(ins.uses[1])
            if divisor == 0:
                raise ExecutionError(f"remainder by zero at {ins!r}")
            quotient = int(get(ins.uses[0]) / divisor)
            put(ins.defs[0], get(ins.uses[0]) - quotient * divisor)
        elif op is Opcode.AND:
            put(ins.defs[0], get(ins.uses[0]) & get(ins.uses[1]))
        elif op is Opcode.ANDI:
            put(ins.defs[0], get(ins.uses[0]) & ins.imm)
        elif op is Opcode.OR:
            put(ins.defs[0], get(ins.uses[0]) | get(ins.uses[1]))
        elif op is Opcode.ORI:
            put(ins.defs[0], get(ins.uses[0]) | ins.imm)
        elif op is Opcode.XOR:
            put(ins.defs[0], get(ins.uses[0]) ^ get(ins.uses[1]))
        elif op is Opcode.XORI:
            put(ins.defs[0], get(ins.uses[0]) ^ ins.imm)
        elif op is Opcode.SL:
            put(ins.defs[0], get(ins.uses[0]) << (ins.imm & 31))
        elif op is Opcode.SR:
            put(ins.defs[0], (get(ins.uses[0]) & _WORD_MASK) >> (ins.imm & 31))
        elif op is Opcode.SRA:
            put(ins.defs[0], get(ins.uses[0]) >> (ins.imm & 31))
        elif op is Opcode.NEG:
            put(ins.defs[0], -get(ins.uses[0]))
        elif op is Opcode.NOT:
            put(ins.defs[0], ~get(ins.uses[0]))
        elif op in (Opcode.C, Opcode.FC):
            put(ins.defs[0], compare_bits(get(ins.uses[0]), get(ins.uses[1])))
        elif op is Opcode.CI:
            put(ins.defs[0], compare_bits(get(ins.uses[0]), ins.imm))
        elif op is Opcode.B:
            return "taken"
        elif op is Opcode.BT:
            if get(ins.uses[0]) & ins.mask:
                return "taken"
        elif op is Opcode.BF:
            if not (get(ins.uses[0]) & ins.mask):
                return "taken"
        elif op is Opcode.BDNZ:
            ctr = wrap32(get(ins.uses[0]) - 1)
            put(ins.defs[0], ctr)
            if ctr != 0:
                return "taken"
        elif op is Opcode.CALL:
            args = [get(r) for r in ins.uses]
            calls.append((ins.target, tuple(args)))
            handler = self.call_handlers.get(ins.target)
            results = handler(args) if handler is not None else []
            for reg, value in zip(ins.defs, results):
                put(reg, value)
        elif op is Opcode.RET:
            return "ret"
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - the opcode table is closed
            raise ExecutionError(f"no semantics for {ins!r}")
        return None


class TraceSimulator:
    """Streaming in-order multi-issue simulator."""

    def __init__(self, machine: MachineModel, config: SimConfig | None = None,
                 *, addresses: dict[int, int] | None = None):
        self.machine = machine
        self.config = config or SimConfig()
        self._reg_ready: dict[Reg, int] = {}
        self._unit_used: dict[tuple[UnitType, int], int] = defaultdict(int)
        self._total_used: dict[int, int] = defaultdict(int)
        self._last_issue = 0
        self._issue_cycles: list[int] = []
        #: id(instruction) -> static byte address, for the icache model
        self._addresses = addresses or {}
        self._icache_tags: dict[int, int] = {}
        self.icache_misses = 0
        #: clustered machines: per-(cluster, cycle) and per-(cluster,
        #: unit, cycle) issue counts
        self._clusters = machine.clusters
        self._cluster_used: dict[tuple[int, int], int] = defaultdict(int)
        self._cluster_unit_used: dict[tuple[int, UnitType, int], int] = (
            defaultdict(int))
        #: exposed-datapath machines: which register currently occupies a
        #: result buffer, and each unit's resident (register, produced
        #: cycle) entries oldest-first
        self._buffers = machine.buffers
        self._buffered_reg: dict[Reg, UnitType] = {}
        self._buffer_fifo: dict[UnitType, list[tuple[Reg, int]]] = (
            defaultdict(list))
        self.buffer_drains = 0

    # -- core ------------------------------------------------------------

    def issue(self, ins: Instruction) -> int:
        """Issue one instruction; returns its issue cycle."""
        machine = self.machine
        earliest = self._last_issue
        for reg in ins.reg_uses():
            earliest = max(earliest, self._reg_ready.get(reg, 0))
        earliest += self._fetch_penalty(ins)

        if self.config.branch_folding and ins.opcode is Opcode.B:
            # Folded: occupies no slot, but later instructions still may
            # not issue before it (program order).
            self._last_issue = earliest
            self._issue_cycles.append(earliest)
            return earliest

        drains = self._buffer_overflow(ins, earliest)
        if drains:
            self.buffer_drains += drains
            earliest += drains * self._buffers.drain_penalty

        unit = ins.unit
        capacity = machine.unit_count(unit)
        if capacity <= 0:
            raise ValueError(
                f"machine {machine.name!r} has no {unit.name} unit for {ins!r}"
            )
        cycle, cluster = self._find_slot(unit, capacity, earliest)
        self._unit_used[(unit, cycle)] += 1
        self._total_used[cycle] += 1
        if cluster is not None:
            self._cluster_used[(cluster, cycle)] += 1
            self._cluster_unit_used[(cluster, unit, cycle)] += 1
        self._last_issue = cycle
        self._issue_cycles.append(cycle)
        if self._buffers is not None:
            self._buffer_update(ins, cycle)
        for reg in ins.reg_defs():
            self._reg_ready[reg] = cycle + machine.result_latency(ins, reg)
        return cycle

    def _find_slot(self, unit: UnitType, capacity: int,
                   earliest: int) -> tuple[int, int | None]:
        """First cycle >= ``earliest`` with a free slot (and, on clustered
        machines, the index of the cluster issuing it)."""
        width = self.machine.total_issue_width
        cycle = earliest
        while True:
            if (self._unit_used[(unit, cycle)] < capacity
                    and self._total_used[cycle] < width):
                if self._clusters is None:
                    return cycle, None
                cluster = self._pick_cluster(unit, cycle)
                if cluster is not None:
                    return cycle, cluster
            cycle += 1

    def _pick_cluster(self, unit: UnitType, cycle: int) -> int | None:
        """Lowest-index cluster with a free ``unit`` slot this cycle."""
        for index, cluster in enumerate(self._clusters):
            if (self._cluster_used[(index, cycle)] < cluster.issue_width
                    and self._cluster_unit_used[(index, unit, cycle)]
                    < cluster.unit_count(unit)):
                return index
        return None

    # -- exposed-datapath result buffers ----------------------------------

    def _buffer_overflow(self, ins: Instruction, now: int) -> int:
        """Forced drains of still-hot results issuing ``ins`` at ``now``
        would cause (0 = the results fit, or every eviction is of a stale
        result the writeback port already retired for free)."""
        buf = self._buffers
        if buf is None:
            return 0
        defs = ins.reg_defs()
        if not defs:
            return 0
        cap = buf.capacity(ins.unit)
        if cap is None:
            return 0
        freed = set(ins.reg_uses()) | set(defs)
        resident = [produced for reg, produced in self._buffer_fifo[ins.unit]
                    if reg not in freed]
        overflow = len(resident) + len(defs) - cap
        if overflow <= 0:
            return 0
        # evictions happen oldest-first; only still-hot victims cost
        return sum(1 for produced in resident[:overflow]
                   if now - produced < buf.free_after)

    def _buffer_update(self, ins: Instruction, cycle: int) -> None:
        """Account buffer traffic of issuing ``ins``: its reads free the
        producers' slots, its results claim slots (evicting oldest-first
        on overflow -- any hot-drain penalty was already charged)."""
        buf = self._buffers
        for reg in ins.reg_uses():
            self._release_buffer(reg)
        defs = ins.reg_defs()
        for reg in defs:
            # a redefinition invalidates any still-buffered old value,
            # whichever unit produced it
            self._release_buffer(reg)
        if not defs:
            return
        cap = buf.capacity(ins.unit)
        if cap is None:
            return
        fifo = self._buffer_fifo[ins.unit]
        while len(fifo) + len(defs) > cap:
            del self._buffered_reg[fifo.pop(0)[0]]
        for reg in defs:
            fifo.append((reg, cycle))
            self._buffered_reg[reg] = ins.unit

    def _release_buffer(self, reg: Reg) -> None:
        unit = self._buffered_reg.pop(reg, None)
        if unit is not None:
            fifo = self._buffer_fifo[unit]
            for i, (resident, _produced) in enumerate(fifo):
                if resident == reg:
                    del fifo[i]
                    break

    def _fetch_penalty(self, ins: Instruction) -> int:
        """Instruction-cache lookup: 0 on a hit or with no cache model."""
        cache = self.config.icache
        if cache is None:
            return 0
        addr = self._addresses.get(id(ins))
        if addr is None:
            return 0
        line_index = (addr // cache.line) % cache.lines
        tag = addr // (cache.line * cache.lines)
        if self._icache_tags.get(line_index) == tag:
            return 0
        self._icache_tags[line_index] = tag
        self.icache_misses += 1
        return cache.miss_penalty



def simulate_execution(
    func: Function,
    machine: MachineModel,
    *,
    regs: dict[Reg, int] | None = None,
    memory: dict[int, int] | None = None,
    call_handlers=None,
    max_steps: int = 1_000_000,
    config: SimConfig | None = None,
) -> tuple[ExecutionResult, SimulationResult]:
    """Run ``func`` functionally, then time the executed trace."""
    result = Executor(
        func, regs=regs, memory=memory, call_handlers=call_handlers,
        max_steps=max_steps,
    ).run()
    sim = TraceSimulator(machine, config, addresses=layout_addresses(func))
    issue_cycles = [sim.issue(ins) for ins in result.instr_trace]
    last = max(issue_cycles, default=-1)
    timing = SimulationResult(
        cycles=last + 1,
        instructions=len(result.instr_trace),
        issue_cycles=issue_cycles,
        icache_misses=sim.icache_misses,
        buffer_drains=sim.buffer_drains,
    )
    return result, timing
