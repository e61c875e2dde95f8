"""A cycle-level timing simulator for the parametric machine (Section 2).

The model matches the one the paper reasons with when it estimates that
Figure 2 "executes in 20, 21 or 22 cycles" and that the scheduled versions
take 12-13 / 11-12:

* instructions issue strictly in program order along the executed trace
  (a stalled instruction blocks everything behind it);
* in one cycle, at most ``n_i`` instructions may issue on each unit type
  ``i`` (and at most ``issue_width`` overall, if the machine caps it) --
  on the RS/6K this yields the fixed point unit and branch unit "running
  in parallel";
* hardware interlocks enforce the per-edge delays: a consumer issues no
  earlier than ``issue(producer) + E(producer) + d``;
* control transfer itself is free (the branch unit resolves branches;
  taken and fall-through cost the same, per the paper's footnote 2), and
  unconditional branches are *folded* by the branch unit (they consume no
  issue slot) -- the RS/6000 branch processor really did this;
* units are fully pipelined (multi-cycle results, one issue per cycle).

Timing only: the simulator consumes a block trace recorded by the
functional executor (or built by hand), so values never need to be
recomputed here.

Each static instruction is decoded once per simulator into a record of
register slots, latencies and unit facts, so the per-issue loop reads
ints from lists instead of asking the machine model again; see
:class:`TraceSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode, UnitType
from ..ir.operand import Reg
from ..machine.model import MachineModel
from .executor import ExecutionResult, Executor


@dataclass
class ICacheConfig:
    """A direct-mapped instruction cache.

    The paper worries that scheduling with duplication "might increase the
    code size incurring additional costs in terms of instruction cache
    misses"; this optional model makes that cost measurable.  Instructions
    occupy 4 bytes at their static layout position; a fetch outside the
    currently-resident line of its set stalls the pipeline.
    """

    #: total size in bytes (RS/6000 model 530: 8 KB instruction cache)
    size: int = 8 * 1024
    line: int = 64
    miss_penalty: int = 8

    @property
    def lines(self) -> int:
        return max(1, self.size // self.line)


@dataclass
class SimConfig:
    """Simulator knobs (defaults reproduce the paper's counts)."""

    #: unconditional branches are folded by the branch unit (cost 0)
    branch_folding: bool = True
    #: optional instruction-cache model (None = perfect cache, the
    #: paper's implicit assumption for its cycle estimates)
    icache: ICacheConfig | None = None


def layout_addresses(func: Function) -> dict[int, int]:
    """Static byte address of every instruction (4 bytes each, layout
    order) -- the input the instruction-cache model needs."""
    addresses: dict[int, int] = {}
    offset = 0
    for block in func.blocks:
        for ins in block.instrs:
            addresses[id(ins)] = offset
            offset += 4
    return addresses


@dataclass
class SimulationResult:
    """Timing of one simulated trace."""

    cycles: int
    instructions: int
    #: issue cycle of every instruction of the trace, in order
    issue_cycles: list[int] = field(default_factory=list)
    #: issue cycle of the first instruction of each trace block
    block_starts: list[int] = field(default_factory=list)
    #: instruction-cache misses (0 with the default perfect cache)
    icache_misses: int = 0
    #: forced result-buffer drains (0 unless the machine is an
    #: exposed-datapath model with ``buffers``)
    buffer_drains: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


class TraceSimulator:
    """Streaming in-order multi-issue simulator.

    Each static instruction is decoded once per simulator into a record
    (see :meth:`_decode`), and registers become dense slots into one
    ready-cycle list.  Issue is in order, so no instruction ever issues
    before the previous one: the only cycle whose slots can still be
    taken is the current one, ``_last_issue``, and its occupancy is one
    flat int list -- per unit type, the total, and on clustered machines
    per cluster and per (cluster, unit) -- zeroed whenever the cycle
    advances.  Clustered machines, result buffers, the instruction cache
    and ``branch_folding=False`` all run through the one loop,
    :meth:`_issue`.
    """

    def __init__(self, machine: MachineModel, config: SimConfig | None = None,
                 *, addresses: dict[int, int] | None = None):
        self.machine = machine
        self.config = config or SimConfig()
        self._last_issue = 0
        self._issue_cycles: list[int] = []
        #: id(instruction) -> static byte address, for the icache model
        self._addresses = addresses or {}
        self._icache_tags: dict[int, int] = {}
        self.icache_misses = 0
        self.buffer_drains = 0
        #: static instruction -> decoded record
        self._decoded: dict[Instruction, tuple] = {}
        #: register -> slot, and per slot the cycle its value is ready
        self._slots: dict[Reg, int] = {}
        self._ready: list[int] = []
        self._unit_index = {unit: i for i, unit in enumerate(UnitType)}
        units = len(self._unit_index)
        self._total_at = units
        self._width = machine.total_issue_width
        #: per unit index, the (cluster total index, cluster width,
        #: cluster-unit index, cluster-unit count) of every cluster owning
        #: that unit, lowest cluster first; None on unclustered machines
        self._cluster_choices: list[tuple] | None = None
        counters = units + 1
        if machine.clusters is not None:
            n = len(machine.clusters)
            self._cluster_choices = [
                tuple((counters + ci, c.issue_width,
                       counters + n + ci * units + u, c.unit_count(unit))
                      for ci, c in enumerate(machine.clusters)
                      if c.unit_count(unit) > 0)
                for unit, u in self._unit_index.items()]
            counters += n + n * units
        self._zeros = [0] * counters
        #: occupancy of the current cycle (``_last_issue``)
        self._used = self._zeros[:]
        #: exposed-datapath machines: which unit's buffer currently holds
        #: a register slot, and each unit's resident (slot, produced
        #: cycle) entries oldest-first
        self._buffers = machine.buffers
        self._buffered_reg: dict[int, int] = {}
        self._buffer_fifo: list[list[tuple[int, int]]] = [
            [] for _ in range(units)]

    # -- decoding --------------------------------------------------------

    def _slot(self, reg: Reg) -> int:
        slot = self._slots.get(reg)
        if slot is None:
            slot = self._slots[reg] = len(self._ready)
            self._ready.append(0)
        return slot

    def _decode(self, ins: Instruction) -> tuple:
        """The static facts one issue of ``ins`` needs: use slots,
        ``(def slot, result latency)`` pairs, unit index and count, and
        -- None unless one applies -- the rare ones: whether the branch
        unit folds it, its icache line and tag (None with no cache model
        or no address), and its result-buffer capacity (None when
        unbuffered)."""
        machine, config, slot = self.machine, self.config, self._slot
        uses = tuple(slot(reg) for reg in ins.reg_uses())
        defs = tuple((slot(reg), machine.result_latency(ins, reg))
                     for reg in ins.reg_defs())
        unit = ins.unit
        folded = config.branch_folding and ins.opcode is Opcode.B
        line = tag = None
        cache = config.icache
        addr = self._addresses.get(id(ins)) if cache is not None else None
        if addr is not None:
            line = (addr // cache.line) % cache.lines
            tag = addr // (cache.line * cache.lines)
        buffer_cap = (self._buffers.capacity(unit)
                      if self._buffers is not None else None)
        capacity = machine.unit_count(unit)
        rare = None
        if folded or line is not None or buffer_cap is not None \
                or capacity <= 0:
            rare = (folded, line, tag, buffer_cap)
        record = (uses, defs, self._unit_index[unit], capacity, rare)
        self._decoded[ins] = record
        return record

    # -- core ------------------------------------------------------------

    def issue(self, ins: Instruction) -> int:
        """Issue one instruction; returns its issue cycle."""
        self._issue((ins,))
        return self._issue_cycles[-1]

    def run_trace(self, instrs: list[Instruction]) -> SimulationResult:
        """Issue a dynamic instruction trace (the executor's
        ``instr_trace``) in order and time it."""
        first = len(self._issue_cycles)
        self._issue(instrs)
        issue_cycles = self._issue_cycles[first:]
        return SimulationResult(
            cycles=max(issue_cycles, default=-1) + 1,
            instructions=len(issue_cycles),
            issue_cycles=issue_cycles,
            icache_misses=self.icache_misses,
            buffer_drains=self.buffer_drains,
        )

    def _issue(self, instrs) -> None:
        """Issue ``instrs`` in order, appending each issue cycle."""
        decoded, decode = self._decoded, self._decode
        ready = self._ready
        append = self._issue_cycles.append
        zeros, used = self._zeros, self._used
        total_at, width = self._total_at, self._width
        clusters = self._cluster_choices
        tags = self._icache_tags
        cache = self.config.icache
        penalty = cache.miss_penalty if cache is not None else 0
        buffers = self._buffers
        last = self._last_issue
        misses = self.icache_misses
        try:
            for ins in instrs:
                record = decoded.get(ins) or decode(ins)
                uses, defs, u, capacity, rare = record
                earliest = last
                for slot in uses:
                    if ready[slot] > earliest:
                        earliest = ready[slot]
                if rare is not None:
                    folded, line, tag, buffer_cap = rare
                    if line is not None and tags.get(line) != tag:
                        tags[line] = tag
                        misses += 1
                        earliest += penalty
                    if folded:
                        # Folded: occupies no slot, but later instructions
                        # still may not issue before it (program order).
                        if earliest > last:
                            last, used = earliest, zeros[:]
                        append(earliest)
                        continue
                    if buffer_cap is not None and defs:
                        drains = self._buffer_overflow(record, earliest)
                        if drains:
                            self.buffer_drains += drains
                            earliest += drains * buffers.drain_penalty
                    if capacity <= 0:
                        raise ValueError(
                            f"machine {self.machine.name!r} has no "
                            f"{ins.unit.name} unit for {ins!r}")
                if earliest > last:
                    last, used = earliest, zeros[:]
                # the current cycle, else the next one (which is empty)
                if clusters is None:
                    if used[u] >= capacity or used[total_at] >= width:
                        last, used = last + 1, zeros[:]
                else:
                    pick = None
                    if used[u] < capacity and used[total_at] < width:
                        for choice in clusters[u]:
                            if (used[choice[0]] < choice[1]
                                    and used[choice[2]] < choice[3]):
                                pick = choice
                                break
                    if pick is None:
                        last, used = last + 1, zeros[:]
                        pick = clusters[u][0]
                    used[pick[0]] += 1
                    used[pick[2]] += 1
                used[u] += 1
                used[total_at] += 1
                append(last)
                if buffers is not None:
                    self._buffer_update(record, last)
                for slot, latency in defs:
                    ready[slot] = last + latency
        finally:
            self._last_issue, self._used = last, used
            self.icache_misses = misses

    # -- exposed-datapath result buffers ----------------------------------

    def _buffer_overflow(self, record: tuple, now: int) -> int:
        """Forced drains of still-hot results issuing ``record``'s
        instruction at ``now`` would cause (0 = the results fit, or every
        eviction is of a stale result the writeback port already retired
        for free)."""
        uses, defs, u, _capacity, rare = record
        cap = rare[3]
        freed = set(uses) | {slot for slot, _latency in defs}
        resident = [produced for slot, produced in self._buffer_fifo[u]
                    if slot not in freed]
        overflow = len(resident) + len(defs) - cap
        if overflow <= 0:
            return 0
        # evictions happen oldest-first; only still-hot victims cost
        free_after = self._buffers.free_after
        return sum(1 for produced in resident[:overflow]
                   if now - produced < free_after)

    def _buffer_update(self, record: tuple, cycle: int) -> None:
        """Account buffer traffic of issuing ``record``'s instruction:
        its reads free the producers' slots, its results claim slots
        (evicting oldest-first on overflow -- any hot-drain penalty was
        already charged)."""
        uses, defs, u, _capacity, rare = record
        for slot in uses:
            self._release_buffer(slot)
        for slot, _latency in defs:
            # a redefinition invalidates any still-buffered old value,
            # whichever unit produced it
            self._release_buffer(slot)
        cap = rare[3] if rare is not None else None
        if not defs or cap is None:
            return
        fifo = self._buffer_fifo[u]
        while len(fifo) + len(defs) > cap:
            del self._buffered_reg[fifo.pop(0)[0]]
        for slot, _latency in defs:
            fifo.append((slot, cycle))
            self._buffered_reg[slot] = u

    def _release_buffer(self, slot: int) -> None:
        u = self._buffered_reg.pop(slot, None)
        if u is not None:
            fifo = self._buffer_fifo[u]
            for i, (resident, _produced) in enumerate(fifo):
                if resident == slot:
                    del fifo[i]
                    break

    def run_blocks(self, blocks: list[BasicBlock]) -> SimulationResult:
        """Simulate the instruction stream of ``blocks`` in order.

        A block's start is the issue cycle of its first instruction; an
        empty block starts where the previous instruction issued."""
        issued = self._issue_cycles
        block_starts: list[int] = []
        count = 0
        for block in blocks:
            if block.instrs:
                first = len(issued)
                self._issue(block.instrs)
                block_starts.append(issued[first])
                count += len(block.instrs)
            else:
                block_starts.append(self._last_issue)
        return SimulationResult(
            cycles=max(issued, default=-1) + 1,
            instructions=count,
            issue_cycles=list(issued),
            block_starts=block_starts,
            icache_misses=self.icache_misses,
            buffer_drains=self.buffer_drains,
        )


def simulate_trace(
    blocks: list[BasicBlock],
    machine: MachineModel,
    config: SimConfig | None = None,
) -> SimulationResult:
    """Time the given block sequence from a cold pipeline."""
    return TraceSimulator(machine, config).run_blocks(blocks)


def simulate_path_iterations(
    func: Function,
    path_labels: list[str],
    machine: MachineModel,
    *,
    iterations: int = 4,
    config: SimConfig | None = None,
) -> int:
    """Steady-state cycles per iteration along one loop path.

    Simulates ``iterations`` repetitions of the path and returns the
    start-to-start distance of the last two -- this is how the paper's
    "cycles per iteration" figures for the minmax loop are measured.
    """
    if iterations < 2:
        raise ValueError("need at least 2 iterations for start-to-start")
    path = [func.block(label) for label in path_labels]
    sim = TraceSimulator(machine, config)
    starts: list[int] = []
    for _ in range(iterations):
        result_start = None
        for i, block in enumerate(path):
            for j, ins in enumerate(block.instrs):
                cycle = sim.issue(ins)
                if i == 0 and j == 0:
                    result_start = cycle
        starts.append(result_start if result_start is not None else 0)
    return starts[-1] - starts[-2]


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
    return result, sim.run_trace(result.instr_trace)
