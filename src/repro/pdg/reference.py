"""Reference (pre-optimization) dependence-graph construction.

These are the original, straightforward implementations of the region DDG
builder and the delay-aware transitive reduction:

* :func:`build_region_ddg_reference` re-scans the earlier block of every
  reachable ``(A, B)`` pair to rebuild its def/use/memory summary -- an
  O(pairs x instructions) construction;
* :func:`transitive_reduce_reference` runs one heap-ordered longest-path
  sweep per multi-successor source.

The optimized versions in :mod:`repro.pdg.data_deps` must compute exactly
the same edge set (same endpoints, kinds and delays) and remove exactly the
same edges.  These copies exist so that equivalence stays *testable*
(``tests/pdg/test_reference_equivalence.py``) and the speedup stays
*measurable* (``benchmarks/perf/``); they are not used by the compiler
pipeline itself.  :func:`repro.reference.oracle_arm` patches them in.

The module also keeps the seed scheduler's per-query
:class:`DependenceStateReference` and the seed IR verifier
(:func:`verify_function_reference`).
"""

from __future__ import annotations

import heapq

from ..ir.basic_block import BasicBlock
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from ..machine.model import MachineModel
from .data_deps import DataDependenceGraph, DepEdge, DepKind
from .memory import AddressTracker, SymbolicAddress, may_conflict


def _edge_weight(machine: MachineModel, edge: DepEdge) -> int:
    """Minimum start-to-start separation the edge imposes, recomputed from
    the machine rather than read from ``edge.weight`` so the oracle does
    not share the production graph's arithmetic."""
    if edge.kind is DepKind.FLOW:
        return machine.exec_time(edge.src) + edge.delay
    return 0


class _CopyingDDG(DataDependenceGraph):
    """A DDG with the seed accessor behaviour: ``succs``/``preds`` return a
    fresh list on every call (the optimized graph hands out read-only views
    of its internal lists)."""

    def succs(self, ins: Instruction) -> list[DepEdge]:
        return list(super().succs(ins))

    def preds(self, ins: Instruction) -> list[DepEdge]:
        return list(super().preds(ins))


class _BlockScanStateReference:
    """The seed running last-def / uses-since-def / memory scan state."""

    def __init__(self) -> None:
        self.last_def: dict[Reg, Instruction] = {}
        self.uses_since_def: dict[Reg, list[Instruction]] = {}
        self.mem_ops: list[tuple[Instruction, SymbolicAddress | None]] = []
        self.tracker = AddressTracker()


def _scan_block_reference(ddg: DataDependenceGraph, block: BasicBlock,
                          machine: MachineModel) -> None:
    """The seed intra-block scan: repeated ``reg_uses()``/``reg_defs()``
    calls and attribute lookups inside the loop."""
    state = _BlockScanStateReference()
    for ins in block.instrs:
        ddg.add_instruction(ins)
        for reg in ins.reg_uses():
            producer = state.last_def.get(reg)
            if producer is not None:
                delay = machine.flow_delay(producer, ins, reg)
                ddg.add_edge(producer, ins, DepKind.FLOW, delay, reg)
        if ins.touches_memory:
            addr = (state.tracker.address_of(ins.mem)
                    if ins.mem is not None else None)
            for prev, prev_addr in state.mem_ops:
                if may_conflict(prev, prev_addr, ins, addr):
                    ddg.add_edge(prev, ins, DepKind.MEM, 0)
            state.mem_ops.append((ins, addr))
        for reg in ins.reg_defs():
            for user in state.uses_since_def.get(reg, ()):
                ddg.add_edge(user, ins, DepKind.ANTI, 0, reg)
            previous = state.last_def.get(reg)
            if previous is not None:
                ddg.add_edge(previous, ins, DepKind.OUTPUT, 0, reg)
        for reg in ins.reg_uses():
            state.uses_since_def.setdefault(reg, []).append(ins)
        for reg in ins.reg_defs():
            state.last_def[reg] = ins
            state.uses_since_def[reg] = []
        state.tracker.step(ins)


def topo_order_reference(ddg: DataDependenceGraph) -> list[Instruction]:
    """The seed topological sort: indegrees from a full ``edges()`` copy,
    successor lists copied per pop."""
    indeg = {id(ins): 0 for ins in ddg.instructions}
    for edge in ddg.edges():
        indeg[id(edge.dst)] += 1
    ready = [ins for ins in ddg.instructions if indeg[id(ins)] == 0]
    order: list[Instruction] = []
    while ready:
        ins = ready.pop()
        order.append(ins)
        for edge in ddg.succs(ins):
            indeg[id(edge.dst)] -= 1
            if indeg[id(edge.dst)] == 0:
                ready.append(edge.dst)
    if len(order) != len(ddg.instructions):
        raise ValueError("data dependence graph has a cycle")
    return order


def _interblock_edges_reference(ddg: DataDependenceGraph, earlier: BasicBlock,
                                later: BasicBlock,
                                machine: MachineModel) -> None:
    """The seed per-pair construction: summarise ``earlier`` from scratch
    for every pair, then scan ``later`` against it."""
    defs_of: dict[Reg, list[Instruction]] = {}
    uses_of: dict[Reg, list[Instruction]] = {}
    mem_ops: list[Instruction] = []
    for a in earlier.instrs:
        for reg in a.reg_defs():
            defs_of.setdefault(reg, []).append(a)
        for reg in a.reg_uses():
            uses_of.setdefault(reg, []).append(a)
        if a.touches_memory:
            mem_ops.append(a)

    for b in later.instrs:
        ddg.add_instruction(b)
        for reg in b.reg_uses():
            for a in defs_of.get(reg, ()):
                ddg.add_edge(a, b, DepKind.FLOW,
                             machine.flow_delay(a, b, reg), reg)
        for reg in b.reg_defs():
            for a in uses_of.get(reg, ()):
                ddg.add_edge(a, b, DepKind.ANTI, 0, reg)
            for a in defs_of.get(reg, ()):
                ddg.add_edge(a, b, DepKind.OUTPUT, 0, reg)
        if b.touches_memory:
            for a in mem_ops:
                if may_conflict(a, None, b, None):
                    ddg.add_edge(a, b, DepKind.MEM, 0)


def build_region_ddg_reference(
    blocks: list[BasicBlock],
    reachable_pairs: set[tuple[str, str]],
    machine: MachineModel,
    *, reduce: bool = True,
) -> DataDependenceGraph:
    """The seed region-DDG builder: O(B^2) pairwise interblock scans."""
    ddg = _CopyingDDG(machine)
    for block in blocks:
        _scan_block_reference(ddg, block, machine)
    for i, earlier in enumerate(blocks):
        for later in blocks[i + 1:]:
            if (earlier.label, later.label) in reachable_pairs:
                _interblock_edges_reference(ddg, earlier, later, machine)
    if reduce:
        transitive_reduce_reference(ddg, machine)
    return ddg


def _longest_from_reference(ddg: DataDependenceGraph, src: Instruction,
                            machine: MachineModel,
                            position: dict[int, int]) -> dict[int, int]:
    """The seed longest-path sweep: a topo-position-keyed heap per source."""
    dist: dict[int, int] = {id(src): 0}
    heap = [(position[id(src)], id(src), src)]
    done: set[int] = set()
    while heap:
        _, _, ins = heapq.heappop(heap)
        if id(ins) in done:
            continue
        done.add(id(ins))
        for edge in ddg.succs(ins):
            cand = dist[id(ins)] + _edge_weight(machine, edge)
            if cand > dist.get(id(edge.dst), -1):
                dist[id(edge.dst)] = cand
            if id(edge.dst) not in done:
                heapq.heappush(
                    heap, (position[id(edge.dst)], id(edge.dst), edge.dst)
                )
    return dist


def transitive_reduce_reference(ddg: DataDependenceGraph,
                                machine: MachineModel) -> int:
    """The seed delay-aware reduction: one full heap sweep per source."""
    order = topo_order_reference(ddg)
    position = {id(ins): i for i, ins in enumerate(order)}
    removed = 0
    for a in order:
        out_edges = list(ddg.succs(a))
        if len(out_edges) < 2:
            continue
        dist = _longest_from_reference(ddg, a, machine, position)
        for edge in out_edges:
            w = _edge_weight(machine, edge)
            best_multi = max(
                (
                    dist[id(in_edge.src)] + _edge_weight(machine, in_edge)
                    for in_edge in list(ddg.preds(edge.dst))
                    if in_edge.src is not a and id(in_edge.src) in dist
                ),
                default=None,
            )
            if best_multi is not None and best_multi >= w:
                ddg.remove_edge(edge)
                removed += 1
    return removed


class DependenceStateReference:
    """The seed dependence state: readiness and earliest start re-derived
    from the predecessor edges on every query.  It takes the place of
    :class:`repro.sched.soa.DenseDependenceState` under the scan arm."""

    #: nothing is cached, so a DDG mutation never invalidates anything
    invalidations = 0

    def __init__(self, ddg, machine):
        self.ddg = ddg
        self.machine = machine
        self._fulfilled: set[int] = set()
        self._local_start: dict[int, int] = {}
        self._carry_start: dict[int, int] = {}

    def edge_weight(self, edge) -> int:
        if edge.kind is DepKind.FLOW:
            return self.machine.exec_time(edge.src) + edge.delay
        return 0

    def begin_block(self, *, carry_cycles: int | None = None) -> None:
        if carry_cycles is None:
            self._carry_start = {}
        else:
            self._carry_start = {
                key: start - carry_cycles
                for key, start in self._local_start.items()
            }
        self._local_start.clear()

    def mark_prefulfilled(self, ins) -> None:
        self._fulfilled.add(id(ins))

    def mark_issued(self, ins, cycle: int) -> None:
        self._fulfilled.add(id(ins))
        self._local_start[id(ins)] = cycle

    def is_fulfilled(self, ins) -> bool:
        return id(ins) in self._fulfilled

    def deps_satisfied(self, ins) -> bool:
        return all(
            id(edge.src) in self._fulfilled for edge in self.ddg.preds(ins)
        )

    def earliest_start(self, ins) -> int:
        earliest = 0
        for edge in self.ddg.preds(ins):
            start = self._local_start.get(id(edge.src))
            if start is None:
                start = self._carry_start.get(id(edge.src))
            if start is not None:
                earliest = max(earliest, start + self.edge_weight(edge))
        return earliest

    def start_of(self, ins) -> int | None:
        return self._local_start.get(id(ins))


def verify_function_reference(func) -> None:
    """The seed IR verifier behaviour: every check formats its error
    message (including the instruction ``repr``) whether it fails or not."""
    from ..ir.opcodes import Opcode
    from ..ir.operand import CR_EQ, CR_GT, CR_LT, RegClass
    from ..ir.verify import VerificationError

    def _check(cond, message):
        if not cond:
            raise VerificationError(message)

    _check(bool(func.blocks), f"{func.name}: function has no blocks")
    seen_uids: set[int] = set()
    labels = {b.label for b in func.blocks}
    _check(len(labels) == len(func.blocks), f"{func.name}: duplicate labels")
    for block in func.blocks:
        where = f"{func.name}/{block.label}"
        for i, ins in enumerate(block.instrs):
            _check(ins.uid >= 0, f"{where}: {ins!r} has no uid")
            _check(ins.uid not in seen_uids,
                   f"{where}: duplicate uid I{ins.uid}")
            seen_uids.add(ins.uid)
            is_last = i == len(block.instrs) - 1
            _check(not ins.is_branch or is_last,
                   f"{where}: branch {ins!r} is not the block terminator")
            op = ins.opcode
            _check((ins.mem is not None) == (op.is_load or op.is_store),
                   f"{where}: {ins!r} memory operand mismatch")
            if op in (Opcode.BT, Opcode.BF):
                _check(ins.mask in (CR_LT, CR_GT, CR_EQ),
                       f"{where}: {ins!r} mask must be a single LT/GT/EQ bit")
                _check(len(ins.uses) == 1
                       and ins.uses[0].rclass is RegClass.CR,
                       f"{where}: {ins!r} must test a condition register")
                _check(ins.target is not None,
                       f"{where}: {ins!r} missing target")
            if op in (Opcode.B, Opcode.BDNZ):
                _check(ins.target is not None,
                       f"{where}: {ins!r} missing target")
            if op.is_compare:
                _check(len(ins.defs) == 1
                       and ins.defs[0].rclass is RegClass.CR,
                       f"{where}: {ins!r} must define a condition register")
            if op in (Opcode.L, Opcode.LU, Opcode.ST, Opcode.STU):
                for reg in ins.defs + ins.uses:
                    _check(reg.rclass is RegClass.GPR,
                           f"{where}: {ins!r} fixed-point memory op uses {reg}")
            if op is Opcode.LI:
                _check(ins.imm is not None,
                       f"{where}: {ins!r} missing immediate")
            if op in (Opcode.AI, Opcode.SI, Opcode.ANDI, Opcode.ORI,
                      Opcode.XORI, Opcode.SL, Opcode.SR, Opcode.SRA,
                      Opcode.CI):
                _check(ins.imm is not None,
                       f"{where}: {ins!r} missing immediate")
            if op.is_load:
                _check(len(ins.defs) >= 1,
                       f"{where}: {ins!r} load defines nothing")
            if op is Opcode.CALL:
                _check(ins.target, f"{where}: {ins!r} call needs a callee name")
            if ins.target is not None and not ins.is_call:
                _check(ins.target in labels,
                       f"{where}: branch target {ins.target!r} does not exist")
