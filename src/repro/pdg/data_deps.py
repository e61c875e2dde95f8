"""The data-dependence subgraph of the PDG (Section 4.2).

Edges are inserted between instructions ``a`` (earlier) and ``b`` (later)
when:

* a register defined in ``a`` is used in ``b`` (*flow*),
* a register used in ``a`` is defined in ``b`` (*anti*),
* a register defined in ``a`` is defined in ``b`` (*output*),
* both touch memory and are not proven independent (*memory*), where
  load/load pairs never conflict and the base+offset analysis of
  :mod:`repro.pdg.memory` proves the rest.

Only flow edges carry (potentially non-zero) machine delays; all other
kinds carry zero (Section 4.2).  Dependences are computed both within
blocks and between every ordered pair of blocks ``(A, B)`` with ``B``
reachable from ``A`` in the forward control flow graph.

A graph is built for one machine and is the only representation of the
DDG: each instruction is indexed in the order it is added (program order,
blocks in topological order), and each edge carries its endpoint indices
and its start-to-start weight on that machine, so the schedulers walk the
per-index edge lists directly.

The interblock pass summarises each block's defs/uses/memory traffic
*once* and merges the summaries of a block's forward-reachable
predecessors along the region's topological order, so each block's
instructions are scanned O(1) times instead of once per reachable pair
(the paper reports negligible compile-time cost for this phase; the seed
implementation re-scanned the earlier block of every pair and is kept in
:mod:`repro.pdg.reference` for differential testing).

The paper avoids materialising transitive edges; we build the natural edge
set and provide a delay-aware :func:`transitive_reduce` that removes any
edge implied by a longer-or-equal path, which the scheduler applies to keep
ready-list bookkeeping small.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from ..ir.basic_block import BasicBlock
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from ..machine.model import MachineModel
from .memory import AddressTracker, SymbolicAddress, may_conflict


class DepKind(Enum):
    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    MEM = "mem"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DepKind.{self.name}"


class DepEdge:
    """A dependence ``src -> dst``: dst must start >= start(src) + weight.

    ``src_idx``/``dst_idx`` are the endpoints' indices in the owning
    graph and ``weight`` is the minimum start-to-start separation on the
    graph's machine: ``exec_time(src) + delay`` for flow edges; for anti/
    output/memory edges the paper's delays are zero, but ``dst`` must
    still start no earlier than ``src`` -- we encode that as weight 0 with
    *issue order* preserved by the scheduler (an instruction is only ready
    once all its predecessors have been issued).

    Compares (and hashes) by identity: the graph keeps a single edge per
    pair, so value equality could only ever match the same object.
    """

    __slots__ = ("src", "dst", "kind", "delay", "reg",
                 "src_idx", "dst_idx", "weight")

    def __init__(self, src: Instruction, dst: Instruction, kind: DepKind,
                 delay: int, reg: Reg | None, src_idx: int, dst_idx: int,
                 weight: int) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.delay = delay
        self.reg = reg
        self.src_idx = src_idx
        self.dst_idx = dst_idx
        self.weight = weight

    def __repr__(self) -> str:
        tag = f" {self.reg}" if self.reg is not None else ""
        return (f"<{self.kind.value}{tag} I{self.src.uid}->I{self.dst.uid}"
                f" d={self.delay}>")


class DataDependenceGraph:
    """Dependence edges over a set of instructions, for one machine.

    Every instruction gets an append-only index when it is added
    (``index``: ``id(ins) -> position in instructions``), so an index is
    stable for the life of the graph.  Each edge is stored once and listed
    in the per-index ``succ``/``pred`` lists; it carries both endpoint
    indices and its machine weight, so the schedulers' hot loops walk
    these lists directly.

    ``succs``/``preds`` return **read-only views** of those lists; a
    caller that mutates the graph while iterating must snapshot first
    (``list(ddg.succs(ins))``).  Every edge insertion/removal bumps
    :attr:`version`, which incremental consumers (the scheduler's
    :class:`~repro.sched.soa.DenseDependenceState`) use to recompute
    their derived state.
    """

    def __init__(self, machine: MachineModel) -> None:
        self.machine = machine
        self.instructions: list[Instruction] = []
        self.index: dict[int, int] = {}
        self.succ: list[list[DepEdge]] = []
        self.pred: list[list[DepEdge]] = []
        self._by_pair: dict[tuple[int, int], DepEdge] = {}
        #: bumped on every edge insertion/removal (for cache invalidation)
        self.version = 0

    # -- construction --------------------------------------------------------

    def add_instruction(self, ins: Instruction) -> int:
        """Index of ``ins``, appending it first if it is new."""
        i = self.index.get(id(ins))
        if i is None:
            i = len(self.instructions)
            self.index[id(ins)] = i
            self.instructions.append(ins)
            self.succ.append([])
            self.pred.append([])
        return i

    def add_edge(self, src: Instruction, dst: Instruction, kind: DepKind,
                 delay: int, reg: Reg | None = None) -> None:
        """Insert an edge; parallel edges keep only the strongest delay."""
        if src is dst:
            return
        # inline the index lookups: edge insertion is the single hottest
        # call of region-DDG construction and endpoints are almost always
        # registered already
        index = self.index
        i = index.get(id(src))
        if i is None:
            i = self.add_instruction(src)
        j = index.get(id(dst))
        if j is None:
            j = self.add_instruction(dst)
        key = (i, j)
        existing = self._by_pair.get(key)
        if existing is not None and existing.delay >= delay:
            return
        weight = (self.machine.exec_time(src) + delay
                  if kind is DepKind.FLOW else 0)
        edge = DepEdge(src, dst, kind, delay, reg, i, j, weight)
        if existing is not None:
            self.succ[i].remove(existing)
            self.pred[j].remove(existing)
        self._by_pair[key] = edge
        self.succ[i].append(edge)
        self.pred[j].append(edge)
        self.version += 1

    def remove_edge(self, edge: DepEdge) -> None:
        key = (edge.src_idx, edge.dst_idx)
        if self._by_pair.get(key) is edge:
            del self._by_pair[key]
            self.succ[edge.src_idx].remove(edge)
            self.pred[edge.dst_idx].remove(edge)
            self.version += 1

    # -- queries -----------------------------------------------------------------

    _NO_EDGES: Sequence[DepEdge] = ()

    def succs(self, ins: Instruction) -> Sequence[DepEdge]:
        """Outgoing edges of ``ins`` -- a read-only view, do not mutate."""
        i = self.index.get(id(ins))
        return self._NO_EDGES if i is None else self.succ[i]

    def preds(self, ins: Instruction) -> Sequence[DepEdge]:
        """Incoming edges of ``ins`` -- a read-only view, do not mutate."""
        i = self.index.get(id(ins))
        return self._NO_EDGES if i is None else self.pred[i]

    def edges(self) -> list[DepEdge]:
        return list(self._by_pair.values())

    def iter_edges(self):
        """All edges without the :meth:`edges` list copy (read-only; do not
        mutate the graph while iterating)."""
        return self._by_pair.values()

    def edge_count(self) -> int:
        return len(self._by_pair)

    def edge(self, src: Instruction, dst: Instruction) -> DepEdge | None:
        i = self.index.get(id(src))
        j = self.index.get(id(dst))
        if i is None or j is None:
            return None
        return self._by_pair.get((i, j))

    def to_dense(self, machine: MachineModel) -> "DataDependenceGraph":
        """This graph, checked against ``machine``.

        The graph is already index-addressed and its edge weights are
        ``machine``-specific, so the only thing to do is refuse a machine
        other than the one it was built for."""
        if machine is not self.machine and machine != self.machine:
            raise ValueError(
                f"dependence graph was built for machine "
                f"{self.machine.name!r}, not {machine.name!r}")
        return self

    def __repr__(self) -> str:
        return (f"<DataDependenceGraph {len(self.instructions)} instrs, "
                f"{len(self._by_pair)} edges>")


def add_pair_edges(ddg: DataDependenceGraph, src: Instruction,
                   dst: Instruction) -> None:
    """Dependence edges ``src -> dst`` from the two instructions' current
    operands: flow/anti/output per register, and a memory edge whenever
    both touch memory and either writes (never disambiguated)."""
    flow_delay = ddg.machine.flow_delay
    src_defs = set(src.reg_defs())
    src_uses = set(src.reg_uses())
    for reg in dst.reg_uses():
        if reg in src_defs:
            ddg.add_edge(src, dst, DepKind.FLOW,
                         flow_delay(src, dst, reg), reg)
    for reg in dst.reg_defs():
        if reg in src_uses:
            ddg.add_edge(src, dst, DepKind.ANTI, 0, reg)
        if reg in src_defs:
            ddg.add_edge(src, dst, DepKind.OUTPUT, 0, reg)
    if (src.touches_memory and dst.touches_memory
            and (src.writes_memory or dst.writes_memory)):
        ddg.add_edge(src, dst, DepKind.MEM, 0)


class _BlockScanState:
    """Running last-def / uses-since-def / memory state for one block scan."""

    def __init__(self) -> None:
        self.last_def: dict[Reg, Instruction] = {}
        self.uses_since_def: dict[Reg, list[Instruction]] = {}
        self.mem_ops: list[tuple[Instruction, SymbolicAddress | None]] = []
        self.tracker = AddressTracker()


def _scan_block(ddg: DataDependenceGraph, block: BasicBlock) -> None:
    """Intra-block dependences via a single forward scan.

    The scan inherently avoids most transitive edges: a flow edge is only
    drawn from the *last* definition, an output edge only from the previous
    definition, etc.
    """
    state = _BlockScanState()
    last_def = state.last_def
    uses_since_def = state.uses_since_def
    add_edge = ddg.add_edge
    flow_delay = ddg.machine.flow_delay
    for ins in block.instrs:
        ddg.add_instruction(ins)
        uses = ins.reg_uses()
        defs = ins.reg_defs()
        # flow: last def of each used register
        for reg in uses:
            producer = last_def.get(reg)
            if producer is not None:
                delay = flow_delay(producer, ins, reg)
                add_edge(producer, ins, DepKind.FLOW, delay, reg)
        # memory ordering
        if ins.opcode.touches_memory:
            addr = (state.tracker.address_of(ins.mem)
                    if ins.mem is not None else None)
            for prev, prev_addr in state.mem_ops:
                if may_conflict(prev, prev_addr, ins, addr):
                    add_edge(prev, ins, DepKind.MEM, 0)
            state.mem_ops.append((ins, addr))
        # anti and output
        for reg in defs:
            for user in uses_since_def.get(reg, ()):
                add_edge(user, ins, DepKind.ANTI, 0, reg)
            previous = last_def.get(reg)
            if previous is not None:
                add_edge(previous, ins, DepKind.OUTPUT, 0, reg)
        # update state
        for reg in uses:
            uses_since_def.setdefault(reg, []).append(ins)
        for reg in defs:
            last_def[reg] = ins
            uses_since_def[reg] = []
        state.tracker.step(ins)


class _BlockSummary:
    """One block's def/use/memory footprint, computed in a single scan."""

    __slots__ = ("defs_of", "uses_of", "mem_ops")

    def __init__(self, block: BasicBlock) -> None:
        self.defs_of: dict[Reg, list[Instruction]] = {}
        self.uses_of: dict[Reg, list[Instruction]] = {}
        self.mem_ops: list[Instruction] = []
        for a in block.instrs:
            for reg in a.reg_defs():
                self.defs_of.setdefault(reg, []).append(a)
            for reg in a.reg_uses():
                self.uses_of.setdefault(reg, []).append(a)
            if a.opcode.touches_memory:
                self.mem_ops.append(a)


def _interblock_edges(
    ddg: DataDependenceGraph,
    blocks: list[BasicBlock],
    reachable_pairs: set[tuple[str, str]],
) -> None:
    """Dependences into each block from every forward-reachable earlier
    block, matched through per-register posting lists.

    Each register maps to the (block index, instruction list) postings of
    the blocks that define or use it, so a later block only ever touches
    the registers its own instructions mention -- re-merging every source
    summary per later block visited every register of every earlier block
    instead.  Postings are in topological block order, which keeps the
    edge insertion sequence identical to a per-source merge.

    Conservative on memory: cross-block references are never disambiguated
    (the base registers' values at block entry depend on the path taken).
    """
    summaries = [_BlockSummary(block) for block in blocks]
    defs_at: dict[Reg, list[tuple[int, list[Instruction]]]] = {}
    uses_at: dict[Reg, list[tuple[int, list[Instruction]]]] = {}
    mem_at: list[tuple[int, list[Instruction]]] = []
    for i, summary in enumerate(summaries):
        for reg, instrs in summary.defs_of.items():
            defs_at.setdefault(reg, []).append((i, instrs))
        for reg, instrs in summary.uses_of.items():
            uses_at.setdefault(reg, []).append((i, instrs))
        if summary.mem_ops:
            mem_at.append((i, summary.mem_ops))

    labels = [block.label for block in blocks]
    flow_delay = ddg.machine.flow_delay
    add_edge = ddg.add_edge
    no_postings: list[tuple[int, list[Instruction]]] = []
    for j, later in enumerate(blocks):
        later_label = later.label
        srcs = {i for i in range(j)
                if (labels[i], later_label) in reachable_pairs}
        if not srcs:
            continue
        for b in later.instrs:
            for reg in b.reg_uses():
                for i, instrs in defs_at.get(reg, no_postings):
                    if i in srcs:
                        for a in instrs:
                            add_edge(a, b, DepKind.FLOW,
                                     flow_delay(a, b, reg), reg)
            for reg in b.reg_defs():
                for i, instrs in uses_at.get(reg, no_postings):
                    if i in srcs:
                        for a in instrs:
                            add_edge(a, b, DepKind.ANTI, 0, reg)
                for i, instrs in defs_at.get(reg, no_postings):
                    if i in srcs:
                        for a in instrs:
                            add_edge(a, b, DepKind.OUTPUT, 0, reg)
            if b.opcode.touches_memory:
                for i, instrs in mem_at:
                    if i in srcs:
                        for a in instrs:
                            if may_conflict(a, None, b, None):
                                add_edge(a, b, DepKind.MEM, 0)


def build_block_ddg(block: BasicBlock, machine: MachineModel,
                    *, reduce: bool = True) -> DataDependenceGraph:
    """Intra-block DDG (used by the basic-block scheduler)."""
    ddg = DataDependenceGraph(machine)
    _scan_block(ddg, block)
    if reduce:
        transitive_reduce(ddg, machine)
    return ddg


def build_region_ddg(
    blocks: list[BasicBlock],
    reachable_pairs: set[tuple[str, str]],
    machine: MachineModel,
    *, reduce: bool = True,
) -> DataDependenceGraph:
    """DDG over a region.

    ``blocks`` must be in topological order of the region's forward CFG;
    ``reachable_pairs`` contains every ordered pair of labels ``(A, B)``
    with ``B`` reachable from ``A`` along forward edges (Section 4.2:
    "for each pair A and B of basic blocks such that B is reachable from
    A ... the interblock data dependences are computed").

    Each block is scanned exactly once (intra-block edges + its summary);
    cross-block dependences are then matched through per-register posting
    lists (:func:`_interblock_edges`), instead of re-scanning every
    ``(earlier, later)`` pair.
    """
    ddg = DataDependenceGraph(machine)
    for block in blocks:
        _scan_block(ddg, block)
    if len(blocks) > 1:
        _interblock_edges(ddg, blocks, reachable_pairs)
    if reduce:
        transitive_reduce(ddg, machine)
    return ddg


def transitive_reduce(ddg: DataDependenceGraph,
                      machine: MachineModel) -> int:
    """Remove edges implied by stronger-or-equal multi-edge paths.

    An edge ``(a, b)`` with separation ``w`` is redundant iff some path
    ``a -> ... -> b`` of at least two edges already forces a separation
    ``>= w``.  Returns the number of edges removed.  This mirrors the
    paper's "there is no need to compute the edge from a to c" observation,
    generalised to be delay-aware: a transitive edge must be *kept* when it
    carries a longer delay than the path through the middle instruction.

    The builders add instructions in program order and draw every edge
    from an earlier instruction to a later one, so index order is a
    topological order; an edge against it raises ``ValueError`` (which
    also rules out cycles).  Each source's longest-path sweep is a linear
    scan over the index range up to its furthest checked successor (no
    priority queue, no work past the last edge it can possibly remove).
    Sources are visited in index order and only ever lose their own
    out-edges, so every sweep from ``a`` and every in-edge it inspects
    (from sources after ``a``) is still unremoved: the pass reads the
    live graph and removes exactly what a sweep over the unreduced graph
    would.  Single-successor sources are skipped outright: a parallel
    multi-edge path would need a second out-edge to start from.
    """
    ddg.to_dense(machine)
    if any(edge.src_idx >= edge.dst_idx for edge in ddg.iter_edges()):
        raise ValueError("data dependence graph has an edge against its "
                         "build order")
    succ = ddg.succ
    pred = ddg.pred
    removed = 0
    dist = [-1] * len(succ)  # reused per source; -1 = unreached
    for a, outs in enumerate(succ):
        if len(outs) < 2:
            continue
        # An edge (a, b) is only removable when some *other* edge enters
        # b: restrict the check set (and the sweep horizon) to successors
        # with a second in-edge.  Sources whose successors are all
        # single-predecessor skip the sweep outright.
        check = None
        limit = a
        for edge in outs:
            b = edge.dst_idx
            if len(pred[b]) >= 2:
                if check is None:
                    check = [edge]
                else:
                    check.append(edge)
                if b > limit:
                    limit = b
        if check is None:
            continue
        # Longest paths from ``a`` over the index range that can matter:
        # every removable edge ends at a checked successor, and every
        # implying path stays strictly within the range before it.
        dist[a] = 0
        touched = [a]
        for here in range(a, limit):
            d = dist[here]
            if d < 0:
                continue
            for edge in succ[here]:
                b = edge.dst_idx
                if b > limit:
                    continue
                cand = d + edge.weight
                if cand > dist[b]:
                    if dist[b] < 0:
                        touched.append(b)
                    dist[b] = cand
        for edge in check:
            # Longest a->b path whose final hop is (m, b) with m != a;
            # -1 stands for "no such path" (all real weights are >= 0).
            best_multi = -1
            for in_edge in pred[edge.dst_idx]:
                m = in_edge.src_idx
                if m == a:
                    continue
                d = dist[m]
                if d >= 0:
                    cand = d + in_edge.weight
                    if cand > best_multi:
                        best_multi = cand
            if best_multi >= edge.weight:
                ddg.remove_edge(edge)
                removed += 1
        for here in touched:
            dist[here] = -1
    return removed


def topo_order(ddg: DataDependenceGraph) -> list[Instruction]:
    """A topological order of the dependence DAG (raises on cycles)."""
    indeg = [len(edges) for edges in ddg.pred]
    ready = [i for i, n in enumerate(indeg) if n == 0]
    order: list[Instruction] = []
    while ready:
        i = ready.pop()
        order.append(ddg.instructions[i])
        for edge in ddg.succ[i]:
            j = edge.dst_idx
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(order) != len(indeg):
        raise ValueError("data dependence graph has a cycle")
    return order
