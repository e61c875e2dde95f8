"""Interference graphs from instruction-level liveness.

Section 2: "during the register allocation phase of the compiler, the
symbolic registers are mapped onto the real machine registers, using one
of the standard (coloring) algorithms."  This module builds the input to
that coloring: two symbolic registers *interfere* when one is defined
while the other is live (they can never share a machine register).

Move instructions (``LR rd = rs``) get the classic special case: the
definition does not interfere with its own source, leaving the coalescing
opportunity open.

Construction runs on bitset rows over the liveness solve's shared
:class:`repro.dataflow.dense.RegTable`: the live set is carried as one
int, each definition's new edges are one AND against the live mask, and
rows are clipped to the defining register's class in the closing pass
(edges only join same-class registers).  The rows ARE the graph -- the
allocator's coloring loop, the coalescer and the verifier consume them
directly, and the classic adjacency sets only materialize if a
set-dialect consumer touches ``InterferenceGraph.adjacency``.  The
seed's per-block ``set`` scan is preserved as
:func:`repro.regalloc.reference.build_interference_reference`.
"""

from __future__ import annotations

from ..cfg.graph import ControlFlowGraph
from ..dataflow.dense import BYTE_BITS, RegTable
from ..dataflow.liveness import LivenessInfo, compute_liveness
from ..ir.function import Function
from ..ir.opcodes import Opcode
from ..ir.operand import Reg, RegClass


class InterferenceGraph:
    """Undirected interference edges, per register class.

    Two storage dialects.  The seed dialect is the classic ``adjacency``
    dict (register -> set of same-class interfering registers), used by
    the reference builder and by hand-built graphs in the tests.  The
    dense builder instead hands over symmetric bitset ``rows`` (bit ->
    neighbour mask over a shared :class:`RegTable`); the coloring loop,
    coalescer and verifier all consume the rows directly, and the
    ``adjacency`` dict only materializes lazily if some consumer asks
    for the set view.  Materializing switches the graph to the set
    dialect for good (the rows are dropped so a later mutation through
    ``add_edge`` cannot leave them stale).
    """

    __slots__ = ("moves", "_adjacency", "table", "rows", "nodes_mask")

    def __init__(self) -> None:
        #: move pairs (dst, src) seen -- coalescing candidates
        self.moves: set[tuple[Reg, Reg]] = set()
        self._adjacency: dict[Reg, set[Reg]] | None = {}
        #: dense dialect: the interning table, the symmetric bit ->
        #: neighbour-mask rows, and the mask of every node (isolated
        #: ones included); ``rows is None`` means set dialect
        self.table: RegTable | None = None
        self.rows: dict[int, int] | None = None
        self.nodes_mask = 0

    def _adopt_rows(self, table: RegTable, rows: dict[int, int],
                    nodes_mask: int) -> None:
        self.table = table
        self.rows = rows
        self.nodes_mask = nodes_mask
        self._adjacency = None

    @property
    def adjacency(self) -> dict[Reg, set[Reg]]:
        """Register -> set of interfering registers (same class).

        On a dense graph the first access materializes the sets from the
        bitset rows and retires the rows."""
        adj = self._adjacency
        if adj is None:
            adj = self._adjacency = {}
            table = self.table
            regs_row = table._row()
            regs_of = table.regs_of
            rget = self.rows.get
            data = self.nodes_mask.to_bytes(
                (self.nodes_mask.bit_length() + 7) >> 3, "little")
            for base, byte in enumerate(data):
                if byte:
                    base8 = base << 3
                    for b in BYTE_BITS[byte]:
                        o = base8 + b
                        adj[regs_row[o]] = regs_of(rget(o, 0))
            self.table = None
            self.rows = None
            self.nodes_mask = 0
        return adj

    def add_node(self, reg: Reg) -> None:
        self.adjacency.setdefault(reg, set())

    def add_edge(self, a: Reg, b: Reg) -> None:
        if a == b or a.rclass is not b.rclass:
            return
        adjacency = self.adjacency
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    def interferes(self, a: Reg, b: Reg) -> bool:
        if self.rows is not None:
            bit = self.table.bit
            ab = bit.get(a)
            bb = bit.get(b)
            if ab is None or bb is None:
                return False
            return bool((self.rows.get(ab, 0) >> bb) & 1)
        return b in self._adjacency.get(a, ())

    def degree(self, reg: Reg) -> int:
        if self.rows is not None:
            b = self.table.bit.get(reg)
            return 0 if b is None else self.rows.get(b, 0).bit_count()
        return len(self._adjacency.get(reg, ()))

    def nodes_of_class(self, rclass: RegClass) -> list[Reg]:
        if self.rows is not None:
            table = self.table
            regs_row = table._row()
            mask = self.nodes_mask & table.class_mask(rclass)
            out: list[Reg] = []
            data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
            for base, byte in enumerate(data):
                if byte:
                    base8 = base << 3
                    out += [regs_row[base8 + b] for b in BYTE_BITS[byte]]
            return out
        return [r for r in self._adjacency if r.rclass is rclass]


def build_interference(
    func: Function,
    *,
    live_at_exit: frozenset[Reg] = frozenset(),
    liveness: LivenessInfo | None = None,
    analyses=None,
) -> InterferenceGraph:
    """Build the interference graph of ``func``.

    ``analyses`` (an :class:`repro.dataflow.cache.AnalysisCache`) shares
    the function's liveness solve -- and through it the CFG, the dense
    CSR snapshot and the ``RegTable`` interning pass -- with the caller;
    the allocator threads one cache through every coalescing iteration
    and spill round.  Without it the builder derives a private solve.
    """
    if liveness is None:
        if analyses is not None:
            liveness = analyses.liveness(live_at_exit)
        else:
            liveness = compute_liveness(func, live_at_exit,
                                        ControlFlowGraph(func))

    table = liveness.table
    bit = table.bit
    masks = table.mask
    mget = masks.get
    #: bit -> mask of interfering bits (grown on demand)
    rows: dict[int, int] = {}
    rget = rows.get
    graph = InterferenceGraph()
    ctr = RegClass.CTR
    lr = Opcode.LR
    fmr = Opcode.FMR
    node_mask = 0
    # one backward scan does the interning and the row building at once:
    # cross-class and CTR bits ride along in every row (filtering them
    # per instruction costs more than carrying them) and the closure
    # below clips each row to its owner's class in one AND
    for block in func.blocks:
        live = liveness.live_out_mask(block.label)
        for ins in reversed(block.instrs):
            use_mask = 0
            for r in ins.uses:
                m = mget(r)
                if m is None:
                    b = bit.get(r)
                    if b is None:
                        b = bit[r] = len(bit)
                    m = masks[r] = 1 << b
                use_mask |= m
            defs = ins.defs
            def_mask = 0
            for r in defs:
                m = mget(r)
                if m is None:
                    b = bit.get(r)
                    if b is None:
                        b = bit[r] = len(bit)
                    m = masks[r] = 1 << b
                def_mask |= m
            node_mask |= use_mask | def_mask
            opcode = ins.opcode
            move_src = 0
            if opcode is lr or opcode is fmr:
                d = [r for r in defs if r.rclass is not ctr]
                u = [r for r in ins.uses if r.rclass is not ctr]
                if d and u:
                    graph.moves.add((d[0], u[0]))
                if u:
                    move_src = masks[u[0]]
            for d in defs:
                if d.rclass is ctr:
                    continue
                # live registers, minus self; a move's def skips its
                # source (they may share a colour); the def also clashes
                # with its simultaneous siblings (LU)
                adds = (live | def_mask) & ~(masks[d] | move_src)
                if adds:
                    db = bit[d]
                    rows[db] = rget(db, 0) | adds
            live = (live & ~def_mask) | use_mask

    # the scan interned every register the function mentions, so the
    # per-class masks are final.  The counter register never interferes
    # (allocation ignores it): strip it from the node set, and clip each
    # row to its defining register's class -- edges only join same-class
    # registers
    class_masks = {rc: table.class_mask(rc) for rc in RegClass}
    node_mask &= ~class_masks[ctr]
    regs_row = table._row()
    for db in rows:
        rows[db] &= class_masks[regs_row[db].rclass]

    # symmetric closure on the int rows; the rows ARE the graph -- the
    # coloring loop consumes them directly, and the classic adjacency
    # sets only materialize if a set-dialect consumer asks
    sym = dict(rows)
    sget = sym.get
    for db, mask in rows.items():
        dm = 1 << db
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        for base, byte in enumerate(data):
            if byte:
                base8 = base << 3
                for b in BYTE_BITS[byte]:
                    o = base8 + b
                    sym[o] = sget(o, 0) | dm
    all_nodes = node_mask
    for db, mask in rows.items():
        all_nodes |= (1 << db) | mask
    graph._adopt_rows(table, sym, all_nodes)
    return graph


def verify_coloring(graph: InterferenceGraph,
                    mapping: dict[Reg, Reg]) -> None:
    """Assert that ``mapping`` assigns distinct machine registers to every
    interfering pair (used by the allocator's self-check and the tests)."""
    if graph.rows is not None:
        # walk the bitset rows as ints -- no adjacency-set materialization
        regs_row = graph.table._row()
        for db, mask in graph.rows.items():
            reg = regs_row[db]
            colour = mapping.get(reg)
            if colour is None:
                continue
            data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
            for base, byte in enumerate(data):
                if byte:
                    base8 = base << 3
                    for b in BYTE_BITS[byte]:
                        other = regs_row[base8 + b]
                        if mapping.get(other) == colour:
                            raise AssertionError(
                                f"{reg} and {other} interfere but both "
                                f"map to {colour}"
                            )
        return
    for reg, neighbours in graph.adjacency.items():
        for other in neighbours:
            if reg in mapping and other in mapping:
                if mapping[reg] == mapping[other]:
                    raise AssertionError(
                        f"{reg} and {other} interfere but both map to "
                        f"{mapping[reg]}"
                    )
