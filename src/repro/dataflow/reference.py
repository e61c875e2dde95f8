"""Reference (seed) implementations of the dataflow analyses.

The dense analysis core re-hosted the worklist solver, ``LivenessInfo``
and ``ReachingDefinitions`` on int bitmasks over a shared
:class:`repro.dataflow.dense.RegTable`.  This module preserves the seed's
frozenset implementations verbatim:

* :class:`LivenessInfoReference` / :func:`compute_liveness_reference`;
* :class:`ReachingDefinitionsReference`;
* :class:`UncachedAnalyses` -- an analysis cache that recomputes on every
  query, as the seed pipeline did at each use site.

:func:`repro.reference.oracle_arm` patches them in behind the compiler.

The seed's generic set-based worklist solver never left
:mod:`repro.dataflow.engine` (it remains the public generic API next to
the mask solvers); both reference analyses here drive it exactly as the
seed did.  ``Definition`` is shared with :mod:`repro.dataflow.reaching`
so dense and reference results compare equal.
"""

from __future__ import annotations

from ..cfg.graph import EXIT, ControlFlowGraph
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from .cache import AnalysisCache
from .engine import solve_backward, solve_forward
from .reaching import Definition


def block_use_def_reference(block: BasicBlock) -> tuple[set[Reg], set[Reg]]:
    """(upward-exposed uses, defs) of a block (seed set-based helper)."""
    uses: set[Reg] = set()
    defs: set[Reg] = set()
    for ins in block.instrs:
        for reg in ins.reg_uses():
            if reg not in defs:
                uses.add(reg)
        defs.update(ins.reg_defs())
    return uses, defs


class LivenessInfoReference:
    """Solved liveness for one function (seed frozenset implementation)."""

    def __init__(self, func: Function, cfg: ControlFlowGraph,
                 live_at_exit: frozenset[Reg] = frozenset()):
        self.func = func
        self.cfg = cfg
        self.live_at_exit = live_at_exit
        self._use: dict[str, frozenset[Reg]] = {}
        self._def: dict[str, frozenset[Reg]] = {}
        for block in func.blocks:
            uses, defs = block_use_def_reference(block)
            self._use[block.label] = frozenset(uses)
            self._def[block.label] = frozenset(defs)
        self._live_out = self._solve()

    def _solve(self) -> dict[str, frozenset[Reg]]:
        labels = [b.label for b in self.func.blocks]

        def transfer(label: str, out_set: frozenset) -> frozenset:
            if label in (EXIT,):
                return out_set
            return self._use[label] | (out_set - self._def[label])

        graph = self.cfg.graph
        # Solve over block labels only; EXIT acts as the boundary: blocks
        # with an edge to EXIT receive ``live_at_exit`` through it.
        out_sets: dict[str, frozenset[Reg]] = {}
        sets = solve_backward(
            graph.subgraph([*labels, EXIT]),
            [*labels, EXIT],
            lambda n, out: out if n == EXIT else transfer(n, out),
            boundary=self.live_at_exit,
        )
        # EXIT itself has no successors -> gets boundary; blocks see it.
        for label in labels:
            out_sets[label] = sets[label]
        return out_sets

    # -- queries ----------------------------------------------------------

    def live_out(self, block: BasicBlock | str) -> frozenset[Reg]:
        """Registers live on exit from ``block``."""
        label = block if isinstance(block, str) else block.label
        return self._live_out[label]

    def live_in(self, block: BasicBlock | str) -> frozenset[Reg]:
        label = block if isinstance(block, str) else block.label
        return self._use[label] | (self._live_out[label] - self._def[label])

    def live_out_map(self) -> dict[str, set[Reg]]:
        """A mutable copy for the scheduler's dynamic updates."""
        return {label: set(regs) for label, regs in self._live_out.items()}


def compute_liveness_reference(
        func: Function,
        live_at_exit: frozenset[Reg] = frozenset(),
        cfg: ControlFlowGraph | None = None,
        *, analyses=None) -> LivenessInfoReference:
    """Seed convenience constructor (``analyses``, the dense plumbing
    hook, is accepted and used only for its cached CFG)."""
    if cfg is None:
        cfg = analyses.cfg() if analyses is not None else None
    return LivenessInfoReference(func, cfg or ControlFlowGraph(func),
                                 live_at_exit)


class ReachingDefinitionsReference:
    """Solved reaching definitions (seed frozenset implementation)."""

    def __init__(self, func: Function, cfg: ControlFlowGraph | None = None):
        self.func = func
        self.cfg = cfg or ControlFlowGraph(func)
        self._gen: dict[str, frozenset[Definition]] = {}
        self._kill_regs: dict[str, frozenset[Reg]] = {}
        self._all_defs: dict[Reg, set[Definition]] = {}
        for block in func.blocks:
            last_def: dict[Reg, Definition] = {}
            for ins in block.instrs:
                for reg in ins.reg_defs():
                    d = Definition(ins.uid, reg)
                    last_def[reg] = d
                    self._all_defs.setdefault(reg, set()).add(d)
            self._gen[block.label] = frozenset(last_def.values())
            self._kill_regs[block.label] = frozenset(last_def)
        self._in_sets = self._solve()

    def _solve(self) -> dict[str, frozenset[Definition]]:
        labels = [b.label for b in self.func.blocks]

        def transfer(label: str, in_set: frozenset) -> frozenset:
            killed = self._kill_regs[label]
            surviving = frozenset(d for d in in_set if d.reg not in killed)
            return surviving | self._gen[label]

        graph = self.cfg.graph.subgraph(labels)
        return solve_forward(graph, labels, transfer,
                             entry=self.func.entry.label)

    # -- queries ------------------------------------------------------------

    def reaching_in(self, label: str) -> frozenset[Definition]:
        """Definitions that may reach the entry of block ``label``."""
        return self._in_sets[label]

    def defs_of(self, reg: Reg) -> frozenset[Definition]:
        """All definition sites of ``reg`` in the function."""
        return frozenset(self._all_defs.get(reg, ()))

    def reaching_before(self, label: str,
                        ins: Instruction) -> frozenset[Definition]:
        """Definitions that may reach the point just before ``ins``."""
        block = self.func.block(label)
        live: dict[Reg, set[Definition]] = {}
        for d in self._in_sets[label]:
            live.setdefault(d.reg, set()).add(d)
        for candidate in block.instrs:
            if candidate is ins:
                break
            for reg in candidate.reg_defs():
                live[reg] = {Definition(candidate.uid, reg)}
        return frozenset(d for defs in live.values() for d in defs)


class UncachedAnalyses(AnalysisCache):
    """An :class:`repro.dataflow.cache.AnalysisCache` that recomputes every
    analysis on every call (the seed pipeline rebuilt the CFG, dominators,
    loop nest and liveness at each use site)."""

    def cfg(self):
        self._cfg = None
        return super().cfg()

    def dominators(self):
        self._cfg = None
        self._dom = None
        return super().dominators()

    def loop_nest(self):
        self._cfg = None
        self._dom = None
        self._nest = None
        return super().loop_nest()

    def liveness(self, live_at_exit):
        self._cfg = None
        self._liveness.clear()
        self._dense = None
        self._use_def = None
        return super().liveness(live_at_exit)

    def dense_cfg(self):
        self._cfg = None
        self._dense = None
        return super().dense_cfg()

    def block_use_def_masks(self):
        self._use_def = None
        return super().block_use_def_masks()
