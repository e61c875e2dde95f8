"""The global scheduling top-level process (Section 5.1).

Blocks of a region are visited in topological order.  For each block ``A``:

1. the candidate blocks ``C(A)`` are derived from the CSPDG (equivalent
   blocks for useful motion; immediate CSPDG successors for 1-branch
   speculative motion),
2. candidate instructions are collected (calls never move globally, stores
   never move speculatively, branches never move),
3. instructions are issued cycle by cycle against the parametric machine
   description: each cycle, ready candidates (all dependence predecessors
   fulfilled, earliest start reached) are issued into free functional-unit
   slots in the priority order of Section 5.2,
4. a speculative candidate is additionally required not to define any
   register live on exit from ``A``, with liveness updated dynamically
   after each speculative motion (Section 5.3),
5. ``A``'s terminator issues last, closing the block; foreign instructions
   that were issued are physically moved into ``A``.

The result: "the instructions in A are reordered and there might be
instructions external to A that are physically moved into A."

Step 3 is one flat cycle loop over **struct-of-arrays storage**
(:mod:`repro.sched.soa`), the seed scan's shape with cheap steps: each
candidate is a ``(seq, graph index, unit, packed key, speculative)``
tuple, priority tuples are *packed into single ints* once per pass, and
at every scan point the loop walks the dependence-ready candidates in
collection order against the flat ``blocked``/``earliest`` arrays of
:class:`~repro.sched.soa.DenseDependenceState`, keeping the smallest key
whose unit has a free slot.  A speculative candidate's Section 5.3
verdict is cached for the pass -- a veto until the graph mutates, a pass
until a motion defines one of its registers -- so judgments, renames
and their trace events fall where the seed scan's do.  Every
``priority_fn``, the default :func:`~repro.sched.heuristics.priority_key`
included, is packed the same way, so its keys must be static all-int
tuples (:func:`repro.sched.soa.pack_rows` enforces it).  The
seed's scan-driven loop survives as an oracle in
:mod:`repro.sched.reference`; ``tests/sched/test_event_scan_equivalence.py``
holds schedules, motions and traces byte-identical to it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..ir.instruction import Instruction
from ..ir.opcodes import UnitType
from ..obs.events import (
    BlockBegin,
    BlockEnd,
    CandidateBlocksComputed,
    CandidatesCollected,
    CycleAdvance,
    Issue,
    MotionRecorded,
    PriorityDecision,
    RegionEnter,
    RegionExit,
    SpeculationRejected,
    SpeculationRenamed,
    UnitOccupancy,
)
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..pdg.pdg import RegionPDG
from ..pdg.data_deps import add_pair_edges
from .candidates import (
    Candidate,
    ScheduleLevel,
    candidate_blocks,
    collect_candidates,
    collect_duplication_candidates,
)
from .heuristics import (
    PRIORITY_STEPS,
    compute_region_priorities,
    deciding_step,
    priority_key,
)
from .soa import DenseDependenceState, pack_rows
from .speculation import LiveOnExitTracker, try_rename_for_motion

#: fixed unit order for the flattened per-cycle free-slot arrays
_UNIT_LIST = tuple(UnitType)

#: the full decision order of the sorted ready list: duplication class
#: first (a global_sched refinement), then the Section 5.2 steps
_FULL_PRIORITY_STEPS = ("duplication-class", *PRIORITY_STEPS)

#: a candidate with no cached Section 5.3 verdict this pass
_UNJUDGED = object()

#: Safety valve: a block pass that stalls this many consecutive cycles
#: without issuing anything indicates a dependence-state bug.
_MAX_STALL = 10_000

#: How many extra cycles a block may stay open to host duplicated motion
#: (Definition 6); bounds the code-size / schedule-length trade.
_DUP_FILL_WINDOW = 8


@dataclass(frozen=True)
class Motion:
    """One inter-block code motion performed by the scheduler."""

    uid: int
    opcode: str
    src: str
    dst: str
    speculative: bool
    #: blocks that received copies (Definition 6 duplication), if any
    duplicated_into: tuple[str, ...] = ()

    @property
    def duplicated(self) -> bool:
        return bool(self.duplicated_into)

    def __repr__(self) -> str:
        kind = "spec" if self.speculative else "useful"
        if self.duplicated:
            kind = f"dup[{','.join(self.duplicated_into)}]"
        return f"<Motion I{self.uid} {self.opcode} {self.src}->{self.dst} {kind}>"


@dataclass
class RegionScheduleReport:
    """What happened while scheduling one region."""

    header: str
    level: ScheduleLevel
    motions: list[Motion] = field(default_factory=list)
    #: local schedule length (cycles) per block, in visit order
    block_cycles: dict[str, int] = field(default_factory=dict)
    #: blocks whose pass has run -- empty ones too, which issue nothing
    #: and so get no ``block_cycles`` entry
    visited: set[str] = field(default_factory=set)

    @property
    def useful_motions(self) -> list[Motion]:
        return [m for m in self.motions if not m.speculative]

    @property
    def speculative_motions(self) -> list[Motion]:
        return [m for m in self.motions if m.speculative]


def schedule_region(
    pdg: RegionPDG,
    level: ScheduleLevel,
    live_tracker: LiveOnExitTracker,
    *,
    max_speculation: int = 1,
    rename_on_demand: bool = True,
    priority_fn=None,
    allow_duplication: bool = False,
    block_filter=None,
    region_kind: str = "region",
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
) -> RegionScheduleReport:
    """Globally schedule one region in place.  Returns a report.

    ``rename_on_demand`` enables the SSA-flavoured renaming of Section 4.2:
    a speculative candidate whose definition clashes with a live-on-exit
    register gets a fresh name when its def-use web is block-local (this is
    what turns I12's ``cr6`` into ``cr5`` in the paper's Figure 6).

    ``priority_fn(ins, useful, priorities) -> tuple[int, ...]`` overrides
    the Section 5.2 decision order; the heuristic-ordering ablation bench
    uses it (the paper: "experimentation and tuning are needed").  Its
    keys are packed once per block pass, so they must be equal-length
    all-int tuples that do not change while the pass runs.

    ``tracer``/``metrics`` observe every decision (see :mod:`repro.obs`);
    the no-op defaults cost one guarded attribute load per site and must
    never perturb scheduling.
    """
    report = RegionScheduleReport(header=pdg.header, level=level)
    if level is ScheduleLevel.NONE:
        return report
    if tracer.enabled:
        tracer.emit(RegionEnter(header=pdg.header, region_kind=region_kind,
                                level=level.value,
                                blocks=tuple(pdg.topo_labels)))
    if metrics.enabled:
        metrics.inc("sched.regions")

    ddg_blocks = [pdg.block(label) for label in pdg.topo_labels]
    priorities = compute_region_priorities(ddg_blocks, pdg.ddg, pdg.machine)

    state = DenseDependenceState(pdg.ddg, pdg.machine)

    previous: str | None = None
    for node in pdg.topo_labels:
        if pdg.is_abstract(node):
            # Passing an inner loop: its barrier is now "done", releasing
            # dependences of downstream instructions on the loop's effects.
            for barrier in pdg.block(node).instrs:
                state.mark_prefulfilled(barrier)
            previous = None  # timing does not carry across opaque loops
            continue
        # Carry the previous pass's timing across the block boundary when
        # control actually flows that way (see
        # DenseDependenceState.begin_block).
        carry = None
        if previous is not None and previous in pdg.forward.preds(node):
            carry = report.block_cycles.get(previous)
        _schedule_block(pdg, node, level, live_tracker, state, priorities,
                        max_speculation, rename_on_demand, carry, report,
                        priority_fn or priority_key, allow_duplication,
                        block_filter, tracer, metrics)
        report.visited.add(node)
        previous = node
    if metrics.enabled and state.invalidations:
        metrics.inc("sched.ddg_invalidations", state.invalidations)
    if tracer.enabled:
        tracer.emit(RegionExit(header=pdg.header, motions=len(report.motions),
                               speculative_motions=len(
                                   report.speculative_motions)))
    return report


def _schedule_block(
    pdg: RegionPDG,
    label: str,
    level: ScheduleLevel,
    live_tracker: LiveOnExitTracker,
    state: DenseDependenceState,
    priorities: dict[int, tuple[int, int]],
    max_speculation: int,
    rename_on_demand: bool,
    carry_cycles: int | None,
    report: RegionScheduleReport,
    priority_fn,
    allow_duplication: bool,
    block_filter=None,
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
) -> None:
    func = pdg.func
    block = func.block(label)
    machine = pdg.machine
    ddg = state.ddg
    state.begin_block(carry_cycles=carry_cycles)

    equiv, speculative = candidate_blocks(pdg, label, level,
                                          max_speculation=max_speculation,
                                          block_filter=block_filter)
    cands = collect_candidates(pdg, label, equiv, speculative)
    if allow_duplication:
        seen = {id(c.ins) for c in cands}
        cands += [c for c in collect_duplication_candidates(pdg, label)
                  if id(c.ins) not in seen]
    observing = tracer.enabled or metrics.enabled
    tracing = tracer.enabled
    if observing:
        _note_block_entry(tracer, metrics, label, carry_cycles,
                          equiv, speculative, cands)
    #: ids of instructions whose live-on-exit veto was already reported
    #: this pass (re-judgments would otherwise repeat it)
    vetoes_logged: set[int] = set()
    terminator = block.terminator
    #: own instructions not yet issued (collection puts them first)
    own_left = len(block.instrs)
    issued_order: list[Instruction] = []

    # priority keys are static per block pass (usefulness, D/CP and the
    # uid tie-break never change; renames keep the uid): compute each
    # candidate's full sort tuple exactly once at collection time, packed
    # into a single int so selection compares machine ints
    rows = [(1 if c.duplicate_into else 0,
             *priority_fn(c.ins, useful=c.useful, priorities=priorities))
            for c in cands]
    # pack_rows rejects keys that are not all-int (a custom priority_fn)
    pkeys = pack_rows(rows)
    if metrics.enabled:
        metrics.inc("sched.soa.packed_keys", len(rows))

    # one (seq, graph index, unit slot, packed key, speculative) entry
    # per candidate; ``seq`` is the collection order, the seed's
    # stable-sort tie-break.  The terminator is checked apart (it closes
    # the block); foreign branches never move.  begin_block synced the
    # state, so every graph index is bound.
    index = ddg.index.get
    entries: list[tuple[int, int, int, int, bool]] = []
    term_entry = None
    for seq, cand in enumerate(cands):
        ins = cand.ins
        opcode = ins.opcode
        entry = (seq, index(id(ins), -1), opcode.unit.slot, pkeys[seq],
                 not cand.useful and not cand.duplicate_into)
        if ins is terminator:
            term_entry = entry
        elif not opcode.is_branch:
            entries.append(entry)
    dup_entries = [e for e in entries if cands[e[0]].duplicate_into]
    issued = bytearray(len(cands))
    #: the walk list -- unissued entries whose dependences are all met, in
    #: collection order -- and the unissued ones still waiting on a
    #: predecessor, by graph index.  Within one graph version a blocked
    #: count only falls, so an entry moves from ``waiting`` to ``live``
    #: when its last predecessor issues, and a version bump re-splits.
    live: list[tuple[int, int, int, int, bool]] = []
    waiting: dict[int, tuple[int, int, int, int, bool]] = {}

    # Definition 6 extension: a block may stay open for a few extra
    # cycles to catch join instructions that are about to become ready
    # (otherwise blocks whose own work finishes instantly -- an arm's
    # single AI plus its jump -- would never host a duplicated motion).
    fill_budget = _DUP_FILL_WINDOW if dup_entries else 0

    def dup_fill_wanted(at_cycle: int) -> bool:
        if fill_budget <= 0:
            return False
        state.sync()  # a duplication may just have mutated the graph
        blocked, earliest = state.blocked, state.earliest
        for seq, i, _unit, _key, _spec in dup_entries:
            if not issued[seq] and (i < 0 or (not blocked[i]
                                             and earliest[i] <= at_cycle + 1)):
                return True
        return False

    #: Section 5.3 verdicts of this pass: seq -> None for a veto, or the
    #: registers the candidate defines for a pass.  Liveness only grows,
    #: and only by a motion's definitions, so a veto holds until the graph
    #: mutates (a rename or duplication) and a pass until a motion defines
    #: one of those registers; the walk re-judges exactly where the seed
    #: scan's answer could have changed, and only a real judgment emits
    #: trace events.
    verdicts: dict[int, frozenset | None] = {}

    def resplit():
        """Sync the state with the graph, drop every verdict, and re-split
        the unissued entries into ``live`` and ``waiting``."""
        state.sync()
        blocked = state.blocked
        verdicts.clear()
        live[:] = []
        waiting.clear()
        for entry in entries:
            if issued[entry[0]]:
                continue
            i = entry[1]
            if i >= 0 and blocked[i]:
                waiting[i] = entry
            else:
                live.append(entry)
        return blocked, state.earliest, ddg.version

    version = -1           # graph version the split and verdicts match
    blocked = earliest = None
    scans = visits = judged = reused = 0

    unit_counts = [machine.unit_count(unit) for unit in _UNIT_LIST]
    width = machine.total_issue_width
    cycle = 0
    stall = 0
    done = not own_left
    while not done:
        free = unit_counts.copy()
        budget = width
        issued_count = 0
        cycle_traced = False
        hold_for_dup = dup_fill_wanted(cycle)

        progress = True
        while progress and budget > 0:
            progress = False
            # one scan point: walk the dependence-ready candidates in
            # collection order, keep the smallest key whose unit has a slot
            if ddg.version != version:
                blocked, earliest, version = resplit()
            scans += 1
            visits += len(live)
            best = None
            ready = [] if observing else None
            walk = live
            while walk:
                rest = None
                for entry in walk:
                    i = entry[1]
                    if i >= 0 and earliest[i] > cycle:
                        continue
                    if entry[4]:
                        seq = entry[0]
                        verdict = verdicts.get(seq, _UNJUDGED)
                        if verdict is not _UNJUDGED:
                            reused += 1
                        else:
                            judged += 1
                            cand = cands[seq]
                            verdict = (
                                frozenset(cand.ins.reg_defs())
                                if _judge_speculative(
                                    cand, live_tracker, label, pdg,
                                    rename_on_demand, vetoes_logged, tracer,
                                    metrics)
                                else None)
                            if ddg.version != version:
                                # a rename mutated the graph: the rest of
                                # this walk sees it, as in the seed scan
                                blocked, earliest, version = resplit()
                                rest = [e for e in live if e[0] > seq]
                            verdicts[seq] = verdict
                        if verdict is None:
                            if rest is not None:
                                break
                            continue
                    if observing:
                        ready.append(entry)
                    if free[entry[2]] > 0 and (best is None
                                               or entry[3] < best[3]):
                        best = entry
                    if rest is not None:
                        break
                walk = rest
            if (term_entry is not None and not hold_for_dup
                    and own_left == 1):
                i = term_entry[1]
                if i < 0 or (not blocked[i] and earliest[i] <= cycle):
                    if observing:
                        ready.append(term_entry)
                    if free[term_entry[2]] > 0 and (
                            best is None or (term_entry[3], term_entry[0])
                            < (best[3], best[0])):
                        best = term_entry
            if not cycle_traced and observing:
                # the first scan point of the cycle is the pressure
                # snapshot: later ones see candidates unlocked mid-cycle
                cycle_traced = True
                if tracing:
                    tracer.emit(CycleAdvance(label=label, cycle=cycle,
                                             ready=len(ready)))
                if metrics.enabled:
                    metrics.observe("sched.ready", len(ready))
            if best is not None:
                # issue!
                seq, i, unit, _key, _spec = best
                cand = cands[seq]
                ins = cand.ins
                free[unit] -= 1
                budget -= 1
                issued[seq] = 1
                if best is not term_entry:
                    live.remove(best)
                if i >= 0:
                    state.mark_issued_idx(i, cycle)
                    if waiting:
                        for edge in ddg.succ[i]:
                            j = edge.dst_idx
                            if not blocked[j] and j in waiting:
                                insort(live, waiting.pop(j))
                issued_order.append(ins)
                if cand.home == label:
                    own_left -= 1
                issued_count += 1
                progress = True
                if tracing:
                    _trace_issue_seq(tracer, label, cycle, cands, rows,
                                     machine, ready, best)
                if cand.home != label:
                    is_spec = not cand.useful and not cand.duplicate_into
                    report.motions.append(Motion(
                        ins.uid, ins.opcode.mnemonic,
                        cand.home, label, is_spec,
                        duplicated_into=cand.duplicate_into or (),
                    ))
                    if tracing:
                        tracer.emit(MotionRecorded(
                            uid=ins.uid,
                            opcode=ins.opcode.mnemonic,
                            src=cand.home, dst=label, speculative=is_spec,
                            duplicated_into=cand.duplicate_into or ()))
                    if metrics.enabled:
                        metrics.inc(
                            "sched.motions.speculative" if is_spec
                            else "sched.motions.duplicated"
                            if cand.duplicate_into
                            else "sched.motions.useful")
                    func.block(cand.home).remove(ins)
                    if cand.duplicate_into:
                        _place_duplicates(pdg, state, cand, report)
                    # Any upward motion extends the moved definition's
                    # live range down to its old home; record it so later
                    # speculative legality checks see fresh liveness.
                    live_tracker.record_motion(ins, cand.home, label)
                    moved = ins.reg_defs()
                    if verdicts and moved:
                        # liveness grew by ``moved``: a pass whose
                        # candidate defines one of them may now be a veto
                        for s in [s for s, defs in verdicts.items()
                                  if defs and not defs.isdisjoint(moved)]:
                            del verdicts[s]
                if ins is terminator:
                    done = True
            if (not own_left and terminator is None
                    and not dup_fill_wanted(cycle)):
                done = True
                break
            if done:
                break

        if tracing and issued_count:
            used = {}
            for unit_idx, unit in enumerate(_UNIT_LIST):
                busy = unit_counts[unit_idx] - free[unit_idx]
                if busy > 0:
                    used[unit.value] = busy
            tracer.emit(UnitOccupancy(label=label, cycle=cycle, used=used,
                                      issued=issued_count))
        if done:
            report.block_cycles[label] = cycle + 1
            break
        if own_left == 0 or (own_left == 1 and term_entry is not None
                             and not issued[term_entry[0]]):
            fill_budget -= 1  # this cycle was borrowed for duplication
        stall = 0 if issued_count else stall + 1
        if stall > _MAX_STALL:
            stuck = sorted(f"I{c.ins.uid}" for seq, c in enumerate(cands)
                           if c.home == label and not issued[seq])
            raise RuntimeError(
                f"scheduler stalled in block {label}: remaining own "
                f"instructions {stuck} never became ready"
            )
        cycle += 1

    block.instrs = issued_order
    if tracing:
        tracer.emit(BlockEnd(label=label,
                             cycles=report.block_cycles.get(label, 0)))
    if metrics.enabled:
        metrics.inc("sched.blocks")
        metrics.inc("sched.queue.scan_points", scans)
        metrics.inc("sched.queue.visits", visits)
        metrics.inc("sched.queue.judgments", judged)
        metrics.inc("sched.queue.verdict_hits", reused)


def _judge_speculative(cand, live_tracker, label, pdg, rename_on_demand,
                       vetoes_logged, tracer, metrics) -> bool:
    """Judge one ready speculative candidate's Section 5.3 veto exactly as
    the seed scan pass does: it passes, renames its way past the veto
    (Section 4.2), or is vetoed.  Returns whether it may issue."""
    ins = cand.ins
    if not live_tracker.blocks_motion(ins, label):
        return True
    if not rename_on_demand:
        _note_veto(tracer, metrics, vetoes_logged, live_tracker, cand, label)
        return False
    observing = tracer.enabled or metrics.enabled
    regs = live_tracker.blocking_regs(ins, label) if observing else ()
    renamed = try_rename_for_motion(
        ins, pdg.func.block(cand.home), label, live_tracker,
        pdg.ddg, pdg.func,
    )
    if not renamed:
        _note_veto(tracer, metrics, vetoes_logged, live_tracker,
                   cand, label, regs=regs)
        return False
    # the rename mutated the instruction (and the DDG), so this veto
    # cannot re-trigger: one event per successful rename
    if observing:
        if tracer.enabled:
            tracer.emit(SpeculationRenamed(
                label=label, uid=ins.uid,
                opcode=ins.opcode.mnemonic, home=cand.home,
                regs=tuple(str(r) for r in regs)))
        if metrics.enabled:
            metrics.inc("sched.speculation.renamed")
    return True


def _note_block_entry(tracer, metrics, label: str, carry_cycles: int | None,
                      equiv: list[str], speculative: list[str],
                      cands) -> None:
    """Off-hot-path bookkeeping when a traced/measured block pass opens."""
    own = useful = spec = dup = 0
    for cand in cands:
        if cand.home == label:
            own += 1
        elif cand.duplicate_into:
            dup += 1
        elif cand.useful:
            useful += 1
        else:
            spec += 1
    if tracer.enabled:
        tracer.emit(BlockBegin(label=label, carry_cycles=carry_cycles))
        tracer.emit(CandidateBlocksComputed(
            label=label, equiv=tuple(equiv), speculative=tuple(speculative)))
        tracer.emit(CandidatesCollected(label=label, own=own, useful=useful,
                                        speculative=spec, duplication=dup))
    if metrics.enabled:
        metrics.inc("sched.candidates.own", own)
        metrics.inc("sched.candidates.useful", useful)
        metrics.inc("sched.candidates.speculative", spec)
        metrics.inc("sched.candidates.duplication", dup)


def _trace_issue_seq(tracer, label: str, cycle: int, cands, rows, machine,
                     ready: list[tuple], chosen: tuple) -> None:
    """:func:`_trace_issue` from the walk's ready entries: rebuild the
    seed scheduler's sorted ready list and its unpacked
    (dup-class, priority-tuple) keys, off the hot path."""
    snap = sorted(ready, key=lambda e: (e[3], e[0]))
    seq_of = {id(cands[e[0]].ins): e[0] for e in snap}

    def sort_key(cand):
        row = rows[seq_of[id(cand.ins)]]
        return row[0], tuple(row[1:])

    _trace_issue(tracer, label, cycle, cands[chosen[0]], machine,
                 [cands[e[0]] for e in snap], snap.index(chosen), sort_key)


def _trace_issue(tracer, label: str, cycle: int, cand: Candidate, machine,
                 ready: list[Candidate], pos: int, sort_key) -> None:
    """Emit the issue event and, when a runner-up was waiting, which step
    of the decision order separated the two."""
    klass = ("own" if cand.home == label
             else "useful" if cand.useful
             else "duplicated" if cand.duplicate_into
             else "speculative")
    tracer.emit(Issue(label=label, cycle=cycle, uid=cand.ins.uid,
                      opcode=cand.ins.opcode.mnemonic,
                      unit=cand.ins.unit.value, home=cand.home, klass=klass,
                      exec_cycles=machine.exec_time(cand.ins)))
    if pos + 1 < len(ready):
        runner_up = ready[pos + 1]
        winner_key, runner_key = sort_key(cand), sort_key(runner_up)
        # flatten (dup-class, priority-tuple) so the step names line up
        step = deciding_step((winner_key[0], *winner_key[1]),
                             (runner_key[0], *runner_key[1]),
                             _FULL_PRIORITY_STEPS)
        tracer.emit(PriorityDecision(
            label=label, cycle=cycle, winner_uid=cand.ins.uid,
            runner_up_uid=runner_up.ins.uid, step=step))


def _note_veto(tracer, metrics, vetoes_logged: set[int] | None,
               live_tracker: LiveOnExitTracker, cand: Candidate, label: str,
               regs: tuple = ()) -> None:
    """Report a Section 5.3 live-on-exit veto, once per candidate per
    block pass (the readiness scan re-evaluates every cycle)."""
    if not (tracer.enabled or metrics.enabled):
        return
    if vetoes_logged is None or id(cand.ins) in vetoes_logged:
        return
    vetoes_logged.add(id(cand.ins))
    if not regs:
        regs = live_tracker.blocking_regs(cand.ins, label)
    if tracer.enabled:
        tracer.emit(SpeculationRejected(
            label=label, uid=cand.ins.uid, opcode=cand.ins.opcode.mnemonic,
            home=cand.home, regs=tuple(str(r) for r in regs)))
    if metrics.enabled:
        metrics.inc("sched.speculation.rejected_live")


def _place_duplicates(pdg: RegionPDG, state,
                      cand: Candidate, report: RegionScheduleReport) -> None:
    """Append copies of a duplicated instruction to the join's other
    predecessors and thread them into the dependence graph so later block
    passes order them correctly."""
    func = pdg.func
    ddg = pdg.ddg
    for pred_label in cand.duplicate_into:
        pred = func.block(pred_label)
        copy = cand.ins.clone()
        copy.comment = (cand.ins.comment + " (dup)").strip()
        func.assign_uid(copy)
        func.note_registers(copy)
        # dependences from the predecessor's existing instructions
        for existing in pred.instrs:
            add_pair_edges(ddg, existing, copy)
        pred.insert_before_terminator(copy)
        # the join's remaining instructions that depended on the original
        # must now also wait for (and stay below) the copy
        for edge in tuple(ddg.succs(cand.ins)):
            ddg.add_edge(copy, edge.dst, edge.kind, edge.delay, edge.reg)
        if pred_label in report.visited:
            # that block's pass already ran: the copy stays at its end,
            # and downstream readiness must not wait on it forever
            state.mark_prefulfilled(copy)
