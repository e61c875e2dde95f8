"""Dependence-state (ready list) bookkeeping tests.

The non-cache cases run on every implementation: the production
struct-of-arrays state and the seed per-query state the scan oracle
uses.  The cache cases pin the SoA state's DDG-version invalidation.
"""

from repro.ir import parse_function
from repro.machine import rs6k
from repro.pdg import build_block_ddg
from repro.pdg.reference import DependenceStateReference
from repro.sched import DenseDependenceState

#: every dependence-state implementation the non-cache cases cover
STATES = (DenseDependenceState, DependenceStateReference)


def make_state(state_cls=DenseDependenceState):
    func = parse_function("""
function f
a:
    L  r1=x(r10,0)
    AI r2=r1,1
    C  cr0=r2,r3
    BT a,cr0,0x1/lt
""")
    block = func.block("a")
    machine = rs6k()
    ddg = build_block_ddg(block, machine)
    state = state_cls(ddg, machine)
    state.begin_block()
    return block, state


def each_state():
    """One fresh ``(block, state)`` per implementation in :data:`STATES`."""
    return [make_state(state_cls) for state_cls in STATES]


def test_initially_only_roots_ready():
    for block, state in each_state():
        load, ai, cmp_i, bt = block.instrs
        assert state.deps_satisfied(load)
        assert not state.deps_satisfied(ai)
        assert not state.deps_satisfied(cmp_i)


def test_issue_unlocks_successors_with_weights():
    for block, state in each_state():
        load, ai, cmp_i, bt = block.instrs
        state.mark_issued(load, 0)
        assert state.deps_satisfied(ai)
        assert state.earliest_start(ai) == 2  # exec 1 + load delay 1
        state.mark_issued(ai, 2)
        assert state.earliest_start(cmp_i) == 3
        state.mark_issued(cmp_i, 3)
        assert state.earliest_start(bt) == 7  # 3 + exec 1 + compare delay 3


def test_prefulfilled_is_timing_neutral():
    for block, state in each_state():
        load, ai, cmp_i, bt = block.instrs
        state.mark_prefulfilled(load)
        assert state.deps_satisfied(ai)
        assert state.earliest_start(ai) == 0


def test_begin_block_clears_timing_but_not_fulfilment():
    for block, state in each_state():
        load, ai, cmp_i, bt = block.instrs
        state.mark_issued(load, 5)
        state.begin_block()
        assert state.is_fulfilled(load)
        assert state.earliest_start(ai) == 0


def test_carry_shifts_previous_starts():
    for block, state in each_state():
        load, ai, cmp_i, bt = block.instrs
        state.mark_issued(cmp_i, 4)
        # previous pass was 5 cycles long: cmp looks issued at cycle -1,
        # so the branch still owes 3 of its 4 separation cycles
        state.begin_block(carry_cycles=5)
        state.mark_prefulfilled(load)
        state.mark_prefulfilled(ai)
        assert state.earliest_start(bt) == 3


def test_carry_expires_after_one_block():
    for block, state in each_state():
        load, ai, cmp_i, bt = block.instrs
        state.mark_issued(cmp_i, 4)
        state.begin_block(carry_cycles=5)
        state.begin_block(carry_cycles=1)
        assert state.earliest_start(bt) == 0  # two blocks later: neutral


# -- DDG-version cache invalidation ------------------------------------------

def test_version_bump_drops_derived_caches():
    from repro.pdg.data_deps import DepKind

    block, state = make_state()
    load, ai, cmp_i, bt = block.instrs
    # warm the caches: bt is blocked only by cmp_i (and transitively)
    state.mark_issued(load, 0)
    state.mark_issued(ai, 2)
    assert not state.deps_satisfied(bt)
    assert state.invalidations == 0
    # a mid-region mutation (what renaming/duplication do) bumps version
    before = state.ddg.version
    state.ddg.add_edge(load, bt, DepKind.ANTI, 0)
    assert state.ddg.version > before
    # the next query resyncs: caches dropped exactly once, fulfilment kept
    state.mark_issued(cmp_i, 3)
    assert state.deps_satisfied(bt)          # load already fulfilled
    assert state.earliest_start(bt) == 7     # flow edge still dominates
    assert state.invalidations == 1


def test_new_edge_visible_after_invalidation():
    from repro.ir import parse_function
    from repro.pdg.data_deps import DepKind

    func = parse_function("""
function g
a:
    LI r1=1
    LI r2=2
""")
    block = func.block("a")
    machine = rs6k()
    ddg = build_block_ddg(block, machine)
    one, two = block.instrs
    state = DenseDependenceState(ddg, machine)
    state.begin_block()
    # independent at first: both are ready roots
    assert state.deps_satisfied(one) and state.deps_satisfied(two)
    ddg.add_edge(one, two, DepKind.FLOW, 0)
    # version resync makes the new constraint visible immediately
    assert not state.deps_satisfied(two)
    state.mark_issued(one, 0)
    assert state.deps_satisfied(two)
    assert state.earliest_start(two) == 1    # exec time of LI
    assert state.invalidations == 1


def test_mutation_without_version_bump_serves_stale_answers():
    """The documented failure mode: a graph mutation that bypasses
    ``add_edge``/``remove_edge`` (and so never bumps ``version``) leaves
    the incremental caches stale -- queries keep answering from the old
    edge set until something legitimate bumps the version."""
    from repro.pdg.data_deps import DepEdge, DepKind

    block, state = make_state()
    load, ai, cmp_i, bt = block.instrs
    assert state.deps_satisfied(load)
    assert not state.deps_satisfied(ai)      # caches warmed
    # sneak an edge in behind the graph's back: no version bump
    ddg = state.ddg
    i, j = ddg.index[id(cmp_i)], ddg.index[id(load)]
    rogue = DepEdge(cmp_i, load, DepKind.ANTI, 0, None, i, j, 0)
    ddg.pred[j].append(rogue)
    ddg.succ[i].append(rogue)
    assert state.deps_satisfied(load)        # stale: rogue edge invisible
    # any honest mutation resyncs and the rogue edge takes effect
    state.ddg.add_edge(ai, bt, DepKind.ANTI, 0)
    assert not state.deps_satisfied(load)
    assert state.invalidations == 1
