"""Property tests for the struct-of-arrays lowering (interner + snapshot).

The SoA scheduler core trusts two lowering steps completely: the dense
interning of instructions to array indices (``DenseDDG.index``) and the
CSR flattening of the dependence adjacency with precomputed edge weights.
These properties pin them against the object graph on randomized real
regions (the differential fuzzer's program generator, compiled to IR),
plus the cache-invalidation contract (``DDG.version`` bumps) and the
order-preservation and key contract of :func:`pack_rows`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.pdg.data_deps import DepKind, build_block_ddg
from repro.sched.candidates import ScheduleLevel
from repro.sched.regions import build_region_pdg, find_regions
from repro.sched.soa import pack_rows
from repro.verify.generator import generate_program

#: a loop with a diamond: speculative and useful candidates both exist
MINMAX_LOOP = (
    "int f(int a[], int n) {\n"
    "    int m = 0; int i = 0;\n"
    "    while (i < n) { int v = a[i]; if (v > m) m = v; i = i + 1; }\n"
    "    return m;\n"
    "}\n"
)


def region_ddgs(seed):
    """``(machine, ddg)`` for every region of a generated program."""
    machine = CONFIGS["rs6k"]()
    program = generate_program(seed)
    units = compile_c(program.source, machine=machine,
                      level=ScheduleLevel.NONE)
    out = []
    for unit in units.units.values():
        for spec in find_regions(unit.func):
            pdg = build_region_pdg(unit.func, machine, spec)
            out.append((machine, pdg.ddg))
    return out


def expected_weight(machine, edge):
    return (machine.exec_time(edge.src) + edge.delay
            if edge.kind is DepKind.FLOW else 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_interning_round_trips_uid_and_index(seed):
    for machine, ddg in region_ddgs(seed):
        dense = ddg.to_dense(machine)
        assert dense.n == len(ddg.instructions) == len(dense.instrs)
        for i, ins in enumerate(dense.instrs):
            # id -> index -> instruction is the identity both ways
            assert dense.index[id(ins)] == i
            assert dense.instrs[dense.index[id(ins)]] is ins
        assert len(dense.index) == dense.n  # bijection: no id collisions
        # uids are unique region-wide, so uid round-trips through the
        # interning too (the packed priority rows rely on this)
        uids = {ins.uid for ins in dense.instrs}
        assert len(uids) == dense.n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_csr_adjacency_equals_object_graph(seed):
    for machine, ddg in region_ddgs(seed):
        dense = ddg.to_dense(machine)
        for i, ins in enumerate(dense.instrs):
            succs = sorted(
                (dense.succ_idx[k], dense.succ_w[k])
                for k in range(dense.succ_off[i], dense.succ_off[i + 1]))
            expect = sorted(
                (dense.index[id(e.dst)], expected_weight(machine, e))
                for e in ddg.succs(ins))
            assert succs == expect
            preds = sorted(
                (dense.pred_idx[k], dense.pred_w[k])
                for k in range(dense.pred_off[i], dense.pred_off[i + 1]))
            expect = sorted(
                (dense.index[id(e.src)], expected_weight(machine, e))
                for e in ddg.preds(ins))
            assert preds == expect
        assert len(dense.succ_idx) == len(dense.pred_idx) == ddg.edge_count()


def test_version_bump_invalidates_snapshot_and_keeps_indices_stable():
    from repro.ir.parser import parse_function

    func = parse_function("""
function f
a:
    L  r1=x(r10,0)
    AI r2=r1,1
    C  cr0=r2,r3
    BT a,cr0,0x1/lt
""")
    machine = CONFIGS["rs6k"]()
    ddg = build_block_ddg(func.block("a"), machine)
    first = ddg.to_dense(machine)
    assert ddg.to_dense(machine) is first       # cached while version holds

    load, ai, cmp_i, bt = func.block("a").instrs
    ddg.add_edge(load, cmp_i, DepKind.ANTI, 0)  # bumps ddg.version
    second = ddg.to_dense(machine)
    assert second is not first
    assert second.version == ddg.version > first.version
    # the instruction list is append-only: indices survive the rebuild
    for ins in func.block("a").instrs:
        assert second.index[id(ins)] == first.index[id(ins)]
    # ... and the new edge is visible in the rebuilt CSR
    i, j = second.index[id(load)], second.index[id(cmp_i)]
    assert j in second.succ_idx[second.succ_off[i]:second.succ_off[i + 1]]

    other = CONFIGS["ss4"]()
    assert ddg.to_dense(other) is not second    # keyed on machine identity


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pack_rows_preserves_lexicographic_order(data):
    width = data.draw(st.integers(min_value=1, max_value=5))
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=-(1 << 20), max_value=1 << 20)
                    for _ in range(width)]),
        min_size=1, max_size=30))
    packed = pack_rows(rows)
    for a, pa in zip(rows, packed):
        for b, pb in zip(rows, packed):
            assert (a < b) == (pa < pb)
            assert (a == b) == (pa == pb)


def test_pack_rows_rejects_ragged_rows():
    # zip() would silently drop the third column of the longer row
    with pytest.raises(TypeError, match="equal-length tuples of ints"):
        pack_rows([(0, 5, 1), (0, 3)])


@pytest.mark.parametrize("rows", [
    [(0, 1.5), (0, 2)],          # a float key
    [(0, 1.0), (0, 1.0)],        # a constant float column
    [(1,), (2.5,), (3,)],        # a float between int extrema
    [("a",), ("b",)],            # not numbers at all
], ids=["float", "constant-float", "mixed", "str"])
def test_pack_rows_rejects_non_int_keys(rows):
    with pytest.raises(TypeError, match="static for the duration"):
        pack_rows(rows)


def test_schedule_region_rejects_float_priority_keys():
    """A custom ``priority_fn`` reaches the packer unchanged, so a key the
    engine cannot order fails loudly instead of mis-scheduling."""
    from repro.sched.driver import global_schedule

    def float_key(ins, *, useful, priorities):
        return (0 if useful else 1, ins.uid / 2)

    func = compile_c(MINMAX_LOOP, level=ScheduleLevel.NONE)["f"].func
    with pytest.raises(TypeError, match="equal-length tuples of ints"):
        global_schedule(func, CONFIGS["rs6k"](), ScheduleLevel.SPECULATIVE,
                        priority_fn=float_key)
