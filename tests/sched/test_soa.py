"""Property tests for the indexed dependence graph and key packing.

The SoA scheduler core walks the region DDG's own per-index edge lists
and trusts them completely: the append-only instruction index
(``DataDependenceGraph.index``), ``pred`` as the exact transpose of
``succ``, and the machine weight stored on every edge.  These properties
pin them on randomized real regions (the differential fuzzer's program
generator, compiled to IR), again after the scheduler's renames and
Definition 6 duplications have mutated the graphs, plus the
order-preservation and key contract of :func:`pack_rows`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pdg.pdg as region_pdg_module
from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.pdg.data_deps import DepKind, build_block_ddg
from repro.sched.candidates import ScheduleLevel
from repro.sched.regions import build_region_pdg, find_regions
from repro.sched.soa import DenseDependenceState, pack_rows
from repro.verify.generator import generate_program
from repro.xform.pipeline import PipelineConfig

#: a loop with a diamond: speculative and useful candidates both exist
MINMAX_LOOP = (
    "int f(int a[], int n) {\n"
    "    int m = 0; int i = 0;\n"
    "    while (i < n) { int v = a[i]; if (v > m) m = v; i = i + 1; }\n"
    "    return m;\n"
    "}\n"
)


def region_ddgs(seed):
    """The DDG of every region of a generated program, as built."""
    machine = CONFIGS["rs6k"]()
    program = generate_program(seed)
    units = compile_c(program.source, machine=machine,
                      level=ScheduleLevel.NONE)
    return [build_region_pdg(unit.func, machine, spec).ddg
            for unit in units.units.values()
            for spec in find_regions(unit.func)]


def assert_interning(ddg):
    instrs = ddg.instructions
    n = len(instrs)
    assert len(ddg.index) == len(ddg.succ) == len(ddg.pred) == n
    for i, ins in enumerate(instrs):
        # id -> index -> instruction is the identity both ways
        assert ddg.index[id(ins)] == i
    # uids are unique region-wide, so uid round-trips through the index
    # too (the packed priority rows rely on this)
    assert len({ins.uid for ins in instrs}) == n


def assert_adjacency(ddg):
    machine = ddg.machine
    instrs = ddg.instructions
    out_edges = {}
    for i, edges in enumerate(ddg.succ):
        for edge in edges:
            assert edge.src_idx == i and edge.src is instrs[i]
            assert edge.dst is instrs[edge.dst_idx]
            out_edges[id(edge)] = edge
    # pred is exactly the transpose of succ: the same edge objects, each
    # listed once on each side, under its destination index
    in_count = 0
    for j, edges in enumerate(ddg.pred):
        for edge in edges:
            assert out_edges.get(id(edge)) is edge and edge.dst_idx == j
            in_count += 1
    assert in_count == len(out_edges) == ddg.edge_count()
    assert set(out_edges) == {id(edge) for edge in ddg.iter_edges()}
    for edge in out_edges.values():
        assert edge.weight == (machine.exec_time(edge.src) + edge.delay
                               if edge.kind is DepKind.FLOW else 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_interning_round_trips_uid_and_index(seed):
    for ddg in region_ddgs(seed):
        assert_interning(ddg)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_csr_adjacency_equals_object_graph(seed):
    """The per-index ``succ``/``pred`` lists the scheduler walks agree
    with the graph's own edge set, with machine weights on every edge."""
    for ddg in region_ddgs(seed):
        assert_adjacency(ddg)


def test_invariants_survive_renames_and_duplications(monkeypatch):
    """Renames (Section 4.2) and duplicated copies (Definition 6) mutate
    the region graphs while they are scheduled; the invariants hold
    afterwards, and the corpus exercises both mutations."""
    built = []
    real = region_pdg_module.build_region_ddg

    def recording(*args, **kwargs):
        ddg = real(*args, **kwargs)
        built.append((ddg, ddg.version, len(ddg.instructions)))
        return ddg

    monkeypatch.setattr(region_pdg_module, "build_region_ddg", recording)
    config = PipelineConfig(level=ScheduleLevel.SPECULATIVE,
                            allow_duplication=True)
    for seed in range(12):
        compile_c(generate_program(seed).source, machine=CONFIGS["rs6k"](),
                  level=ScheduleLevel.SPECULATIVE, config=config)
    grown = renamed = 0
    for ddg, version, n in built:
        assert_interning(ddg)
        assert_adjacency(ddg)
        if len(ddg.instructions) > n:
            grown += 1           # a duplicated copy was appended
        elif ddg.version > version:
            renamed += 1         # edges refreshed without new instructions
    assert grown and renamed


def test_to_dense_accepts_only_the_graphs_machine():
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
    assert ddg.to_dense(machine) is ddg
    assert ddg.to_dense(CONFIGS["rs6k"]()) is ddg   # an equal machine
    other = CONFIGS["ss4"]()
    with pytest.raises(ValueError, match="ss4"):
        ddg.to_dense(other)
    with pytest.raises(ValueError):
        DenseDependenceState(ddg, other)


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
