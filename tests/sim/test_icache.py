"""Instruction-cache model tests."""

import pytest

from repro.ir import parse_function
from repro.machine import rs6k
from repro.sim import (
    ICacheConfig,
    SimConfig,
    TraceSimulator,
    layout_addresses,
    simulate_execution,
)


def tiny_loop(body_instrs: int) -> str:
    lines = ["function f", "pre:", "    LI r1=0", "loop:"]
    for i in range(body_instrs):
        lines.append(f"    AI r{2 + (i % 4)}=r{2 + (i % 4)},1")
    lines += ["    AI r1=r1,1", "    C cr0=r1,r9",
              "    BT loop,cr0,0x1/lt", "done:", "    RET r2"]
    return "\n".join(lines)


class TestICacheConfig:
    def test_line_count(self):
        assert ICacheConfig(size=1024, line=64).lines == 16
        assert ICacheConfig(size=32, line=64).lines == 1


class TestMisses:
    def run(self, source, n, icache):
        func = parse_function(source)
        from repro.ir import gpr
        config = SimConfig(icache=icache)
        _res, timing = simulate_execution(
            func, rs6k(), regs={gpr(9): n}, config=config)
        return timing

    def test_perfect_cache_by_default(self):
        timing = self.run(tiny_loop(4), 10, icache=None)
        assert timing.icache_misses == 0

    def test_cold_misses_once_loop_resident(self):
        # a loop that fits: cold misses on first touch, then none
        timing = self.run(tiny_loop(4), 50,
                          icache=ICacheConfig(size=1024, line=32))
        footprint_lines = (timing.instructions and 2) or 0
        assert 1 <= timing.icache_misses <= 4  # cold lines only

    def test_thrashing_when_loop_exceeds_cache(self):
        # loop body bigger than the whole cache: misses every iteration
        big = tiny_loop(40)  # ~44 instructions * 4B > 64B cache
        cold = self.run(big, 20, icache=ICacheConfig(size=64, line=32))
        assert cold.icache_misses > 20

    def test_misses_cost_cycles(self):
        source = tiny_loop(4)
        fast = self.run(source, 30, icache=None)
        slow = self.run(source, 30,
                        icache=ICacheConfig(size=32, line=32,
                                            miss_penalty=10))
        assert slow.cycles > fast.cycles
        assert slow.icache_misses > 0


class TestDuplicationCost:
    def test_code_growth_can_cost_cache_misses(self):
        # the paper's duplication worry, made concrete: with a cache just
        # big enough for the original loop, the duplicated version thrashes
        from repro import ScheduleLevel, compile_c
        from repro.xform import PipelineConfig

        source = """
int f(int a[], int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int v = a[i];
        int w = 0;
        if (v < 0) { w = 1 - v; } else { w = v + 3; }
        s = s + w * w;
    }
    return s;
}
"""
        sizes = {}
        for allow in (False, True):
            config = PipelineConfig(level=ScheduleLevel.SPECULATIVE,
                                    allow_duplication=allow)
            result = compile_c(source, level=ScheduleLevel.SPECULATIVE,
                               config=config)
            sizes[allow] = result["f"].func.size()
        assert sizes[True] > sizes[False]  # code really grew


def test_addresses_cover_every_instruction(figure2):
    addresses = layout_addresses(figure2)
    assert len(addresses) == figure2.size()
    assert sorted(addresses.values()) == [4 * i for i in range(20)]


def test_run_blocks_starts_include_the_fetch_penalty():
    """A block starts when its first instruction issues, icache miss
    penalty included (block starts used to be estimated without it)."""
    import random

    from repro import ScheduleLevel, compile_c
    from repro.bench.programs import MINMAX_WORKLOAD

    unit = compile_c(MINMAX_WORKLOAD.source,
                     level=ScheduleLevel.SPECULATIVE)["minmax"]
    run = unit.run(*MINMAX_WORKLOAD.make_args(random.Random(1)))
    blocks = [unit.func.block(label)
              for label in run.execution.block_trace]
    config = SimConfig(icache=ICacheConfig(size=128, line=16,
                                           miss_penalty=8))
    sim = TraceSimulator(rs6k(), config,
                         addresses=layout_addresses(unit.func))
    result = sim.run_blocks(blocks)
    assert result.icache_misses > 0
    first_issue, position = [], 0
    for block in blocks:
        first_issue.append(result.issue_cycles[position])
        position += len(block.instrs)
    assert result.block_starts == first_issue
    assert result.block_starts[0] == 8  # a cold miss on the first fetch
