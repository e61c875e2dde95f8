"""The layout map behind ``Function.layout_index``.

``layout_index`` answers from an ``id(block) -> position`` map built on
first use; every change to ``blocks`` must drop it.  Each step below
first asks for every block's position (so a map exists), then changes
the layout through the public API, then checks every position against a
scan of ``blocks``: a change that forgot to drop the map leaves stale
positions and fails.
"""

import pytest

from repro.cfg import ENTRY, ControlFlowGraph, LoopNest, dominator_tree
from repro.ir import CR_LT, Builder, Function, cr, gpr, verify_function
from repro.ir.basic_block import BasicBlock
from repro.xform import rotate_loop, unroll_loop


def _loop(blocks):
    """init; the loop ``blocks`` (last one latches back to the first);
    done."""
    f = Function("loop")
    b = Builder(f)
    r_sum, r_i, r_n, r_base, r_t, c0 = (gpr(3), gpr(4), gpr(5), gpr(6),
                                        gpr(7), cr(0))
    b.start_block("init")
    b.li(r_sum, 0)
    b.li(r_i, 0)
    b.cmp(c0, r_i, r_n)
    b.bf("done", c0, CR_LT)
    b.start_block(blocks[0])
    b.load(r_t, r_base, 0, symbol="a")
    b.add(r_sum, r_sum, r_t)
    if len(blocks) > 1:
        b.start_block(blocks[1])
    b.ai(r_base, r_base, 4)
    b.ai(r_i, r_i, 1)
    b.cmp(c0, r_i, r_n)
    b.bt(blocks[0], c0, CR_LT)
    b.start_block("done")
    b.ret(r_sum)
    verify_function(f)
    return f


def _the_loop(func):
    cfg = ControlFlowGraph(func)
    return LoopNest(cfg.graph, dominator_tree(cfg.graph, ENTRY)).loops[0]


def _stale(func) -> list[str]:
    """Blocks whose mapped position is not their place in ``blocks``."""
    stale = []
    for i, block in enumerate(func.blocks):
        try:
            position = func.layout_index(block)
        except ValueError:  # a block the map has never seen
            position = None
        if position != i:
            stale.append(block.label)
    return stale


def _step(func, change) -> None:
    assert not _stale(func)  # builds the map
    change()
    assert not _stale(func)
    for block in func.blocks:
        assert func.layout_index(block) == func.blocks.index(block)


def test_every_layout_change_drops_the_map():
    func = _loop(["H", "L"])
    _step(func, lambda: func.add_block("X", after=func.block("init")))
    _step(func, lambda: func.add_block("Y"))
    _step(func, lambda: func.add_block("Z", after=func.block("done")))
    _step(func, lambda: func.add_block("W", after=func.block("X")))
    for label in ("X", "Z", "Y", "W"):
        _step(func, lambda: func.remove_block(func.block(label)))

    snapshot = func.clone()
    assert not _stale(snapshot)
    _step(func, lambda: func.add_block("V", after=func.block("init")))
    _step(func, lambda: func.restore_from(snapshot))
    assert [b.label for b in func.blocks] == ["init", "H", "L", "done"]

    _step(func, lambda: rotate_loop(func, _the_loop(func)))
    verify_function(func)


def test_unroll_keeps_the_map_exact():
    func = _loop(["body"])
    _step(func, lambda: unroll_loop(func, _the_loop(func)))
    verify_function(func)
    assert len(func.blocks) > 3


def test_a_block_not_in_the_function_is_rejected():
    func = _loop(["body"])
    gone = func.block("done")
    _step(func, lambda: func.remove_block(gone))
    with pytest.raises(ValueError, match="not in loop"):
        func.layout_index(gone)
    with pytest.raises(ValueError, match="not in loop"):
        func.layout_index(BasicBlock("stranger"))


def test_a_missed_invalidation_is_caught():
    # bypassing the API leaves the map stale: the check must notice
    func = _loop(["body"])
    assert not _stale(func)
    func.blocks.insert(0, BasicBlock("front"))
    assert _stale(func)
