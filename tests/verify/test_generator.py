"""The program generator: determinism, validity, and the safety rules the
grammar promises (termination, defined variables, in-bounds indices)."""

import sys
from pathlib import Path

import pytest

from repro.compiler import compile_c
from repro.sched.candidates import ScheduleLevel
from repro.verify import generate_program
from repro.verify.generator import GenProgram, If, Line, Loop, catalogue

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_deterministic():
    a = generate_program(1234)
    b = generate_program(1234)
    assert a.source == b.source
    assert a.entry_args == b.entry_args


def test_distinct_seeds_differ():
    sources = {generate_program(s).source for s in range(8)}
    assert len(sources) > 1


@pytest.mark.parametrize("seed", range(25))
def test_generated_programs_compile_at_every_level(seed):
    program = generate_program(seed)
    for level in ScheduleLevel:
        compile_c(program.source, level=level)


@pytest.mark.parametrize("seed", range(10))
def test_generated_programs_run_to_completion(seed):
    """Every program terminates and returns within the step budget."""
    program = generate_program(seed)
    result = compile_c(program.source, level=ScheduleLevel.NONE)
    run = result.run(program.entry, *program.entry_args)
    assert isinstance(run.return_value, int)


def test_entry_args_match_signature():
    for seed in range(10):
        program = generate_program(seed)
        entry = next(f for f in program.functions
                     if f.name == program.entry)
        assert len(program.entry_args) == len(entry.params)
        for (kind, _), arg in zip(entry.params, program.entry_args):
            if kind == "array":
                assert isinstance(arg, list) and len(arg) == 8
            else:
                assert isinstance(arg, int)


def test_short_circuit_conditions_are_common():
    """The generator must exercise ||/&& shapes -- they are the CFGs where
    speculation bugs hide."""
    hits = sum(
        1 for seed in range(30)
        if "||" in generate_program(seed).source
        or "&&" in generate_program(seed).source
    )
    assert hits >= 15


def _walk(stmts):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk(stmt.then)
            yield from _walk(stmt.els)
        elif isinstance(stmt, Loop):
            yield from _walk(stmt.body)


def _continues_under_while(stmts, innermost=None):
    for stmt in stmts:
        if isinstance(stmt, Line):
            if stmt.text == "continue;" and innermost == "while":
                yield stmt
        elif isinstance(stmt, If):
            yield from _continues_under_while(stmt.then, innermost)
            yield from _continues_under_while(stmt.els, innermost)
        elif isinstance(stmt, Loop):
            kind = "while" if stmt.head.startswith("while") else "for"
            yield from _continues_under_while(stmt.body, kind)


def test_while_loops_never_contain_continue():
    """`continue` whose innermost loop is a while would skip the counter
    decrement and loop forever; the generator only emits it under `for`."""
    for seed in range(60):
        program = generate_program(seed)
        for fn in program.functions:
            assert not list(_continues_under_while(fn.body))


def test_render_roundtrip_is_stable():
    program = generate_program(77)
    assert program.source == GenProgram(
        seed=program.seed,
        functions=program.functions,
        entry=program.entry,
        entry_args=program.entry_args,
    ).source


def test_catalogue_matches_the_benchmark_copy(monkeypatch):
    """``catalogue()`` and the repository benchmark's ``corpus_compile``
    catalogue are two copies of one program-text set."""
    if not (PERFBENCH / "workloads.py").exists():
        pytest.skip("no perfbench/ in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    mine = [program.source for program in catalogue()]
    assert len(mine) == 120
    assert mine == [program.source for program in workloads.catalogue(120)]
