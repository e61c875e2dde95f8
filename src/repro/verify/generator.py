"""Seeded grammar-based generator for mini-C test programs.

Programs are built as a *statement tree* (not a flat string), so the
shrinker can delete or flatten statements structurally and re-render; the
expressions inside each statement are pre-rendered strings (statement-level
shrinking is enough in practice -- an expression that matters survives, one
that does not disappears with its statement).

Generated programs are safe by construction:

* every variable is initialised at its (unique) declaration -- the lowerer
  rejects redeclaration, and uninitialised reads would be nondeterministic;
* `for` loops have constant bounds and `while` loops count a dedicated
  variable down, so every program terminates;
* divisors are either nonzero constants or masked-plus-one expressions
  (``(e & 7) + 1``), so the executor's division-by-zero trap never fires;
* shift amounts are small constants (the lowerer requires constant shifts);
* array indices are always masked to the array length (8 words);
* helper calls form an acyclic graph and helpers take scalars only (the
  linked-handler call boundary cannot pass arrays).

The generator deliberately *loves* short-circuit conditions (``&&``/``||``
appear with high probability): their multi-test CFG shapes produce join
blocks that are reached around their predecessors -- exactly the terrain
where an unsound speculation rule miscompiles.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

_ARRAY_LEN = 8
_REL_OPS = ("<", "<=", ">", ">=", "==", "!=")
_ARITH_OPS = ("+", "-", "*", "&", "|", "^")


@dataclass
class Line:
    """One single-line statement (declaration, assignment, store, return,
    break, continue), already rendered."""

    text: str

    def render(self, indent: str) -> list[str]:
        return [f"{indent}{self.text}"]


@dataclass
class If:
    cond: str
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)

    def render(self, indent: str) -> list[str]:
        out = [f"{indent}if ({self.cond}) {{"]
        for stmt in self.then:
            out.extend(stmt.render(indent + "    "))
        if self.els:
            out.append(f"{indent}}} else {{")
            for stmt in self.els:
                out.extend(stmt.render(indent + "    "))
        out.append(f"{indent}}}")
        return out


@dataclass
class Loop:
    """A `for` or `while` statement; ``head`` carries the whole header and
    ``tail`` an optional fixed final statement (the while counter's
    decrement, which shrinking must never remove)."""

    head: str
    body: list = field(default_factory=list)
    tail: str | None = None

    def render(self, indent: str) -> list[str]:
        out = [f"{indent}{self.head} {{"]
        for stmt in self.body:
            out.extend(stmt.render(indent + "    "))
        if self.tail:
            out.append(f"{indent}    {self.tail}")
        out.append(f"{indent}}}")
        return out


@dataclass
class GenFunction:
    name: str
    #: (kind, name) with kind "int" or "array"
    params: list[tuple[str, str]]
    body: list = field(default_factory=list)
    #: the mandatory trailing `return expr;` (never shrunk away)
    final_return: str = "return 0;"

    def render(self) -> list[str]:
        sig = ", ".join(
            f"int {n}[]" if kind == "array" else f"int {n}"
            for kind, n in self.params
        )
        out = [f"int {self.name}({sig}) {{"]
        for stmt in self.body:
            out.extend(stmt.render("    "))
        out.append(f"    {self.final_return}")
        out.append("}")
        return out


@dataclass
class GenProgram:
    """One generated test program plus the arguments to run it with."""

    seed: int
    functions: list[GenFunction]
    #: name of the function the differential runner executes
    entry: str
    #: positional arguments for the entry (ints and length-8 lists)
    entry_args: list

    @property
    def source(self) -> str:
        lines: list[str] = [f"/* generated: seed={self.seed} */"]
        for fn in self.functions:
            lines.extend(fn.render())
            lines.append("")
        return "\n".join(lines)

    def describe_args(self) -> str:
        return ", ".join(repr(a) for a in self.entry_args)


class _FunctionGen:
    """Generates one function's body within fixed scope rules."""

    def __init__(self, rng: random.Random, params: list[tuple[str, str]],
                 callees: list[tuple[str, int]]):
        self.rng = rng
        self.vars = [n for kind, n in params if kind == "int"]
        #: loop counters: readable, but assigning one could break
        #: termination, so they are never assignment targets
        self.ro_vars: list[str] = []
        self.arrays = [n for kind, n in params if kind == "array"]
        self.callees = callees
        self._counter = 0
        #: kinds of the enclosing loops, innermost last ("for" | "while")
        self._loop_stack: list[str] = []

    # -- names ----------------------------------------------------------

    def fresh(self, prefix: str = "v") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    # -- expressions ----------------------------------------------------

    def atom(self) -> str:
        r = self.rng
        readable = self.vars + self.ro_vars
        pool = ["const"] * 2 + ["var"] * (3 if readable else 0)
        pool += ["load"] * (2 if self.arrays else 0)
        match r.choice(pool):
            case "var":
                return r.choice(readable)
            case "load":
                arr = r.choice(self.arrays)
                return f"{arr}[{self.index_expr()}]"
            case _:
                return str(r.randint(-9, 99))

    def index_expr(self) -> str:
        """An in-bounds array index: anything, masked to the length."""
        readable = self.vars + self.ro_vars
        if readable and self.rng.random() < 0.7:
            inner = self.rng.choice(readable)
        else:
            inner = str(self.rng.randint(0, 7))
            return inner  # small constant, already in bounds
        return f"({inner} & {_ARRAY_LEN - 1})"

    def expr(self, depth: int = 0) -> str:
        r = self.rng
        if depth >= 2 or r.random() < 0.35:
            return self.atom()
        kind = r.random()
        if kind < 0.08 and self.callees and depth == 0:
            return self.call_expr()
        if kind < 0.16:
            # constant shift (the lowerer requires a literal amount)
            return f"({self.expr(depth + 1)} {r.choice(('<<', '>>'))} " \
                   f"{r.randint(1, 4)})"
        if kind < 0.26:
            # safe division / remainder: masked-plus-one divisor
            op = r.choice(("/", "%"))
            return f"({self.expr(depth + 1)} {op} " \
                   f"(({self.atom()} & 7) + 1))"
        op = r.choice(_ARITH_OPS)
        return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"

    def call_expr(self) -> str:
        name, arity = self.rng.choice(self.callees)
        args = ", ".join(self.atom() for _ in range(arity))
        return f"{name}({args})"

    def compare(self) -> str:
        return f"{self.expr(1)} {self.rng.choice(_REL_OPS)} {self.expr(1)}"

    def cond(self) -> str:
        """A condition; short-circuit shapes are generated *often* because
        their CFGs (non-dominated join blocks) are where speculation bugs
        live."""
        r = self.rng.random()
        if r < 0.30:
            return f"{self.compare()} && {self.compare()}"
        if r < 0.60:
            return f"{self.compare()} || {self.compare()}"
        if r < 0.68:
            return (f"{self.compare()} && "
                    f"({self.compare()} || {self.compare()})")
        return self.compare()

    # -- statements -----------------------------------------------------

    def stmt(self, depth: int, budget: int) -> object:
        r = self.rng
        roll = r.random()
        if roll < 0.14 and depth < 2 and budget >= 3:
            return self.gen_loop(depth, budget)
        if roll < 0.40 and depth < 3 and budget >= 2:
            return self.gen_if(depth, budget)
        return self.gen_line(depth)

    def gen_line(self, depth: int) -> Line:
        r = self.rng
        roll = r.random()
        if roll < 0.12 and self._loop_stack:
            # `continue` in a while-loop would skip the counter decrement
            # (infinite loop); only `for` routes it through the step block
            if self._loop_stack[-1] == "for" and r.random() < 0.5:
                return Line("continue;")
            return Line("break;")
        if roll < 0.35 and self.arrays:
            arr = r.choice(self.arrays)
            return Line(f"{arr}[{self.index_expr()}] = {self.expr()};")
        if roll < 0.60 and self.vars:
            var = r.choice(self.vars)
            if r.random() < 0.3:
                op = r.choice(("+=", "-=", "*=", "^="))
                return Line(f"{var} {op} {self.expr(1)};")
            return Line(f"{var} = {self.expr()};")
        name = self.fresh()
        line = Line(f"int {name} = {self.expr()};")
        self.vars.append(name)
        return line

    def _scoped_block(self, depth: int, budget: int) -> list:
        """Generate a nested block; variables it declares go out of scope
        when it closes (the lowerer's env is flat, but a decl on one path
        read on another would be an undefined value)."""
        n_vars, n_ro = len(self.vars), len(self.ro_vars)
        body = self.block(depth, budget)
        del self.vars[n_vars:]
        del self.ro_vars[n_ro:]
        return body

    def gen_if(self, depth: int, budget: int) -> If:
        cond = self.cond()  # before the bodies: only prior vars are visible
        then = self._scoped_block(depth + 1, max(1, budget // 2))
        els: list = []
        if self.rng.random() < 0.5:
            els = self._scoped_block(depth + 1, max(1, budget // 3))
        return If(cond, then, els)

    def gen_loop(self, depth: int, budget: int) -> Loop:
        r = self.rng
        if r.random() < 0.7:
            var = self.fresh("i")
            bound = r.randint(2, _ARRAY_LEN)
            # initialised by the loop header itself, so it stays readable
            # inside the body *and* after the loop
            self.ro_vars.append(var)
            self._loop_stack.append("for")
            body = self._scoped_block(depth + 1, max(1, budget - 2))
            self._loop_stack.pop()
            head = f"for (int {var} = 0; {var} < {bound}; {var} += 1)"
            loop = Loop(head, body)
        else:
            var = self.fresh("t")
            start = r.randint(2, 6)
            self.ro_vars.append(var)
            self._loop_stack.append("while")
            body = self._scoped_block(depth + 1, max(1, budget - 2))
            self._loop_stack.pop()
            loop = Loop(f"while ({var} > 0)", body, tail=f"{var} -= 1;")
            # the counter must exist before the loop: the caller prepends
            loop.head_decl = f"int {var} = {start};"  # type: ignore[attr-defined]
        return loop

    def block(self, depth: int, budget: int) -> list:
        out: list = []
        n = self.rng.randint(1, max(1, budget))
        for _ in range(n):
            stmt = self.stmt(depth, budget)
            decl = getattr(stmt, "head_decl", None)
            if decl is not None:
                out.append(Line(decl))
            out.append(stmt)
        return out


def generate_program(seed: int) -> GenProgram:
    """Deterministically generate one runnable test program from ``seed``."""
    rng = random.Random(seed)

    helpers: list[tuple[str, int]] = []
    functions: list[GenFunction] = []
    for h in range(rng.randint(0, 2)):
        arity = rng.randint(1, 3)
        params = [("int", f"a{i}") for i in range(arity)]
        gen = _FunctionGen(rng, params, list(helpers))
        fn = GenFunction(f"helper{h}", params)
        fn.body = gen.block(0, rng.randint(2, 5))
        fn.final_return = f"return {gen.expr()};"
        functions.append(fn)
        helpers.append((fn.name, arity))

    n_scalars = rng.randint(1, 3)
    n_arrays = rng.randint(1, 2)
    params = [("int", f"a{i}") for i in range(n_scalars)]
    params += [("array", f"p{i}") for i in range(n_arrays)]
    gen = _FunctionGen(rng, params, helpers)
    entry = GenFunction("test", params)
    entry.body = gen.block(0, rng.randint(5, 10))
    entry.final_return = f"return {gen.expr()};"
    functions.append(entry)

    args: list = [rng.randint(-10, 50) for _ in range(n_scalars)]
    args += [[rng.randint(-20, 80) for _ in range(_ARRAY_LEN)]
             for _ in range(n_arrays)]
    return GenProgram(seed=seed, functions=functions, entry="test",
                      entry_args=args)


#: source-line ventiles of :func:`generate_program` output (measured over
#: 6000 programs)
SIZE_EDGES = (7, 11, 14, 17, 20, 22, 24, 27, 29, 32, 35, 38, 41, 46, 50,
              56, 64, 74, 89)


def catalogue() -> list[GenProgram]:
    """The 120 program texts of the repository benchmark's
    ``corpus_compile`` workload: an equal quota per source-size ventile
    (:data:`SIZE_EDGES`, tail included), drawn from generator seed 1991.

    ``perfbench/workloads.py`` keeps its own copy (the benchmark is frozen
    apart from the program under test);
    ``tests/verify/test_generator.py`` checks that the two agree."""
    count = 120
    buckets = len(SIZE_EDGES) + 1
    quota = [count // buckets + (1 if b < count % buckets else 0)
             for b in range(buckets)]
    rng = random.Random(1991 * 1_000_003)
    chosen: list[GenProgram] = []
    while len(chosen) < count:
        program = generate_program(rng.randrange(1 << 31))
        bucket = bisect.bisect_right(SIZE_EDGES, program.source.count("\n"))
        if quota[bucket]:
            quota[bucket] -= 1
            chosen.append(program)
    return chosen
