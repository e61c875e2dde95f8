"""Abstract syntax of the mini-C subset (the "C AST", hence the name).

Nodes are slotted dataclasses compared by value.  They are not frozen:
a frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``, which triples the cost of building a
three-field node.  Nothing mutates or hashes a node after the parser
builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _line():
    """The source line a node starts on, named by lowering errors; not
    part of the node's identity, so equal code on other lines compares
    equal."""
    return field(default=0, compare=False, kw_only=True)


# -- expressions -----------------------------------------------------------

@dataclass(slots=True)
class Expr:
    pass


@dataclass(slots=True)
class Num(Expr):
    value: int


@dataclass(slots=True)
class Var(Expr):
    name: str
    line: int = _line()


@dataclass(slots=True)
class ArrayRef(Expr):
    array: str
    index: Expr
    line: int = _line()


@dataclass(slots=True)
class Unary(Expr):
    op: str  # "-", "~", "!"
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    """Arithmetic, bitwise, shift and comparison operators."""

    op: str  # + - * / % & | ^ << >> == != < <= > >=
    left: Expr
    right: Expr


@dataclass(slots=True)
class Logical(Expr):
    """Short-circuit && / ||."""

    op: str  # "&&" | "||"
    left: Expr
    right: Expr


@dataclass(slots=True)
class Call(Expr):
    callee: str
    args: tuple[Expr, ...]
    line: int = _line()


# -- statements ----------------------------------------------------------------

@dataclass(slots=True)
class Stmt:
    line: int = _line()


@dataclass(slots=True)
class Decl(Stmt):
    """``int x;`` or ``int x = e;`` (scalars only)."""

    name: str
    init: Expr | None


@dataclass(slots=True)
class Assign(Stmt):
    """``target = value`` (target is a Var or ArrayRef); compound ops are
    desugared by the parser (``x += e`` becomes ``x = x + e``)."""

    target: Expr
    value: Expr


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: "Block"
    orelse: "Block | None"


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: "Block"


@dataclass(slots=True)
class For(Stmt):
    init: Stmt | None
    cond: Expr | None
    step: Stmt | None
    body: "Block"


@dataclass(slots=True)
class Return(Stmt):
    value: Expr | None


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


@dataclass(slots=True)
class Block(Stmt):
    statements: tuple[Stmt, ...]


# -- top level ------------------------------------------------------------------

@dataclass(slots=True)
class Param:
    """``int x`` (scalar) or ``int x[]`` / ``int *x`` (array base)."""

    name: str
    is_array: bool


@dataclass(slots=True)
class FuncDef:
    name: str
    params: tuple[Param, ...]
    body: Block
    returns_value: bool  # int f() vs void f()


@dataclass(slots=True)
class Program:
    functions: tuple[FuncDef, ...]

    def function(self, name: str) -> FuncDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")
