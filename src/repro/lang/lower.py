"""Lowering mini-C to the RS/6K-flavoured IR.

Register discipline follows the paper: every scalar variable and every
temporary gets its own *symbolic* register from an unbounded pool; there is
no register allocation (Section 2).  Array parameters are base addresses in
registers; ``a[i]`` becomes shift/add/load exactly like the XL compiler's
Figure 2 code (constant indices fold into the load displacement, which is
what makes the loads of ``u`` and ``v`` disambiguate).

Loop shape matches Figure 2: a ``while`` is lowered with a guard test
before the loop and the real test at the *bottom* (``BT`` back to the
header), so the generated code for the paper's minmax program lines up
block for block with the paper's.

Function-exit liveness is precise: ``RET`` explicitly uses the returned
register, so nothing else is live at exit -- the scheduler gets maximum
speculative freedom, as the real compiler (which knows its ABI) would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.builder import Builder
from ..ir.function import Function
from ..ir.operand import CR_EQ, CR_GT, CR_LT, Reg
from ..ir.verify import verify_function
from ..xform.simplify import simplify_cfg
from . import cast as C
from .parser import parse_c


class LowerError(ValueError):
    """Well-formed mini-C the lowering rejects, located by the source
    line of the statement or name at fault."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class CompiledFunction:
    """A lowered function plus its interface metadata."""

    name: str
    func: Function
    params: tuple[C.Param, ...]
    #: parameter name -> register holding its value / base address
    param_regs: dict[str, Reg]
    returns_value: bool
    #: registers observed by the caller after return (precise: empty --
    #: RET carries its value as an explicit use)
    live_at_exit: frozenset[Reg] = frozenset()


#: comparison -> (CR bit, bit value when the comparison is true)
_COMPARE_BITS = {
    "<": (CR_LT, True),
    ">": (CR_GT, True),
    "==": (CR_EQ, True),
    "!=": (CR_EQ, False),
    "<=": (CR_GT, False),
    ">=": (CR_LT, False),
}

_COMPARISONS = frozenset(_COMPARE_BITS)


def _expr_has_call(expr: C.Expr) -> bool:
    if isinstance(expr, C.Call):
        return True
    if isinstance(expr, C.Unary):
        return _expr_has_call(expr.operand)
    if isinstance(expr, (C.Binary, C.Logical)):
        return _expr_has_call(expr.left) or _expr_has_call(expr.right)
    if isinstance(expr, C.ArrayRef):
        return _expr_has_call(expr.index)
    return False


def _power_of_two(value: int) -> int | None:
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class _FunctionLowerer:
    def __init__(self, fdef: C.FuncDef):
        self.fdef = fdef
        self.func = Function(fdef.name)
        self.b = b = Builder(self.func)
        #: binary operator -> emitter, register-immediate and
        #: register-register forms
        self.imm_emit = {"+": b.ai, "-": b.si, "&": b.andi, "|": b.ori,
                         "^": b.xori, "<<": b.sl, ">>": b.sra}
        self.reg_emit = {"+": b.add, "-": b.sub, "*": b.mul, "/": b.div,
                         "%": b.rem, "&": b.and_, "|": b.or_, "^": b.xor}
        self.env: dict[str, Reg] = {}
        self.arrays: set[str] = set()
        #: (continue target, break target) stack
        self.loops: list[tuple[str, str]] = []
        #: has the current block been closed by a branch/return?
        self.closed = False

    # -- block plumbing ---------------------------------------------------

    def start(self, label: str) -> None:
        self.b.start_block(label)
        self.closed = False

    def goto(self, label: str) -> None:
        if not self.closed:
            self.b.b(label)
            self.closed = True

    def fresh(self, prefix: str = "L") -> str:
        return self.func.fresh_label(prefix)

    # -- top level -----------------------------------------------------------

    def lower(self) -> CompiledFunction:
        param_regs: dict[str, Reg] = {}
        for param in self.fdef.params:
            reg = self.func.new_gpr()
            param_regs[param.name] = reg
            self.env[param.name] = reg
            if param.is_array:
                self.arrays.add(param.name)
        self.start(self.fresh("entry"))
        self.lower_block(self.fdef.body)
        if not self.closed:
            self.b.ret()
            self.closed = True
        verify_function(self.func)
        # The XL BASE compiler runs "all the possible machine independent
        # and peephole optimizations"; normalise the structured-lowering
        # CFG (empty joins, jumps to jumps) so the minmax loop comes out
        # shaped like Figure 2.
        simplify_cfg(self.func)
        verify_function(self.func)
        return CompiledFunction(
            name=self.fdef.name,
            func=self.func,
            params=self.fdef.params,
            param_regs=param_regs,
            returns_value=self.fdef.returns_value,
        )

    # -- statements --------------------------------------------------------------

    def lower_block(self, block: C.Block) -> None:
        for stmt in block.statements:
            if self.closed:
                return  # unreachable code after return/break/continue
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: C.Stmt) -> None:
        if isinstance(stmt, C.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, C.Decl):
            if stmt.name in self.env:
                raise LowerError(stmt.line,
                                 f"redeclaration of {stmt.name!r}")
            reg = self.func.new_gpr()
            self.env[stmt.name] = reg
            if stmt.init is not None:
                self.eval_into(reg, stmt.init)
        elif isinstance(stmt, C.Assign):
            self.lower_assign(stmt)
        elif isinstance(stmt, C.ExprStmt):
            if isinstance(stmt.expr, C.Call):
                args = tuple(self.eval(a) for a in stmt.expr.args)
                self.b.call(stmt.expr.callee, args, rets=())
            else:
                self.eval(stmt.expr)  # for side-effect-free exprs: dead code
        elif isinstance(stmt, C.If):
            self.lower_if(stmt)
        elif isinstance(stmt, C.While):
            self.lower_while(stmt)
        elif isinstance(stmt, C.For):
            self.lower_for(stmt)
        elif isinstance(stmt, C.Return):
            if stmt.value is not None:
                self.b.ret(self.eval(stmt.value))
            else:
                self.b.ret()
            self.closed = True
        elif isinstance(stmt, C.Break):
            if not self.loops:
                raise LowerError(stmt.line, "break outside a loop")
            self.b.b(self.loops[-1][1])
            self.closed = True
        elif isinstance(stmt, C.Continue):
            if not self.loops:
                raise LowerError(stmt.line, "continue outside a loop")
            self.b.b(self.loops[-1][0])
            self.closed = True
        else:  # pragma: no cover - closed AST
            raise LowerError(stmt.line, f"cannot lower {stmt!r}")

    def lower_assign(self, stmt: C.Assign) -> None:
        target = stmt.target
        if isinstance(target, C.Var):
            self.eval_into(self.var_reg(target), stmt.value)
        elif isinstance(target, C.ArrayRef):
            value = self.eval(stmt.value)
            base, disp = self.array_address(target)
            self.b.store(value, base, disp, symbol=target.array)
        else:  # pragma: no cover - parser enforces lvalues
            raise LowerError(stmt.line,
                             f"bad assignment target {target!r}")

    def lower_if(self, stmt: C.If) -> None:
        # an ``else if`` chain is lowered in a loop, not by recursion, so
        # a long chain costs no Python frames; the joins close innermost
        # first, as nested calls would close them
        joins: list[str] = []
        while True:
            then_label = self.fresh()
            join_label = self.fresh()
            orelse = stmt.orelse
            else_label = self.fresh() if orelse is not None else join_label
            self.lower_cond(stmt.cond, then_label, else_label,
                            next_label=then_label)
            self.start(then_label)
            self.lower_block(stmt.then)
            joins.append(join_label)
            if orelse is None:
                break
            self.goto(join_label)
            self.start(else_label)
            inner = orelse.statements
            if len(inner) == 1 and isinstance(inner[0], C.If):
                stmt = inner[0]
                continue
            self.lower_block(orelse)
            break
        for join_label in reversed(joins):
            self.goto(join_label)
            self.start(join_label)

    def lower_while(self, stmt: C.While) -> None:
        if _expr_has_call(stmt.cond):
            # Calls may not be duplicated: use the top-test shape.
            head = self.fresh("LH")
            body = self.fresh("LB")
            exit_label = self.fresh("LX")
            self.goto(head)
            self.start(head)
            self.lower_cond(stmt.cond, body, exit_label, next_label=body)
            self.start(body)
            self.loops.append((head, exit_label))
            self.lower_block(stmt.body)
            self.loops.pop()
            self.goto(head)
            self.start(exit_label)
            return
        # Figure 2 shape: guard test before the loop, real test at the
        # bottom branching back to the header.
        header = self.fresh("LH")
        latch = self.fresh("LT")
        exit_label = self.fresh("LX")
        self.lower_cond(stmt.cond, header, exit_label, next_label=header)
        self.start(header)
        self.loops.append((latch, exit_label))
        self.lower_block(stmt.body)
        self.loops.pop()
        self.goto(latch)
        self.start(latch)
        self.lower_cond(stmt.cond, header, exit_label, next_label=exit_label)
        self.start(exit_label)

    def lower_for(self, stmt: C.For) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        cond = stmt.cond if stmt.cond is not None else C.Num(1)
        body_and_step = list(stmt.body.statements)
        # continue in a for loop must run the step: give the step its own
        # label inside the bottom-tested while shape
        header = self.fresh("LH")
        step_label = self.fresh("LS")
        exit_label = self.fresh("LX")
        if _expr_has_call(cond):
            head = self.fresh("LH")
            self.goto(head)
            self.start(head)
            self.lower_cond(cond, header, exit_label, next_label=header)
            self.start(header)
            self.loops.append((step_label, exit_label))
            self.lower_block(C.Block(tuple(body_and_step)))
            self.loops.pop()
            self.goto(step_label)
            self.start(step_label)
            if stmt.step is not None:
                self.lower_stmt(stmt.step)
            self.goto(head)
            self.start(exit_label)
            return
        self.lower_cond(cond, header, exit_label, next_label=header)
        self.start(header)
        self.loops.append((step_label, exit_label))
        self.lower_block(C.Block(tuple(body_and_step)))
        self.loops.pop()
        self.goto(step_label)
        self.start(step_label)
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        self.lower_cond(cond, header, exit_label, next_label=exit_label)
        self.start(exit_label)

    # -- conditions --------------------------------------------------------------------

    def lower_cond(self, expr: C.Expr, true_label: str, false_label: str,
                   *, next_label: str) -> None:
        """Emit branching code for ``expr``; control reaches ``true_label``
        iff the condition holds.  ``next_label`` (one of the two) is the
        block the caller will start immediately after, reached by fall
        through."""
        if isinstance(expr, C.Unary) and expr.op == "!":
            self.lower_cond(expr.operand, false_label, true_label,
                            next_label=next_label)
            return
        if isinstance(expr, C.Logical):
            rhs_label = self.fresh()
            if expr.op == "&&":
                self.lower_cond(expr.left, rhs_label, false_label,
                                next_label=rhs_label)
            else:
                self.lower_cond(expr.left, true_label, rhs_label,
                                next_label=rhs_label)
            self.start(rhs_label)
            self.lower_cond(expr.right, true_label, false_label,
                            next_label=next_label)
            return
        if isinstance(expr, C.Binary) and expr.op in _COMPARISONS:
            crd = self.func.new_cr()
            left = self.eval(expr.left)
            if isinstance(expr.right, C.Num):
                self.b.cmpi(crd, left, expr.right.value)
            else:
                self.b.cmp(crd, left, self.eval(expr.right))
            bit, sense_true = _COMPARE_BITS[expr.op]
            self._emit_cond_branch(crd, bit, sense_true, true_label,
                                   false_label, next_label)
            return
        if isinstance(expr, C.Num):
            target = true_label if expr.value else false_label
            if target == next_label:
                self.closed = False  # plain fall-through
            else:
                self.b.b(target)
                self.closed = True
            return
        # generic truthiness: expr != 0
        reg = self.eval(expr)
        crd = self.func.new_cr()
        self.b.cmpi(crd, reg, 0)
        self._emit_cond_branch(crd, CR_EQ, False, true_label, false_label,
                               next_label)

    def _emit_cond_branch(self, crd: Reg, bit: int, sense_true: bool,
                          true_label: str, false_label: str,
                          next_label: str) -> None:
        """One BT/BF so that the *other* label is the fall-through."""
        if next_label == true_label:
            # branch away to false_label when the condition fails
            if sense_true:
                self.b.bf(false_label, crd, bit)
            else:
                self.b.bt(false_label, crd, bit)
        else:
            if sense_true:
                self.b.bt(true_label, crd, bit)
            else:
                self.b.bf(true_label, crd, bit)
        self.closed = True

    # -- expressions ----------------------------------------------------------------------

    def var_reg(self, var: C.Var) -> Reg:
        name = var.name
        reg = self.env.get(name)
        if reg is None:
            raise LowerError(var.line,
                             f"use of undeclared variable {name!r}")
        if name in self.arrays:
            raise LowerError(var.line, f"array {name!r} used as a scalar")
        return reg

    def array_address(self, ref: C.ArrayRef) -> tuple[Reg, int]:
        """(base register, displacement) addressing ``ref``."""
        base = self.env.get(ref.array)
        if base is None:
            raise LowerError(ref.line,
                             f"use of undeclared array {ref.array!r}")
        if ref.array not in self.arrays:
            raise LowerError(ref.line,
                             f"scalar {ref.array!r} indexed as an array")
        if isinstance(ref.index, C.Num):
            return base, 4 * ref.index.value
        index = self.eval(ref.index)
        scaled = self.func.new_gpr()
        self.b.sl(scaled, index, 2)
        addr = self.func.new_gpr()
        self.b.add(addr, base, scaled)
        return addr, 0

    def eval(self, expr: C.Expr) -> Reg:
        """Evaluate ``expr`` into a register (fresh unless it is a Var)."""
        if type(expr) is C.Var:
            return self.var_reg(expr)
        dest = self.func.new_gpr()
        self.eval_into(dest, expr)
        return dest

    def eval_into(self, dest: Reg, expr: C.Expr) -> None:
        # the AST classes are final: dispatch on the exact type, most
        # frequent first
        b = self.b
        kind = type(expr)
        if kind is C.Binary:
            if expr.op in _COMPARISONS:
                self._materialize_bool(dest, expr)
            else:
                self._eval_arith(dest, expr)
        elif kind is C.Num:
            b.li(dest, expr.value)
        elif kind is C.Var:
            b.lr(dest, self.var_reg(expr))
        elif kind is C.ArrayRef:
            base, disp = self.array_address(expr)
            b.load(dest, base, disp, symbol=expr.array)
        elif kind is C.Unary:
            if expr.op == "-":
                b.neg(dest, self.eval(expr.operand))
            elif expr.op == "~":
                b.not_(dest, self.eval(expr.operand))
            elif expr.op == "!":
                self._materialize_bool(dest, expr)
            else:  # pragma: no cover - closed operator set
                raise AssertionError(f"bad unary {expr.op!r}")
        elif kind is C.Logical:
            self._materialize_bool(dest, expr)
        elif kind is C.Call:
            args = tuple(self.eval(a) for a in expr.args)
            b.call(expr.callee, args, rets=(dest,))
        else:  # pragma: no cover - closed AST
            raise AssertionError(f"cannot evaluate {expr!r}")

    def _eval_arith(self, dest: Reg, expr: C.Binary) -> None:
        op, left, right = expr.op, expr.left, expr.right
        # fold literal operands into immediate forms
        if type(left) is C.Num and op in ("+", "*", "&", "|", "^"):
            left, right = right, left  # commutative: literal on the right
        if type(right) is C.Num:
            emit = self.imm_emit.get(op)
            if emit is not None:
                emit(dest, self.eval(left), right.value)
                return
            if op == "*":
                shift = _power_of_two(right.value)
                if shift is not None:
                    self.b.sl(dest, self.eval(left), shift)
                    return
        lreg = self.eval(left)
        rreg = self.eval(right)
        emit = self.reg_emit.get(op)
        if emit is None:  # pragma: no cover - closed operator set
            raise AssertionError(f"bad binary operator {op!r}")
        emit(dest, lreg, rreg)

    def _materialize_bool(self, dest: Reg, expr: C.Expr) -> None:
        """``dest = expr ? 1 : 0`` via a small diamond."""
        true_label = self.fresh("BT")
        join_label = self.fresh("BJ")
        self.b.li(dest, 0)
        self.lower_cond(expr, true_label, join_label, next_label=true_label)
        self.start(true_label)
        self.b.li(dest, 1)
        self.goto(join_label)
        self.start(join_label)


def lower_function(fdef: C.FuncDef) -> CompiledFunction:
    """Lower one parsed function definition to IR."""
    return _FunctionLowerer(fdef).lower()


def lower_program(program: C.Program) -> dict[str, CompiledFunction]:
    """Lower every function of a translation unit."""
    return {f.name: lower_function(f) for f in program.functions}


def compile_c_functions(source: str) -> dict[str, CompiledFunction]:
    """Parse + lower mini-C source (no scheduling)."""
    return lower_program(parse_c(source))