"""Recursive-descent parser for the mini-C subset.

Grammar (C precedence, short-circuit logicals)::

    program   := funcdef*
    funcdef   := ("int" | "void") ident "(" params? ")" block
    params    := param ("," param)*
    param     := "int" ("*" ident | ident ("[" "]")?)
    block     := "{" stmt* "}"
    stmt      := decl | if | while | for | return | break | continue
               | block | exprstmt
    decl      := "int" ident ("=" expr)? ";"
    exprstmt  := assignment-or-call ";"

Compound assignments and ``++``/``--`` are desugared here, so the lowerer
sees only plain ``Assign``.
"""

from __future__ import annotations

from . import cast as C
from .lexer import Token, tokenize


class CParseError(ValueError):
    def __init__(self, token: Token, message: str):
        super().__init__(f"line {token.line}: {message} (at {token.text!r})")
        self.token = token


_COMPOUND = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
             "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}

#: binary operator precedence (higher binds tighter)
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    """Recursive descent over the token list.

    The grammar indexes ``tokens`` directly and compares a token's text
    before its kind (the text is the rarer match): per-token method
    calls would cost about as much as the grammar itself.  ``pos`` never
    moves past the ``eof`` token, which no ``op``/``kw`` text or
    ``ident`` matches.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def accept(self, text: str, kind: str = "op") -> bool:
        """Consume the current token if it is ``kind`` ``text``."""
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind == kind:
            self.pos += 1
            return True
        return False

    def expect(self, text: str, kind: str = "op") -> Token:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind == kind:
            self.pos += 1
            return tok
        raise CParseError(tok, f"expected {text!r}")

    def expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            return tok
        raise CParseError(tok, "expected 'ident'")

    # -- program / functions ---------------------------------------------------

    def parse_program(self) -> C.Program:
        functions = []
        while self.tokens[self.pos].kind != "eof":
            functions.append(self.parse_funcdef())
        return C.Program(tuple(functions))

    def parse_funcdef(self) -> C.FuncDef:
        if self.accept("void", "kw"):
            returns_value = False
        else:
            self.expect("int", "kw")
            returns_value = True
        name = self.expect_ident().text
        self.expect("(")
        params: list[C.Param] = []
        if not self.accept(")"):
            while True:
                params.append(self.parse_param())
                if self.accept(")"):
                    break
                self.expect(",")
        body = self.parse_block()
        return C.FuncDef(name, tuple(params), body, returns_value)

    def parse_param(self) -> C.Param:
        self.expect("int", "kw")
        if self.accept("*"):
            return C.Param(self.expect_ident().text, is_array=True)
        name = self.expect_ident().text
        if self.accept("["):
            self.expect("]")
            return C.Param(name, is_array=True)
        return C.Param(name, is_array=False)

    # -- statements -----------------------------------------------------------------

    def parse_block(self) -> C.Block:
        line = self.expect("{").line
        statements: list[C.Stmt] = []
        while not self.accept("}"):
            statements.append(self.parse_stmt())
        return C.Block(tuple(statements), line=line)

    def parse_stmt(self) -> C.Stmt:
        tok = self.tokens[self.pos]
        kind, text, line = tok
        if kind == "op" and text == "{":
            return self.parse_block()
        if kind == "kw":
            if text == "int":
                return self.parse_decl()
            if text == "if":
                return self.parse_if()
            if text == "while":
                self.pos += 1
                self.expect("(")
                cond = self.parse_expr()
                self.expect(")")
                return C.While(cond, self._stmt_as_block(), line=line)
            if text == "for":
                return self.parse_for()
            if text == "return":
                self.pos += 1
                value = None
                if not self.accept(";"):
                    value = self.parse_expr()
                    self.expect(";")
                return C.Return(value, line=line)
            if text == "break":
                self.pos += 1
                self.expect(";")
                return C.Break(line=line)
            if text == "continue":
                self.pos += 1
                self.expect(";")
                return C.Continue(line=line)
        stmt = self.parse_simple_stmt()
        self.expect(";")
        return stmt

    def _stmt_as_block(self) -> C.Block:
        stmt = self.parse_stmt()
        if isinstance(stmt, C.Block):
            return stmt
        return C.Block((stmt,), line=stmt.line)

    def parse_decl(self) -> C.Decl:
        line = self.expect("int", "kw").line
        name = self.expect_ident().text
        init = self.parse_expr() if self.accept("=") else None
        self.expect(";")
        return C.Decl(name, init, line=line)

    def parse_if(self) -> C.If:
        line = self.expect("if", "kw").line
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._stmt_as_block()
        orelse = None
        if self.accept("else", "kw"):
            orelse = self._stmt_as_block()
        return C.If(cond, then, orelse, line=line)

    def parse_for(self) -> C.For:
        line = self.expect("for", "kw").line
        self.expect("(")
        init = None
        if not self.accept(";"):
            if self.accept("int", "kw"):
                decl_line = self.tokens[self.pos - 1].line
                name = self.expect_ident().text
                self.expect("=")
                init = C.Decl(name, self.parse_expr(), line=decl_line)
            else:
                init = self.parse_simple_stmt()
            self.expect(";")
        cond = None
        if not self.accept(";"):
            cond = self.parse_expr()
            self.expect(";")
        step = None
        if not self.accept(")"):
            step = self.parse_simple_stmt()
            self.expect(")")
        return C.For(init, cond, step, self._stmt_as_block(), line=line)

    def parse_simple_stmt(self) -> C.Stmt:
        """Assignment, ++/--, or expression statement (call)."""
        line = self.tokens[self.pos].line
        expr = self.parse_expr()
        tok = self.tokens[self.pos]
        if tok.kind == "op":
            text = tok.text
            if text == "=":
                self.pos += 1
                self._check_lvalue(expr, tok)
                return C.Assign(expr, self.parse_expr(), line=line)
            if text in _COMPOUND:
                self.pos += 1
                self._check_lvalue(expr, tok)
                return C.Assign(expr, C.Binary(_COMPOUND[text], expr,
                                               self.parse_expr()),
                                line=line)
            if text == "++" or text == "--":
                self.pos += 1
                self._check_lvalue(expr, tok)
                op = "+" if text == "++" else "-"
                return C.Assign(expr, C.Binary(op, expr, C.Num(1)),
                                line=line)
        return C.ExprStmt(expr, line=line)

    @staticmethod
    def _check_lvalue(expr: C.Expr, tok: Token) -> None:
        if not isinstance(expr, (C.Var, C.ArrayRef)):
            raise CParseError(tok, "assignment target must be a variable "
                                   "or array element")

    # -- expressions (operator precedence) ----------------------------------

    def parse_expr(self) -> C.Expr:
        """Binary operators by precedence, all left-associative.

        Operands and operators are read in one loop and reduced on an
        explicit stack -- the tree precedence climbing builds, without a
        recursive call per operand."""
        tokens = self.tokens
        left = self.parse_unary()
        tok = tokens[self.pos]
        if tok.kind != "op" or tok.text not in _PRECEDENCE:
            return left  # a lone operand: the common case
        operands = [left]
        pending: list[tuple[int, str]] = []  # (precedence, operator)
        while True:
            # precedence 0 (not a binary operator) reduces everything
            prec = _PRECEDENCE.get(tok.text, 0) if tok.kind == "op" else 0
            while pending and pending[-1][0] >= prec:
                op = pending.pop()[1]
                right = operands.pop()
                node = C.Logical if op == "&&" or op == "||" else C.Binary
                operands[-1] = node(op, operands[-1], right)
            if not prec:
                return operands[0]
            pending.append((prec, tok.text))
            self.pos += 1
            operands.append(self.parse_unary())
            tok = tokens[self.pos]

    def parse_unary(self) -> C.Expr:
        """Prefix operators, then a primary with its call or index."""
        tokens = self.tokens
        kind, text, line = tok = tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            after = tokens[self.pos]
            if after.kind == "op":
                if after.text == "(":
                    self.pos += 1
                    args: list[C.Expr] = []
                    if not self.accept(")"):
                        while True:
                            args.append(self.parse_expr())
                            if self.accept(")"):
                                break
                            self.expect(",")
                    return C.Call(text, tuple(args), line=line)
                if after.text == "[":
                    self.pos += 1
                    index = self.parse_expr()
                    self.expect("]")
                    return C.ArrayRef(text, index, line=line)
            return C.Var(text, line=line)
        if kind == "num":
            self.pos += 1
            return C.Num(int(text, 0))
        if kind == "op":
            if text == "(":
                self.pos += 1
                inner = self.parse_expr()
                self.expect(")")
                return inner
            if text == "-" or text == "~" or text == "!":
                self.pos += 1
                return C.Unary(text, self.parse_unary())
            if text == "+":
                self.pos += 1
                return self.parse_unary()
        if kind == "str":
            # String literals only appear as printf-style call arguments;
            # they lower to the constant 0 (an opaque handle).
            self.pos += 1
            return C.Num(0)
        raise CParseError(tok, "expected an expression")


def parse_c(source: str) -> C.Program:
    """Parse a mini-C translation unit."""
    return Parser(tokenize(source)).parse_program()
