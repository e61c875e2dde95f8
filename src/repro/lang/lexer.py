"""Lexer for the mini-C input language.

The subset is what the paper's running example (Figure 1) and SPEC-style
integer kernels need: ``int`` scalars and array parameters, ``if``/
``else``/``while``/``for``, the usual integer operators with C precedence,
short-circuit ``&&``/``||``, calls, and ``//`` and ``/* */`` comments.
"""

from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = {
    "int", "void", "if", "else", "while", "for", "return",
    "break", "continue",
}

#: multi-character operators, longest first
_MULTI = [
    "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
]
_SINGLE = set("+-*/%&|^~!<>=(){}[];,")
#: ASCII only: str.isdigit() also accepts digits such as "\u00b2" that
#: int() rejects
_DIGITS = "0123456789"
_HEX_DIGITS = "0123456789abcdefABCDEF"


class LexError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "num" | "kw" | "op" | "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r}@{self.line})"


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`LexError` on bad input."""
    tokens: list[Token] = []
    i, line = 0, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError(line, "unterminated /* comment")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch in _DIGITS:
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in _HEX_DIGITS:
                    j += 1
            else:
                while j < n and source[j] in _DIGITS:
                    j += 1
            text = source[i:j]
            # the parser reads every literal with int(text, 0), which
            # rejects "09" and a bare "0x"
            try:
                int(text, 0)
            except ValueError:
                raise LexError(
                    line, f"malformed number literal {text!r}") from None
            tokens.append(Token("num", text, line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(Token("kw" if text in KEYWORDS else "ident",
                                text, line))
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise LexError(line, "unterminated string literal")
            tokens.append(Token("str", source[i + 1:j], line))
            line += source.count("\n", i, j)
            i = j + 1
            continue
        matched = False
        for op in _MULTI:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE:
            tokens.append(Token("op", ch, line))
            i += 1
            continue
        raise LexError(line, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line))
    return tokens
