"""Lexer for the mini-C input language.

The subset is what the paper's running example (Figure 1) and SPEC-style
integer kernels need: ``int`` scalars and array parameters, ``if``/
``else``/``while``/``for``, the usual integer operators with C precedence,
short-circuit ``&&``/``||``, calls, and ``//`` and ``/* */`` comments.

The whole common-case token grammar is one compiled pattern
(:data:`_TOKEN`): each match skips blanks and ``//`` comments, then
names its token by the group that matched.  Keywords, identifiers,
operators and literals without a leading ``0`` become tokens directly;
a newline bumps the line.  Everything else -- ``/* */`` comments, string
literals, identifiers that start with a non-ASCII letter, literals with
a leading ``0`` (``int(text, 0)`` must accept them) and bad characters
-- leaves the pattern loop for a Python slow path, which re-enters it
after the construct.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = {
    "int", "void", "if", "else", "while", "for", "return",
    "break", "continue",
}

#: multi-character operators, longest first
_MULTI = [
    "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
]
_SINGLE = "+-*/%&|^~!<>=(){}[];,"


class LexError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Token(NamedTuple):
    kind: str  # "ident" | "num" | "kw" | "op" | "str" | "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r}@{self.line})"


def _alternatives(words) -> str:
    return "|".join(re.escape(word) for word in words)


def _char_class(chars) -> str:
    return f"[{re.escape(''.join(chars))}]"


#: single-character operators that begin no longer one (tried first:
#: they are most operators in real code), and the others but ``/``
_LONE = [c for c in _SINGLE if not any(op[0] == c for op in _MULTI)]
_PREFIXES = [c for c in _SINGLE if c not in _LONE and c != "/"]

# The groups before ``nl`` are the direct ones, named after the kind of
# token they make; the loop tells them apart by group number.  ``\w``
# is exactly ``str.isalnum() or "_"``, the seed's identifier rule, so
# ASCII-started identifiers that run into ``é`` or ``²`` stay on the
# fast path.  ``0`` followed by a digit or an ``x`` goes to ``num0``,
# whose text ``int(text, 0)`` may reject; a ``/`` that opens a block
# comment is left to ``other``.
_TOKEN = re.compile(
    r"[ \t\r]*(?://[^\n]*)?"  # a comment runs up to the newline
    rf"(?:(?P<op>{_char_class(_LONE)}|{_alternatives(_MULTI)}"
    rf"|{_char_class(_PREFIXES)}|/(?!\*))"
    rf"|(?P<kw>(?:{_alternatives(sorted(KEYWORDS))})(?!\w))"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<num>[1-9][0-9]*|0(?![0-9xX]))"
    r"|(?P<nl>\n)"
    r"|(?P<num0>0[xX][0-9a-fA-F]*|0[0-9]+)"
    r"|(?P<end>\Z)"
    r"|(?P<other>.))")
_NL = _TOKEN.groupindex["nl"]
#: token kind by direct group number
_KINDS = (None, *list(_TOKEN.groupindex)[:_NL - 1])
#: a string literal: a backslash escapes any one character
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_WORD = re.compile(r"\w*")


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`LexError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    make = tuple.__new__
    finditer = _TOKEN.finditer
    kinds, nl = _KINDS, _NL
    line = 1
    pos = 0
    while True:
        # the pattern matches at every position, so finditer never skips
        for m in finditer(source, pos):
            group = m.lastindex
            if group < nl:
                append(make(Token, (kinds[group], m[group], line)))
            elif group == nl:
                line += 1
            else:
                break
        kind = m.lastgroup
        start = m.start(kind)
        text = m[kind]
        if kind == "end":
            append(make(Token, ("eof", "", line)))
            return tokens
        if kind == "num0":
            # the parser reads every literal with int(text, 0), which
            # rejects "09" and a bare "0x"
            try:
                int(text, 0)
            except ValueError:
                raise LexError(
                    line, f"malformed number literal {text!r}") from None
            append(make(Token, ("num", text, line)))
            pos = m.end()
        elif source.startswith("/*", start):
            end = source.find("*/", start + 2)
            if end < 0:
                raise LexError(line, "unterminated /* comment")
            line += source.count("\n", start, end)
            pos = end + 2
        elif text == '"':
            literal = _STRING.match(source, start)
            if literal is None:
                raise LexError(line, "unterminated string literal")
            pos = literal.end()
            append(make(Token, ("str", source[start + 1:pos - 1], line)))
            line += source.count("\n", start, pos)
        elif text.isalpha():
            # a non-ASCII letter: never a keyword
            pos = _WORD.match(source, start).end()
            append(make(Token, ("ident", source[start:pos], line)))
        else:
            raise LexError(line, f"unexpected character {text!r}")
