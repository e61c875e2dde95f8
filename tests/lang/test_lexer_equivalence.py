"""The single-pattern lexer against the seed one (``reference_lexer``).

``repro.lang.lexer`` matches one compiled pattern per token and leaves
it only for rare constructs; the seed lexer walks every character.  They
must agree on everything observable: the ``(kind, text, line)`` stream
and, when the input is bad, the error message and its line.
"""

from __future__ import annotations

import pathlib
import random
import re
import sys
import time

import pytest

from repro.lang.lexer import LexError, Token, tokenize
from repro.verify.generator import catalogue, generate_program

from . import reference_lexer as ref

EXAMPLES = sorted(
    (pathlib.Path(__file__).parents[2] / "examples").glob("*.c"))

#: fragments the mutation sweep splices together: every slow path of the
#: pattern lexer and every way a literal, comment or string can go wrong
PIECES = (
    "²", "é", "١", "a²", "é1", "x١",
    "0x", "0X", "0x1F", "0xg", "09", "007", "00", "0", "10", "1²",
    "/*", "*/", "//", "/", "/=", "*", '"', '\\', '\\"', "\r", "\n", "\t",
    " ", "  ", "int", "intx", "if", "else", "for", "while", "return", "_",
    "a", "x1", "+", "++", "+=", "-", "--", "<<=", ">>", "<=", "==", "!=",
    "!", "&&", "||", "&", "|", "^", "~", "%", "=", ";", ",", "(", ")",
    "{", "}", "[", "]", "$", "@", "#", "\x0b", "\x0c",
)
TRAILERS = ("", " ", "\n", "\t\r\n  ", "// tail", "\n\n", " \r")


def _lex(lexer, source: str):
    """What a lexer made of ``source``: its tokens, or its error."""
    try:
        return [(t.kind, t.text, t.line) for t in lexer(source)]
    except (LexError, ref.LexError) as exc:
        return ("error", str(exc), exc.line)


def _assert_same(source: str) -> None:
    assert _lex(tokenize, source) == _lex(ref.tokenize, source), source


def test_word_class_is_the_seed_identifier_rule():
    # the fast path continues identifiers with \w; the seed with
    # str.isalnum() or "_"
    word = re.compile(r"\w")
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        assert (word.match(ch) is not None) == (ch.isalnum() or ch == "_")


def test_catalogue_programs():
    for program in catalogue():
        source = program.source
        got, want = tokenize(source), ref.tokenize(source)
        assert [tuple(t) for t in got] == [
            (t.kind, t.text, t.line) for t in want]
        assert all(type(t) is Token for t in got)
        assert list(map(repr, got)) == list(map(repr, want))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples(path):
    _assert_same(path.read_text())


def _mutant(rng: random.Random, base: str) -> str:
    if rng.random() < 0.5:
        text = "".join(rng.choice(PIECES)
                       for _ in range(rng.randint(1, 30)))
    else:
        start = rng.randrange(len(base))
        text = base[start:start + rng.randint(20, 200)]
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(text) + 1)
            cut = at + rng.choice((0, 0, 1, 3))
            text = text[:at] + rng.choice(PIECES) + text[cut:]
    return text + rng.choice(TRAILERS)


@pytest.mark.parametrize("chunk", range(8))
def test_mutation_sweep(chunk):
    """8 x 2,600 seeded strings (20,800 in all)."""
    rng = random.Random(1991 + chunk)
    bases = [generate_program(rng.randrange(1 << 31)).source
             for _ in range(8)]
    outcomes = set()
    for _ in range(2600):
        source = _mutant(rng, rng.choice(bases))
        want = _lex(ref.tokenize, source)
        assert _lex(tokenize, source) == want, source
        outcomes.add(want[1].split(": ")[1].split(" ")[0]
                     if want[0] == "error" else "ok")
    # the sweep reaches the clean path and every error
    assert outcomes >= {"ok", "unexpected", "malformed", "unterminated"}


MB = 1 << 20

#: inputs a character walk would take long over; the pattern lexer must
#: stay linear on them
HOSTILE = {
    "spaces": (" " * MB, [("eof", "", 1)]),
    "line-comment": ("//" + "x" * MB, [("eof", "", 1)]),
    "open-block-comment": (
        "int x;\n/*" + "*\n" * (MB // 2),
        ("error", "line 2: unterminated /* comment", 2)),
    "open-string": ('\n"' + "a" * MB,
                    ("error", "line 2: unterminated string literal", 2)),
    "open-escaped-string": ('"' + "\\a" * (MB // 2),
                            ("error", "line 1: unterminated string literal",
                             1)),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_inputs_lex_in_linear_time(name):
    source, want = HOSTILE[name]
    start = time.perf_counter()
    assert _lex(tokenize, source) == want
    # a quadratic scan of 1 MB takes minutes; a linear one milliseconds
    assert time.perf_counter() - start < 2.0
    # the seed lexer agrees on a cut-down copy
    _assert_same(source[:4096])
