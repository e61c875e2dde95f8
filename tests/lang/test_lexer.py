"""Lexer tests."""

import pytest

from repro.lang import LexError, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]


def test_keywords_vs_identifiers():
    assert kinds("int intx") == [("kw", "int"), ("ident", "intx")]
    assert kinds("while whilst") == [("kw", "while"), ("ident", "whilst")]


def test_numbers():
    assert kinds("0 42 0x1F") == [("num", "0"), ("num", "42"),
                                  ("num", "0x1F")]


def test_multichar_operators_longest_match():
    assert kinds("<<= << <= <") == [("op", "<<="), ("op", "<<"),
                                    ("op", "<="), ("op", "<")]
    assert kinds("a+++1") == [("ident", "a"), ("op", "++"), ("op", "+"),
                              ("num", "1")]


def test_comments_stripped():
    src = """
int x; // line comment
/* block
   comment */ int y;
"""
    assert kinds(src) == [("kw", "int"), ("ident", "x"), ("op", ";"),
                          ("kw", "int"), ("ident", "y"), ("op", ";")]


def test_line_numbers():
    tokens = tokenize("a\nb\n\nc")
    assert [t.line for t in tokens[:-1]] == [1, 2, 4]


def test_string_literal():
    tokens = tokenize('printf("min=%d max=%d\\n", min)')
    assert tokens[2].kind == "str"


def test_unterminated_comment():
    with pytest.raises(LexError, match="unterminated"):
        tokenize("/* never ends")


def test_bad_character():
    with pytest.raises(LexError, match="unexpected character"):
        tokenize("int $x;")


def test_eof_token():
    assert tokenize("")[-1].kind == "eof"


@pytest.mark.parametrize("text", ["09", "0x", "0X", "007"])
def test_malformed_number_literal_is_a_located_lex_error(text):
    with pytest.raises(LexError, match="malformed number literal") as exc:
        tokenize(f"int x;\nint y = {text};")
    assert exc.value.line == 2


@pytest.mark.parametrize("text", ["\u00b2", "1\u00b2", "\u0661"])
def test_non_ascii_digits_are_a_located_lex_error(text):
    # str.isdigit() accepts these; int() and the parser do not
    with pytest.raises(LexError, match="unexpected character") as exc:
        tokenize(f"int x;\nint y = {text};")
    assert exc.value.line == 2


def test_zero_literals_stay_numbers():
    assert kinds("0 00 0x0") == [("num", "0"), ("num", "00"),
                                 ("num", "0x0")]


def test_newlines_in_a_string_literal_advance_the_line():
    tokens = tokenize('f("two\nlines");\nx')
    assert tokens[-2].text == "x" and tokens[-2].line == 3
    with pytest.raises(LexError) as exc:
        tokenize('f("a\nb\nc");\n$')
    assert exc.value.line == 4
