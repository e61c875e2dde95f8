"""The mini-C front end: lexer, parser, AST, lowering to IR."""

from . import cast
from .lexer import LexError, Token, tokenize
from .lower import (
    CompiledFunction,
    LowerError,
    compile_c_functions,
    lower_function,
    lower_program,
)
from .parser import CParseError, parse_c

#: every error the front end raises for bad mini-C input; each message
#: names the offending line, except lowering's (the AST has no lines)
FRONT_END_ERRORS = (LexError, CParseError, LowerError)

__all__ = [
    "CParseError",
    "CompiledFunction",
    "FRONT_END_ERRORS",
    "LexError",
    "LowerError",
    "Token",
    "cast",
    "compile_c_functions",
    "lower_function",
    "lower_program",
    "parse_c",
    "tokenize",
]
