"""Front-end bench: the single-pattern lexer vs the seed lexer it replaced.

Lexes the 120-program catalogue of the repository benchmark
(``repro.verify.generator.catalogue``) with both lexers, then parses and
lowers each arm's tokens, and writes ``BENCH_frontend.json``::

    PYTHONPATH=src python benchmarks/perf/run_frontend_bench.py

The pattern arm is ``repro.lang.lexer.tokenize``; the seed arm is
``tests/lang/reference_lexer.py``.  Both must produce the same token
stream for every program before any timing is reported.  The arms
alternate within each of :data:`REPEATS` repeats and each stage keeps
its best.  Costs are microseconds per 1,000 tokens: for the lexer alone,
and for the whole front end (lex + parse + lower, the two lowering
verifier calls and the CFG clean-up included).  Parsing and lowering are
the same code in both arms, so the front-end ratio is what the lexer
alone buys end to end.  Both arms run in one process, interleaved, so
CPU drift mostly cancels out of the ratios.

The lexer speedup is **gated** at :data:`GATE_MIN_SPEEDUP`; a miss exits
with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from repro.lang.lexer import Token, tokenize  # noqa: E402
from repro.lang.lower import lower_program  # noqa: E402
from repro.lang.parser import Parser  # noqa: E402
from repro.verify.generator import catalogue  # noqa: E402
from tests.lang import reference_lexer  # noqa: E402

#: CI floor on the pattern lexer's speedup over the seed lexer.  The
#: measured speedup is 3-4.5x; the floor sits below it so a loaded
#: runner does not flake the gate, and above the character walk.
GATE_MIN_SPEEDUP = 2.0

#: timed repeats; each arm and stage keeps its best
REPEATS = 5

ARMS = {"pattern": tokenize, "seed": reference_lexer.tokenize}


def _timed(fn) -> float:
    """Seconds taken by one call of ``fn``."""
    gc.collect()
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _as_tokens(tokens) -> list[Token]:
    return [Token(t.kind, t.text, t.line) for t in tokens]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="pattern vs seed lexer bench (emits BENCH_frontend.json)")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_frontend.json"))
    args = parser.parse_args(argv)

    sources = [program.source for program in catalogue()]
    streams = {name: [_as_tokens(lex(s)) for s in sources]
               for name, lex in ARMS.items()}
    if streams["pattern"] != streams["seed"]:
        raise SystemExit("lexer divergence on the catalogue")
    ktokens = sum(len(tokens) for tokens in streams["pattern"]) / 1e3

    def lex_all(lex):
        return lambda: [lex(s) for s in sources]

    def front_end(stream):
        return lambda: [lower_program(Parser(tokens).parse_program())
                        for tokens in stream]

    best = {name: {"lex": float("inf"), "parse_lower": float("inf")}
            for name in ARMS}
    order = list(ARMS)
    for _ in range(REPEATS):
        for name in order:
            for stage, fn in (("lex", lex_all(ARMS[name])),
                              ("parse_lower", front_end(streams[name]))):
                best[name][stage] = min(best[name][stage], _timed(fn))
        order.reverse()  # alternate which arm runs first

    summary: dict[str, float] = {"tokens": ktokens * 1e3}
    for name in ARMS:
        lex, rest = best[name]["lex"], best[name]["parse_lower"]
        summary[f"{name}_lex_us_per_ktoken"] = lex * 1e6 / ktokens
        summary[f"{name}_frontend_us_per_ktoken"] = (
            (lex + rest) * 1e6 / ktokens)
    for stage in ("lex", "frontend"):
        summary[f"{stage}_speedup"] = (
            summary[f"seed_{stage}_us_per_ktoken"]
            / summary[f"pattern_{stage}_us_per_ktoken"])
    for name in ARMS:
        print(f"  {name:<8} lex {summary[f'{name}_lex_us_per_ktoken']:7.1f}"
              f" us/ktoken, lex + parse + lower "
              f"{summary[f'{name}_frontend_us_per_ktoken']:7.1f} us/ktoken")
    print(f"  speedup: lex {summary['lex_speedup']:.2f}x, front end "
          f"{summary['frontend_speedup']:.2f}x")

    results = {
        "meta": {
            "suite": "frontend",
            "programs": len(sources),
            "repeats": REPEATS,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "summary": summary,
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")
    if summary["lex_speedup"] < GATE_MIN_SPEEDUP:
        print(f"GATE FAIL: lexer speedup {summary['lex_speedup']:.2f}x "
              f"below gate floor {GATE_MIN_SPEEDUP:.1f}x", file=sys.stderr)
        return 1
    print(f"gate ok: lexer speedup at or above {GATE_MIN_SPEEDUP:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
