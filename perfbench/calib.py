"""Calibration units (``cal``): operation time divided by the time of a
fixed pure-Python routine run just before it.

The box this benchmark targets is a small shared machine whose speed
moves by a factor of two from minute to minute.  Work in CPython slows
down and speeds up together, so the ratio of an operation's time to a
fixed reference routine's time is far steadier than either raw time.  The
routine below does the same kinds of work the compiler does: small
objects with attributes, dict and set updates keyed by tuples, list
building and a keyed sort.
"""

from __future__ import annotations

import gc
import statistics
from operator import attrgetter
from time import perf_counter

#: calibration spread (IQR / median) above which a run is flagged noisy
NOISY_SPREAD = 0.25


class _Node:
    __slots__ = ("ident", "kind", "weight", "succs")

    def __init__(self, ident: int, kind: int, weight: int):
        self.ident = ident
        self.kind = kind
        self.weight = weight
        self.succs: list[_Node] = []


def reference_routine(size: int = 1500) -> int:
    """The fixed routine one ``cal`` is measured against (about 2 ms on a
    2020s x86 core).  Deterministic; returns a checksum so nothing is
    optimised away."""
    nodes = [_Node(i, (i * 7) % 13, (i * 31) % 97) for i in range(size)]
    for i, node in enumerate(nodes):
        for step in (1, 3, 7):
            j = i + step
            if j < size:
                node.succs.append(nodes[j])
    table: dict[tuple[int, int], int] = {}
    live: set[int] = set()
    for node in nodes:
        key = (node.ident & 63, node.kind)
        table[key] = table.get(key, 0) + node.weight
        for succ in node.succs:
            if succ.kind in (1, 3, 5) and succ.weight > node.weight:
                live.add(succ.ident)
    ordered = sorted(nodes, key=attrgetter("weight", "ident"))
    names = {f"r{n.ident}": n.kind for n in ordered[::5]}
    return len(table) + len(live) + len(names) + ordered[0].ident


class Calibrator:
    """Runs the reference routine before each timed operation and keeps
    every calibration sample so the run can report its spread."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def measure(self) -> float:
        """Time one run of the reference routine, in seconds.

        Garbage is collected first, so neither the routine nor the
        operation after it pays for a collection the previous
        operation's garbage triggered (the runner freezes set-up's
        objects, which keeps this collection cheap)."""
        gc.collect()
        started = perf_counter()
        reference_routine()
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def warm_up(self, runs: int = 20) -> None:
        for _ in range(runs):
            reference_routine()

    def summary(self) -> dict:
        """Median calibration time (ms), its IQR as a share of the
        median, and whether that spread says the machine was too noisy
        for the run's numbers to be trusted."""
        if len(self.samples) < 4:
            median = statistics.median(self.samples) if self.samples else 0.0
            return {"median_ms": median * 1e3, "spread": 0.0,
                    "samples": len(self.samples), "noisy": False}
        q1, median, q3 = statistics.quantiles(self.samples, n=4)
        spread = (q3 - q1) / median
        return {"median_ms": median * 1e3, "spread": spread,
                "samples": len(self.samples),
                "noisy": spread > NOISY_SPREAD}


def timed(calibrator: Calibrator, fn, *args, **kwargs):
    """Run ``fn`` after a calibration sample; returns ``(result, seconds,
    cal)`` where ``cal`` is the operation's time in calibration units."""
    unit = calibrator.measure()
    started = perf_counter()
    result = fn(*args, **kwargs)
    elapsed = perf_counter() - started
    return result, elapsed, elapsed / unit
