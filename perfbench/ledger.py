"""Span tracing around the calls into each layer, from outside the program.

The program under test is not changed.  :class:`Ledger` wraps the public
functions each layer exports (``repro.lang.parser.parse_c``,
``AnalysisCache.liveness``, ...) for the length of one traced pass and
records a span per call made inside a timed operation: name, start, end,
parent span and operation id.  Spans are kept in memory; the caller
writes them out when the run ends.

A module-level function is rebound wherever the program holds a
reference to it (``from .x import f`` copies the binding into the
importing module), so every call site is seen.  A method is replaced on
its class.  :meth:`Ledger.uninstall` restores every binding, which keeps
untraced passes free of any wrapper cost.

Self time is a span's duration minus the time its child spans cover.
Whatever part of an operation no top-level span covers is reported as
"unattributed", so per-layer self times plus the unattributed share add
up to the operation's time.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

#: span record fields, in order
SPAN_FIELDS = ("op", "name", "start", "end", "parent", "tag")


class Probe:
    """One wrapped call site: ``target`` is ``"module:attr"`` or
    ``"module:Class.attr"``; ``count(ledger, result, args, kwargs,
    error)`` (optional) records work counters after the call returns or
    raises (``result`` is None when it raised)."""

    def __init__(self, name: str, target: str, count=None, tag=None):
        self.name = name
        self.target = target
        self.count = count
        #: optional ``tag(args, kwargs)`` stored on the span record
        self.tag = tag


class Ledger:
    """In-memory span store plus per-layer self-time accounting."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        #: every span: [op, name, start, end, parent_index, tag]
        self.spans: list[list] = []
        #: work counters, recorded only inside operations
        self.counts: Counter = Counter()
        #: counters the program's own MetricsCollector reported
        self.program_counters: Counter = Counter()
        #: every source string handed to the parser (tokens are counted
        #: after the pass, outside the timed operations)
        self.sources: list[str] = []
        #: per operation: duration (s) and calibration sample (s)
        self.op_seconds: dict[int, float] = {}
        self.op_units: dict[int, float] = {}
        self.op: int | None = None
        self._stack: list[list] = []   # open frames: [span_index, child_s]
        self._op_self: dict[str, float] = defaultdict(float)
        self._op_top = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for probe in self.probes:
            module_name, _, path = probe.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original,
                             self._wrap(probe, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(probe, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, probe: Probe, fn):
        ledger = self
        name = probe.name
        count = probe.count
        tag = probe.tag

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if ledger.op is None:
                return fn(*args, **kwargs)
            stack = ledger._stack
            spans = ledger.spans
            parent = stack[-1] if stack else None
            index = len(spans)
            record = [ledger.op, name, 0.0, 0.0,
                      parent[0] if parent else None,
                      tag(args, kwargs) if tag else None]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                record[2] = start
                record[3] = end
                ledger._op_self[name] += duration - frame[1]
                if parent is None:
                    ledger._op_top += duration
                else:
                    parent[1] += duration
                if count is not None:
                    count(ledger, result, args, kwargs, error)
            return result

        return wrapper

    # -- operations ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_self.clear()
        self._op_top = 0.0

    def end_op(self, seconds: float, unit: float, into: "PassLedger") -> None:
        """Close the current operation (``seconds`` long, calibration
        sample ``unit``) and fold its self times, in cal, into ``into``."""
        self.op_seconds[self.op] = seconds
        self.op_units[self.op] = unit
        self.op = None
        for name, self_s in self._op_self.items():
            into.self_cal[name] += self_s / unit
        unattributed = max(seconds - self._op_top, 0.0)
        into.unattributed_cal += unattributed / unit
        into.unattributed_shares.append(unattributed / seconds
                                        if seconds else 0.0)
        into.op_cal += seconds / unit


class PassLedger:
    """Per-layer totals of one traced pass, in cal."""

    def __init__(self) -> None:
        self.self_cal: dict[str, float] = defaultdict(float)
        self.unattributed_cal = 0.0
        #: per operation: the share of its time in no layer span
        self.unattributed_shares: list[float] = []
        self.op_cal = 0.0

    def layer_self_cal(self, layer: str) -> float:
        prefix = layer + ":"
        return sum(v for k, v in self.self_cal.items() if k.startswith(prefix))
