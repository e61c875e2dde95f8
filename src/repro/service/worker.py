"""The compile handler :class:`~repro.service.jobs.JobPool` workers run.

One module-level function (:func:`compile_request`) so the pool can
pickle it by reference; it turns a validated request payload into an
:class:`~repro.service.cache.Artifact` dict.  Front-end errors
(:data:`~repro.lang.FRONT_END_ERRORS`: lexing, parsing, lowering) are
the pool's *typed errors* -- reported once, never retried, never
quarantined -- while anything else (a genuine compiler bug, a hang) goes
through the retry-then-quarantine ladder.
"""

from __future__ import annotations

import dataclasses
import json
import time

from ..compiler import compile_c
from ..machine.configs import CONFIGS
from ..obs.metrics import MetricsCollector
from ..obs.tracer import CollectingTracer
from ..resilience.ladder import ResilienceConfig, start_rung, worst_rung
from ..sched.candidates import ScheduleLevel
from ..xform.pipeline import PipelineConfig

#: trace-event fields carrying wall-clock time -- stripped so an
#: artifact (and therefore a cache hit) is byte-stable across recompiles
_TIMER_KEYS = ("elapsed_ms",)

_LEVELS = {level.value: level for level in ScheduleLevel}


def build_config(level_name: str, overrides: dict | None,
                 resilient: bool) -> PipelineConfig:
    """The PipelineConfig a request describes (overrides are scalar
    PipelineConfig fields, already validated by the daemon)."""
    config = PipelineConfig(level=_LEVELS[level_name])
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if resilient:
        config = dataclasses.replace(config,
                                     resilience=ResilienceConfig())
    return config


def _trace_lines(events) -> list[str]:
    lines = []
    for event in events:
        doc = event.to_dict()
        for key in _TIMER_KEYS:
            doc.pop(key, None)
        lines.append(json.dumps(doc, separators=(",", ":")))
    return lines


def compile_request(payload: dict) -> dict:
    """Compile one request; returns an Artifact JSON doc.

    Deterministic in the payload: assembly, trace and counters carry no
    wall-clock state, so two compiles of one payload are byte-identical
    -- the invariant both the cache and the jobs-1-vs-N determinism
    guarantee rest on.
    """
    hang_s = payload.get("chaos_hang_s")
    if hang_s:
        # chaos hook (daemon --chaos only): model a wedged compile; the
        # job watchdog interrupts the sleep and quarantines the request
        time.sleep(hang_s)
    tracer = CollectingTracer()
    metrics = MetricsCollector()
    config = build_config(payload["level"], payload.get("config"),
                          payload.get("resilient", False))
    config = dataclasses.replace(config, trace=tracer, metrics=metrics)
    result = compile_c(payload["source"],
                       machine=CONFIGS[payload["machine"]](),
                       level=config.level, config=config)
    rungs = [getattr(unit.report, "final_rung", start_rung(config).value)
             for unit in result]
    return {
        "assembly": {unit.name: unit.assembly() for unit in result},
        "trace": _trace_lines(tracer.events),
        "counters": {name: count
                     for name, count in sorted(metrics.counters.items())},
        "rung": worst_rung(rungs),
    }
