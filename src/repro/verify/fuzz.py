"""Differential fuzzing loop: generate, run the matrix, shrink failures.

Program ``i`` of a campaign with master seed ``S`` is always generated
from the derived seed ``S * 1_000_003 + i``, so any failure is
reproducible from ``(S, i)`` alone::

    python -m repro fuzz --n 500 --seed 1991      # the campaign
    python -m repro fuzz --n 500 --seed 1991 --jobs 4   # same, 4 workers
    python -m repro fuzz --reproduce 1991:37      # re-run program 37

The failure report carries both the original and the shrunk source, plus
the entry arguments, so a failing case can be pasted straight into a
regression test.

Campaigns parallelise cleanly because each program is a pure function of
``(S, i)``: the indices become jobs on a
:class:`repro.service.jobs.JobPool` (the service job layer this module's
PR-2/PR-4 pool machinery was generalized into), results are collected as
they finish, and the final report is sorted by index -- a campaign's
failure list is identical for every job count (only ``on_progress``
interleaving differs).

Campaigns are *resilient* by default: each program runs under an optional
wall-clock ``timeout_s``, and a program that crashes or times out is
retried once (with a short exponential backoff) and then **quarantined**
-- recorded in ``report.quarantined`` while the campaign continues.  The
legacy fail-fast behaviour (a crash aborts the campaign as
:class:`FuzzWorkerError`) is available with ``quarantine=False``.  Long
campaigns can keep a crash-tolerant checkpoint (``checkpoint_path``) and
later resume from it (``resume_path``); a resumed campaign's sorted
result lists are identical to an uninterrupted run's, for any job count.

The checkpoint is an append-only JSONL write-ahead log (v2): a header
line pinning the campaign parameters, then one entry per finished
program, flushed as it completes.  A ``kill -9`` can therefore tear at
most the *final* entry -- the loader drops a torn tail and simply re-runs
that index -- while a torn or mismatched header, or damage anywhere
before the tail, is still rejected as a corrupt/alien checkpoint (CLI
exit 2).  The single-document v1 format written by earlier releases is
accepted on resume unchanged.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

from ..resilience.budget import watchdog
from ..resilience.errors import CheckpointError
from .differential import DEFAULT_MACHINES, DiffResult, run_differential
from .generator import GenProgram, generate_program
from .shrink import shrink_program

_SEED_STRIDE = 1_000_003
#: sleep before the retry of a crashed/timed-out program, doubled per
#: attempt (transient faults -- memory pressure, signal races -- get one
#: breath of air before we give up on the index)
_RETRY_BACKOFF_S = 0.05
#: attempts per program before quarantine: the first run plus one retry
_MAX_ATTEMPTS = 2
#: current checkpoint format: JSONL, header line + per-program entries
_CHECKPOINT_VERSION = 2


class FuzzWorkerError(RuntimeError):
    """A fuzz worker process died on an unexpected exception
    (``quarantine=False`` campaigns only)."""

    def __init__(self, index: int, worker_traceback: str):
        super().__init__(
            f"fuzz worker crashed on program {index}:\n{worker_traceback}")
        self.index = index
        self.worker_traceback = worker_traceback


def derive_seed(master_seed: int, index: int) -> int:
    """The generator seed of program ``index`` in a campaign."""
    return master_seed * _SEED_STRIDE + index


@dataclass
class FuzzFailure:
    """One failing program, before and after minimisation."""

    index: int
    seed: int
    detail: str
    source: str
    args: list
    shrunk_source: str | None = None
    shrunk_args: list | None = None
    shrunk_detail: str | None = None

    def format(self) -> str:
        out = [f"--- failure #{self.index} (seed {self.seed}) ---",
               self.detail,
               f"args: {self.args!r}"]
        if self.shrunk_source is not None:
            out += ["minimised reproducer:", self.shrunk_source,
                    f"args: {self.shrunk_args!r}",
                    self.shrunk_detail or ""]
        else:
            out += ["source:", self.source]
        return "\n".join(out)


@dataclass
class QuarantinedProgram:
    """A program whose *harness* run kept failing (crash or timeout) --
    parked after :data:`_MAX_ATTEMPTS` so the campaign can continue."""

    index: int
    seed: int
    attempts: int
    #: "crash" | "timeout"
    reason: str
    detail: str

    def format(self) -> str:
        return (f"--- quarantined #{self.index} (seed {self.seed}, "
                f"{self.reason} after {self.attempts} attempts) ---\n"
                f"{self.detail}")


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    master_seed: int
    attempted: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    #: programs parked after repeated crashes/timeouts (campaigns with
    #: ``quarantine=True``, the default)
    quarantined: list[QuarantinedProgram] = field(default_factory=list)
    #: per-program scheduling summaries (``collect_metrics=True`` only),
    #: sorted by index; see :func:`_program_metrics` for the keys
    metric_summaries: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURE(S)"
        quarantine = (f", {len(self.quarantined)} quarantined"
                      if self.quarantined else "")
        return (f"fuzz: {self.attempted} programs, seed "
                f"{self.master_seed}: {status}{quarantine}")


def _program_metrics(index: int, program: GenProgram) -> dict:
    """Compile ``program`` once (rs6k, speculative) with metrics on and
    distill the campaign-level scheduling summary.  Deterministic in
    ``(seed, index)`` like everything else here."""
    from ..compiler import compile_c
    from ..machine.configs import CONFIGS
    from ..obs.metrics import MetricsCollector
    from ..sched.candidates import ScheduleLevel
    from ..xform.pipeline import PipelineConfig

    metrics = MetricsCollector()
    config = PipelineConfig(level=ScheduleLevel.SPECULATIVE, metrics=metrics)
    compile_c(program.source, machine=CONFIGS["rs6k"](),
              level=ScheduleLevel.SPECULATIVE, config=config)
    ready_count, ready_total, ready_max = metrics.series.get(
        "sched.ready", (0, 0, 0))
    return {
        "index": index,
        "seed": program.seed,
        "motions_useful": metrics.counters.get("sched.motions.useful", 0),
        "motions_speculative": metrics.counters.get(
            "sched.motions.speculative", 0),
        "motions_duplicated": metrics.counters.get(
            "sched.motions.duplicated", 0),
        "spec_rejected": metrics.counters.get(
            "sched.speculation.rejected_live", 0),
        "spec_renamed": metrics.counters.get("sched.speculation.renamed", 0),
        "packed_keys": metrics.counters.get("sched.soa.packed_keys", 0),
        "ready_mean": round(ready_total / ready_count, 3) if ready_count
                      else 0.0,
        "ready_max": ready_max,
    }


# -- checkpointing ------------------------------------------------------------

#: campaign parameters every checkpoint (v2 header, v1 body) must pin,
#: and the types it must carry them with (``bool`` is checked before
#: ``int`` -- JSON ``true`` is not a valid program count)
_HEADER_SCHEMA: dict[str, type] = {
    "master_seed": int,
    "n": int,
    "machines": list,
    "shrink": bool,
    "collect_metrics": bool,
}

#: a legacy v1 checkpoint is the header fields plus the result lists,
#: all in one JSON document
_V1_SCHEMA: dict[str, type] = {
    **_HEADER_SCHEMA,
    "done": list,
    "failures": list,
    "quarantined": list,
    "metric_summaries": list,
}


def _check_schema(path: str, state: dict, schema: dict, version: int) -> None:
    """Reject a version-tagged document whose body is not a checkpoint
    of that version (hand-edited, truncated-then-repaired, or from a
    different tool)."""
    for key, want in schema.items():
        if key not in state:
            raise CheckpointError(
                f"checkpoint {path} does not match the "
                f"v{version} schema: missing field {key!r}")
        value = state[key]
        bad_bool = want is int and isinstance(value, bool)
        if bad_bool or not isinstance(value, want):
            raise CheckpointError(
                f"checkpoint {path} does not match the "
                f"v{version} schema: field {key!r} should be "
                f"{want.__name__}, got {type(value).__name__}")


class _CheckpointWriter:
    """The v2 checkpoint WAL: header first (atomically, with any
    already-validated resumed entries), then O(1) appends -- one flushed
    JSONL entry per finished program."""

    def __init__(self, path: str, header: dict, entries=()):
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for entry in entries:
                fh.write(json.dumps(entry) + "\n")
        os.replace(tmp, path)
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, entry: dict) -> None:
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _entries_from_state(state: dict) -> list[dict]:
    """Reconstruct the per-program v2 entries of a validated checkpoint
    state (seeds the rewrite a resumed campaign starts from)."""
    failures = {f["index"]: f for f in state["failures"]}
    quarantined = {q["index"]: q for q in state["quarantined"]}
    metrics = {s["index"]: s for s in state["metric_summaries"]}
    return [{"done": index,
             "failure": failures.get(index),
             "quarantined": quarantined.get(index),
             "metrics": metrics.get(index)}
            for index in sorted(state["done"])]


def _load_v1(path: str, text: str) -> dict:
    """A legacy single-document checkpoint: the whole file is one JSON
    object carrying the result lists inline."""
    try:
        state = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    _check_schema(path, state, _V1_SCHEMA, 1)
    return state


def _load_v2(path: str, header: dict, lines: list[str]) -> dict:
    """The JSONL WAL: validate the header, fold the entry lines.  A torn
    *final* line (the crash the format exists for) is dropped -- its
    index just re-runs; damage anywhere else is corruption."""
    _check_schema(path, header, _HEADER_SCHEMA, 2)
    while lines and not lines[-1].strip():
        lines.pop()
    done: set[int] = set()
    failures: list[dict] = []
    quarantined: list[dict] = []
    metric_summaries: list[dict] = []
    for pos, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            if pos == len(lines) - 1:
                break  # torn tail: that program will simply re-run
            raise CheckpointError(
                f"corrupt checkpoint {path}: line {pos + 2}: "
                f"{exc.msg}") from exc
        index = entry.get("done") if isinstance(entry, dict) else None
        if not isinstance(index, int) or isinstance(index, bool):
            raise CheckpointError(
                f"checkpoint {path} does not match the v2 schema: "
                f"line {pos + 2} is not a program entry")
        if index in done:
            continue
        done.add(index)
        if entry.get("failure") is not None:
            failures.append(entry["failure"])
        if entry.get("quarantined") is not None:
            quarantined.append(entry["quarantined"])
        if entry.get("metrics") is not None:
            metric_summaries.append(entry["metrics"])
    return {**{key: header[key] for key in _HEADER_SCHEMA},
            "version": 2, "done": sorted(done), "failures": failures,
            "quarantined": quarantined,
            "metric_summaries": metric_summaries}


def _load_checkpoint(path: str, *, n: int, seed: int,
                     machines: tuple[str, ...], shrink: bool,
                     collect_metrics: bool) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from exc
    first, _, _rest = text.partition("\n")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        # includes the torn-header case: a v2 WAL whose *first* line is
        # damaged pins nothing, so nothing of it can be trusted
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(
            f"corrupt checkpoint {path}: not a JSON object")
    version = header.get("version")
    if version == 1:
        state = _load_v1(path, text)
    elif version == _CHECKPOINT_VERSION:
        state = _load_v2(path, header, _rest.split("\n"))
    else:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version!r}")
    expected = {"master_seed": seed, "n": n, "machines": list(machines),
                "shrink": shrink, "collect_metrics": collect_metrics}
    for key, want in expected.items():
        if state.get(key) != want:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different campaign: "
                f"{key}={state.get(key)!r}, this campaign has {want!r}")
    return state


# -- per-program execution ----------------------------------------------------

def _attempt(master_seed: int, index: int, machines: tuple[str, ...],
             shrink: bool, collect_metrics: bool,
             timeout_s: float | None,
             ) -> tuple[FuzzFailure | None, dict | None]:
    """One harness run of one campaign index, bounded by ``timeout_s``."""
    with watchdog(timeout_s, f"fuzz:program-{index}"):
        return _harness(master_seed, index, machines, shrink,
                        collect_metrics)


def _harness(master_seed: int, index: int, machines: tuple[str, ...],
             shrink: bool, collect_metrics: bool,
             ) -> tuple[FuzzFailure | None, dict | None]:
    """The differential harness proper (deadline applied by the caller)."""
    program = generate_program(derive_seed(master_seed, index))
    outcome = run_differential(program, machines=machines)
    summary = (_program_metrics(index, program)
               if collect_metrics else None)
    if outcome.ok:
        return None, summary
    return (_build_failure(index, program, outcome, machines, shrink),
            summary)


def _fuzz_job(payload) -> tuple[FuzzFailure | None, dict | None]:
    """:class:`~repro.service.jobs.JobPool` handler: one campaign index.

    The job layer supplies the per-job deadline, the retry-with-backoff,
    and the quarantine bookkeeping that used to live here.
    """
    master_seed, index, machines, shrink, collect_metrics = payload
    return _harness(master_seed, index, machines, shrink, collect_metrics)


def fuzz(
    n: int,
    seed: int,
    *,
    machines: tuple[str, ...] = DEFAULT_MACHINES,
    shrink: bool = True,
    on_progress: Callable[[int, int], None] | None = None,
    stop_after: int | None = None,
    jobs: int = 1,
    collect_metrics: bool = False,
    timeout_s: float | None = None,
    quarantine: bool = True,
    checkpoint_path: str | None = None,
    resume_path: str | None = None,
    interrupt_after: int | None = None,
) -> FuzzReport:
    """Run ``n`` generated programs through the differential matrix.

    ``on_progress(done, failures)`` is called after every program;
    ``stop_after`` aborts the campaign early once that many failures have
    been collected (None = run everything).  ``jobs > 1`` distributes the
    programs over a worker pool; because every program derives from
    ``(seed, index)`` alone, the sorted failure list is independent of the
    job count (``stop_after`` may admit a different-but-overlapping subset
    when completion order differs).  ``collect_metrics`` additionally
    compiles each program with a metrics collector and records a
    per-program scheduling summary in ``report.metric_summaries``.

    ``timeout_s`` bounds each program's harness run; ``quarantine``
    (default) parks repeat offenders instead of aborting.
    ``checkpoint_path`` keeps an append-only JSONL WAL of finished
    programs (flushed per entry, so at most the final line can be torn
    by a crash); ``resume_path`` seeds the campaign from such a file --
    torn tail tolerated, that index re-runs -- and only runs the
    remaining indices; the finished report is identical to an
    uninterrupted run's.  ``interrupt_after`` stops the campaign after
    that many programs *this run* (exercises the checkpoint/resume path).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    report = FuzzReport(master_seed=seed)
    done: set[int] = set()
    state: dict | None = None
    if resume_path is not None:
        state = _load_checkpoint(resume_path, n=n, seed=seed,
                                 machines=machines, shrink=shrink,
                                 collect_metrics=collect_metrics)
        done = set(state["done"])
        report.attempted = len(done)
        report.failures = [FuzzFailure(**f) for f in state["failures"]]
        report.quarantined = [QuarantinedProgram(**q)
                              for q in state["quarantined"]]
        report.metric_summaries = list(state["metric_summaries"])
    writer: _CheckpointWriter | None = None
    if checkpoint_path is not None:
        header = {"version": _CHECKPOINT_VERSION, "master_seed": seed,
                  "n": n, "machines": list(machines), "shrink": shrink,
                  "collect_metrics": collect_metrics}
        writer = _CheckpointWriter(
            checkpoint_path, header,
            _entries_from_state(state) if state is not None else ())
    pending = [index for index in range(n) if index not in done]

    completed_this_run = 0

    def complete(index: int, failure, quarantined, error, summary) -> bool:
        """Fold one result into the report; False stops the campaign."""
        nonlocal completed_this_run
        if error is not None:
            raise FuzzWorkerError(index, error)
        done.add(index)
        report.attempted += 1
        completed_this_run += 1
        if failure is not None:
            report.failures.append(failure)
        if quarantined is not None:
            report.quarantined.append(quarantined)
        if summary is not None:
            report.metric_summaries.append(summary)
        if writer is not None:
            writer.append({
                "done": index,
                "failure": asdict(failure) if failure is not None else None,
                "quarantined": (asdict(quarantined)
                                if quarantined is not None else None),
                "metrics": summary})
        if on_progress is not None:
            on_progress(report.attempted, len(report.failures))
        if stop_after is not None and len(report.failures) >= stop_after:
            return False
        if (interrupt_after is not None
                and completed_this_run >= interrupt_after):
            return False
        return True

    def finish() -> FuzzReport:
        report.failures.sort(key=lambda f: f.index)
        report.quarantined.sort(key=lambda q: q.index)
        report.metric_summaries.sort(key=lambda s: s["index"])
        return report

    try:
        if jobs == 1 and not quarantine:
            # legacy fail-fast: exceptions propagate to the caller raw
            for index in pending:
                failure, summary = _attempt(seed, index, machines, shrink,
                                            collect_metrics, timeout_s)
                if not complete(index, failure, None, None, summary):
                    break
            return finish()

        from ..service.jobs import (
            CRASHED, OK, QUARANTINED, JobPool, JobSpec)

        specs = [JobSpec(id=index,
                         payload=(seed, index, machines, shrink,
                                  collect_metrics))
                 for index in pending]
        with JobPool(_fuzz_job, jobs=jobs, queue_size=max(16, 4 * jobs),
                     timeout_s=timeout_s, quarantine=quarantine,
                     max_attempts=_MAX_ATTEMPTS,
                     retry_backoff_s=_RETRY_BACKOFF_S) as pool:
            for result in pool.run(specs):
                index = result.id
                failure = parked = error = summary = None
                if result.status == OK:
                    failure, summary = result.value
                elif result.status == QUARANTINED:
                    parked = QuarantinedProgram(
                        index=index, seed=derive_seed(seed, index),
                        attempts=result.attempts, reason=result.reason,
                        detail=result.detail)
                elif result.status == CRASHED:
                    error = result.detail
                if not complete(index, failure, parked, error, summary):
                    break
            # leaving the with-block terminates still-running workers
        return finish()
    finally:
        if writer is not None:
            writer.close()


def _build_failure(
    index: int,
    program: GenProgram,
    outcome: DiffResult,
    machines: tuple[str, ...],
    shrink: bool,
) -> FuzzFailure:
    failure = FuzzFailure(
        index=index,
        seed=program.seed,
        detail=outcome.format_failures(),
        source=program.source,
        args=list(program.entry_args),
    )
    if shrink:
        def still_fails(candidate: GenProgram) -> bool:
            return not run_differential(candidate, machines=machines).ok

        small = shrink_program(program, still_fails)
        failure.shrunk_source = small.source
        failure.shrunk_args = list(small.entry_args)
        failure.shrunk_detail = run_differential(
            small, machines=machines).format_failures()
    return failure


def reproduce(master_seed: int, index: int,
              *, machines: tuple[str, ...] = DEFAULT_MACHINES,
              shrink: bool = True,
              timeout_s: float | None = None,
              ) -> FuzzFailure | GenProgram:
    """Re-run one campaign program, bounded by the same per-program
    ``timeout_s`` a campaign would apply.  Returns the
    :class:`FuzzFailure` (shrunk if requested) when it still fails, or
    the passing :class:`GenProgram` otherwise."""
    with watchdog(timeout_s, f"fuzz:program-{index}"):
        program = generate_program(derive_seed(master_seed, index))
        outcome = run_differential(program, machines=machines)
        if outcome.ok:
            return program
        return _build_failure(index, program, outcome, machines, shrink)


def degradation_rung(program: GenProgram, *, machine_name: str = "rs6k",
                     timeout_s: float | None = None) -> str:
    """Compile ``program`` once through the *resilient* pipeline and
    report the degradation-ladder rung it lands on (worst across the
    unit's functions) -- ``repro fuzz --reproduce`` prints this."""
    from ..compiler import compile_c
    from ..machine.configs import CONFIGS
    from ..resilience.ladder import ResilienceConfig, worst_rung
    from ..sched.candidates import ScheduleLevel
    from ..xform.pipeline import PipelineConfig

    config = PipelineConfig(
        verify=True,
        resilience=ResilienceConfig(program_budget_s=timeout_s))
    unit = compile_c(program.source, machine=CONFIGS[machine_name](),
                     level=ScheduleLevel.SPECULATIVE, config=config)
    return worst_rung(u.report.final_rung for u in unit)
