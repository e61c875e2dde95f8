"""Oracle arms: run the compiler on the preserved seed implementations.

Each layer keeps its seed code in a ``reference`` module (the scan block
pass and seed trackers in :mod:`repro.sched.reference`, the per-pair DDG
builder and per-query dependence state in :mod:`repro.pdg.reference`, the
dict/frozenset analyses in :mod:`repro.cfg.reference`,
:mod:`repro.dataflow.reference` and :mod:`repro.regalloc.reference`).
The compiler never calls them.  :func:`oracle_arm` swaps them in behind
the production names for the dynamic extent of a ``with`` block::

    with oracle_arm("scan"):
        scan = compile_c(source)       # seed scan-driven block pass

The equivalence tests, the perf suites and ``repro scorecard`` compare
the two arms byte for byte.  :data:`ARMS` is the whole patch table; every
entry names a production module attribute and the oracle that replaces
it, both as import paths, so importing this module loads no oracle.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

#: the Section 5.1 block pass, scan-driven, on the seed per-query state
_SCAN = (
    ("repro.sched.global_sched", "_schedule_block",
     "repro.sched.reference:schedule_block_scan"),
    ("repro.sched.global_sched", "DenseDependenceState",
     "repro.pdg.reference:DependenceStateReference"),
)

#: the seed live-on-exit tracker (per-motion graph traversals)
_TRACKER = (
    ("repro.sched.driver", "LiveOnExitTracker",
     "repro.sched.reference:LiveOnExitTrackerReference"),
)

#: per-pair interblock DDG scans and per-source heap reduction;
#: ``pdg.pdg`` binds the builder at import time, so patch it there too
_DDG = (
    ("repro.pdg.data_deps", "build_region_ddg",
     "repro.pdg.reference:build_region_ddg_reference"),
    ("repro.pdg.data_deps", "transitive_reduce",
     "repro.pdg.reference:transitive_reduce_reference"),
    ("repro.pdg.pdg", "build_region_ddg",
     "repro.pdg.reference:build_region_ddg_reference"),
)

#: dict-based dominators, loop nest and reducibility, at every call site
_CFG = (
    *((module, "dominator_tree",
       "repro.cfg.reference:DominatorTreeReference")
      for module in ("repro.dataflow.cache", "repro.sched.regions",
                     "repro.xform.strength", "repro.xform.ctr",
                     "repro.pdg.pdg")),
    *((module, "postdominator_tree",
       "repro.cfg.reference:postdominator_tree_reference")
      for module in ("repro.pdg.pdg", "repro.pdg.control_deps")),
    *((module, "LoopNest", "repro.cfg.reference:LoopNestReference")
      for module in ("repro.dataflow.cache", "repro.sched.regions",
                     "repro.xform.strength", "repro.xform.ctr")),
    ("repro.sched.regions", "is_reducible",
     "repro.cfg.reference:is_reducible_reference"),
)

#: frozenset liveness, set-adjacency interference and the seed
#: basic-block scheduler
_DATAFLOW = (
    *((module, "compute_liveness",
       "repro.dataflow.reference:compute_liveness_reference")
      for module in ("repro.dataflow.cache", "repro.xform.rename",
                     "repro.verify.verifier")),
    ("repro.regalloc.allocator", "build_interference",
     "repro.regalloc.reference:build_interference_reference"),
    ("repro.sched.bb_sched", "schedule_block",
     "repro.sched.reference:schedule_block_reference"),
)

#: eager message formatting in the IR verifier, at every call site
_VERIFY = tuple(
    (module, "verify_function",
     "repro.pdg.reference:verify_function_reference")
    for module in ("repro.xform.pipeline", "repro.ir.verify",
                   "repro.verify.verifier", "repro.lang.lower"))

#: analyses recomputed at every use site instead of cached per function
_UNCACHED = tuple(
    (module, "AnalysisCache", "repro.dataflow.reference:UncachedAnalyses")
    for module in ("repro.xform.pipeline", "repro.sched.driver"))

#: arm name -> (module, attribute, "oracle_module:name") patches
ARMS: dict[str, tuple[tuple[str, str, str], ...]] = {
    # the scheduler engine alone: ``repro scorecard``'s engines-agree gate
    "scan": _SCAN,
    # the full seed scheduler inner loop (microbench baseline)
    "scheduler": _SCAN + _TRACKER,
    # the seed region-DDG construction
    "ddg": _DDG,
    # the dense analysis core switched off
    "analyses": _CFG + _DATAFLOW,
    # every seed hot path at once (the pipeline perf suite's baseline)
    "seed": _SCAN + _TRACKER + _DDG + _CFG + _DATAFLOW + _VERIFY + _UNCACHED,
}


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


@contextmanager
def oracle_arm(name: str):
    """Run the compiler with arm ``name`` of :data:`ARMS` patched in.

    Every patched attribute is restored on exit, even if the block
    raises.  Patches are process-global: forked workers inherit them,
    spawned ones do not.
    """
    targets = [(importlib.import_module(module), attr, _resolve(oracle))
               for module, attr, oracle in ARMS[name]]
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
