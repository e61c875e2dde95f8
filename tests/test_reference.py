"""The oracle arms (:mod:`repro.reference`) and the boundary they keep:
the compiler itself never loads an oracle."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.reference import ARMS, oracle_arm

REPO_ROOT = Path(__file__).resolve().parents[1]


def _current(patches):
    return [getattr(importlib.import_module(module), attr)
            for module, attr, _ in patches]


@pytest.mark.parametrize("name", sorted(ARMS))
def test_oracle_arm_patches_and_restores_every_attribute(name):
    patches = ARMS[name]
    before = _current(patches)
    with oracle_arm(name):
        during = _current(patches)
        assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(_current(patches), before))


def test_oracle_arm_restores_when_the_block_raises():
    patches = ARMS["seed"]
    before = _current(patches)
    with pytest.raises(RuntimeError, match="boom"):
        with oracle_arm("seed"):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(patches), before))


#: run in a fresh interpreter: compile the paper's example and report
#: which oracle modules the compile path imported
_BOUNDARY_PROBE = """
import sys
from pathlib import Path
from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.sched import ScheduleLevel

result = compile_c(Path("examples/minmax.c").read_text(),
                   machine=CONFIGS["rs6k"](),
                   level=ScheduleLevel.SPECULATIVE)
text = "\\n\\n".join(unit.assembly() for unit in result) + "\\n"
assert text == Path("tests/golden/minmax.s").read_text(), "golden differs"
print(sorted(m for m in sys.modules
             if m.startswith("repro.") and m.split(".")[-1] == "reference"))
"""


def test_compile_path_loads_no_oracle_and_ignores_old_engine_switch():
    """No environment variable selects a scheduler engine any more: with
    the retired ``REPRO_SCHED_ENGINE=scan`` set, a fresh compile still
    matches the golden assembly and imports no ``reference`` module."""
    env = dict(os.environ)
    env["REPRO_SCHED_ENGINE"] = "scan"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _BOUNDARY_PROBE],
                          cwd=REPO_ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
