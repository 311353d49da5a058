"""The benchmark's tracer spans functions the package still has.

``bench/tracer.py`` (loaded read-only) wraps each ``TARGETS`` entry by
looking it up in its owner's ``__dict__``; a target that a refactor
renamed or moved would silently drop out of the traced counts.  This
test fails instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nctorus
import nctorus.cli  # noqa: F401  (loads every module a target names)

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_DIR / "tracer.py")
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no cache file under bench/
try:
    _spec.loader.exec_module(tracer)
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("name, path, attr", tracer.TARGETS, ids=tracer.SPAN_NAMES)
def test_target_resolves(name, path, attr):
    owner = tracer._resolve(nctorus, path)
    assert owner is not None, path
    assert callable(owner.__dict__[attr])


def test_stages_are_targets():
    assert set(tracer.STAGES) <= set(tracer.SPAN_NAMES)
    assert {tracer.BUILD, tracer.VERIFY, tracer.MUL} <= set(tracer.SPAN_NAMES)
