"""The benchmark's per-layer kernels still run against the package.

``bench/kernels.py`` (loaded read-only, with the ``tracer`` and
``workloads`` modules it imports by name) runs only under
``bench/run.py --trace 1``, so a library change that breaks one of its
calls would otherwise show up only there.  One pass with single short
batches checks that every kernel runs and reports a ``per_layer``
metric that ``BENCHMARK.json`` declares, in the declared unit.
"""

import importlib.util
import json
import sys
from pathlib import Path

import nctorus

ROOT = Path(__file__).resolve().parent.parent


def test_kernels_run_and_report_declared_metrics(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache file under bench/
    for name in ("tracer", "workloads", "kernels"):
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    kernels = sys.modules["kernels"]
    monkeypatch.setattr(kernels, "MIN_BATCH_S", 0)
    monkeypatch.setattr(kernels, "REPEATS", 1)
    out = kernels.run_kernels(nctorus)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert out
    for name, (value, unit) in out.items():
        assert units.get(name) == unit, name
        assert value >= 0, name
