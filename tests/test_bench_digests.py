"""Byte identity of normal forms against the benchmark's recorded digests.

``bench/expected.json`` holds, per stratum of the benchmark's workloads,
the SHA-256 of the rendered output each pool candidate produced when the
pool was recorded.  These tests rebuild every pool candidate of every
``solve`` and ``gate`` stratum (288 in all) and every ``cli`` config (both
demos and the 80 generated ones, run through ``nctorus.cli.main`` in this
process) with the benchmark's own generators (``bench/workloads.py``,
loaded read-only) and check the digest, so a change to any rendered normal
form or report fails here and not only in a benchmark run.  The whole pool
is replayed because the element operations take shortcuts on zero
operands, which depend on each candidate's sparsity pattern.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nctorus
import nctorus.cli  # noqa: F401  (run_cli_in_process calls nctorus.cli.main)

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
wl = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no cache file under bench/
try:
    _spec.loader.exec_module(wl)
finally:
    sys.dont_write_bytecode = _write_bytecode

EXPECTED = wl.load_expected()


@pytest.mark.parametrize("stratum", wl.SOLVE_STRATA)
def test_solve_digest(stratum):
    calculi = {}
    mismatched = []
    assert len(EXPECTED["solve"][stratum]) == wl.POOL_SIZE
    for entry in EXPECTED["solve"][stratum]:
        inst = wl.solve_instance(nctorus, stratum, entry["cand"], calculi)
        if wl.digest(wl.solve_output(nctorus, inst)) != entry["digest"]:
            mismatched.append(entry["cand"])
    assert mismatched == []


@pytest.mark.parametrize("stratum", wl.GATE_STRATA)
def test_gate_digest(stratum):
    calculi = {}
    mismatched = []
    assert len(EXPECTED["gate"][stratum]) == wl.POOL_SIZE
    for entry in EXPECTED["gate"][stratum]:
        calc, upper = wl.gate_instance(nctorus, stratum, entry["cand"], calculi)
        holds, text = wl.gate_output(nctorus, calc, upper)
        if (holds, wl.digest(text)) != (entry["holds"], entry["digest"]):
            mismatched.append(entry["cand"])
    assert mismatched == []


@pytest.mark.parametrize("stratum", wl.CLI_STRATA)
def test_cli_digest(stratum, tmp_path):
    calculi = {}
    mismatched = []
    entries = EXPECTED["cli"][stratum]
    assert len(entries) == (1 if stratum in wl.DEMO_FILES else wl.POOL_SIZE)
    for entry in entries:
        path = tmp_path / ("%s-%d.cfg" % (stratum, entry["cand"]))
        path.write_text(wl.cli_config_text(nctorus, stratum, entry, calculi), encoding="utf-8")
        stdout, code = wl.run_cli_in_process(nctorus, path)
        if (code, wl.digest(wl.cli_output(stdout, code))) != (entry["exit"], entry["digest"]):
            mismatched.append(entry["cand"])
    assert mismatched == []
