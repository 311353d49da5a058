"""Tests of the benchmark itself: generators, stored answers, runs, tracing.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import nctorus  # noqa: E402
import nctorus.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads as wl  # noqa: E402

EXPECTED = wl.load_expected()


def describe(workload, op):
    """A canonical text form of an operation's inputs."""
    if workload == "cli":
        return op.inputs.read_text(encoding="utf-8")
    if workload == "solve":
        calc, upper, params = op.inputs.calculus, op.inputs.upper, op.inputs.params
        extra = [params.X, sorted(params.triples.items())]
    else:
        (calc, upper), extra = op.inputs, []
    return repr((calc, upper, extra))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    def inputs(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        rounds = wl.build_rounds(nctorus, workload, seed, EXPECTED, workdir)
        return [describe(workload, op) for ops in rounds for op in ops]

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")
    assert len(first) == len(wl.STRATA[workload]) * wl.POOL_SIZE


def test_pool_covers_every_stratum():
    for workload, strata in wl.STRATA.items():
        assert sorted(EXPECTED[workload]) == sorted(strata)
    holds = [e["holds"] for entries in EXPECTED["gate"].values() for e in entries]
    assert any(holds) and not all(holds)
    dense_sizes = [e["inverse_terms"] for s in wl.GATE_STRATA if s.startswith("dense")
                   for e in EXPECTED["gate"][s]]
    assert max(dense_sizes) <= wl.GATE_INVERSE_TERM_CAP


@pytest.mark.parametrize("stratum", wl.GATE_STRATA)
def test_stored_gate_verdicts_match_wedge_oracle(stratum):
    calculi = {}
    for entry in EXPECTED["gate"][stratum][:4]:
        calc, upper = wl.gate_instance(nctorus, stratum, entry["cand"], calculi)
        metric = nctorus.HermitianMetric(calc, upper)
        assert wl.drho_via_generators(nctorus, metric).is_zero() == entry["holds"]


@pytest.mark.parametrize("stratum", wl.SOLVE_STRATA)
def test_solve_metrics_are_weakly_symmetric_by_oracle(stratum):
    calculi = {}
    for entry in EXPECTED["solve"][stratum][:2]:
        inst = wl.solve_instance(nctorus, stratum, entry["cand"], calculi)
        metric = nctorus.HermitianMetric(inst.calculus, inst.upper)
        assert wl.drho_via_generators(nctorus, metric).is_zero()


def test_oracle_detects_a_defect():
    calc = nctorus.Calculus.torus(3)
    alg = calc.algebra
    z, one, u1 = alg.zero(), alg.one(), alg.gen(1)
    metric = nctorus.HermitianMetric(calc, [[one, z, z], [z, z, u1], [z, u1.star(), z]])
    assert not wl.drho_via_generators(nctorus, metric).is_zero()
    assert not nctorus.weak_symmetry_defect(metric).is_zero()


def test_solver_params_are_hermitian():
    import random

    calc = nctorus.Calculus.torus(4)
    params = wl.solver_params(nctorus, random.Random(0), calc)
    assert all(x.is_hermitian() for row in params.X for x in row)
    assert all(v.is_hermitian() for v in params.triples.values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_round_of_each_workload_passes(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.STRATA[workload])
    assert sorted(result["metrics"]) == sorted(
        ["ops_per_s", "latency_p50_ms", "latency_p95_ms", "setup_s", "peak_rss_mb"]
    )


def traced_metrics(workload, tmp_path, times):
    runner = run.Runner(workload, 5, 1, tmp_path, EXPECTED)
    runner.nc = nctorus
    runner.rounds = wl.build_rounds(nctorus, workload, 5, EXPECTED, tmp_path)
    strata = wl.STRATA[workload]
    out = []
    for _ in range(times):
        tracer, _, _ = runner.traced()
        out.append(tracer.metrics(strata, run.USEFUL_STRATA.get(workload, strata)))
    assert runner.failed == 0
    return out


USEFUL_CALL_FRAC = {"solve": 7 / 9, "gate": 1.0, "cli": 7 / 17}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first, second = traced_metrics(workload, tmp_path, 2)
    counts = [k for k, (_, unit) in first.items() if unit == "count"]
    assert "algebra.mul.term_pairs" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["levicivita.useful_call_frac"][0] == pytest.approx(USEFUL_CALL_FRAC[workload])
    # The probe enters every span, whichever workload ran.
    assert all(first[k][0] > 0 for k in first if k.endswith(".calls"))
    assert (first["levicivita.verify_share"][0] == 0) == (workload == "gate")


def test_tracer_restores_the_library(tmp_path):
    before = (nctorus.algebra.AlgebraElement.__mul__, nctorus.cli.compute_F,
              nctorus.levicivita.torsion)
    traced_metrics("gate", tmp_path, 1)
    after = (nctorus.algebra.AlgebraElement.__mul__, nctorus.cli.compute_F,
             nctorus.levicivita.torsion)
    assert before == after


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
