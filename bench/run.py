"""The nctorus benchmark: one closed-loop client per workload.

Usage, from the repository root::

    python3 bench/run.py --workload solve|gate|cli --seed N --seconds S --trace 0|1

The benchmark imports the library from ``src/`` of the tree it sits in.
A run executes whole rounds (one candidate of every stratum, see
``workloads.py``) until ``--seconds`` of operations have passed, checks
every output against its recorded verdict and digest, and prints the
end-to-end metrics.  Set-up (a fresh import of ``nctorus`` plus building
the seeded inputs) is repeated at even intervals through the run and
reported as the median, ``setup_s``.

Host speed.  A shared virtual machine can change speed by 20-40 % over
minutes, for every process alike (measured on a 2-vCPU Xeon guest).  A fixed pure-Python calibration loop
that uses nothing from the library therefore runs between rounds, and
every reported time is scaled to a host on which one calibration batch
takes ``CALIBRATION_NOMINAL_S``: time * nominal / measured batch time.
The process, and the cli subprocesses it starts, stay on one processor so
that the calibration measures the processor the operations ran on.
A change to the library moves these figures; a change in the host's speed
cancels out.  The raw wall-clock figures and the speed factor are printed
above the result line.

With ``--trace 1`` it instead times the kernels on fixed operands, then
runs each operation of a fixed number of rounds once untraced and once
with span wrappers installed (see ``tracer.py``), and prints the
per-layer metrics with the tracing overhead.  The ``cli`` workload runs
``nctorus.cli.main`` in-process when traced, and every traced run ends
with one such in-process build-lc of the block demo (the probe).  Per-operation span totals
are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads as wl
from kernels import run_kernels
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
CALIBRATION_ITERATIONS = 2000
CALIBRATION_NOMINAL_S = 0.02
# Seconds of operations between two calibration batches.
CALIBRATION_EVERY_S = 0.5
# Rounds of the traced run per 10 s of --seconds, sized so that the
# untraced and traced passes together take about --seconds.
TRACE_ROUNDS_PER_10S = {"solve": 1, "gate": 3, "cli": 1}
# cli build-lc operations that return a connection; the other workloads
# count every operation.
USEFUL_STRATA = {"cli": ("demo-block", "build-n4", "build-n5")}
# Every traced run ends with this in-process build-lc, so that every span is
# entered and no span's time reads zero; it adds well under 2 % of the calls.
PROBE_STRATUM = "demo-block"


def import_nctorus(workload):
    """Import the package afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "nctorus" or m.startswith("nctorus.")]:
        del sys.modules[name]
    nc = importlib.import_module("nctorus")
    if workload == "cli":
        importlib.import_module("nctorus.cli")
    return nc


def calibration_batch():
    """Time a fixed loop of Fraction arithmetic, tuple keys and dict
    updates, the library's own mix, without calling the library."""
    start = perf_counter()
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, CALIBRATION_ITERATIONS):
        key = (i % 31, i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * x + Fraction(3, i)
    return perf_counter() - start


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Runner:
    def __init__(self, workload, seed, seconds, workdir, expected):
        self.workload = workload
        self.expected = expected
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def setup(self):
        """Import the package and build the inputs; returns the wall time."""
        start = perf_counter()
        self.nc = import_nctorus(self.workload)
        self.rounds = wl.build_rounds(
            self.nc, self.workload, self.seed, self.expected, self.workdir
        )
        return perf_counter() - start

    def run_op(self, op, in_process=False):
        """Run and check one operation; returns its wall time."""
        start = perf_counter()
        try:
            output = wl.execute(self.nc, self.workload, op, ROOT, in_process)
        except Exception:  # any raise is a failed operation, reported below
            output = None
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - start
        self.attempted += 1
        if output is None or not wl.is_correct(self.workload, op, output):
            self.failed += 1
            print("failed: %s cand %d" % (op.stratum, op.entry["cand"]), file=sys.stderr)
        return elapsed

    def timed(self):
        """Run whole rounds for --seconds of operations, setting up again
        and calibrating the host's speed at even intervals on the way."""
        latencies, setups, calibration = [], [], []
        measured = calibrated_at = 0.0
        r = 0
        while r == 0 or measured < self.seconds:
            if len(setups) < SETUP_REPEATS and measured >= (
                len(setups) * self.seconds / SETUP_REPEATS
            ):
                setups.append(self.setup())
            if r == 0 or measured - calibrated_at >= CALIBRATION_EVERY_S:
                calibration.append(calibration_batch())
                calibrated_at = measured
            start = perf_counter()
            for op in self.rounds[r % len(self.rounds)]:
                latencies.append(self.run_op(op))
            measured += perf_counter() - start
            r += 1
        calibration.append(calibration_batch())
        return latencies, measured, r, setups, calibration

    def traced(self):
        count = max(1, round(TRACE_ROUNDS_PER_10S[self.workload] * self.seconds / 10))
        ops = [op for r in range(count) for op in self.rounds[r % len(self.rounds)]]
        tracer = Tracer(self.nc)
        untraced = traced = 0.0
        # Each operation runs untraced and then traced, so that drift in the
        # host's speed affects both sides of the overhead alike.
        for op in ops:
            untraced += self.run_op(op, in_process=True)
            tracer.install()
            try:
                tracer.begin_op(op.stratum, op.entry["cand"])
                traced += self.run_op(op, in_process=True)
            finally:
                tracer.uninstall()
        self.probe(tracer)
        return tracer, traced / untraced - 1, len(ops)

    def probe(self, tracer):
        importlib.import_module("nctorus.cli")
        entry = self.expected["cli"][PROBE_STRATUM][0]
        config = wl.DEMO_DIR / wl.DEMO_FILES[PROBE_STRATUM]
        tracer.install()
        try:
            tracer.begin_op("probe", entry["cand"])
            stdout, code = wl.run_cli_in_process(self.nc, config)
        finally:
            tracer.uninstall()
        self.attempted += 1
        if wl.digest(wl.cli_output(stdout, code)) != entry["digest"]:
            self.failed += 1
            print("failed: the traced probe", file=sys.stderr)


def end_to_end(runner):
    latencies, measured, rounds, setups, calibration = runner.timed()
    ordered = sorted(latencies)
    if runner.workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p50, p95 = percentile(ordered, 50), percentile(ordered, 95)
    setup_s = statistics.median(setups)
    # > 1 when the host runs faster than the nominal one.
    speed = CALIBRATION_NOMINAL_S / statistics.mean(calibration)
    print(
        "%s: %d ops in %d rounds over %.2f s; %d samples above p95; %d set-ups"
        % (runner.workload, len(ordered), rounds, measured,
           sum(1 for t in ordered if t > p95), len(setups))
    )
    print(
        "raw wall clock: ops_per_s=%s latency_p50_ms=%s latency_p95_ms=%s setup_s=%s"
        % (len(ordered) / measured, p50 * 1e3, p95 * 1e3, setup_s)
    )
    print("host speed factor = %s (%d calibration batches)" % (speed, len(calibration)))
    print(
        "failed_frac = %s (%d/%d)"
        % (runner.failed / runner.attempted, runner.failed, runner.attempted)
    )
    return {
        "ops_per_s": (len(ordered) / measured / speed, "1/s"),
        "latency_p50_ms": (p50 * speed * 1e3, "ms"),
        "latency_p95_ms": (p95 * speed * 1e3, "ms"),
        "setup_s": (setup_s * speed, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(runner):
    runner.setup()
    metrics = {"host.calibration_ms": (calibration_batch() * 1e3, "ms")}
    metrics.update(run_kernels(runner.nc))
    tracer, overhead, ops = runner.traced()
    strata = wl.STRATA[runner.workload]
    metrics.update(tracer.metrics(strata, USEFUL_STRATA.get(runner.workload, strata)))
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    path = OUT_DIR / ("trace-%s-seed%d.json" % (runner.workload, runner.seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"ops": tracer.ops}, handle)
    print("%s: %d traced ops, spans in %s" % (runner.workload, ops, path))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One processor for this process and the cli subprocesses it starts, so
    # that the calibration runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    expected = wl.load_expected()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, workdir, expected)
        # The first import compiles the package's bytecode; it is not timed.
        import_nctorus(args.workload)
        metrics = (per_layer if args.trace else end_to_end)(runner)
    finally:
        shutil.rmtree(workdir)
    for name, (value, unit) in metrics.items():
        print("%s = %s %s" % (name, value, unit))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    src = ROOT / "src" / "nctorus" / "__init__.py"
    if not src.is_file():
        print("error: %s not found; run from a source tree" % src, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
