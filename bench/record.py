"""Record the benchmark's known answers into ``expected.json``.

Usage, from the repository root::

    python3 bench/record.py

For every stratum it keeps the first ``POOL_SIZE`` candidates (dense gate
metrics only when their inverse stays under ``GATE_INVERSE_TERM_CAP``
flat terms) and stores each candidate's verdict and output digest as the
current source tree produces them.  Verdicts of block and diagonal
metrics hold by construction; verdicts of dense gate metrics come from
the independent wedge-based route to d(rho).  Run it only when the
benchmark's inputs change: a solver change must reproduce these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from tracer import flat_terms
import workloads as wl

ROOT = wl.BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# Solve families the generated build-lc configs are drawn from, in turn.
CLI_BUILD_FAMILIES = ("block", "comm", "bracket")
CLI_CHECK_STRATUM = "dense-n4"
CLI_VERIFY_STRATUM = "block-n3"


def cli_source(stratum, slot):
    """(workload, stratum) whose pool a cli candidate is drawn from."""
    if stratum.startswith("build-n"):
        family = CLI_BUILD_FAMILIES[slot % len(CLI_BUILD_FAMILIES)]
        return "solve", "%s-n%s" % (family, stratum[len("build-n") :])
    if stratum == "check":
        return "gate", CLI_CHECK_STRATUM
    if stratum.startswith("verify"):
        return "solve", CLI_VERIFY_STRATUM
    return None, None


def record_solve(nc):
    out = {}
    for stratum in wl.SOLVE_STRATA:
        entries = []
        for cand in range(wl.POOL_SIZE):
            text = wl.solve_output(nc, wl.solve_instance(nc, stratum, cand))
            entries.append({"cand": cand, "digest": wl.digest(text)})
        out[stratum] = entries
        print("solve", stratum, len(entries), flush=True)
    return out


def record_gate(nc):
    out = {}
    for stratum in wl.GATE_STRATA:
        dense = stratum.startswith("dense")
        entries = []
        cand = 0
        while len(entries) < wl.POOL_SIZE:
            calc, upper = wl.gate_instance(nc, stratum, cand)
            metric = nc.metric.HermitianMetric(calc, upper)
            size = sum(flat_terms(x) for row in metric.lower for x in row)
            if not dense or size <= wl.GATE_INVERSE_TERM_CAP:
                oracle = wl.drho_via_generators(nc, metric).is_zero()
                holds, text = wl.gate_output(nc, calc, upper)
                if holds != oracle or (not dense and not holds):
                    raise SystemExit("verdict mismatch at %s/%d" % (stratum, cand))
                entries.append(
                    {
                        "cand": cand,
                        "holds": holds,
                        "inverse_terms": size,
                        "digest": wl.digest(text),
                    }
                )
            cand += 1
        out[stratum] = entries
        print("gate", stratum, len(entries), "tried", cand, flush=True)
    return out


def gamma_entries(nc, inst):
    metric = nc.metric.HermitianMetric(inst.calculus, inst.upper)
    conn = nc.levicivita.build_levi_civita(metric, inst.params)
    n = inst.calculus.n
    return {
        "%d.%d.%d" % (a + 1, i + 1, j + 1): nc.expr.render_element(conn.gamma[a][i][j])
        for a in range(n)
        for i in range(n)
        for j in range(n)
        if not conn.gamma[a][i][j].is_zero()
    }


def record_cli(nc, gate, workdir):
    out = {}
    for stratum in wl.CLI_STRATA:
        slots = 1 if stratum in wl.DEMO_FILES else wl.POOL_SIZE
        entries = []
        for slot in range(slots):
            source_workload, source = cli_source(stratum, slot)
            cand = slot
            if source_workload == "gate":
                cand = gate[source][slot]["cand"]
            entry = {"cand": cand, "source": source}
            if stratum.startswith("verify"):
                entry["gamma"] = gamma_entries(nc, wl.solve_instance(nc, source, cand))
            path = wl.make_inputs(nc, "cli", stratum, entry, workdir)
            stdout, code = wl.run_cli_subprocess(ROOT, path)
            entry["exit"] = code
            entry["status"] = json.loads(stdout)["status"]
            entry["digest"] = wl.digest(wl.cli_output(stdout, code))
            entries.append(entry)
        out[stratum] = entries
        print("cli", stratum, [e["status"] for e in entries], flush=True)
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import nctorus.cli  # noqa: F401  (loads the cli submodule)

    nc = sys.modules["nctorus"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=OUT_DIR))
    try:
        gate = record_gate(nc)
        expected = {
            "solve": record_solve(nc),
            "gate": gate,
            "cli": record_cli(nc, gate, workdir),
        }
    finally:
        shutil.rmtree(workdir)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
