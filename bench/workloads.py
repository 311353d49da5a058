"""Seeded inputs, operations and answer checks for the three workloads.

Each workload draws its inputs from a fixed pool of candidate instances.
A candidate is rebuilt on demand from its stratum and index alone, so the
pool needs no stored inputs; ``expected.json`` (written by ``record.py``)
lists the accepted candidates of each stratum together with their known
verdict and the digest of the output this solver produced when the pool
was recorded.  A run's seed picks the order in which every stratum's
candidates are visited; every round runs one candidate of each stratum,
so all seeds run the same mix of sizes and families.

Why each workload:

* ``solve`` - ``build_levi_civita`` in-process on weakly symmetric metrics
  for n = 3..6.  The solver stages and the re-verification do most of the
  work; pivots are monomials, so metric inversion is small.
* ``gate`` - metric construction plus the weak-symmetry verdict on dense
  ``L D L*`` metrics (large inverses, both verdicts) mixed with weakly
  symmetric block metrics.  Inversion, validation and multiplication of
  large elements dominate; no solver stage runs.
* ``cli`` - the ``nctorus`` command line as a subprocess, one invocation
  at a time, on the demo configs and on generated build-lc,
  check-weak-symmetry and verify-given configs.  It is the only workload
  that pays interpreter start-up, import, config parsing and report
  rendering.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
DEMO_DIR = BENCH_DIR / "configs"

WORKLOADS = ("solve", "gate", "cli")

# Candidates kept per stratum.  A run visits every stratum once per round,
# so a 30 s run sees most of each pool.
POOL_SIZE = 16

# Every run executes whole rounds, so each stratum supplies the same number
# of samples.  An odd number of strata puts the median inside the middle
# stratum rather than on the edge between two, where it would read the
# slowest operation of one half and vary from run to run.
SOLVE_STRATA = tuple(
    "%s-n%d" % (family, n)
    for family, sizes in (("block", (3, 4, 5, 6)), ("comm", (3, 4, 5, 6)), ("bracket", (4, 5, 6)))
    for n in sizes
)
GATE_STRATA = tuple(
    "%s-n%d" % (family, n)
    for family, sizes in (("dense", (3, 4, 5, 6)), ("block", (4, 5, 6)))
    for n in sizes
)
# Dense gate metrics whose inverse has more flat terms than this are left
# out of the pool, so that no single draw dominates a run.
GATE_INVERSE_TERM_CAP = 120
CLI_STRATA = (
    "demo-block",
    "demo-u1",
    "build-n4",
    "build-n5",
    "check",
    "verify-pass",
    "verify-fail",
)
STRATA = {"solve": SOLVE_STRATA, "gate": GATE_STRATA, "cli": CLI_STRATA}

DEMO_FILES = {"demo-block": "torus3-block.cfg", "demo-u1": "torus3-block-u1.cfg"}
CLI_TIMEOUT_S = 120


def split_stratum(stratum):
    family, _, n = stratum.rpartition("-n")
    return family, int(n)


# -- element generators --------------------------------------------------------


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_monomial(rng, alg, positions, max_exp, phase_prob=0.4):
    """c * U^k with c a nonzero Gaussian rational and exponents only at
    ``positions`` (0-based), optionally times a q-phase."""
    while True:
        re, im = _rational(rng), _rational(rng)
        if re or im:
            break
    value = alg.scalar(re, im)
    for pos in positions:
        e = rng.randint(-max_exp, max_exp)
        if e:
            value = value * alg.gen(pos + 1, e)
    if not alg.commutative and alg.n >= 2 and rng.random() < phase_prob:
        a = rng.randint(1, alg.n - 1)
        b = rng.randint(a + 1, alg.n)
        value = value * alg.q(a, b, rng.choice((-1, 1)))
    return value


def random_element(rng, alg, terms, max_exp=1):
    """A sum of ``terms`` random monomials over all generators."""
    total = alg.zero()
    for _ in range(terms):
        total = total + random_monomial(rng, alg, range(alg.n), max_exp)
    return total


def random_hermitian(rng, alg):
    """A two-term hermitian element x + x*."""
    x = random_monomial(rng, alg, range(alg.n), 1)
    return x + x.star()


def _constant(rng, alg, signs=(1,)):
    return alg.scalar(Fraction(rng.choice(signs) * rng.randint(1, 3), rng.randint(1, 3)))


def block_upper(rng, alg):
    """Disjoint 2x2 blocks h^pq = h0, h^qp = h0* plus a constant diagonal.

    h0 is a monomial with U-exponents only on p and q (some blocks carry
    a q-phase), so rho lives inside the blocks and no derivative d_r with
    r outside {p, q} touches it: d(rho) = 0 by construction.
    """
    n = alg.n
    z = alg.zero()
    upper = [[z] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    blocks = rng.randint(1, n // 2)
    for k in range(blocks):
        p, q = order[2 * k], order[2 * k + 1]
        h0 = random_monomial(rng, alg, (p, q), 2, phase_prob=0.0)
        if not alg.commutative and rng.random() < 0.5:
            h0 = h0 * alg.q(min(p, q) + 1, max(p, q) + 1, rng.choice((-1, 1)))
        upper[p][q] = h0
        upper[q][p] = h0.star()
    for r in order[2 * blocks :]:
        upper[r][r] = _constant(rng, alg)
    return upper


def diagonal_upper(rng, alg):
    """Nonzero rational constants on the diagonal: rho = 0."""
    n = alg.n
    z = alg.zero()
    upper = [[z] * n for _ in range(n)]
    for r in range(n):
        upper[r][r] = _constant(rng, alg, signs=(-1, 1))
    return upper


def dense_upper(rng, alg):
    """h = L D L* with L unit lower triangular and D rational constants.

    n - 1 strictly lower entries of L are random one- or two-term
    elements; every elimination pivot is then a nonzero constant, and the
    inverse (L*)^-1 D^-1 L^-1 grows with the products of L's entries.
    """
    n = alg.n
    z, one = alg.zero(), alg.one()
    lower_tri = [[one if i == j else z for j in range(n)] for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(slots, n - 1):
        lower_tri[i][j] = random_element(rng, alg, rng.randint(1, 2))
    diag = [_constant(rng, alg) for _ in range(n)]
    upper = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = z
            for k in range(n):
                total = total + lower_tri[i][k] * diag[k] * lower_tri[j][k].star()
            upper[i][j] = total
    return upper


def solver_params(nc, rng, calc):
    """Two random two-term hermitian X entries and one triple parameter."""
    n = calc.n
    alg = calc.algebra
    z = alg.zero()
    x = [[z] * n for _ in range(n)]
    for _ in range(2):
        x[rng.randrange(n)][rng.randrange(n)] = random_hermitian(rng, alg)
    triple = rng.choice(list(combinations(range(1, n + 1), 3)))
    return nc.levicivita.SolverParams(
        tuple(tuple(row) for row in x), {triple: random_hermitian(rng, alg)}
    )


@dataclass
class SolveInstance:
    calculus: object
    upper: list
    params: object


def calculus(nc, family, n, calculi=None):
    """The calculus of a family, built once per ``calculi`` cache:
    constructing one checks the Jacobi identity, which costs O(n^5)."""
    if calculi is None:
        calculi = {}
    key = (family, n)
    if key not in calculi:
        if family == "bracket":
            calculi[key] = nc.forms.Calculus.torus(n, brackets={(3, 1, 2): 1})
        else:
            calculi[key] = nc.forms.Calculus.torus(n, commutative=family == "comm")
    return calculi[key]


def solve_instance(nc, stratum, cand, calculi=None):
    family, n = split_stratum(stratum)
    rng = random.Random("solve/%s/%d" % (stratum, cand))
    calc = calculus(nc, family, n, calculi)
    if family == "bracket":
        upper = diagonal_upper(rng, calc.algebra)
    else:
        upper = block_upper(rng, calc.algebra)
    return SolveInstance(calc, upper, solver_params(nc, rng, calc))


def gate_instance(nc, stratum, cand, calculi=None):
    """(calculus, upper) of a gate candidate."""
    family, n = split_stratum(stratum)
    rng = random.Random("gate/%s/%d" % (stratum, cand))
    calc = calculus(nc, "block", n, calculi)
    make = dense_upper if family == "dense" else block_upper
    return calc, make(rng, calc.algebra)


def drho_via_generators(nc, metric):
    """Independent route to d(rho) through wedge, d and star of one-forms.

    theta_i* (d h^ij) theta_j + (d theta^i)* theta_i - theta_i* d theta^i
    with theta_i = h_ij theta^j; the same identity as the oracle in the
    library's test suite.  Used when recording and checking verdicts.
    """
    KForm = nc.forms.KForm
    calc = metric.calculus
    n = calc.n
    lowered = [
        KForm(calc, 1, {(j,): metric.lower[i][j - 1] for j in range(1, n + 1)})
        for i in range(n)
    ]
    total = calc.zero_form(3)
    for i in range(n):
        for j in range(n):
            dh = KForm.of_element(calc, metric.upper[i][j]).d()
            total = total + lowered[i].star() * dh * lowered[j]
    for i in range(n):
        dtheta = calc.theta(i + 1).d()
        total = total + dtheta.star() * lowered[i]
        total = total - lowered[i].star() * dtheta
    return total


# -- config rendering for the cli workload --------------------------------------


def render_config(nc, calc, upper, command, params=None, gamma=None):
    render = nc.expr.render_element
    n = calc.n
    lines = [
        "[algebra]",
        "n = %d" % n,
        "commutative = %s" % ("true" if calc.algebra.commutative else "false"),
    ]
    brackets = [
        (e, a, b, calc.lie.bracket(e, a, b))
        for e in range(1, n + 1)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if calc.lie.bracket(e, a, b)
    ]
    if brackets:
        lines.append("[lie]")
        lines += ["c.%d.%d.%d = %s" % item for item in brackets]
    lines.append("[metric]")
    for i in range(n):
        for j in range(n):
            if not upper[i][j].is_zero():
                lines.append("h.%d.%d = %s" % (i + 1, j + 1, render(upper[i][j])))
    if params is not None:
        lines.append("[params]")
        for a in range(n):
            for b in range(n):
                if not params.X[a][b].is_zero():
                    lines.append("X.%d.%d = %s" % (a + 1, b + 1, render(params.X[a][b])))
        for key, value in sorted(params.triples.items()):
            lines.append("H.%d.%d.%d = %s" % (key + (render(value),)))
    if gamma is not None:
        lines.append("[connection]")
        lines += ["gamma.%s = %s" % item for item in sorted(gamma.items())]
    lines += ["[run]", "command = %s" % command]
    return "\n".join(lines) + "\n"


def cli_config_text(nc, stratum, entry, calculi=None):
    """Config text of one cli candidate, as recorded in expected.json."""
    if stratum in DEMO_FILES:
        return (DEMO_DIR / DEMO_FILES[stratum]).read_text(encoding="utf-8")
    source = entry["source"]
    cand = entry["cand"]
    if stratum == "check":
        calc, upper = gate_instance(nc, source, cand, calculi)
        return render_config(nc, calc, upper, "check-weak-symmetry")
    inst = solve_instance(nc, source, cand, calculi)
    if stratum.startswith("build"):
        return render_config(nc, inst.calculus, inst.upper, "build-lc", inst.params)
    gamma = dict(entry["gamma"])
    if stratum == "verify-fail":
        gamma["1.1.1"] = "(%s) + 1" % gamma.get("1.1.1", "0")
    return render_config(nc, inst.calculus, inst.upper, "verify-given", gamma=gamma)


# -- operations ----------------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def solve_output(nc, inst):
    """Build the connection and render gamma; returns the rendered text."""
    metric = nc.metric.HermitianMetric(inst.calculus, inst.upper)
    conn = nc.levicivita.build_levi_civita(metric, inst.params)
    render = nc.expr.render_element
    return "\n".join(
        render(entry) for plane in conn.gamma for row in plane for entry in row
    )


def gate_output(nc, calc, upper):
    """Construct the metric and return (verdict, verdict plus rendered d(rho))."""
    metric = nc.metric.HermitianMetric(calc, upper)
    defect = nc.metric.weak_symmetry_defect(metric)
    holds = defect.is_zero()
    render = nc.expr.render_element
    lines = ["holds" if holds else "fails"]
    for key in combinations(range(1, calc.n + 1), 3):
        lines.append("%s=%s" % (",".join(map(str, key)), render(defect(*key))))
    return holds, "\n".join(lines)


def cli_output(stdout, code):
    return stdout + "\nexit=%d\n" % code


def run_cli_subprocess(root, path):
    """One `nctorus --config PATH --format json` invocation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "nctorus", "--config", str(path), "--format", "json"],
        cwd=root,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.stdout.decode("utf-8"), proc.returncode


def run_cli_in_process(nc, path):
    """The same invocation through ``nctorus.cli.main`` in this process."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = nc.cli.main(["--config", str(path), "--format", "json"])
    return buffer.getvalue(), code


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Op:
    """One operation: a pool candidate, its inputs and its known answer."""

    stratum: str
    entry: dict  # the candidate's record in expected.json
    inputs: object  # SolveInstance, (calculus, upper) or a config path


def make_inputs(nc, workload, stratum, entry, workdir, calculi=None):
    if workload == "solve":
        return solve_instance(nc, stratum, entry["cand"], calculi)
    if workload == "gate":
        return gate_instance(nc, stratum, entry["cand"], calculi)
    path = workdir / ("%s-%d.cfg" % (stratum, entry["cand"]))
    path.write_text(cli_config_text(nc, stratum, entry, calculi), encoding="utf-8")
    return path


def build_rounds(nc, workload, seed, expected, workdir):
    """Rounds of operations, each holding one candidate of every stratum.

    The seed fixes the order in which each stratum's pool is visited and
    the order of the strata inside each round.
    """
    rng = random.Random(seed)
    calculi = {}
    columns = []
    for stratum in STRATA[workload]:
        entries = list(expected[workload][stratum])
        rng.shuffle(entries)
        columns.append(
            [
                Op(stratum, e, make_inputs(nc, workload, stratum, e, workdir, calculi))
                for e in entries
            ]
        )
    rounds = []
    for r in range(max(len(column) for column in columns)):
        ops = [column[r % len(column)] for column in columns]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def execute(nc, workload, op, root, in_process=False):
    """Run one operation and return its output, unchecked."""
    if workload == "solve":
        return solve_output(nc, op.inputs)
    if workload == "gate":
        return gate_output(nc, *op.inputs)
    if in_process:
        return run_cli_in_process(nc, op.inputs)
    return run_cli_subprocess(root, op.inputs)


def is_correct(workload, op, output):
    """Compare an operation's output with its known answer and digest."""
    expected = op.entry
    if workload == "solve":
        return digest(output) == expected["digest"]
    if workload == "gate":
        holds, text = output
        return holds == expected["holds"] and digest(text) == expected["digest"]
    stdout, code = output
    # The digest goes first: once it matches, stdout is the recorded JSON.
    return (
        digest(cli_output(stdout, code)) == expected["digest"]
        and code == expected["exit"]
        and json.loads(stdout)["status"] == expected["status"]
    )
