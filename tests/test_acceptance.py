"""Acceptance suite: ten end-to-end criteria, each printed as a pass/fail
line with its runtime against the stated budget (run with ``pytest -s`` to
see the lines).  All comparisons are exact symbolic equality; there are no
numeric tolerances anywhere.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from nctorus import (
    Calculus,
    Connection,
    FTensor,
    GaussianRational,
    HermitianMetric,
    NotWeaklySymmetric,
    SolverParams,
    assemble_U,
    build_levi_civita,
    compute_F,
    parse_element,
    render_element,
    solve_R,
    verify_levi_civita,
    weak_symmetry_defect,
)
from nctorus.cli import emit_report, load_config, run

from conftest import (
    block_metric,
    congruence_metric,
    drho_via_generators,
    random_block_metric,
    random_congruence_steps,
    random_diagonal_metric,
    random_element,
    random_form,
    random_hermitian,
    src_env,
)

REPO = Path(__file__).resolve().parent.parent
BLOCK_CFG = REPO / "demos" / "torus3-block.cfg"
BLOCK_U1_CFG = REPO / "demos" / "torus3-block-u1.cfg"


@contextmanager
def criterion(num, desc, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %2d  %-44s FAIL" % (num, desc))
        raise
    elapsed = time.perf_counter() - start
    line = "criterion %2d  %-44s %%s (%.3fs, budget %gs)" % (num, desc, elapsed, budget)
    if elapsed >= budget:
        print(line % "FAIL")
        pytest.fail("criterion %d exceeded its time budget" % num)
    print(line % "PASS")


def zeros_matrix(alg, n=3):
    z = alg.zero()
    return [[z for _ in range(n)] for _ in range(n)]


def params_x11(calc, x11):
    x = zeros_matrix(calc.algebra)
    x[0][0] = x11
    return SolverParams(tuple(tuple(row) for row in x), {})


# -- criterion 1: exact reproduction of the rank-3 block example ------------------


def test_criterion_01_block_connection():
    with criterion(1, "block metric h0=U2: exact connection", 1.0):
        calc = Calculus.torus(3)
        alg = calc.algebra
        metric = block_metric(calc, alg.gen(2))
        x11 = alg.gen(1) + alg.gen(1, -1) + alg.scalar(Fraction(3, 2))
        conn = build_levi_civita(metric, params_x11(calc, x11))
        assert conn.gamma[0][0][0] == alg.i() * x11
        assert conn.gamma[1][1][1] == alg.i()
        for a in range(3):
            for i in range(3):
                for j in range(3):
                    if (a, i, j) in ((0, 0, 0), (1, 1, 1)):
                        continue
                    assert conn.gamma[a][i][j].is_zero(), (a, i, j)


# -- criterion 2: R and U matrices entry by entry ----------------------------------


def test_criterion_02_r_and_u_matrices():
    with criterion(2, "block metric h0=U2*U3: R and U matrices", 1.0):
        calc = Calculus.torus(3)
        alg = calc.algebra
        h0 = alg.gen(2) * alg.gen(3)
        metric = block_metric(calc, h0)
        rset = solve_R(compute_F(metric), SolverParams.zeros(calc))
        u = assemble_U(metric, rset)

        hinv = h0.invert()
        hs = h0.star()
        hinvs = hinv.star()
        half_i = alg.scalar(0, Fraction(1, 2))
        z = alg.zero()

        def neg(x):
            return -(half_i * x)

        def pos(x):
            return half_i * x

        r_expected = (
            zeros_matrix(alg),
            [
                [z, z, neg(hinv.derive(1))],
                [z, z, neg(hinvs.derive(2))],
                [pos(hinvs.derive(1)), pos(hinv.derive(2)), z],
            ],
            [
                [z, neg(hinv.derive(1)), z],
                [pos(hinvs.derive(1)), z, pos(hinvs.derive(3))],
                [z, neg(hinv.derive(3)), z],
            ],
        )
        u_expected = (
            zeros_matrix(alg),
            [
                [z, neg(hinv.derive(1)) * hs, z],
                [pos(h0 * hinvs.derive(1)), z, pos(h0 * hinv.derive(2) * h0)],
                [z, neg(hs * hinvs.derive(2) * hs), z],
            ],
            [
                [z, z, neg(hinv.derive(1)) * h0],
                [z, z, neg(h0 * hinv.derive(3) * h0)],
                [pos(hs * hinvs.derive(1)), pos(hs * hinvs.derive(3) * hs), z],
            ],
        )
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert rset.matrices[a][b][c] == r_expected[a][b][c], (
                        "R",
                        a + 1,
                        b + 1,
                        c + 1,
                    )
                    assert u[a][b][c] == u_expected[a][b][c], ("U", a + 1, b + 1, c + 1)
        # the derivative-free entries really vanish and the others do not
        assert rset.entry(2, 1, 3).is_zero()
        assert not rset.entry(2, 2, 3).is_zero()
        assert not u[1][1][2].is_zero()


# -- criterion 3: negative gate ---------------------------------------------------------


def test_criterion_03_negative_gate():
    with criterion(3, "h0=U1 fails weak symmetry, CLI exits 2", 1.0):
        calc = Calculus.torus(3)
        metric = block_metric(calc, calc.algebra.gen(1))
        with pytest.raises(NotWeaklySymmetric):
            build_levi_civita(metric)
        proc = subprocess.run(
            [sys.executable, "-m", "nctorus", "--config", str(BLOCK_U1_CFG)],
            capture_output=True,
            cwd=REPO,
            env=src_env(),
        )
        assert proc.returncode == 2


# -- criterion 4: non-uniqueness ----------------------------------------------------------


def test_criterion_04_non_uniqueness():
    with criterion(4, "X11=0 vs X11=1: distinct, both verify", 1.0):
        calc = Calculus.torus(3)
        alg = calc.algebra
        metric = block_metric(calc, alg.gen(2))
        conn0 = build_levi_civita(metric, params_x11(calc, alg.zero()))
        conn1 = build_levi_civita(metric, params_x11(calc, alg.one()))
        assert conn0 != conn1
        assert conn0.gamma[0][0][0] != conn1.gamma[0][0][0]
        assert verify_levi_civita(conn0, metric).passed
        assert verify_levi_civita(conn1, metric).passed


# -- criterion 5: algebraic law suites ------------------------------------------------------


def test_criterion_05_algebraic_laws():
    with criterion(5, "200 random algebra/form law checks on T2, T3", 30.0):
        rng = random.Random(5150)
        for count in range(200):
            calc = Calculus.torus(2 if count % 2 == 0 else 3)
            alg = calc.algebra
            n = calc.n
            x = random_element(rng, alg)
            y = random_element(rng, alg)
            z = random_element(rng, alg)
            assert (x * y) * z == x * (y * z)
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x
            for a in range(1, n + 1):
                assert (x * y).derive(a) == x.derive(a) * y + x * y.derive(a)
                assert x.star().derive(a) == x.derive(a).star()
            k = rng.randrange(0, n)
            l = rng.randrange(0, n)
            om = random_form(rng, calc, k, max_terms=1)
            ta = random_form(rng, calc, l, max_terms=1)
            assert om.d().d().is_zero()
            prod = om * ta
            sign_k = -1 if k % 2 else 1
            dprod = om.d() * ta + (
                om * ta.d() if sign_k > 0 else -(om * ta.d())
            )
            assert prod.d() == dprod
            sign_kl = -1 if (k * l) % 2 else 1
            starred = ta.star() * om.star()
            assert prod.star() == (starred if sign_kl > 0 else -starred)
            assert om.d().star() == om.star().d()


# -- criterion 6: d(rho) consistency -----------------------------------------------------------


def test_criterion_06_drho_consistency():
    with criterion(6, "25 metrics: d(rho) via three routes", 10.0):
        rng = random.Random(606)
        calc = Calculus.torus(3)
        alg = calc.algebra
        metrics = []
        for k in range(25):
            if k % 3 == 0:
                metrics.append(random_diagonal_metric(rng, calc))
            else:
                metrics.append(
                    random_block_metric(rng, calc, weakly_symmetric=bool(k % 2))
                )
        for metric in metrics:
            direct = weak_symmetry_defect(metric)
            assert direct == drho_via_generators(metric)
            tensor = compute_F(metric)
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    for c in (1, 2, 3):
                        cyc = tensor[a, b, c] + tensor[b, c, a] + tensor[c, a, b]
                        defect = cyc + cyc.star()
                        # defect = i * drho, so drho = -i * defect
                        assert direct(a, b, c) == -(alg.i() * defect)


# -- criterion 7: R-solver round trip ------------------------------------------------------------


def test_criterion_07_r_round_trip():
    with criterion(7, "50 random R-sets: forward F and re-solve", 10.0):
        rng = random.Random(707)
        calc = Calculus.torus(3)
        alg = calc.algebra
        for _ in range(50):
            source = []
            for _a in range(3):
                m = [[None] * 3 for _ in range(3)]
                for b in range(3):
                    m[b][b] = random_hermitian(rng, alg, max_terms=1)
                    for c in range(b + 1, 3):
                        entry = random_element(rng, alg, max_terms=2)
                        m[b][c] = entry
                        m[c][b] = entry.star()
                source.append(m)
            entries = [
                [
                    [source[a][c][b] - source[b][c][a] for b in range(3)]
                    for a in range(3)
                ]
                for c in range(3)
            ]
            tensor = FTensor(calc, entries)
            x = tuple(tuple(source[a][b][b] for b in range(3)) for a in range(3))
            h123 = source[2][0][1] + (
                tensor[1, 2, 3] + tensor[2, 3, 1] + tensor[3, 1, 2].star()
            ) * Fraction(1, 2)
            rset = solve_R(tensor, SolverParams(x, {(1, 2, 3): h123}))
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    for c in (1, 2, 3):
                        assert (
                            rset.entry(a, c, b) - rset.entry(b, c, a)
                            == tensor[c, a, b]
                        )
                        assert rset.entry(a, b, c).star() == rset.entry(a, c, b)


# -- criterion 8: end-to-end random verification ------------------------------------------------------


def test_criterion_08_end_to_end_random():
    with criterion(8, "50 weakly symmetric metrics: build and verify", 30.0):
        rng = random.Random(808)
        calc = Calculus.torus(3)
        alg = calc.algebra
        for k in range(50):
            if k % 2 == 0:
                metric = random_diagonal_metric(rng, calc)
                x = tuple(
                    tuple(random_hermitian(rng, alg, max_terms=1) for _ in range(3))
                    for _ in range(3)
                )
                triples = {(1, 2, 3): random_hermitian(rng, alg, max_terms=1)}
                params = SolverParams(x, triples)
            else:
                metric = random_block_metric(rng, calc, weakly_symmetric=True)
                params = (
                    SolverParams.zeros(calc)
                    if k % 4 == 1
                    else params_x11(calc, random_hermitian(rng, alg, max_terms=1))
                )
            assert weak_symmetry_defect(metric).is_zero()
            conn = build_levi_civita(metric, params)
            report = verify_levi_civita(conn, metric)
            assert report.torsion_zero
            assert report.compat_zero
            assert report.characterization
            assert report.passed


# -- criterion 9: commutative cross-check --------------------------------------------------------------


def classical_form_christoffel(metric):
    """Independent oracle: the classical Levi-Civita connection on
    one-forms for a commutative metric, from the Christoffel symbols.

    gamma^i_ak = -(1/2) sum_l h^il (d_a h_lk + d_k h_la - d_l h_ak);
    the leading sign is the one-form convention fixed by the torsion
    definition used across the package.
    """
    calc = metric.calculus
    n = calc.n
    alg = calc.algebra
    half = Fraction(1, 2)
    gamma = []
    for a in range(1, n + 1):
        plane = []
        for i in range(n):
            row = []
            for k in range(n):
                total = alg.zero()
                for l in range(n):
                    bracket = (
                        metric.lower[l][k].derive(a)
                        + metric.lower[l][a - 1].derive(k + 1)
                        - metric.lower[a - 1][k].derive(l + 1)
                    )
                    total = total + metric.upper[i][l] * bracket
                row.append(-(total * half))
            plane.append(tuple(row))
        gamma.append(tuple(plane))
    return tuple(gamma)


def test_criterion_09_commutative_cross_check():
    # Hermitian invertible monomials are exactly the nonzero rational
    # constants, so exact real diagonal metrics are constant and both
    # routes agree on (identically zero) Christoffel data; the nonzero
    # sign convention is pinned by criterion 1.
    with criterion(9, "commutative diagonal metrics vs oracle", 5.0):
        rng = random.Random(909)
        calc = Calculus.torus(3, commutative=True)
        alg = calc.algebra
        for _ in range(20):
            metric = random_diagonal_metric(rng, calc)
            conn = build_levi_civita(metric)
            oracle = classical_form_christoffel(metric)
            assert conn.gamma == oracle
        # a constant non-diagonal real symmetric metric agrees as well
        z, one = alg.zero(), alg.one()
        metric = HermitianMetric(
            calc, [[z, z, one], [z, one * 2, z], [one, z, z]]
        )
        conn = build_levi_civita(metric)
        assert conn.gamma == classical_form_christoffel(metric)
        # sanity: the commutative block metric still produces the nonzero
        # connection of criterion 1 under the q = 1 flag
        block = block_metric(calc, alg.gen(2))
        built = build_levi_civita(block)
        assert built.gamma[1][1][1] == alg.i()
        assert verify_levi_civita(built, block).passed


def monomial_draws(alg, seed, count, span=None):
    """``count`` seeded U-monomials c U^k, c a nonzero rational and k != 0
    with k_a = 0 for a > ``span`` (default n)."""
    span = alg.n if span is None else span
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        exponents = [rng.randint(-2, 2) for _ in range(span)] + [0] * (alg.n - span)
        if any(exponents):
            coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            out.append(alg.monomial(coeff, exponents))
    return out


def test_classical_christoffel_oracle_on_non_constant_metrics():
    calc = Calculus.torus(3, commutative=True)
    for w in monomial_draws(calc.algebra, 919, 8):
        # x = c W + c W* is hermitian: a non-constant real symmetric metric
        metric = congruence_metric(calc, (1, 2, w + w.star()))
        conn = build_levi_civita(metric)
        assert conn != Connection.zero(calc)
        assert conn.gamma == classical_form_christoffel(metric)


def specialised(element, target):
    """The image of ``element`` under q -> 1 in the algebra ``target``: the
    q key of every term is dropped and equal U-monomials are merged."""
    total = target.zero()
    for exponents, _, re, im in element.canonical_terms():
        coeff = GaussianRational(Fraction(*re), Fraction(*im))
        total = total + target.monomial(coeff, exponents)
    return total


def test_q_to_one_commutes_with_the_solver():
    # q -> 1 is a *-homomorphism onto the commutative torus that commutes
    # with every derivation, so it commutes with each stage of the build
    calc = Calculus.torus(3)
    flat = Calculus.torus(3, commutative=True)

    def spec(array):
        if isinstance(array, tuple):
            return tuple(spec(part) for part in array)
        return specialised(array, flat.algebra)

    draws = monomial_draws(calc.algebra, 929, 8)
    # x = c W + c W* gives rho = 0; x = c W gives rho != 0, and d(rho) = 0
    # when W is free of U3
    xs = [w + w.star() for w in draws] + draws + monomial_draws(calc.algebra, 939, 4, 2)
    built = 0
    for x in xs:
        metric = congruence_metric(calc, (1, 2, x))
        image = HermitianMetric(flat, spec(metric.upper), spec(metric.lower))
        if not weak_symmetry_defect(metric).is_zero():
            continue
        assert weak_symmetry_defect(image).is_zero()
        assert spec(build_levi_civita(metric).gamma) == build_levi_civita(image).gamma
        built += 1
    assert built >= 12


def build_lc_config(metric):
    """The build-lc config of ``metric``: every nonzero entry of both
    matrices, rendered."""
    calc = metric.calculus
    lines = [
        "[algebra]",
        "n = %d" % calc.n,
        "commutative = %s" % ("true" if calc.algebra.commutative else "false"),
        "[metric]",
    ]
    for prefix, matrix in (("h", metric.upper), ("hinv", metric.lower)):
        for i, row in enumerate(matrix, start=1):
            for j, entry in enumerate(row, start=1):
                if not entry.is_zero():
                    lines.append("%s.%d.%d = %s" % (prefix, i, j, render_element(entry)))
    return "\n".join(lines + ["[run]", "command = build-lc", ""])


@pytest.mark.parametrize("commutative", [False, True], ids=["q", "commutative"])
@pytest.mark.parametrize("n", [3, 4])
def test_congruence_round_trip(tmp_path, n, commutative):
    # the gate refuses exactly the metrics with d(rho) != 0, every build
    # verifies, and the CLI on the rendered metric prints the same gamma
    calc = Calculus.torus(n, commutative)
    rng = random.Random(7000 + 10 * n + commutative)
    verdicts = []
    for k in range(6):
        metric = congruence_metric(calc, *random_congruence_steps(rng, calc.algebra, 3))
        path = tmp_path / ("metric%d.cfg" % k)
        path.write_text(build_lc_config(metric), encoding="utf-8")
        report = run(load_config(path))
        verdicts.append(weak_symmetry_defect(metric).is_zero())
        if not verdicts[-1]:
            with pytest.raises(NotWeaklySymmetric):
                build_levi_civita(metric)
            assert report["status"] == "not_weakly_symmetric"
            continue
        conn = build_levi_civita(metric)
        assert verify_levi_civita(conn, metric).passed
        assert report["status"] == "ok"
        assert report["gamma"] == [
            [[render_element(entry) for entry in row] for row in plane]
            for plane in conn.gamma
        ]
    assert set(verdicts) == {True, False}


# -- criterion 10: CLI determinism ------------------------------------------------------------------------


def test_criterion_10_cli_determinism():
    with criterion(10, "CLI byte-identical JSON and re-parse", 1.0):
        first = emit_report(run(load_config(BLOCK_CFG)), "json")
        second = emit_report(run(load_config(BLOCK_CFG)), "json")
        assert first == second
        payload = json.loads(first)
        assert payload["status"] == "ok"
        config = load_config(BLOCK_CFG)
        metric = HermitianMetric(config.calculus, config.upper, config.lower)
        conn = build_levi_civita(metric, config.params)
        alg = config.calculus.algebra
        for a in range(3):
            for i in range(3):
                for j in range(3):
                    rendered = payload["gamma"][a][i][j]
                    assert parse_element(alg, rendered) == conn.gamma[a][i][j]
