from fractions import Fraction
import itertools
import random

import pytest

from nctorus import (
    AlgebraElement,
    Calculus,
    Connection,
    GaussianRational,
    HermitianMetric,
    InternalVerificationFailure,
    NotInvertibleByElimination,
    NotWeaklySymmetric,
    ParamViolation,
    SolvabilityViolated,
    SolverParams,
    assemble_U,
    build_levi_civita,
    compat_defect,
    compute_F,
    invert_metric,
    solve_R,
    symmetry_form,
    verify_levi_civita,
    weak_symmetry_defect,
)
from nctorus.algebra import matmul
from nctorus.levicivita import solvability_check
from conftest import (
    block_metric,
    congruence_metric,
    random_block_metric,
    random_congruence_steps,
    random_diagonal_metric,
    random_element,
    random_hermitian,
    random_hermitian_matrix,
    random_monomial,
)
from test_metric import identity_metric
from test_products import oracle_gamma


def params_with_x11(calc, x11):
    z = calc.algebra.zero()
    x = [[z for _ in range(3)] for _ in range(3)]
    x[0][0] = x11
    return SolverParams(tuple(tuple(row) for row in x), {})


# -- F tensor ------------------------------------------------------------------


def test_f_identity_metric_vanishes(calc3):
    F = compute_F(identity_metric(calc3))
    for c in range(3):
        for a in range(3):
            for b in range(3):
                assert F[c][a][b].is_zero()


def test_f_block_entries(calc3):
    alg = calc3.algebra
    h0 = alg.gen(1)
    metric = block_metric(calc3, h0)
    F = compute_F(metric)
    hinv = h0.invert()
    half_i = alg.scalar(0, Fraction(1, 2))
    # F_312 = -(i/2) d_1 h_32 = -(i/2) d_1 (h0^-1)
    assert F[2][0][1] == -(half_i * hinv.derive(1))
    # F_231 = (i/2) d_1 h_23 = (i/2) d_1 (h0^-1)*
    assert F[1][2][0] == half_i * hinv.star().derive(1)
    assert F[0][1][2].is_zero()


def test_f_antisymmetry_validated(calc3):
    alg = calc3.algebra
    z = alg.zero()
    bad = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    bad[0][0][1] = alg.one()
    with pytest.raises(ValueError):
        solve_R(calc3, bad, SolverParams.zeros(calc3))


def first_antisymmetry_failure(entries):
    """solve_R's message for the first (c, a, b) over all a, b where
    F_cab != -F_cba, or None."""
    n = len(entries)
    for c in range(n):
        for a in range(n):
            for b in range(n):
                if entries[c][a][b] != -entries[c][b][a]:
                    return "F is not antisymmetric at (%d, %d, %d)" % (
                        c + 1,
                        a + 1,
                        b + 1,
                    )
    return None


def test_f_antisymmetry_names_first_failing_entry(calc3):
    rng = random.Random("F-antisymmetry")
    alg = calc3.algebra
    for _ in range(40):
        entries = [[[alg.zero()] * 3 for _ in range(3)] for _ in range(3)]
        for c in range(3):
            for a in range(3):
                for b in range(a + 1, 3):
                    entries[c][a][b] = random_element(rng, alg, max_terms=2)
                    entries[c][b][a] = -entries[c][a][b]
        for _ in range(rng.randint(0, 2)):  # break zero to two entries
            c, a, b = (rng.randrange(3) for _ in range(3))
            entries[c][a][b] = entries[c][a][b] + random_monomial(rng, alg, 1)
        expected = first_antisymmetry_failure(entries)
        if expected is None:
            # F passes the antisymmetry check; a random F may still be unsolvable
            try:
                solve_R(calc3, entries, SolverParams.zeros(calc3))
            except SolvabilityViolated:
                pass
            continue
        with pytest.raises(ValueError) as info:
            solve_R(calc3, entries, SolverParams.zeros(calc3))
        assert str(info.value) == expected


def cyclic_defect(F, a, b, c):
    cyc = F[a][b][c] + F[b][c][a] + F[c][a][b]
    return cyc + cyc.star()


# Calculi on which the solvability condition must be the d(rho) gate: both
# algebra kinds and the bracket c^3_12 = 1 at n = 3..5, and an so(3)-type
# bracket with a nonzero constant in every slot at n = 3.
CYCLIC_CALCULI = {
    **{"q-%d" % n: (n, False, None) for n in (3, 4, 5)},
    **{"commutative-%d" % n: (n, True, None) for n in (3, 4, 5)},
    **{"bracket-%d" % n: (n, False, {(3, 1, 2): 1}) for n in (3, 4, 5)},
    "so3-3": (3, False, {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1}),
}


def cyclic_defect_metrics(name):
    """Seeded metrics for ``name``: 12 congruence metrics of 3 steps each
    over a calculus of ``CYCLIC_CALCULI``; 10 n = 3 block metrics, most not
    weakly symmetric ("block"); one Heisenberg metric ("heisenberg")."""
    rng = random.Random("cyclic-defect/" + name)
    if name == "block":
        calc = Calculus.torus(3)
        return [
            random_block_metric(rng, calc, weakly_symmetric=False) for _ in range(10)
        ]
    if name == "heisenberg":
        heis = Calculus.torus(3, brackets={(3, 1, 2): 1})
        alg = heis.algebra
        z, one = alg.zero(), alg.one()
        h0 = alg.gen(1) * alg.gen(3)
        return [HermitianMetric(heis, [[one, z, z], [z, z, h0], [z, h0.star(), z]])]
    n, commutative, brackets = CYCLIC_CALCULI[name]
    calc = Calculus.torus(n, commutative=commutative, brackets=brackets)
    return [
        congruence_metric(calc, *random_congruence_steps(rng, calc.algebra, 3))
        for _ in range(12)
    ]


@pytest.mark.parametrize("name", ["block", "heisenberg", *CYCLIC_CALCULI])
def test_f_cyclic_defect_equals_i_drho(name):
    # cyc + cyc* = i d(rho)_abc, so the cyclic solvability condition on F is
    # the d(rho) gate: solvability_check passes exactly when d(rho) = 0, and
    # otherwise names d(rho)'s first nonzero triple.  Triples that are not
    # strictly increasing follow from the antisymmetry of F and of d(rho).
    for metric in cyclic_defect_metrics(name):
        n = metric.calculus.n
        i = metric.calculus.algebra.i()
        F = compute_F(metric)
        drho = weak_symmetry_defect(metric)
        for a, b, c in itertools.combinations(range(n), 3):
            assert cyclic_defect(F, a, b, c) == i * drho(a + 1, b + 1, c + 1)
        violation = solvability_check(F)
        if drho.is_zero():
            assert violation is None
        else:
            key = sorted(drho.comps)[0]
            assert violation == (key, i * drho.comps[key])


# -- solvability ------------------------------------------------------------------


def test_solvability_zero_tensor(calc3):
    assert solvability_check(compute_F(identity_metric(calc3))) is None


def test_solvability_block_u2(calc3):
    metric = block_metric(calc3, calc3.algebra.gen(2))
    assert solvability_check(compute_F(metric)) is None


def test_solvability_block_u1_violates(calc3):
    metric = block_metric(calc3, calc3.algebra.gen(1))
    violation = solvability_check(compute_F(metric))
    assert violation is not None
    triple, defect = violation
    assert triple == (1, 2, 3)
    assert not defect.is_zero()


# -- solve_R -----------------------------------------------------------------------


def test_solve_r_zero(calc3):
    R = solve_R(calc3, compute_F(identity_metric(calc3)), SolverParams.zeros(calc3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert R[a][b][c].is_zero()


def test_solve_r_block_u2(calc3):
    alg = calc3.algebra
    h0 = alg.gen(2)
    metric = block_metric(calc3, h0)
    x11 = alg.gen(1) + alg.gen(1, -1)
    R = solve_R(calc3, compute_F(metric), params_with_x11(calc3, x11))
    hinv = h0.invert()
    half_i = alg.scalar(0, Fraction(1, 2))
    assert R[0][0][0] == x11
    # (R_2)_23 = -(i/2) d_2 (h0^-1)*  and its conjugate below the diagonal
    assert R[1][1][2] == -(half_i * hinv.star().derive(2))
    assert R[1][2][1] == half_i * hinv.derive(2)
    # every other entry vanishes for this metric
    zero_entries = [
        (a, b, c)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        if (a, b, c) not in ((0, 0, 0), (1, 1, 2), (1, 2, 1))
    ]
    for a, b, c in zero_entries:
        assert R[a][b][c].is_zero(), (a, b, c)


def test_solve_r_rejects_unsolvable(calc3):
    metric = block_metric(calc3, calc3.algebra.gen(1))
    with pytest.raises(SolvabilityViolated):
        solve_R(calc3, compute_F(metric), SolverParams.zeros(calc3))


def test_solve_r_rejects_bad_params(calc3):
    F = compute_F(identity_metric(calc3))
    with pytest.raises(ParamViolation, match=r"^X\[1\]\[1\] is not hermitian$"):
        solve_R(calc3, F, params_with_x11(calc3, calc3.algebra.i()))
    # the message names the entry, 1-based, row first
    X = [[calc3.algebra.zero()] * 3 for _ in range(3)]
    X[0][1] = calc3.algebra.i()
    with pytest.raises(ParamViolation, match=r"^X\[1\]\[2\] is not hermitian$"):
        solve_R(calc3, F, SolverParams(X, {}))
    bad_h = SolverParams.zeros(calc3)
    bad_h.triples[(1, 2, 3)] = calc3.algebra.i()
    with pytest.raises(ParamViolation):
        solve_R(calc3, F, bad_h)
    bad_key = SolverParams.zeros(calc3)
    bad_key.triples[(2, 1, 3)] = calc3.algebra.one()
    with pytest.raises(ParamViolation):
        solve_R(calc3, F, bad_key)


def random_hermitian_matrices(rng, calc):
    n = calc.n
    mats = []
    for _ in range(n):
        m = [[None] * n for _ in range(n)]
        for b in range(n):
            m[b][b] = random_hermitian(rng, calc.algebra, max_terms=1)
            for c in range(b + 1, n):
                x = random_element(rng, calc.algebra, max_terms=2)
                m[b][c] = x
                m[c][b] = x.star()
        mats.append(tuple(tuple(row) for row in m))
    return tuple(mats)


def first_rset_failure(matrices):
    """assemble_U's message for the first (a, b, c) over all b, c where
    ((R_a)_bc)* != (R_a)_cb, or None."""
    n = len(matrices)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if matrices[a][b][c].star() != matrices[a][c][b]:
                    return "R_%d is not hermitian at (%d, %d)" % (a + 1, b + 1, c + 1)
    return None


def test_rset_hermiticity_names_first_failing_entry(calc3):
    rng = random.Random("R-hermiticity")
    for _ in range(40):
        matrices = [
            [list(row) for row in m] for m in random_hermitian_matrices(rng, calc3)
        ]
        for _ in range(rng.randint(0, 2)):  # break zero to two entries
            a, b, c = (rng.randrange(3) for _ in range(3))
            extra = random_monomial(rng, calc3.algebra, 1)
            matrices[a][b][c] = matrices[a][b][c] + extra
        expected = first_rset_failure(matrices)
        if expected is None:
            assemble_U(identity_metric(calc3), matrices)
            continue
        with pytest.raises(ValueError) as info:
            assemble_U(identity_metric(calc3), matrices)
        assert str(info.value) == expected


def test_solve_r_round_trip(rng, calc3):
    """Forward-construction oracle: build F from random hermitian matrices,
    solve, and check the defining equation plus hermiticity; with the
    extracted parameters the original matrices are reproduced exactly."""
    for _ in range(10):
        source = random_hermitian_matrices(rng, calc3)
        # F[c][a][b] = (R_a)_cb - (R_b)_ca
        F = [
            [
                [source[a][c][b] - source[b][c][a] for b in range(3)]
                for a in range(3)
            ]
            for c in range(3)
        ]
        assert solvability_check(F) is None
        x = tuple(
            tuple(source[a][b][b] for b in range(3)) for a in range(3)
        )
        h123 = source[2][0][1] + (
            F[0][1][2] + F[1][2][0] + F[2][0][1].star()
        ) * Fraction(1, 2)
        assert h123.is_hermitian()
        params = SolverParams(x, {(1, 2, 3): h123})
        R = solve_R(calc3, F, params)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert R[a][c][b] - R[b][c][a] == F[c][a][b]
                    assert R[a][b][c].star() == R[a][c][b]
                    assert R[a][b][c] == source[a][b][c]


def displayed_general_solution(metric, X, H):
    """Closed-form general solution matrices written out entry by entry.

    Transcribed independently of solve_R: (R_a)_bb = X_ab, the row-a
    entries carry -(i/2) d_a h_ab + (i/2) d_b h_aa patterns, and the six
    entries away from row and diagonal carry the triple parameter H.
    """
    alg = metric.calculus.algebra
    i2 = alg.scalar(0, Fraction(1, 2))

    def h(a, b):
        return metric.lower[a - 1][b - 1]

    def d(a, x):
        return x.derive(a)

    r1 = [
        [X[0][0], X[1][0] - i2 * d(1, h(1, 2)) + i2 * d(2, h(1, 1)),
         X[2][0] - i2 * d(1, h(1, 3)) + i2 * d(3, h(1, 1))],
        [X[1][0] + i2 * d(1, h(2, 1)) - i2 * d(2, h(1, 1)), X[0][1],
         -i2 * d(2, h(3, 1)) + i2 * d(3, h(2, 1)) + H],
        [X[2][0] + i2 * d(1, h(3, 1)) - i2 * d(3, h(1, 1)),
         i2 * d(2, h(1, 3)) - i2 * d(3, h(1, 2)) + H, X[0][2]],
    ]
    r2 = [
        [X[1][0], X[0][1] + i2 * d(2, h(1, 2)) - i2 * d(1, h(2, 2)),
         i2 * d(3, h(1, 2)) - i2 * d(1, h(3, 2)) + H],
        [X[0][1] - i2 * d(2, h(2, 1)) + i2 * d(1, h(2, 2)), X[1][1],
         X[2][1] - i2 * d(2, h(2, 3)) + i2 * d(3, h(2, 2))],
        [-i2 * d(3, h(2, 1)) + i2 * d(1, h(2, 3)) + H,
         X[2][1] + i2 * d(2, h(3, 2)) - i2 * d(3, h(2, 2)), X[1][2]],
    ]
    r3 = [
        [X[2][0], -i2 * d(1, h(3, 2)) + i2 * d(2, h(1, 3)) + H,
         X[0][2] + i2 * d(3, h(1, 3)) - i2 * d(1, h(3, 3))],
        [i2 * d(1, h(2, 3)) - i2 * d(2, h(3, 1)) + H, X[2][1],
         X[1][2] + i2 * d(3, h(2, 3)) - i2 * d(2, h(3, 3))],
        [X[0][2] - i2 * d(3, h(3, 1)) + i2 * d(1, h(3, 3)),
         X[1][2] - i2 * d(3, h(3, 2)) + i2 * d(2, h(3, 3)), X[2][2]],
    ]
    return (r1, r2, r3)


def test_solve_r_matches_displayed_general_solution(rng, calc3):
    """Dual-route check against the documented closed-form matrices for
    weakly symmetric metrics, with random X and H parameters."""
    alg = calc3.algebra
    for _ in range(20):
        metric = random_block_metric(rng, calc3, weakly_symmetric=True)
        x = tuple(
            tuple(random_hermitian(rng, alg, max_terms=1) for _ in range(3))
            for _ in range(3)
        )
        h123 = random_hermitian(rng, alg, max_terms=1)
        R = solve_R(calc3, compute_F(metric), SolverParams(x, {(1, 2, 3): h123}))
        display = displayed_general_solution(metric, x, h123)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert R[a][b][c] == display[a][b][c], (a, b, c)


# -- assemble_U -----------------------------------------------------------------------


def test_assemble_u_zero(calc3):
    metric = identity_metric(calc3)
    R = solve_R(calc3, compute_F(metric), SolverParams.zeros(calc3))
    u = assemble_U(metric, R)
    assert all(u[a][i][j].is_zero() for a in range(3) for i in range(3) for j in range(3))


def test_assemble_u_block_entry(calc3):
    alg = calc3.algebra
    h0 = alg.gen(2) * alg.gen(3)
    metric = block_metric(calc3, h0)
    R = solve_R(calc3, compute_F(metric), SolverParams.zeros(calc3))
    u = assemble_U(metric, R)
    hinv = h0.invert()
    half_i = alg.scalar(0, Fraction(1, 2))
    # (U_2)^12 = -(i/2) d_1(h0^-1) h0* which is zero for this h0,
    # (U_2)^23 = (i/2) h0 d_2(h0^-1) h0
    assert u[1][0][1] == -(half_i * hinv.derive(1)) * h0.star()
    assert u[1][1][2] == half_i * (h0 * hinv.derive(2) * h0)
    assert not u[1][1][2].is_zero()


def test_assemble_u_hermitian_pair(rng, calc3):
    for _ in range(10):
        metric = random_block_metric(rng, calc3)
        R = solve_R(calc3, compute_F(metric), SolverParams.zeros(calc3))
        u = assemble_U(metric, R)
        for a in range(3):
            for i in range(3):
                for j in range(3):
                    assert u[a][i][j].star() == u[a][j][i]


def test_assemble_u_inverts_defining_contraction(rng, calc3):
    # (R_a)_bc = h_bi U^ij_a h_jc recovers the solved matrices exactly
    alg = calc3.algebra
    for _ in range(5):
        metric = random_block_metric(rng, calc3)
        x = tuple(
            tuple(random_hermitian(rng, alg, max_terms=1) for _ in range(3))
            for _ in range(3)
        )
        R = solve_R(calc3, compute_F(metric), SolverParams(x, {}))
        u = assemble_U(metric, R)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    total = alg.zero()
                    for i in range(3):
                        for j in range(3):
                            total = total + (
                                metric.lower[b][i] * u[a][i][j] * metric.lower[j][c]
                            )
                    assert total == R[a][b][c]


def displayed_block_connection(calc, h0, x11):
    """The nine closed-form covariant derivatives for the block metric,
    transcribed entry by entry as an oracle for the builder.

    nabla_1 theta^1 = i X11 theta^1
    nabla_1 theta^2 = -1/2 h0 d1(h0^-1) theta^2        (zero when weakly symmetric)
    nabla_1 theta^3 = -1/2 h0* d1((h0^-1)*) theta^3
    nabla_2 theta^1 = 1/2 d1(h0^-1) theta^3
    nabla_2 theta^2 = -1/2 h0 d1((h0^-1)*) theta^1 - h0 d2(h0^-1) theta^2
    nabla_2 theta^3 = 0
    nabla_3 theta^1 = 1/2 d1(h0^-1) theta^2
    nabla_3 theta^2 = 0
    nabla_3 theta^3 = -1/2 h0* d1(h0^-1) theta^1 - h0* d3((h0^-1)*) theta^3

    The last coefficient carries the inner star: it is the image of the
    nabla_2 theta^2 coefficient under the swap (2 <-> 3, h0 <-> h0*), and
    compatibility pins it down as gamma = d3(h0*) (h0*)^-1 exactly.
    """
    alg = calc.algebra
    z = alg.zero()
    half = Fraction(1, 2)
    hinv = h0.invert()
    hs = h0.star()
    hinvs = hinv.star()
    gamma = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    gamma[0][0][0] = alg.i() * x11
    gamma[0][1][1] = -(h0 * hinv.derive(1) * half)
    gamma[0][2][2] = -(hs * hinvs.derive(1) * half)
    gamma[1][0][2] = hinv.derive(1) * half
    gamma[1][1][0] = -(h0 * hinvs.derive(1) * half)
    gamma[1][1][1] = -(h0 * hinv.derive(2))
    gamma[2][0][1] = hinv.derive(1) * half
    gamma[2][2][0] = -(hs * hinv.derive(1) * half)
    gamma[2][2][2] = -(hs * hinvs.derive(3))
    return tuple(tuple(tuple(row) for row in plane) for plane in gamma)


def test_build_matches_displayed_block_connection(rng, calc3):
    alg = calc3.algebra
    candidates = [
        alg.gen(2),
        alg.gen(3),
        alg.gen(2) * alg.gen(3),
        alg.scalar(0, 2) * alg.gen(2, -1) * alg.gen(3, 2),
        alg.q(1, 2) * alg.gen(3, -2),
    ]
    for h0 in candidates:
        metric = block_metric(calc3, h0)
        x11 = random_hermitian(rng, alg, max_terms=1)
        conn = build_levi_civita(metric, params_with_x11(calc3, x11))
        expected = displayed_block_connection(calc3, h0, x11)
        assert conn.gamma == expected, h0


# -- build and verify -------------------------------------------------------------------


def test_build_identity_zero_params(calc3):
    conn = build_levi_civita(identity_metric(calc3))
    assert conn == Connection.zero(calc3)


def test_build_block_u2(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    x11 = alg.gen(1) + alg.gen(1, -1)
    conn = build_levi_civita(metric, params_with_x11(calc3, x11))
    assert conn.gamma[0][0][0] == alg.i() * x11
    assert conn.gamma[1][1][1] == alg.i()
    for a in range(3):
        for i in range(3):
            for j in range(3):
                if (a, i, j) in ((0, 0, 0), (1, 1, 1)):
                    continue
                assert conn.gamma[a][i][j].is_zero()


def test_build_rejects_non_weakly_symmetric(calc3):
    metric = block_metric(calc3, calc3.algebra.gen(1))
    with pytest.raises(NotWeaklySymmetric) as info:
        build_levi_civita(metric)
    assert info.value.triple == (1, 2, 3)
    assert not info.value.component.is_zero()


WEAK_NOT_STRONG = {
    "U1": lambda alg: alg.gen(1),
    "U1*U2": lambda alg: alg.gen(1) * alg.gen(2),
    "U1 + i*U2^-1": lambda alg: alg.gen(1) + alg.i() * alg.gen(2, -1),
}


@pytest.mark.parametrize("name", sorted(WEAK_NOT_STRONG))
def test_weakly_but_not_strongly_symmetric_metric_builds(calc3, name):
    # x non-hermitian and free of U3: rho != 0 but d(rho) = 0
    metric = congruence_metric(calc3, (1, 2, WEAK_NOT_STRONG[name](calc3.algebra)))
    assert not symmetry_form(metric).is_zero()
    assert weak_symmetry_defect(metric).is_zero()
    conn = build_levi_civita(metric)
    assert verify_levi_civita(conn, metric).passed


def test_congruence_metric_beyond_elimination(calc3):
    # the explicit lower matrix is the only way in for this x
    x = WEAK_NOT_STRONG["U1 + i*U2^-1"](calc3.algebra)
    metric = congruence_metric(calc3, (1, 2, x))
    with pytest.raises(NotInvertibleByElimination):
        invert_metric(calc3, metric.upper)


def test_congruence_metric_with_u3_is_not_weakly_symmetric(calc3):
    metric = congruence_metric(calc3, (1, 2, calc3.algebra.gen(3)))
    assert not weak_symmetry_defect(metric).is_zero()
    with pytest.raises(NotWeaklySymmetric):
        build_levi_civita(metric)


def test_build_nonabelian_identity_metric():
    heis = Calculus.torus(3, brackets={(3, 1, 2): 1})
    metric = identity_metric(heis)
    conn = build_levi_civita(metric)
    report = verify_levi_civita(conn, metric)
    assert report.passed
    assert not all(
        conn.gamma[a][i][j].is_zero()
        for a in range(3)
        for i in range(3)
        for j in range(3)
    )


def test_verify_flat_against_block_fails(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    report = verify_levi_civita(Connection.zero(calc3), metric)
    assert not report.passed
    assert report.torsion_zero and report.torsion == Connection.zero(calc3).gamma
    assert not report.compat_zero
    # d_2 h^23 = i U2 is the offending entry
    assert report.compat[1][1][2] == alg.i() * alg.gen(2)


def test_verify_flat_identity_passes(calc3):
    report = verify_levi_civita(Connection.zero(calc3), identity_metric(calc3))
    assert report.passed


def test_non_uniqueness(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    conn0 = build_levi_civita(metric, params_with_x11(calc3, alg.zero()))
    conn1 = build_levi_civita(metric, params_with_x11(calc3, alg.one()))
    assert conn0 != conn1
    assert conn0.gamma[0][0][0].is_zero()
    assert conn1.gamma[0][0][0] == alg.i()
    assert verify_levi_civita(conn0, metric).passed
    assert verify_levi_civita(conn1, metric).passed


def test_antihermitian_param_preserving_torsion(calc3):
    # the diagonal antihermitian shift A^11_1 = i of i U keeps torsion
    # freedom; the connection it gives, summed by the literal oracle, is
    # the one the build gives for X_11 = 1
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    R = solve_R(calc3, compute_F(metric), SolverParams.zeros(calc3))
    i_u = [[[u * alg.i() for u in row] for row in plane] for plane in assemble_U(metric, R)]
    i_u[0][0][0] = i_u[0][0][0] + alg.i()
    shifted = Connection(calc3, oracle_gamma(metric, i_u))
    assert verify_levi_civita(shifted, metric).passed
    conn = build_levi_civita(metric, params_with_x11(calc3, alg.one()))
    assert conn == shifted
    assert conn.gamma[0][0][0] == alg.i()


@pytest.mark.parametrize(
    "with_params, torsion_zero, compat_zero",
    [(False, False, True), (True, True, False), (True, False, False), (True, True, True)],
)
def test_other_verification_failures_stay_internal(
    calc3, monkeypatch, with_params, torsion_zero, compat_zero
):
    # no parameter can break a build, so every failed re-verification is
    # the solver's fault, with zero parameters or with nonzero X and H
    import nctorus.levicivita as lc

    alg = calc3.algebra
    z = alg.zero()
    zeros = tuple(tuple(tuple(z for _ in range(3)) for _ in range(3)) for _ in range(3))
    params = SolverParams.zeros(calc3)
    if with_params:
        params = SolverParams(params_with_x11(calc3, alg.one()).X, {(1, 2, 3): alg.one()})
    failed = lc.LCVerification(zeros, zeros, torsion_zero, compat_zero, False)
    monkeypatch.setattr(lc, "verify_levi_civita", lambda conn, metric: failed)
    with pytest.raises(InternalVerificationFailure):
        build_levi_civita(identity_metric(calc3), params)


def test_build_random_diagonal_with_params(rng, calc3):
    for _ in range(5):
        metric = random_diagonal_metric(rng, calc3)
        x = tuple(
            tuple(random_hermitian(rng, calc3.algebra, max_terms=1) for _ in range(3))
            for _ in range(3)
        )
        h = {(1, 2, 3): random_hermitian(rng, calc3.algebra, max_terms=1)}
        conn = build_levi_civita(metric, SolverParams(x, h))
        assert verify_levi_civita(conn, metric).passed


def test_build_rank_one(rng):
    calc = Calculus.torus(1)
    alg = calc.algebra
    metric = HermitianMetric(calc, [[alg.scalar(Fraction(2, 3))]])
    conn = build_levi_civita(metric)
    assert conn.gamma[0][0][0].is_zero()
    x11 = random_hermitian(rng, alg, max_terms=1)
    params = SolverParams(((x11,),), {})
    conn = build_levi_civita(metric, params)
    assert verify_levi_civita(conn, metric).passed
    # gamma = i h^11 X11 h^11 h_11 = (2/3) i X11 for this metric
    expected = alg.i() * (
        metric.upper[0][0] * x11 * metric.upper[0][0] * metric.lower[0][0]
    )
    assert conn.gamma[0][0][0] == expected


def test_solve_r_round_trip_rank_four(rng):
    # four strictly increasing triples exercise the per-triple loop fully
    calc = Calculus.torus(4)
    alg = calc.algebra
    n = 4
    for _ in range(3):
        source = []
        for _a in range(n):
            m = [[None] * n for _ in range(n)]
            for b in range(n):
                m[b][b] = random_hermitian(rng, alg, max_terms=1)
                for c in range(b + 1, n):
                    x = random_element(rng, alg, max_terms=2)
                    m[b][c] = x
                    m[c][b] = x.star()
            source.append(m)
        F = [
            [[source[a][c][b] - source[b][c][a] for b in range(n)] for a in range(n)]
            for c in range(n)
        ]
        x_params = tuple(tuple(source[a][b][b] for b in range(n)) for a in range(n))
        triples = {}
        for a, b, c in itertools.combinations(range(n), 3):
            h = source[c][a][b] + (
                F[a][b][c] + F[b][c][a] + F[c][a][b].star()
            ) * Fraction(1, 2)
            assert h.is_hermitian()
            triples[(a + 1, b + 1, c + 1)] = h
        R = solve_R(calc, F, SolverParams(x_params, triples))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert R[a][c][b] - R[b][c][a] == F[c][a][b]
                    assert R[a][b][c] == source[a][b][c]


def test_build_rank_four_block():
    calc = Calculus.torus(4)
    alg = calc.algebra
    z, one = alg.zero(), alg.one()
    h0 = alg.gen(2) * alg.gen(3, -1)
    upper = [
        [one, z, z, z],
        [z, z, h0, z],
        [z, h0.star(), z, z],
        [z, z, z, alg.scalar(2)],
    ]
    metric = HermitianMetric(calc, upper)
    conn = build_levi_civita(metric)
    assert verify_levi_civita(conn, metric).passed


def test_build_rank_two_off_diagonal(rng):
    # dimension 2 is always weakly symmetric, including the pair metric
    calc = Calculus.torus(2)
    alg = calc.algebra
    z = alg.zero()
    h0 = alg.gen(1) * alg.gen(2, -1)
    metric = HermitianMetric(calc, [[z, h0], [h0.star(), z]])
    x = tuple(
        tuple(random_hermitian(rng, alg, max_terms=1) for _ in range(2))
        for _ in range(2)
    )
    conn = build_levi_civita(metric, SolverParams(x, {}))
    assert verify_levi_civita(conn, metric).passed
    flat = [
        conn.gamma[a][i][j] for a in range(2) for i in range(2) for j in range(2)
    ]
    assert any(not entry.is_zero() for entry in flat)


def test_build_error_precedence(calc3, monkeypatch):
    import nctorus.levicivita as lc

    bad = params_with_x11(calc3, calc3.algebra.i())
    unsymmetric = block_metric(calc3, calc3.algebra.gen(1))
    # bad params are reported before d(rho) != 0
    with pytest.raises(ParamViolation):
        build_levi_civita(unsymmetric, bad)
    with pytest.raises(NotWeaklySymmetric):
        build_levi_civita(unsymmetric, SolverParams.zeros(calc3))
    # with the d(rho) gate passed, a solvability failure is still reported
    monkeypatch.setattr(lc, "solvability_check", lambda F: ((1, 2, 3), F[0][1][2]))
    with pytest.raises(SolvabilityViolated):
        build_levi_civita(block_metric(calc3, calc3.algebra.gen(2)))


# -- zero entries ------------------------------------------------------------------

ELEMENT_OPERATIONS = ("__mul__", "__add__", "__sub__", "__neg__", "star", "derive", "__eq__")


def count_all_zero_calls(monkeypatch):
    """Wrap the element operations; the returned dict counts, per name, the
    calls whose element operands (self and any element argument) are all
    zero.  Scalar factors and derivation indices are not operands."""
    counts = dict.fromkeys(ELEMENT_OPERATIONS, 0)
    for name in ELEMENT_OPERATIONS:
        original = getattr(AlgebraElement, name)

        def wrapper(self, *args, _name=name, _original=original):
            if not self.terms and not any(
                x.terms for x in args if isinstance(x, AlgebraElement)
            ):
                counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(AlgebraElement, name, wrapper)
    return counts


def seeded_block_metric_6():
    """n = 6, q-deformed: three 2 x 2 blocks h^pq = h0, h^qp = h0*, each h0
    a monomial in U_p and U_q only (so d(rho) = 0), one with a q-phase."""
    rng = random.Random("zero-walk/block/6")
    calc = Calculus.torus(6)
    alg = calc.algebra
    upper = [[alg.zero()] * 6 for _ in range(6)]
    order = list(range(6))
    rng.shuffle(order)
    for k in range(3):
        p, q = order[2 * k], order[2 * k + 1]
        exponents = [0] * 6
        exponents[p], exponents[q] = rng.choice((-2, -1, 1, 2)), rng.choice((-1, 1))
        h0 = alg.monomial(Fraction(rng.randint(1, 3), rng.randint(1, 3)), exponents)
        if k == 0:
            h0 = h0 * alg.q(min(p, q) + 1, max(p, q) + 1)
        upper[p][q], upper[q][p] = h0, h0.star()
    return HermitianMetric(calc, upper)


def bracket_diagonal_metric_5():
    """n = 5 over c^3_12 = 1 with rational constants on the diagonal."""
    calc = Calculus.torus(5, brackets={(3, 1, 2): 1})
    alg = calc.algebra
    upper = [[alg.zero()] * 5 for _ in range(5)]
    for k, value in enumerate((2, Fraction(1, 3), -1, 3, Fraction(-2, 3))):
        upper[k][k] = alg.scalar(value)
    return HermitianMetric(calc, upper)


# Element calls with only zero operands during one build_levi_civita.  Those
# left are stars and partial sums inside a triple or a cyclic sum that has
# a nonzero entry.  A pairing entry x + y* of the one pairing T_h(gamma),
# which the compatibility defect forms and the characterization reads, is x
# itself when the product y is zero (starring that zero gave both block-6
# builds 3 stars), and an entry that cancels to zero is left at the shared
# zero with no mirror star (starring it gave block-6-triples 60 more stars
# and bracket-5 3 more).  Torsion reads wedge(gamma) - d and forms no (0 - 0) - d
# (forming it gave bracket-5 four __sub__).  The d(rho) gate (KForm.d)
# skips a zero derivative or bracket term, the solvability check a triple
# whose three F entries are zero, solve_R a forced entry (R_a)_ab whose X
# and F terms are zero, and the gamma assembly a zero d h entry beside a
# nonzero i U (halving it gave bracket-5 six __mul__).  block-6-triples
# sets every triple parameter; its F vanishes on all 20 triples, and
# solve_R takes each parameter as it is (forming (0 - 0 + 0*) / 2 + h gave
# 60 __mul__, 60 __add__, 120 __sub__, 20 __neg__ and 80 more stars).  A
# change that walks zero entries again raises these counts (measured with
# the pairing formed twice and those six halvings: walking every zero
# entry gives 6,416 and 3,721; skipping zeros everywhere but in the pair
# checks and the closed-form R entries gives 1,554 and 915; everywhere but
# in those cyclic sums and forced entries, 146 and 107; everywhere but in
# KForm.d, 18 and 31).
ALL_ZERO_CALLS = {
    "block-6": {
        "__mul__": 0, "__add__": 0, "__sub__": 0, "__neg__": 0,
        "star": 0, "derive": 0, "__eq__": 0,
    },
    "block-6-triples": {
        "__mul__": 0, "__add__": 0, "__sub__": 0, "__neg__": 0,
        "star": 0, "derive": 0, "__eq__": 0,
    },
    "bracket-5": {
        "__mul__": 0, "__add__": 3, "__sub__": 2, "__neg__": 0,
        "star": 2, "derive": 0, "__eq__": 0,
    },
}


@pytest.mark.parametrize("name", sorted(ALL_ZERO_CALLS))
def test_build_skips_zero_entries(name, monkeypatch):
    make = {
        "block-6": seeded_block_metric_6,
        "block-6-triples": seeded_block_metric_6,
        "bracket-5": bracket_diagonal_metric_5,
    }
    metric = make[name]()
    calc, zero = metric.calculus, metric.calculus.algebra.zero()
    params = None
    if name == "block-6-triples":
        triples = dict.fromkeys(itertools.combinations(range(1, 7), 3), calc.algebra.one())
        params = SolverParams(SolverParams.zeros(calc).X, triples)
    counts = count_all_zero_calls(monkeypatch)
    conn = build_levi_civita(metric, params)
    assert counts == ALL_ZERO_CALLS[name]
    monkeypatch.undo()
    assert verify_levi_civita(conn, metric).passed
    # every zero entry of the solver's arrays is the algebra's one zero
    for array in (conn.gamma, compute_F(metric), compat_defect(conn, metric)):
        entries = [x for plane in array for row in plane for x in row]
        assert all(x is zero for x in entries if not x.terms)
        assert any(x is zero for x in entries)


# -- the R-equation check ------------------------------------------------------------


@pytest.mark.parametrize(
    "perturbed",
    [[(0, 0, 0)], [(2, 2, 2)], [(0, 1, 1), (0, 2, 0)]],
    ids=("first", "last", "two"),
)
def test_r_equation_failure_names_the_literal_search_index(calc3, monkeypatch, perturbed):
    # antisymmetrize(R)[a][c][b] = (R_a)_cb - (R_b)_ca must equal F_cab; an
    # entry of the left side made wrong is named as the index loop over
    # (a, b, c) names it
    import nctorus.levicivita as lc

    alg = calc3.algebra
    x = alg.gen(1) * alg.gen(3) * 2
    F = compute_F(congruence_metric(calc3, (1, 2, x + x.star())))
    seen = []

    def wrong(array):
        lhs = [[list(row) for row in plane] for plane in lc_antisymmetrize(array)]
        for a, c, b in perturbed:
            lhs[a][c][b] = lhs[a][c][b] + alg.one()
        seen.append(lhs)
        return tuple(tuple(map(tuple, plane)) for plane in lhs)

    lc_antisymmetrize = lc.antisymmetrize
    monkeypatch.setattr(lc, "antisymmetrize", wrong)
    with pytest.raises(InternalVerificationFailure) as info:
        solve_R(calc3, F, SolverParams.zeros(calc3))
    (lhs,) = seen
    a, b, c = next(
        (a, b, c)
        for a, b, c in itertools.product(range(3), repeat=3)
        if lhs[a][c][b] != F[c][a][b]
    )
    assert str(info.value) == "R equation fails at (a=%d, b=%d, c=%d)" % (a + 1, b + 1, c + 1)
    # the loop runs over (a, b, c), and the left side is indexed [a][c][b]
    assert (a, c, b) == min(perturbed, key=lambda index: (index[0], index[2], index[1]))


# -- the parameter readout: (X, H) read back from a built gamma -------------------


def parameters_of(R, F):
    """(X, H) of a hermitian solution R of antisymmetrize(R) = F:
    X_ab = (R_a)_bb and H_abc = (R_a)_bc - (f_abc - f_bca + f_cab*) / 2
    for every a < b < c, 1-based keys, zero values included."""
    n = len(R)
    X = tuple(tuple(R[a][b][b] for b in range(n)) for a in range(n))
    H = {
        (a + 1, b + 1, c + 1): R[a][b][c]
        - (F[a][b][c] - F[b][c][a] + F[c][a][b].star()) * Fraction(1, 2)
        for a, b, c in itertools.combinations(range(n), 3)
    }
    return X, H


def read_parameters(metric, gamma):
    """(X, H) read back from a Levi-Civita ``gamma``:
    K_a = gamma_a h^up - 1/2 d_a h, U_a = -i K_a, R_a = h_low U_a h_low,
    and ``parameters_of(R, F)``."""
    half, minus_i = Fraction(1, 2), GaussianRational(0, -1)
    R = []
    for plane, dh in zip(gamma, metric.d_upper):
        K = [
            [k - d * half for k, d in zip(k_row, d_row)]
            for k_row, d_row in zip(matmul(plane, metric.upper), dh)
        ]
        U = [[k * minus_i for k in row] for row in K]
        R.append(matmul(matmul(metric.lower, U), metric.lower))
    return parameters_of(R, compute_F(metric))


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("commutative", (False, True), ids=("q", "commutative"))
def test_parameters_read_back_from_the_built_connection(n, commutative):
    # 3 seeded weakly symmetric 2-step congruence metrics per case, the
    # lower matrix passed in, each built from random hermitian X and H:
    # the readout returns the validated parameters, and rebuilding from
    # them gives an identical gamma
    calc = Calculus.torus(n, commutative=commutative)
    alg = calc.algebra
    rng = random.Random("readout/%d/%s" % (n, commutative))
    built = 0
    while built < 3:
        metric = congruence_metric(calc, *random_congruence_steps(rng, alg, 2))
        if not weak_symmetry_defect(metric).is_zero():
            continue
        X, H = [[alg.zero()]], {}
        while not any(x.terms for row in X for x in row):
            X = [[random_hermitian(rng, alg, 1, 1) for _ in range(n)] for _ in range(n)]
        while not any(h.terms for h in H.values()):
            H = {
                key: random_hermitian(rng, alg, 1, 1)
                for key in itertools.combinations(range(1, n + 1), 3)
            }
        params = SolverParams(X, H).validated(calc)
        gamma = build_levi_civita(metric, params).gamma
        X_read, H_read = read_parameters(metric, gamma)
        assert X_read == params.X
        assert H_read == {key: params.triples.get(key, alg.zero()) for key in H_read}
        assert build_levi_civita(metric, SolverParams(X_read, H_read)).gamma == gamma
        built += 1


# -- completeness: (X, H) reach every hermitian solution ----------------------------


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("commutative", (False, True), ids=("q", "commutative"))
def test_every_hermitian_solution_is_reached_by_its_parameters(n, commutative):
    """``solve_R``'s (X, H) reach every hermitian R, and so every
    Levi-Civita connection.

    A compatible gamma is (1/2 d_a h + K_a) h_lower with K_a
    antihermitian.  With the hermitian R_a = h_lower (-i K_a) h_lower,
    gamma is torsion free exactly when antisymmetrize(R) = F, that is
    (R_a)_cb - (R_b)_ca = F_cab, the system ``solve_R`` solves.  So the
    Levi-Civita connections of a metric are the hermitian solutions R of
    that system, one to one.  Here R is drawn at random, not by the
    solver, and F is its own antisymmetrization.  The X and H that
    ``parameters_of`` reads off R are hermitian, and ``solve_R`` returns R
    itself from them.  So an antihermitian array added to i U, the one
    other freedom of a compatible gamma, gives no Levi-Civita connection
    that some (X, H) does not give.
    """
    calc = Calculus.torus(n, commutative=commutative)
    alg = calc.algebra
    rng = random.Random("completeness/%d/%s" % (n, commutative))
    for _ in range(5):
        R = [random_hermitian_matrix(rng, alg, n) for _ in range(n)]
        F = [
            [[R[a][c][b] - R[b][c][a] for b in range(n)] for a in range(n)]
            for c in range(n)
        ]
        X, H = parameters_of(R, F)
        assert all(h.is_hermitian() for h in H.values())
        expected = tuple(tuple(map(tuple, plane)) for plane in R)
        assert solve_R(calc, F, SolverParams(X, H)) == expected
