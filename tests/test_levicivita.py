from fractions import Fraction
import random

import pytest

from nctorus import (
    Calculus,
    Connection,
    FTensor,
    HermitianMetric,
    InternalVerificationFailure,
    NotInvertibleByElimination,
    NotWeaklySymmetric,
    ParamViolation,
    RSet,
    SolvabilityViolated,
    SolverParams,
    assemble_U,
    build_levi_civita,
    compute_F,
    invert_metric,
    solvability_check,
    solve_R,
    symmetry_form,
    verify_levi_civita,
    weak_symmetry_defect,
)
from conftest import (
    block_metric,
    congruence_metric,
    random_block_metric,
    random_diagonal_metric,
    random_element,
    random_hermitian,
    random_monomial,
)
from test_metric import identity_metric


def params_with_x11(calc, x11):
    z = calc.algebra.zero()
    x = [[z for _ in range(3)] for _ in range(3)]
    x[0][0] = x11
    return SolverParams(tuple(tuple(row) for row in x), {})


# -- F tensor ------------------------------------------------------------------


def test_f_identity_metric_vanishes(calc3):
    tensor = compute_F(identity_metric(calc3))
    for c in (1, 2, 3):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert tensor[c, a, b].is_zero()


def test_f_block_entries(calc3):
    alg = calc3.algebra
    h0 = alg.gen(1)
    metric = block_metric(calc3, h0)
    tensor = compute_F(metric)
    hinv = h0.invert()
    half_i = alg.scalar(0, Fraction(1, 2))
    # F_312 = -(i/2) d_1 h_32 = -(i/2) d_1 (h0^-1)
    assert tensor[3, 1, 2] == -(half_i * hinv.derive(1))
    # F_231 = (i/2) d_1 h_23 = (i/2) d_1 (h0^-1)*
    assert tensor[2, 3, 1] == half_i * hinv.star().derive(1)
    assert tensor[1, 2, 3].is_zero()


def test_f_antisymmetry_validated(calc3):
    alg = calc3.algebra
    z = alg.zero()
    bad = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    bad[0][0][1] = alg.one()
    with pytest.raises(ValueError):
        FTensor(calc3, bad)


def first_antisymmetry_failure(entries):
    """The FTensor message for the first (c, a, b) over all a, b where
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
            FTensor(calc3, entries)
            continue
        with pytest.raises(ValueError) as info:
            FTensor(calc3, entries)
        assert str(info.value) == expected


def cyclic_defect(tensor, a, b, c):
    cyc = tensor[a, b, c] + tensor[b, c, a] + tensor[c, a, b]
    return cyc + cyc.star()


def test_f_cyclic_defect_equals_i_drho(rng, calc3):
    alg = calc3.algebra
    for _ in range(10):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        tensor = compute_F(metric)
        drho = weak_symmetry_defect(metric)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                for c in (1, 2, 3):
                    assert cyclic_defect(tensor, a, b, c) == alg.i() * drho(a, b, c)


def test_f_cyclic_defect_equals_i_drho_nonabelian(rng):
    heis = Calculus.torus(3, brackets={(3, 1, 2): 1})
    alg = heis.algebra
    z, one = alg.zero(), alg.one()
    h0 = alg.gen(1) * alg.gen(3)
    upper = [[one, z, z], [z, z, h0], [z, h0.star(), z]]
    metric = HermitianMetric(heis, upper)
    tensor = compute_F(metric)
    drho = weak_symmetry_defect(metric)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                assert cyclic_defect(tensor, a, b, c) == alg.i() * drho(a, b, c)


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
    tensor = compute_F(identity_metric(calc3))
    rset = solve_R(tensor, SolverParams.zeros(calc3))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                assert rset.entry(a, b, c).is_zero()


def test_solve_r_block_u2(calc3):
    alg = calc3.algebra
    h0 = alg.gen(2)
    metric = block_metric(calc3, h0)
    x11 = alg.gen(1) + alg.gen(1, -1)
    rset = solve_R(compute_F(metric), params_with_x11(calc3, x11))
    hinv = h0.invert()
    half_i = alg.scalar(0, Fraction(1, 2))
    assert rset.entry(1, 1, 1) == x11
    # (R_2)_23 = -(i/2) d_2 (h0^-1)*  and its conjugate below the diagonal
    assert rset.entry(2, 2, 3) == -(half_i * hinv.star().derive(2))
    assert rset.entry(2, 3, 2) == half_i * hinv.derive(2)
    # every other entry vanishes for this metric
    zero_entries = [
        (a, b, c)
        for a in (1, 2, 3)
        for b in (1, 2, 3)
        for c in (1, 2, 3)
        if (a, b, c) not in ((1, 1, 1), (2, 2, 3), (2, 3, 2))
    ]
    for key in zero_entries:
        assert rset.entry(*key).is_zero(), key


def test_solve_r_rejects_unsolvable(calc3):
    metric = block_metric(calc3, calc3.algebra.gen(1))
    with pytest.raises(SolvabilityViolated):
        solve_R(compute_F(metric), SolverParams.zeros(calc3))


def test_solve_r_rejects_bad_params(calc3):
    tensor = compute_F(identity_metric(calc3))
    with pytest.raises(ParamViolation):
        solve_R(tensor, params_with_x11(calc3, calc3.algebra.i()))
    bad_h = SolverParams.zeros(calc3)
    bad_h.triples[(1, 2, 3)] = calc3.algebra.i()
    with pytest.raises(ParamViolation):
        solve_R(tensor, bad_h)
    bad_key = SolverParams.zeros(calc3)
    bad_key.triples[(2, 1, 3)] = calc3.algebra.one()
    with pytest.raises(ParamViolation):
        solve_R(tensor, bad_key)


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
    """The RSet message for the first (a, b, c) over all b, c where
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
            RSet(calc3, matrices)
            continue
        with pytest.raises(ValueError) as info:
            RSet(calc3, matrices)
        assert str(info.value) == expected


def test_solve_r_round_trip(rng, calc3):
    """Forward-construction oracle: build F from random hermitian matrices,
    solve, and check the defining equation plus hermiticity; with the
    extracted parameters the original matrices are reproduced exactly."""
    for _ in range(10):
        source = random_hermitian_matrices(rng, calc3)
        # entries[c][a][b] = (R_a)_cb - (R_b)_ca
        entries = [
            [
                [source[a][c][b] - source[b][c][a] for b in range(3)]
                for a in range(3)
            ]
            for c in range(3)
        ]
        tensor = FTensor(calc3, entries)
        assert solvability_check(tensor) is None
        x = tuple(
            tuple(source[a][b][b] for b in range(3)) for a in range(3)
        )
        h123 = source[2][0][1] + (
            tensor[1, 2, 3] + tensor[2, 3, 1] + tensor[3, 1, 2].star()
        ) * Fraction(1, 2)
        assert h123.is_hermitian()
        params = SolverParams(x, {(1, 2, 3): h123})
        rset = solve_R(tensor, params)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                for c in (1, 2, 3):
                    assert (
                        rset.entry(a, c, b) - rset.entry(b, c, a) == tensor[c, a, b]
                    )
                    assert rset.entry(a, b, c).star() == rset.entry(a, c, b)
                    assert rset.entry(a, b, c) == source[a - 1][b - 1][c - 1]


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
        rset = solve_R(compute_F(metric), SolverParams(x, {(1, 2, 3): h123}))
        display = displayed_general_solution(metric, x, h123)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert rset.matrices[a][b][c] == display[a][b][c], (a, b, c)


# -- assemble_U -----------------------------------------------------------------------


def test_assemble_u_zero(calc3):
    metric = identity_metric(calc3)
    rset = solve_R(compute_F(metric), SolverParams.zeros(calc3))
    u = assemble_U(metric, rset)
    assert all(u[a][i][j].is_zero() for a in range(3) for i in range(3) for j in range(3))


def test_assemble_u_block_entry(calc3):
    alg = calc3.algebra
    h0 = alg.gen(2) * alg.gen(3)
    metric = block_metric(calc3, h0)
    rset = solve_R(compute_F(metric), SolverParams.zeros(calc3))
    u = assemble_U(metric, rset)
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
        rset = solve_R(compute_F(metric), SolverParams.zeros(calc3))
        u = assemble_U(metric, rset)
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
        rset = solve_R(compute_F(metric), SolverParams(x, {}))
        u = assemble_U(metric, rset)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    total = alg.zero()
                    for i in range(3):
                        for j in range(3):
                            total = total + (
                                metric.lower[b][i] * u[a][i][j] * metric.lower[j][c]
                            )
                    assert total == rset.matrices[a][b][c]


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
    assert report.torsion_zero
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
    # a diagonal antihermitian shift acts like an X shift and verifies
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    z = alg.zero()
    anti = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    anti[0][0][0] = alg.i()
    params = SolverParams(
        tuple(tuple(z for _ in range(3)) for _ in range(3)),
        {},
        tuple(tuple(tuple(row) for row in plane) for plane in anti),
    )
    conn = build_levi_civita(metric, params)
    assert conn.gamma[0][0][0] == alg.i()
    assert verify_levi_civita(conn, metric).passed


def test_antihermitian_param_breaking_torsion_raises(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    z = alg.zero()
    anti = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    anti[0][0][1] = alg.one()
    anti[0][1][0] = -alg.one()
    params = SolverParams(
        tuple(tuple(z for _ in range(3)) for _ in range(3)),
        {},
        tuple(tuple(tuple(row) for row in plane) for plane in anti),
    )
    with pytest.raises(ParamViolation) as info:
        build_levi_civita(metric, params)
    assert str(info.value) == (
        "antihermitian parameter A breaks torsion freedom: T^1(d_1, d_3) = U2"
    )


def test_torsion_breaking_a_with_many_terms_is_cut_in_the_message(calc3):
    # over the identity metric gamma = A, so T^1(d_1, d_2) is A^12_1 itself
    alg = calc3.algebra
    x = alg.zero()
    for k in range(20):
        x = x + alg.gen(3, k)
    z = alg.zero()
    anti = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    anti[0][0][1] = x
    anti[0][1][0] = -x.star()
    params = SolverParams(
        tuple(tuple(z for _ in range(3)) for _ in range(3)),
        {},
        tuple(tuple(tuple(row) for row in plane) for plane in anti),
    )
    with pytest.raises(ParamViolation) as info:
        build_levi_civita(identity_metric(calc3), params)
    assert str(info.value) == (
        "antihermitian parameter A breaks torsion freedom: T^1(d_1, d_2) = "
        + " + ".join(["1", "U3"] + ["U3^%d" % k for k in range(2, 16)])
        + " + ... (20 terms)"
    )


@pytest.mark.parametrize(
    "with_a, torsion_zero, compat_zero",
    [(False, False, True), (True, True, False), (True, False, False), (True, True, True)],
)
def test_other_verification_failures_stay_internal(
    calc3, monkeypatch, with_a, torsion_zero, compat_zero
):
    # only an A that keeps compatibility and breaks torsion is the user's fault
    import nctorus.levicivita as lc

    z = calc3.algebra.zero()
    zeros = tuple(tuple(tuple(z for _ in range(3)) for _ in range(3)) for _ in range(3))
    params = SolverParams.zeros(calc3)
    if with_a:
        params.antiherm = zeros
    failed = lc.LCVerification(
        (calc3.zero_form(2),) * 3, zeros, torsion_zero, compat_zero, False
    )
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
        entries = [
            [[source[a][c][b] - source[b][c][a] for b in range(n)] for a in range(n)]
            for c in range(n)
        ]
        tensor = FTensor(calc, entries)
        x_params = tuple(tuple(source[a][b][b] for b in range(n)) for a in range(n))
        triples = {}
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                for c in range(b + 1, n + 1):
                    h = source[c - 1][a - 1][b - 1] + (
                        tensor[a, b, c] + tensor[b, c, a] + tensor[c, a, b].star()
                    ) * Fraction(1, 2)
                    assert h.is_hermitian()
                    triples[(a, b, c)] = h
        rset = solve_R(tensor, SolverParams(x_params, triples))
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    assert rset.entry(a, c, b) - rset.entry(b, c, a) == tensor[c, a, b]
                    assert rset.entry(a, b, c) == source[a - 1][b - 1][c - 1]


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
    monkeypatch.setattr(lc, "solvability_check", lambda tensor: ((1, 2, 3), tensor[1, 2, 3]))
    with pytest.raises(SolvabilityViolated):
        build_levi_civita(block_metric(calc3, calc3.algebra.gen(2)))
