"""Matrix products in metrics, connections and the solver against oracles.

Every library function that multiplies matrices of algebra elements, the
F tensor, the torsion-free projection and the derived metric d_a h^ij
are compared with their literal index-sum definitions, written out below,
on seeded dense metrics h = L D L* (L unit lower triangular, D rational
constants) and on random arrays with zero entries.  Each case runs for
n = 3..5 over an abelian, a bracket (c^3_12 = 1) and a commutative
calculus; the compatibility operators also run at n = 2, where the two
bracket families take two-dimensional constants.  The adjoint identity
h_ij h^jk = (h^kj h_ji)* for hermitian pairs, on which metric validation
rests, is checked on pairs that are not inverses.
"""

from fractions import Fraction
import random

import pytest

from nctorus import (
    Calculus,
    Connection,
    HermitianMetric,
    NotHermitian,
    NotInverse,
    NotInvertibleByElimination,
    RSet,
    SolverParams,
    assemble_U,
    build_levi_civita,
    compat_defect,
    compatible_connection,
    compute_F,
    metric_pairing_operator,
    solve_R,
    torsion,
    torsion_free_from,
)
from nctorus.algebra import matmul

from conftest import (
    random_antihermitian_array,
    random_hermitian,
    random_hermitian_matrix,
    random_monomial,
)

HALF = Fraction(1, 2)
# structure constants {(e, a, b): c^e_ab}: Heisenberg, and an so(3)-type
# algebra on d_1, d_2, d_3 with a nonzero constant in every slot
BRACKETS = {
    "bracket": {(3, 1, 2): 1},
    "so3": {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1},
}
# their stand-ins at n = 2: [d_1, d_2] = d_2, and [d_1, d_2] = d_1 + d_2
# with a nonzero constant in every slot
BRACKETS_2D = {"bracket": {(2, 1, 2): 1}, "so3": {(1, 1, 2): 1, (2, 1, 2): 1}}
FAMILIES = ("abelian", "bracket", "so3", "commutative")
CASES = [(family, n) for family in FAMILIES for n in (3, 4, 5)]


def make_calculus(family, n):
    if family in BRACKETS:
        return Calculus.torus(n, brackets=(BRACKETS if n > 2 else BRACKETS_2D)[family])
    return Calculus.torus(n, commutative=family == "commutative")


def case_rng(name, family, n):
    return random.Random("%s/%s/%d" % (name, family, n))


def ldl_upper(rng, alg, entry, n=None):
    """h = L D L*, n x n (default alg.n), with n - 1 random strictly lower
    entries of L drawn by ``entry`` and nonzero rational constants on D."""
    n = n if n is not None else alg.n
    z, one = alg.zero(), alg.one()
    lower_tri = [[one if i == j else z for j in range(n)] for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(slots, n - 1):
        lower_tri[i][j] = entry()
    diag = [
        alg.scalar(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
        for _ in range(n)
    ]
    upper = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                upper[i][j] = upper[i][j] + lower_tri[i][k] * diag[k] * lower_tri[j][k].star()
    return upper


def dense_metric(rng, calc, block=None):
    """A metric whose leading block x block corner (all of it by default)
    is dense, with random monomial L entries, and whose rest is 1."""
    alg = calc.algebra
    n = calc.n
    block = block if block is not None else n
    corner = ldl_upper(rng, alg, lambda: random_monomial(rng, alg, 1), block)
    upper = [
        [
            corner[i][j] if i < block and j < block else alg.scalar(int(i == j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return HermitianMetric(calc, upper)


def symmetric_dense_metric(rng, calc):
    """A dense metric with d(rho) = 0: L's entries are hermitian elements of
    the commutative subalgebra generated by U_1, so h and its inverse are
    symmetric matrices of hermitian elements and rho = 0."""
    alg = calc.algebra

    def entry():
        c = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
        return (alg.gen(1) + alg.gen(1, -1)) * c

    return HermitianMetric(calc, ldl_upper(rng, alg, entry))


def sparse_element(rng, alg):
    """Zero about half the time, otherwise a one- or two-term element."""
    if rng.random() < 0.5:
        return alg.zero()
    value = random_monomial(rng, alg, 1)
    if rng.random() < 0.5:
        value = value + random_monomial(rng, alg, 1)
    return value


def sparse_array(rng, calc):
    """An n x n x n array of sparse elements."""
    n = calc.n
    return tuple(
        tuple(tuple(sparse_element(rng, calc.algebra) for _ in range(n)) for _ in range(n))
        for _ in range(n)
    )


def sparse_hermitian_matrices(rng, calc):
    n = calc.n
    alg = calc.algebra
    out = []
    for _ in range(n):
        m = [[alg.zero()] * n for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.5:
                m[i][i] = random_hermitian(rng, alg, 1, 1)
            for j in range(i + 1, n):
                m[i][j] = sparse_element(rng, alg)
                m[j][i] = m[i][j].star()
        out.append(m)
    return out


# -- literal index-sum definitions ----------------------------------------------


def oracle_U(upper, matrices):
    """U^ij_a = sum_b sum_c h^ib (R_a)_bc h^cj."""
    n = len(upper)
    zero = upper[0][0].algebra.zero()
    out = []
    for r_a in matrices:
        plane = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for b in range(n):
                    for c in range(n):
                        plane[i][j] = plane[i][j] + upper[i][b] * r_a[b][c] * upper[c][j]
        out.append(plane)
    return out


def oracle_compat(gamma, upper):
    """C^ij_a = d_a h^ij - sum_k gamma^i_ak h^kj - (sum_k gamma^j_ak h^ki)*."""
    n = len(upper)
    out = []
    for a in range(len(gamma)):
        plane = []
        for i in range(n):
            row = []
            for j in range(n):
                value = upper[i][j].derive(a + 1)
                for k in range(n):
                    value = value - gamma[a][i][k] * upper[k][j]
                for k in range(n):
                    value = value - (gamma[a][j][k] * upper[k][i]).star()
                row.append(value)
            plane.append(row)
        out.append(plane)
    return out


def oracle_pairing(array, upper):
    """T_h(alpha)^ij_a = sum_k alpha^i_ak h^kj + (sum_k alpha^j_ak h^ki)*."""
    n = len(upper)
    out = []
    for a in range(len(array)):
        plane = []
        for i in range(n):
            row = []
            for j in range(n):
                value = upper[0][0].algebra.zero()
                for k in range(n):
                    value = value + array[a][i][k] * upper[k][j]
                    value = value + (array[a][j][k] * upper[k][i]).star()
                row.append(value)
            plane.append(row)
        out.append(plane)
    return out


def oracle_gamma(metric, extra):
    """gamma^i_ak = sum_j (1/2 d_a h^ij + extra^ij_a) h_jk."""
    n = metric.calculus.n
    zero = metric.calculus.algebra.zero()
    out = []
    for a in range(metric.calculus.n):
        plane = [[zero] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    coeff = metric.upper[i][j].derive(a + 1) * HALF + extra[a][i][j]
                    plane[i][k] = plane[i][k] + coeff * metric.lower[j][k]
        out.append(plane)
    return out


def oracle_torsion_free(base, beta):
    """(gamma^i_ab + gamma^i_ba - c^i_ab) / 2 + beta^i_ab, entry by entry."""
    calc = base.calculus
    n = calc.n
    out = []
    for a in range(1, n + 1):
        plane = []
        for i in range(1, n + 1):
            row = []
            for b in range(1, n + 1):
                value = base.gamma[a - 1][i - 1][b - 1] + base.gamma[b - 1][i - 1][a - 1]
                c = calc.lie.bracket(i, a, b)
                if c:
                    value = value - calc.algebra.scalar(c)
                value = value * HALF
                if beta is not None:
                    value = value + beta[a - 1][i - 1][b - 1]
                row.append(value)
            plane.append(row)
        out.append(plane)
    return out


def oracle_d_upper(metric):
    """d_a h^ij for a = 1..n, each entry derived on its own."""
    return [
        [[entry.derive(a) for entry in row] for row in metric.upper]
        for a in range(1, metric.calculus.n + 1)
    ]


def oracle_F(metric):
    """F_cab = -(i/2) d_a h_cb + (i/2) d_b h_ca + i c^e_ab h_ce, every
    (c, a, b) computed on its own, the diagonal a = b included."""
    calc = metric.calculus
    n = calc.n
    alg = calc.algebra
    half_i = alg.scalar(0, HALF)
    unit_i = alg.scalar(0, 1)
    out = []
    for c in range(1, n + 1):
        plane = []
        for a in range(1, n + 1):
            row = []
            for b in range(1, n + 1):
                value = (
                    half_i * metric.lower[c - 1][b - 1].derive(a) * (-1)
                    + half_i * metric.lower[c - 1][a - 1].derive(b)
                )
                for e in range(1, n + 1):
                    const = calc.lie.bracket(e, a, b)
                    if const:
                        value = value + unit_i * metric.lower[c - 1][e - 1] * const
                row.append(value)
            plane.append(row)
        out.append(plane)
    return out


def oracle_inverse_failure(upper, lower):
    """The message of the first failing entry of h^ij h_jk = delta, then of
    h_ij h^jk = delta, or None when both identities hold."""
    n = len(upper)
    alg = upper[0][0].algebra
    for first, second, label in ((upper, lower, "h^ij h_jk"), (lower, upper, "h_ij h^jk")):
        for i in range(n):
            for k in range(n):
                total = alg.zero()
                for j in range(n):
                    total = total + first[i][j] * second[j][k]
                if total != (alg.one() if i == k else alg.zero()):
                    return "%s fails at (%d, %d): got %r" % (label, i + 1, k + 1, total)
    return None


def as_lists(array):
    return [[list(row) for row in plane] for plane in array]


# -- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("family,n", CASES)
def test_validate_matches_literal_products(family, n):
    rng = case_rng("validate", family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc)
    assert oracle_inverse_failure(metric.upper, metric.lower) is None
    # A real constant added to one diagonal entry keeps the lower matrix
    # hermitian but breaks both inverse identities.
    p = rng.randrange(n)
    lower = [list(row) for row in metric.lower]
    lower[p][p] = lower[p][p] + calc.algebra.scalar(rng.choice((1, 2)))
    expected = oracle_inverse_failure(metric.upper, lower)
    assert expected is not None
    with pytest.raises(NotInverse) as excinfo:
        HermitianMetric(calc, metric.upper, lower)
    assert str(excinfo.value) == expected


@pytest.mark.parametrize("family,n", CASES)
def test_hermitian_pair_products_are_adjoint(family, n):
    # LU = (UL)* for hermitian U, L, inverse or not: the identity that lets
    # validate form h^ij h_jk alone
    rng = case_rng("adjoint", family, n)
    alg = make_calculus(family, n).algebra
    for _ in range(3):
        upper, lower = (random_hermitian_matrix(rng, alg, n) for _ in range(2))
        assert oracle_inverse_failure(upper, lower) is not None
        forward, backward = matmul(upper, lower), matmul(lower, upper)
        for i in range(n):
            for k in range(n):
                assert backward[i][k] == forward[k][i].star()


def test_hermiticity_is_checked_before_elimination():
    # every column of h has no monomial pivot, so elimination would fail;
    # the hermiticity check runs first
    calc = Calculus.torus(3)
    alg = calc.algebra
    z = alg.zero()
    fat = alg.scalar(2) + alg.gen(1) + alg.gen(1, -1)
    upper = [[fat if i == j else z for j in range(3)] for i in range(3)]
    with pytest.raises(NotInvertibleByElimination):
        HermitianMetric(calc, upper)
    upper[0][1] = alg.gen(2)
    with pytest.raises(NotHermitian) as info:
        HermitianMetric(calc, upper)
    assert str(info.value) == "entry (1, 2) is not the star of entry (2, 1)"


@pytest.mark.parametrize("family,n", CASES)
def test_compute_F_matches_literal_loop(family, n):
    rng = case_rng("compute_F", family, n)
    metric = dense_metric(rng, make_calculus(family, n))
    assert as_lists(compute_F(metric).entries) == oracle_F(metric)


@pytest.mark.parametrize("family,n", CASES)
def test_assemble_U_matches_double_sum(family, n):
    rng = case_rng("assemble_U", family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc)
    matrices = sparse_hermitian_matrices(rng, calc)
    assert as_lists(assemble_U(metric, RSet(calc, matrices))) == oracle_U(
        metric.upper, matrices
    )


@pytest.mark.parametrize("family,n", CASES)
def test_compat_defect_and_pairing_match_index_sums(family, n):
    rng = case_rng("compat", family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc)
    gamma = sparse_array(rng, calc)
    assert as_lists(compat_defect(Connection(calc, gamma), metric)) == oracle_compat(
        gamma, metric.upper
    )
    assert as_lists(metric_pairing_operator(gamma, metric)) == oracle_pairing(
        gamma, metric.upper
    )


@pytest.mark.parametrize("family,n", CASES)
def test_compatible_connection_matches_index_sum(family, n):
    rng = case_rng("compatible", family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc)
    antiherm = random_antihermitian_array(rng, calc)
    conn = compatible_connection(metric, antiherm)
    assert as_lists(conn.gamma) == oracle_gamma(metric, antiherm)


@pytest.mark.parametrize("family,n", CASES)
def test_build_gamma_matches_index_sum(family, n):
    rng = case_rng("build", family, n)
    calc = make_calculus(family, n)
    alg = calc.algebra
    metric = symmetric_dense_metric(rng, calc)
    z = alg.zero()
    X = [[z] * n for _ in range(n)]
    for _ in range(2):
        X[rng.randrange(n)][rng.randrange(n)] = random_hermitian(rng, alg, 1, 1)
    params = SolverParams(
        tuple(tuple(row) for row in X), {(1, 2, 3): random_hermitian(rng, alg, 1, 1)}
    )
    conn = build_levi_civita(metric, params)
    rset = solve_R(compute_F(metric), params)
    unit_i = alg.scalar(0, 1)
    i_u = [
        [[unit_i * entry for entry in row] for row in plane]
        for plane in oracle_U(metric.upper, rset.matrices)
    ]
    assert as_lists(conn.gamma) == oracle_gamma(metric, i_u)


@pytest.mark.parametrize("family,n", CASES)
@pytest.mark.parametrize("with_beta", (False, True))
def test_torsion_free_from_matches_literal_loop(family, n, with_beta):
    rng = case_rng("torsion_free/%s" % with_beta, family, n)
    calc = make_calculus(family, n)
    base = Connection(calc, sparse_array(rng, calc))
    beta = None
    if with_beta:
        half = sparse_array(rng, calc)
        beta = tuple(
            tuple(tuple(half[a][i][b] + half[b][i][a] for b in range(n)) for i in range(n))
            for a in range(n)
        )
    conn = torsion_free_from(base, beta)
    assert as_lists(conn.gamma) == oracle_torsion_free(base, beta)
    assert all(form.is_zero() for form in torsion(conn))


# (family, n, size of the dense corner of the metric)
BLOCK_CASES = [(family, 3, 2) for family in FAMILIES] + [
    (family, n, n) for family, n in CASES
]


@pytest.mark.parametrize("family,n,block", BLOCK_CASES)
def test_d_upper_matches_entrywise_derive(family, n, block):
    rng = case_rng("d_upper/%d" % block, family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc, block)
    expected = oracle_d_upper(metric)
    assert as_lists(metric.d_upper) == expected
    assert metric.d_upper is metric.d_upper  # derived once, then kept
    # the derived matrices stay out of == and repr
    fresh = HermitianMetric(calc, metric.upper, metric.lower)
    assert fresh == metric and repr(fresh) == repr(metric)


@pytest.mark.parametrize("family", FAMILIES)
def test_compat_defect_at_rank_two_matches_index_sum(family):
    rng = case_rng("compat/rank2", family, 2)
    calc = make_calculus(family, 2)
    metric = dense_metric(rng, calc)
    gamma = sparse_array(rng, calc)
    assert as_lists(compat_defect(Connection(calc, gamma), metric)) == oracle_compat(
        gamma, metric.upper
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("with_antiherm", (False, True))
def test_compatible_connection_at_rank_two_matches_index_sum(family, with_antiherm):
    rng = case_rng("compatible/rank2/%s" % with_antiherm, family, 2)
    calc = make_calculus(family, 2)
    metric = dense_metric(rng, calc)
    zero = calc.algebra.zero()
    antiherm = (
        random_antihermitian_array(rng, calc)
        if with_antiherm
        else tuple(((zero, zero), (zero, zero)) for _ in range(2))
    )
    conn = compatible_connection(metric, antiherm if with_antiherm else None)
    assert as_lists(conn.gamma) == oracle_gamma(metric, antiherm)
    defect = compat_defect(conn, metric)
    assert all(x.is_zero() for plane in defect for row in plane for x in row)
