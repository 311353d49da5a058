"""Matrix products in metrics, connections and the solver against oracles.

Every library function that multiplies matrices of algebra elements, the
F tensor, the slot antisymmetrizer and the derived metric d_a h^ij are
compared with their literal index-sum definitions, written out below,
on seeded dense metrics h = L D L* (L unit lower triangular, D rational
constants) and on random arrays with zero entries.  Each case runs for
n = 3..5 over an abelian, a bracket (c^3_12 = 1) and a commutative
calculus; the compatibility operators also run at n = 2, where the two
bracket families take two-dimensional constants.  The adjoint identity
h_ij h^jk = (h^kj h_ji)* for hermitian pairs, on which metric validation
rests, is checked on pairs that are not inverses.  The passes that skip
zero entries also meet the edge shapes of that skipping: all-zero arrays,
arrays whose only nonzero entry is the last one, arrays with a zero row,
n = 1 and 2, and an so(3)-type calculus whose metric has a row that is
zero off the diagonal; there every zero they return is the algebra's one
zero.
"""

from fractions import Fraction
from itertools import product
import random

import pytest

from nctorus import (
    Calculus,
    Connection,
    HermitianMetric,
    NotHermitian,
    NotInverse,
    NotInvertibleByElimination,
    SolverParams,
    antisymmetrize,
    assemble_U,
    build_levi_civita,
    compat_defect,
    compute_F,
    metric_pairing_operator,
    solve_R,
    torsion,
)
from nctorus.algebra import matmul
from nctorus.forms import d_array

from conftest import (
    literal_projection,
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


def oracle_projection(base):
    """(gamma^i_ab + gamma^i_ba - c^i_ab) / 2, entry by entry."""
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
                row.append(value * HALF)
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
    assert as_lists(compute_F(metric)) == oracle_F(metric)


@pytest.mark.parametrize("family,n", CASES)
def test_assemble_U_matches_double_sum(family, n):
    rng = case_rng("assemble_U", family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc)
    matrices = sparse_hermitian_matrices(rng, calc)
    assert as_lists(assemble_U(metric, matrices)) == oracle_U(
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
    # the compatible family (1/2 d_a h + A_a) h_lower, summed literally, has
    # zero defect for an antihermitian A, by compat_defect and by the index sum
    rng = case_rng("compatible", family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc)
    gamma = oracle_gamma(metric, random_antihermitian_array(rng, calc))
    zero = [[[calc.algebra.zero()] * n for _ in range(n)] for _ in range(n)]
    assert as_lists(compat_defect(Connection(calc, gamma), metric)) == zero
    assert oracle_compat(gamma, metric.upper) == zero


@pytest.mark.parametrize("family,n", CASES)
def test_every_compatible_connection_is_in_the_family(family, n):
    # any gamma is (1/2 d_a h + K_a) h_lower with K_a = gamma_a h^up - 1/2 d_a h,
    # and its defect is -(K_a + K_a^dagger): gamma is compatible exactly when
    # K is antihermitian, so the family above is every compatible connection
    rng = case_rng("family", family, n)
    calc = make_calculus(family, n)
    metric = dense_metric(rng, calc)
    gamma = sparse_array(rng, calc)
    upper, d_upper = metric.upper, oracle_d_upper(metric)
    K = []
    for a in range(n):
        plane = [[-(d_upper[a][i][j] * HALF) for j in range(n)] for i in range(n)]
        for i, j, k in product(range(n), repeat=3):
            plane[i][j] = plane[i][j] + gamma[a][i][k] * upper[k][j]
        K.append(plane)
    assert oracle_gamma(metric, K) == as_lists(gamma)
    expected = [
        [[-(plane[i][j] + plane[j][i].star()) for j in range(n)] for i in range(n)]
        for plane in K
    ]
    assert as_lists(compat_defect(Connection(calc, gamma), metric)) == expected


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
    R = solve_R(calc, compute_F(metric), params)
    unit_i = alg.scalar(0, 1)
    i_u = [
        [[unit_i * entry for entry in row] for row in plane]
        for plane in oracle_U(metric.upper, R)
    ]
    assert as_lists(conn.gamma) == oracle_gamma(metric, i_u)


@pytest.mark.parametrize("family,n", CASES)
def test_projection_matches_literal_loop(family, n):
    # the projection read from d_array matches the loop over the structure
    # constants, and has zero torsion
    rng = case_rng("projection", family, n)
    calc = make_calculus(family, n)
    base = Connection(calc, sparse_array(rng, calc))
    conn = Connection(calc, literal_projection(d_array(calc), base.gamma))
    assert as_lists(conn.gamma) == oracle_projection(base)
    assert torsion(conn) == Connection.zero(calc).gamma


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
    conn = Connection(calc, oracle_gamma(metric, antiherm))
    defect = compat_defect(conn, metric)
    assert all(x.is_zero() for plane in defect for row in plane for x in row)


# -- edge shapes of the zero-skipping passes -------------------------------------

EDGE_CASES = (
    [(family, 1) for family in ("abelian", "commutative")]
    + [(family, 2) for family in FAMILIES]
    + [("so3", 3)]
)
EDGE_SHAPES = ("zero", "last", "zero-row")


def edge_matrix(rng, alg, n, shape):
    """n x n: all zero; zero but for the last entry; or sparse with a zero
    first row."""
    m = [[alg.zero()] * n for _ in range(n)]
    if shape == "last":
        m[-1][-1] = random_monomial(rng, alg, 1)
    elif shape == "zero-row":
        m[1:] = [[sparse_element(rng, alg) for _ in range(n)] for _ in range(n - 1)]
    return m


def edge_array(rng, calc, shape):
    """n x n x n of ``edge_matrix`` planes; with "last", only the last plane
    has its last entry."""
    n = calc.n
    shapes = ["zero"] * (n - 1) + [shape] if shape == "last" else [shape] * n
    return tuple(
        tuple(map(tuple, edge_matrix(rng, calc.algebra, n, plane_shape)))
        for plane_shape in shapes
    )


def edge_metric(rng, calc, shape):
    """A constant diagonal ("zero": every d_a h is zero); the pair
    h^{n-1,n} = W, h^{n,n-1} = W* on the last two indices and 1 elsewhere
    ("last"); a dense corner whose last row is zero off the diagonal
    ("zero-row")."""
    alg, n = calc.algebra, calc.n
    if shape == "zero-row":
        return dense_metric(rng, calc, max(n - 1, 1))
    upper = [
        [alg.scalar(rng.choice((1, 2, 3))) if i == j else alg.zero() for j in range(n)]
        for i in range(n)
    ]
    if shape == "last" and n > 1:
        w = alg.monomial(1, [0] * (n - 2) + [1, -1]) * rng.choice((1, 2))
        upper[-2][-2] = upper[-1][-1] = alg.zero()
        upper[-2][-1], upper[-1][-2] = w, w.star()
    return HermitianMetric(calc, upper)


def literal_matmul(left, right):
    zero = right[0][0].algebra.zero()
    columns = range(len(right[0]))
    return [
        [sum((x * right[j][k] for j, x in enumerate(row)), zero) for k in columns]
        for row in left
    ]


def literal_swap_difference(array):
    """alpha^i_ab - alpha^i_ba, entry by entry."""
    n = len(array)
    return [
        [[array[a][i][b] - array[b][i][a] for b in range(n)] for i in range(n)]
        for a in range(n)
    ]


def zeros_are_shared(array, alg):
    flat = list(array)
    while flat and isinstance(flat[0], (tuple, list)):
        flat = [x for part in flat for x in part]
    return all(x is alg.zero() for x in flat if not x.terms)


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("family,n", EDGE_CASES)
def test_matmul_matches_literal_sum_on_edge_shapes(family, n, shape):
    rng = case_rng("matmul/" + shape, family, n)
    alg = make_calculus(family, n).algebra
    left, right = (edge_matrix(rng, alg, n, shape) for _ in range(2))
    dense = random_hermitian_matrix(rng, alg, n)
    for a, b in ((left, right), (left, dense), (dense, right), ([dense[0]], right)):
        product = matmul(a, b)
        assert [list(row) for row in product] == literal_matmul(a, b)
        assert zeros_are_shared(product, alg)


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("family,n", EDGE_CASES)
def test_pairing_and_symmetrizers_match_index_sums_on_edge_shapes(family, n, shape):
    rng = case_rng("pairing/" + shape, family, n)
    calc = make_calculus(family, n)
    metric = edge_metric(rng, calc, shape)
    for array in (edge_array(rng, calc, shape), sparse_array(rng, calc)):
        for result, expected in (
            (metric_pairing_operator(array, metric), oracle_pairing(array, metric.upper)),
            (antisymmetrize(array), literal_swap_difference(array)),
        ):
            assert as_lists(result) == expected
            assert zeros_are_shared(result, calc.algebra)


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("family,n", EDGE_CASES)
def test_compute_F_matches_literal_loop_on_edge_shapes(family, n, shape):
    rng = case_rng("compute_F/" + shape, family, n)
    metric = edge_metric(rng, make_calculus(family, n), shape)
    entries = compute_F(metric)
    assert as_lists(entries) == oracle_F(metric)
    assert zeros_are_shared(entries, metric.calculus.algebra)
