from fractions import Fraction
from itertools import combinations
import random

import pytest

import nctorus.algebra as algebra_module
import nctorus.metric as metric_module
from nctorus import (
    AlgebraElement,
    Calculus,
    HermitianMetric,
    NotHermitian,
    NotInverse,
    NotInvertibleByElimination,
    NotWeaklySymmetric,
    build_levi_civita,
    invert_metric,
    symmetry_form,
    validate,
    weak_symmetry_defect,
)
from nctorus.algebra import _first_unpaired, _is_adjoint

from conftest import (
    block_metric,
    congruence_metric,
    drho_via_generators,
    random_block_metric,
    random_congruence_steps,
    random_diagonal_metric,
    random_hermitian_matrix,
    random_monomial,
)


def identity_metric(calc):
    alg = calc.algebra
    z, one = alg.zero(), alg.one()
    n = calc.n
    return HermitianMetric(
        calc, [[one if i == j else z for j in range(n)] for i in range(n)]
    )


# -- validation -----------------------------------------------------------------


def test_identity_metric_validates(calc3):
    metric = identity_metric(calc3)
    validate(metric)


def test_block_metric_supplied_inverse_validates(calc3):
    alg = calc3.algebra
    z, one = alg.zero(), alg.one()
    h0 = alg.gen(2)
    hinv = h0.invert()
    upper = [[one, z, z], [z, z, h0], [z, h0.star(), z]]
    lower = [[one, z, z], [z, z, hinv.star()], [z, hinv, z]]
    metric = HermitianMetric(calc3, upper, lower)
    validate(metric)
    # elimination finds the same inverse
    assert invert_metric(calc3, upper) == metric.lower


def test_non_hermitian_rejected(calc3):
    alg = calc3.algebra
    z, one = alg.zero(), alg.one()
    upper = [[one, alg.gen(1), z], [alg.gen(2), one, z], [z, z, one]]
    with pytest.raises(NotHermitian):
        HermitianMetric(calc3, upper)


def test_wrong_inverse_rejected(calc3):
    alg = calc3.algebra
    z, one = alg.zero(), alg.one()
    upper = [[one * 2, z, z], [z, one, z], [z, z, one]]
    lower = [[one, z, z], [z, one, z], [z, z, one]]
    with pytest.raises(NotInverse):
        HermitianMetric(calc3, upper, lower)


# -- elimination ------------------------------------------------------------------


def test_invert_scalar_diagonal(calc3):
    alg = calc3.algebra
    z = alg.zero()
    upper = [[alg.scalar(2), z, z], [z, alg.scalar(Fraction(1, 3)), z], [z, z, alg.one()]]
    lower = invert_metric(calc3, upper)
    assert lower[0][0] == alg.scalar(Fraction(1, 2))
    assert lower[1][1] == alg.scalar(3)
    assert lower[2][2] == alg.one()


def test_invert_block_metric(calc3):
    alg = calc3.algebra
    z, one = alg.zero(), alg.one()
    h0 = alg.scalar(0, 2) * alg.gen(2) * alg.gen(3, -1)
    upper = [[one, z, z], [z, z, h0], [z, h0.star(), z]]
    lower = invert_metric(calc3, upper)
    hinv = h0.invert()
    assert lower[1][2] == hinv.star()
    assert lower[2][1] == hinv
    assert lower[1][1].is_zero()


def test_invert_requires_monomial_pivot():
    calc = Calculus.torus(1)
    alg = calc.algebra
    fat = alg.gen(1) + alg.gen(1, -1)
    with pytest.raises(NotInvertibleByElimination):
        invert_metric(calc, [[fat]])
    # the message names the column, 1-based: diag(1, U1 + U1^-1) fails at 2
    calc = Calculus.torus(2)
    alg = calc.algebra
    fat = alg.gen(1) + alg.gen(1, -1)
    with pytest.raises(NotInvertibleByElimination) as info:
        invert_metric(calc, [[alg.one(), alg.zero()], [alg.zero(), fat]])
    assert str(info.value) == "no invertible monomial pivot in column 2"


def test_invert_random_metrics_two_sided(rng, calc3):
    for _ in range(15):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        validate(metric)


def swapping_metric_4():
    """A seeded n = 4 metric P L D L* P with dense monomial entries in L, whose
    elimination has to swap rows: column 1 starts with a three-term entry and
    a two-term entry, and its first monomial is in row 3."""
    calc = Calculus.torus(4)
    alg = calc.algebra
    rng = random.Random("elimination/swap/4")
    z, one = alg.zero(), alg.one()

    def monomial():
        x = alg.monomial(
            Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)),
            [rng.randint(-1, 1) for _ in range(4)],
        )
        return x * alg.q(1, 2) if rng.random() < 0.5 else x

    lt = [[one if i == j else (monomial() if j < i else z) for j in range(4)] for i in range(4)]
    lt[1][0] = monomial() + monomial()
    lt[2][0] = z
    d = [alg.scalar(Fraction(rng.randint(1, 3), rng.randint(1, 3))) for _ in range(4)]
    h = [
        [sum((lt[i][k] * d[k] * lt[j][k].star() for k in range(4)), z) for j in range(4)]
        for i in range(4)
    ]
    perm = (1, 0, 2, 3)
    return calc, [[h[perm[i]][perm[j]] for j in range(4)] for i in range(4)]


def test_elimination_writes_the_pivot_column(monkeypatch):
    calc, upper = swapping_metric_4()
    assert [len(row[0].terms) for row in upper] == [3, 2, 1, 3]
    calls = counting(monkeypatch, algebra_module, "_product_into")
    lower = invert_metric(calc, upper)
    # Products formed: scaling the pivot rows and the row operations right
    # of the pivot, in the work and the augmented matrix.  Forming the pivot
    # column as well, inv * pivot and x - factor * 1, takes 71.
    assert len(calls) == 56
    monkeypatch.undo()
    validate(HermitianMetric(calc, upper, lower))


def test_symmetry_form_reads_the_transposed_entry(rng, calc3, monkeypatch):
    metric = random_block_metric(rng, calc3, weakly_symmetric=False)
    lower = metric.lower
    expected = {
        (a + 1, b + 1): lower[a][b] - lower[a][b].star()
        for a in range(3)
        for b in range(a + 1, 3)
        if lower[a][b] != lower[a][b].star()
    }
    assert expected
    calls = counting(monkeypatch, AlgebraElement, "star")
    rho = symmetry_form(metric)
    assert calls == []
    assert rho.comps == expected


def first_hermitian_failure(matrix):
    """The NotHermitian message for the first (i, j) over all i, j where
    (h_ij)* != h_ji, or None."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if matrix[i][j].star() != matrix[j][i]:
                return "entry (%d, %d) is not the star of entry (%d, %d)" % (
                    i + 1,
                    j + 1,
                    j + 1,
                    i + 1,
                )
    return None


@pytest.mark.parametrize("n", (2, 3, 4))
def test_hermitian_check_names_first_failing_entry(n):
    # upper, then lower, against the full (i, j) loop
    calc = Calculus.torus(n)
    rng = random.Random("hermitian/%d" % n)
    alg = calc.algebra
    checked = 0
    for _ in range(40):
        matrices = [random_hermitian_matrix(rng, alg, n) for _ in range(2)]
        for _ in range(rng.randint(1, 3)):  # break one to three entries
            m, i, j = rng.randrange(2), rng.randrange(n), rng.randrange(n)
            matrices[m][i][j] = matrices[m][i][j] + random_monomial(rng, alg, 1)
        upper, lower = matrices
        expected = first_hermitian_failure(upper) or first_hermitian_failure(lower)
        if expected is None:
            continue
        with pytest.raises(NotHermitian) as info:
            HermitianMetric(calc, upper, lower)
        assert str(info.value) == expected
        checked += 1
    assert checked >= 30


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_validate_forms_one_matrix_product(rng, calc3, monkeypatch):
    # with and without a supplied lower matrix: h^ij h_jk, read from one row
    # iterator over h^ij and h_jk, and no other product
    metric = random_block_metric(rng, calc3)
    upper, lower = metric.upper, metric.lower
    pairs = sum(
        1 for row in upper for x, lower_row in zip(row, lower) for y in lower_row
        if x.terms and y.terms
    )
    calls = []
    original = metric_module._product_rows

    def recording(left, right):
        calls.append((left, right))
        return original(left, right)

    monkeypatch.setattr(metric_module, "_product_rows", recording)
    products = counting(monkeypatch, algebra_module, "_product_into")
    HermitianMetric(calc3, upper, lower)
    assert calls == [(upper, lower)]
    assert len(products) == pairs
    calls.clear()
    HermitianMetric(calc3, upper)
    assert calls == [(upper, lower)]
    products.clear()
    validate(metric)
    assert calls == [(upper, lower)] * 2
    assert len(products) == pairs


def test_validate_stops_at_the_first_failing_row(calc3, monkeypatch):
    # h = L L* with a dense first row; the supplied inverse is wrong in
    # rows 1 and 3 of the product, so only row 1's products are formed
    alg = calc3.algebra
    z, one = alg.zero(), alg.one()
    lt = [[one, z, z], [alg.gen(1), one, z], [z, alg.gen(2), one]]
    upper = [
        [sum((lt[i][k] * lt[j][k].star() for k in range(3)), z) for j in range(3)]
        for i in range(3)
    ]
    lower = [list(row) for row in HermitianMetric(calc3, upper).lower]
    lower[0][0] = lower[0][0] + one
    lower[2][2] = lower[2][2] + one
    expected = sum(
        sum(not y.is_zero() for y in lower[j])
        for j, x in enumerate(upper[0])
        if not x.is_zero()
    )
    assert expected >= 3
    got = upper[0][0] * lower[0][0] + upper[0][1] * lower[1][0]
    calls = counting(monkeypatch, algebra_module, "_product_into")
    with pytest.raises(NotInverse) as info:
        HermitianMetric(calc3, upper, lower)
    assert str(info.value) == "h^ij h_jk fails at (1, 1): got %r" % got
    assert len(calls) == expected


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_hermitian_check_stars_each_pair_once(monkeypatch, n):
    calc = Calculus.torus(n)
    rng = random.Random("stars/%d" % n)
    metric = random_diagonal_metric(rng, calc)
    matrix = random_hermitian_matrix(rng, calc.algebra, n)
    # a pair of two zero entries is skipped; every other pair i <= j is
    # starred once
    nonzero_pairs = sum(
        1
        for i in range(n)
        for j in range(i, n)
        if matrix[i][j].terms or matrix[j][i].terms
    )
    calls = counting(monkeypatch, AlgebraElement, "star")
    assert _first_unpaired(matrix, _is_adjoint, 2) is None
    assert len(calls) == nonzero_pairs
    calls.clear()
    HermitianMetric(calc, metric.upper, metric.lower)
    assert len(calls) == 2 * n


# -- lowered evaluation -------------------------------------------------------------


def test_lowered_identity(calc3):
    metric = identity_metric(calc3)
    low = metric.lower
    for i in range(3):
        for a in range(3):
            expected = calc3.algebra.one() if i == a else calc3.algebra.zero()
            assert low[i][a] == expected


def test_lowered_block(calc3):
    h0 = calc3.algebra.gen(2)
    metric = block_metric(calc3, h0)
    low = metric.lower
    hinv = h0.invert()
    assert low[1][2] == hinv.star()
    assert low[2][1] == hinv


def test_lowered_star_property(rng, calc3):
    for _ in range(10):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        low = metric.lower
        for i in range(3):
            for a in range(3):
                assert low[i][a].star() == low[a][i]


# -- symmetry form -------------------------------------------------------------------


def test_symmetry_form_diagonal_vanishes(rng, calc3):
    for _ in range(5):
        metric = random_diagonal_metric(rng, calc3)
        assert symmetry_form(metric).is_zero()


def test_symmetry_form_block(calc3):
    h0 = calc3.algebra.gen(2)
    metric = block_metric(calc3, h0)
    rho = symmetry_form(metric)
    hinv = h0.invert()
    assert rho(2, 3) == hinv.star() - hinv
    assert rho(1, 2).is_zero()
    assert rho(1, 3).is_zero()


def test_symmetry_form_matches_wedge_formula(rng, calc3):
    from nctorus import KForm

    for _ in range(10):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        rho = symmetry_form(metric)
        expected = calc3.zero_form(2)
        for i in range(3):
            lowered = KForm(
                calc3, 1, {(j,): metric.lower[i][j - 1] for j in (1, 2, 3)}
            )
            expected = expected + lowered.star() * calc3.theta(i + 1)
        assert rho == expected


def test_symmetry_form_evaluation_swaps_under_star(rng, calc3):
    # the components of rho are antihermitian: rho(a,b)* = rho(b,a)
    for _ in range(10):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        rho = symmetry_form(metric)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert rho(a, b).star() == rho(b, a)


# -- weak symmetry ----------------------------------------------------------------


def test_weak_symmetry_diagonal(rng, calc3):
    metric = random_diagonal_metric(rng, calc3)
    assert weak_symmetry_defect(metric).is_zero()
    assert weak_symmetry_defect(metric).is_zero()


def test_weak_symmetry_block_u2(calc3):
    metric = block_metric(calc3, calc3.algebra.gen(2))
    assert weak_symmetry_defect(metric).is_zero()


def test_weak_symmetry_block_u1_fails(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(1))
    defect = weak_symmetry_defect(metric)
    # d_1 of (h0^-1)* - h0^-1 with h0 = U1 gives i U1 + i U1^-1
    assert defect(1, 2, 3) == alg.i() * alg.gen(1) + alg.i() * alg.gen(1, -1)
    assert not weak_symmetry_defect(metric).is_zero()


def test_dimension_two_always_weakly_symmetric(rng, calc2):
    metric = random_diagonal_metric(rng, calc2)
    assert weak_symmetry_defect(metric).degree == 3
    assert weak_symmetry_defect(metric).is_zero()
    alg = calc2.algebra
    z = alg.zero()
    h0 = alg.gen(1)
    off = HermitianMetric(calc2, [[z, h0], [h0.star(), z]])
    assert symmetry_form(off)(1, 2) == h0.invert().star() - h0.invert()
    assert weak_symmetry_defect(off).is_zero()


def test_drho_matches_generator_expression(rng, calc3):
    for _ in range(10):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        assert weak_symmetry_defect(metric) == drho_via_generators(metric)


def test_drho_generator_expression_nonabelian(rng):
    heis = Calculus.torus(3, brackets={(3, 1, 2): 1})
    alg = heis.algebra
    z, one = alg.zero(), alg.one()
    h0 = alg.gen(1) * alg.gen(2, -1)
    upper = [[one * 2, z, z], [z, z, h0], [z, h0.star(), z]]
    metric = HermitianMetric(heis, upper)
    assert weak_symmetry_defect(metric) == drho_via_generators(metric)


def test_invert_antidiagonal_needs_row_swap(calc3):
    alg = calc3.algebra
    z, one = alg.zero(), alg.one()
    g = alg.gen(1)
    metric = HermitianMetric(
        calc3,
        [[z, z, g], [z, one * 3, z], [g.star(), z, z]],
    )
    assert metric.lower[0][2] == g
    assert metric.lower[2][0] == g.invert()
    assert metric.lower[1][1] == alg.scalar(Fraction(1, 3))
    validate(metric)


# -- an inverse oracle outside the package's arithmetic ------------------------------


def sympy_matrix(sympy, symbols, matrix):
    """``matrix`` over a commutative torus as a sympy Matrix of Laurent
    polynomials in ``symbols``: U^k is u_1^k_1 ... u_n^k_n, read from the
    U-exponents of each term."""

    def entry(x):
        return sympy.Add(
            *(
                (sympy.Rational(re, x.den) + sympy.I * sympy.Rational(im, x.den))
                * sympy.Mul(*map(sympy.Pow, symbols, key))
                for key, (re, im) in x.terms.items()
            )
        )

    return sympy.Matrix([[entry(x) for x in row] for row in matrix])


@pytest.mark.parametrize("n", (3, 4))
def test_lower_is_sympys_inverse_of_upper(n):
    # seeded congruence metrics on a commutative torus, the lower matrix
    # passed in: sympy inverts the upper matrix in its own arithmetic, and
    # its product upper * lower is the identity
    sympy = pytest.importorskip("sympy")
    calc = Calculus.torus(n, commutative=True)
    symbols = sympy.symbols("u1:%d" % (n + 1))
    rng = random.Random("sympy-inverse/%d" % n)
    for _ in range(3):
        metric = congruence_metric(calc, *random_congruence_steps(rng, calc.algebra, 2))
        upper = sympy_matrix(sympy, symbols, metric.upper)
        lower = sympy_matrix(sympy, symbols, metric.lower)
        assert any(len(x.terms) > 1 for row in metric.lower for x in row)
        assert (upper * lower).applyfunc(sympy.expand) == sympy.eye(n)
        assert (upper.inv() - lower).applyfunc(sympy.cancel) == sympy.zeros(n, n)


def sympy_star(sympy, symbols, value):
    """The adjoint over a commutative torus: conjugate every coefficient
    and send each u_a to 1/u_a (the symbols are positive, so conjugation
    leaves them alone)."""
    return sympy.conjugate(value).xreplace({u: 1 / u for u in symbols})


def sympy_lc_defects(sympy, symbols, upper, gamma):
    """(torsion, compatibility) defects of the Christoffel planes ``gamma``
    (sympy matrices gamma[a][i, k] = gamma^i_ak) against the sympy matrix
    ``upper`` over an abelian calculus, each a list of the nonzero entries
    after expansion: torsion gamma^i_ab - gamma^i_ba, and compatibility
    d_a h^ij - gamma^i_ak h^kj - (gamma^j_ak h^ki)* with
    d_a = i u_a d/du_a."""
    n = len(symbols)
    torsion = [
        gamma[a][i, b] - gamma[b][i, a]
        for a in range(n)
        for b in range(a + 1, n)
        for i in range(n)
    ]
    compat = []
    for a, u in enumerate(symbols):
        paired = (gamma[a] * upper).applyfunc(sympy.expand)
        for i in range(n):
            for j in range(n):
                derivative = sympy.I * u * sympy.diff(upper[i, j], u)
                compat.append(
                    derivative - paired[i, j] - sympy_star(sympy, symbols, paired[j, i])
                )
    nonzero = lambda values: [v for v in map(sympy.expand, values) if v != 0]  # noqa: E731
    return nonzero(torsion), nonzero(compat)


def test_built_connection_passes_sympys_torsion_and_compatibility():
    # seeded congruence metrics on a commutative torus, the lower matrix
    # passed in: the built gamma is torsion free and metric compatible in
    # sympy's arithmetic, and i*U1 added at gamma^2_13 and gamma^2_31 keeps
    # the torsion zero but breaks compatibility
    sympy = pytest.importorskip("sympy")
    calc = Calculus.torus(3, commutative=True)
    symbols = sympy.symbols("u1:4", positive=True)
    rng = random.Random("sympy-levi-civita")
    for _ in range(3):
        metric = congruence_metric(calc, *random_congruence_steps(rng, calc.algebra, 2))
        gamma = build_levi_civita(metric).gamma
        assert any(len(x.terms) > 1 for plane in gamma for row in plane for x in row)
        upper = sympy_matrix(sympy, symbols, metric.upper)
        planes = [sympy_matrix(sympy, symbols, plane) for plane in gamma]
        assert sympy_lc_defects(sympy, symbols, upper, planes) == ([], [])
        shift = sympy.I * symbols[0]
        planes[0][1, 2] += shift  # gamma^2_13
        planes[2][1, 0] += shift  # gamma^2_31
        torsion, compat = sympy_lc_defects(sympy, symbols, upper, planes)
        assert torsion == [] and compat != []


def sympy_drho(sympy, symbols, upper):
    """d(rho) over an abelian calculus from sympy's inverse h of the sympy
    matrix ``upper``: rho_bc = h_bc - (h_bc)* and
    d(rho)_abc = delta_a rho_bc - delta_b rho_ac + delta_c rho_ab with
    delta_a = i u_a d/du_a, as {(a, b, c): value} over a < b < c, 1-based,
    nonzero values only."""
    n = len(symbols)
    lower = upper.inv()
    rho = [
        [lower[b, c] - sympy_star(sympy, symbols, lower[b, c]) for c in range(n)]
        for b in range(n)
    ]

    def delta(a, value):
        return sympy.I * symbols[a] * sympy.diff(value, symbols[a])

    out = {}
    for a, b, c in combinations(range(n), 3):
        value = sympy.cancel(delta(a, rho[b][c]) - delta(b, rho[a][c]) + delta(c, rho[a][b]))
        if value != 0:
            out[(a + 1, b + 1, c + 1)] = value
    return out


def test_drho_is_sympys():
    # metrics the gate rejects on a commutative torus: the block metric with
    # h^23 = U1, whose d(rho)_123 is i U1^-1 + i U1, and seeded congruence
    # metrics that are not weakly symmetric, the lower matrix passed in.
    # sympy forms d(rho) from its own inverse of the upper matrix; every
    # component is the package's, and the build is refused at sympy's first
    # nonzero triple
    sympy = pytest.importorskip("sympy")
    calc = Calculus.torus(3, commutative=True)
    alg = calc.algebra
    symbols = sympy.symbols("u1:4", positive=True)
    rng = random.Random("sympy-drho")
    metrics = [block_metric(calc, alg.gen(1))]
    assert weak_symmetry_defect(metrics[0]).comps == {
        (1, 2, 3): alg.i() * (alg.gen(1, -1) + alg.gen(1))
    }
    while len(metrics) < 4:
        metric = congruence_metric(calc, *random_congruence_steps(rng, alg, 2))
        if not weak_symmetry_defect(metric).is_zero():
            metrics.append(metric)
    for metric in metrics:
        expected = sympy_drho(sympy, symbols, sympy_matrix(sympy, symbols, metric.upper))
        comps = weak_symmetry_defect(metric).comps
        assert set(comps) == set(expected)
        for key, value in comps.items():
            assert sympy.expand(sympy_matrix(sympy, symbols, [[value]])[0, 0] - expected[key]) == 0
        with pytest.raises(NotWeaklySymmetric) as info:
            build_levi_civita(metric)
        assert info.value.triple == min(expected)
