from fractions import Fraction
import random

import pytest

import nctorus.metric as metric_module
from nctorus import (
    AlgebraElement,
    Calculus,
    HermitianMetric,
    NotHermitian,
    NotInverse,
    NotInvertibleByElimination,
    invert_metric,
    symmetry_form,
    validate,
    weak_symmetry_defect,
)
from nctorus.algebra import _first_unpaired

from conftest import (
    block_metric,
    drho_via_generators,
    random_block_metric,
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


def test_invert_random_metrics_two_sided(rng, calc3):
    for _ in range(15):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        validate(metric)


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
    # with and without a supplied lower matrix: h^ij h_jk, one row of h^ij
    # at a time, and nothing else
    metric = random_block_metric(rng, calc3)
    lefts = []
    original = metric_module.matmul

    def recording(left, right):
        assert right == metric.lower
        lefts.append(left)
        return original(left, right)

    monkeypatch.setattr(metric_module, "matmul", recording)
    HermitianMetric(calc3, metric.upper, metric.lower)
    assert lefts == [(row,) for row in metric.upper]
    HermitianMetric(calc3, metric.upper)
    assert lefts == [(row,) for row in metric.upper] * 2


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
    calls = counting(monkeypatch, AlgebraElement, "__mul__")
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
    calls = counting(monkeypatch, AlgebraElement, "star")
    assert _first_unpaired(matrix, metric_module._adjoint, 2) is None
    assert len(calls) == n * (n + 1) // 2
    calls.clear()
    HermitianMetric(calc, metric.upper, metric.lower)
    assert len(calls) == n * (n + 1)


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
