import random
from fractions import Fraction

import pytest

from nctorus import (
    AntihermitianViolation,
    Connection,
    DescriptorMismatch,
    KForm,
    antisymmetrize,
    apply_connection,
    compat_defect,
    compatible_connection,
    lc_characterization_check,
    pair,
    sigma_swap,
    symmetrize,
    torsion,
    torsion_free_from,
)
from nctorus.algebra import matmul
from nctorus.forms import Calculus, d_array

from conftest import (
    block_metric,
    random_antihermitian_array,
    random_block_metric,
    random_diagonal_metric,
    random_element,
)
from test_metric import identity_metric


def connection_with(calc, entries):
    """Connection that is zero except for the given {(a, i, j): element}."""
    n = calc.n
    z = calc.algebra.zero()
    gamma = [[[z for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (a, i, j), value in entries.items():
        gamma[a - 1][i - 1][j - 1] = value
    return Connection(calc, gamma)


# -- apply -----------------------------------------------------------------------


def test_apply_flat_is_derivative(calc3):
    alg = calc3.algebra
    conn = Connection.zero(calc3)
    out = apply_connection(conn, 1, (alg.gen(1), alg.zero(), alg.zero()))
    assert out[0] == alg.i() * alg.gen(1)
    assert out[1].is_zero() and out[2].is_zero()


def test_apply_on_basis_vector_gives_gamma_row(calc3, rng):
    alg = calc3.algebra
    conn = connection_with(
        calc3, {(2, 1, 3): alg.gen(2), (2, 1, 1): alg.one()}
    )
    basis = (alg.one(), alg.zero(), alg.zero())
    out = apply_connection(conn, 2, basis)
    assert out == tuple(conn.gamma[1][0][j] for j in range(3))


def test_apply_leibniz(calc3, rng):
    alg = calc3.algebra
    conn = connection_with(calc3, {(1, 2, 3): alg.gen(1), (3, 1, 1): alg.i()})
    for _ in range(10):
        f = random_element(rng, alg)
        g = tuple(random_element(rng, alg) for _ in range(3))
        for a in (1, 2, 3):
            lhs = apply_connection(conn, a, tuple(f * gi for gi in g))
            inner = apply_connection(conn, a, g)
            rhs = tuple(f * inner[k] + f.derive(a) * g[k] for k in range(3))
            assert lhs == rhs


# -- torsion ---------------------------------------------------------------------


def test_torsion_zero_connection(calc3):
    assert all(form.is_zero() for form in torsion(Connection.zero(calc3)))


def test_torsion_symmetric_gamma(calc3, rng):
    alg = calc3.algebra
    sym = {}
    for a in (1, 2, 3):
        for b in range(a, 4):
            value = random_element(rng, alg)
            sym[(a, 1, b)] = value
            sym[(b, 1, a)] = value
    conn = connection_with(calc3, sym)
    assert all(form.is_zero() for form in torsion(conn))


def test_torsion_definition(calc3, rng):
    conn = connection_with(
        calc3, {(1, 2, 3): calc3.algebra.gen(1), (3, 2, 1): calc3.algebra.i()}
    )
    forms = torsion(conn)
    for i in (1, 2, 3):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                expected = (
                    conn.gamma[a - 1][i - 1][b - 1] - conn.gamma[b - 1][i - 1][a - 1]
                )
                assert forms[i - 1](a, b) == expected


def test_torsion_bracket_term():
    heis = Calculus.torus(3, brackets={(3, 1, 2): 1})
    conn = Connection.zero(heis)
    forms = torsion(conn)
    assert forms[2](1, 2) == heis.algebra.one()
    assert forms[0](1, 2).is_zero()
    fixed = torsion_free_from(conn)
    assert all(form.is_zero() for form in torsion(fixed))
    assert fixed.gamma[0][2][1] == heis.algebra.scalar(Fraction(-1, 2))


HEISENBERG = {(3, 1, 2): 1}
SO3 = {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1}


def test_torsion_left_linear(rng):
    # torsion of a . theta^i computed from first principles (the Leibniz
    # rule and KForm.d) equals a . T^i, on abelian and bracket calculi
    for brackets in (None, HEISENBERG, SO3):
        calc = Calculus.torus(3, brackets=brackets)
        alg = calc.algebra
        conn = connection_with(
            calc, {(1, 1, 2): alg.gen(2), (2, 1, 1): alg.i() * alg.gen(1)}
        )
        forms = torsion(conn)
        dop = d_array(calc)
        for i in (1, 2, 3):
            d_theta = calc.theta(i).d()
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    assert dop[a - 1][i - 1][b - 1] == d_theta(a, b), brackets
        for _ in range(5):
            a_elt = random_element(rng, alg)
            for i in (1, 2, 3):
                coeffs = tuple(a_elt if k == i else alg.zero() for k in (1, 2, 3))
                dform = KForm(calc, 1, {(i,): a_elt}).d()
                for x in (1, 2, 3):
                    for y in (1, 2, 3):
                        nab_x = apply_connection(conn, x, coeffs)
                        nab_y = apply_connection(conn, y, coeffs)
                        direct = nab_x[y - 1] - nab_y[x - 1] - dform(x, y)
                        assert direct == a_elt * forms[i - 1](x, y), brackets


def test_d_array_is_built_once_per_calculus():
    from nctorus import connections

    assert connections.d_array is d_array  # still importable from connections
    calc = Calculus.torus(3, brackets={(3, 1, 2): 1})
    dop = d_array(calc)
    assert d_array(calc) is dop
    assert dop[0][2][1] == calc.algebra.scalar(-1)
    assert d_array(Calculus.torus(3, brackets={(3, 1, 2): 1})) == dop


def test_torsion_equals_wedge_minus_d(calc3, rng):
    conn = connection_with(
        calc3, {(1, 2, 2): random_element(rng, calc3.algebra), (3, 2, 1): calc3.algebra.one()}
    )
    forms = torsion(conn)
    anti = antisymmetrize(conn.gamma)
    dop = d_array(calc3)
    for i in (1, 2, 3):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert forms[i - 1](a, b) == anti[a - 1][i - 1][b - 1] - dop[a - 1][i - 1][b - 1]


# -- compatibility ------------------------------------------------------------------


def test_compat_identity_flat(calc3):
    metric = identity_metric(calc3)
    assert compat_defect(Connection.zero(calc3), metric) == Connection.zero(calc3).gamma


def test_compat_pairing_identity(calc3):
    # h(nabla_a theta^2, theta^3) + h(theta^2, nabla_a theta^3) = d_a h^23
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2) * alg.gen(3))
    conn = compatible_connection(metric)
    e2 = (alg.zero(), alg.one(), alg.zero())
    e3 = (alg.zero(), alg.zero(), alg.one())
    for a in (1, 2, 3):
        lhs = pair(metric, apply_connection(conn, a, e2), e3) + pair(
            metric, e2, apply_connection(conn, a, e3)
        )
        assert lhs == metric.upper[1][2].derive(a)


def test_compat_defect_detects_perturbation(calc3):
    alg = calc3.algebra
    metric = identity_metric(calc3)
    conn = connection_with(calc3, {(1, 1, 2): alg.one()})
    defect = compat_defect(conn, metric)
    assert defect[0][0][1] == -alg.one()
    assert defect[0][1][0] == -alg.one()
    assert defect[1][0][1].is_zero()


# -- constructors ---------------------------------------------------------------------


def grassmann(metric):
    """The base-point connection gamma^i_ak = d_a(h^ij h_jk)."""
    calc = metric.calculus
    product = matmul(metric.upper, metric.lower)
    return Connection(
        calc,
        tuple(
            tuple(tuple(entry.derive(a) for entry in row) for row in product)
            for a in range(1, calc.n + 1)
        ),
    )


def test_connection_and_metric_over_different_calculi_are_refused(calc3):
    # a 4 x 4 x 4 connection against a 3 x 3 metric would otherwise be cut
    # to the metric's size without a word
    metric = identity_metric(calc3)
    for calc in (Calculus.torus(4), Calculus.torus(3, brackets={(3, 1, 2): 1})):
        for check in (compat_defect, lc_characterization_check):
            with pytest.raises(DescriptorMismatch, match="different calculi"):
                check(Connection.zero(calc), metric)


def test_grassmann_is_zero(rng, calc3):
    for _ in range(5):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        conn = grassmann(metric)
        assert conn == Connection.zero(calc3)
    assert grassmann(identity_metric(calc3)) == Connection.zero(calc3)


def test_compatible_connection_formula(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    conn = compatible_connection(metric)
    half = Fraction(1, 2)
    for a in range(3):
        for i in range(3):
            for k in range(3):
                expected = alg.zero()
                for j in range(3):
                    expected = expected + (
                        metric.upper[i][j].derive(a + 1) * half
                    ) * metric.lower[j][k]
                assert conn.gamma[a][i][k] == expected
    assert compat_defect(conn, metric) == Connection.zero(calc3).gamma


def test_compatible_connection_identity_zero(calc3):
    assert compatible_connection(identity_metric(calc3)) == Connection.zero(calc3)


def test_compatible_connection_with_antihermitian_freedom(rng, calc3):
    # zero defect for 50 random (metric, antihermitian array) pairs
    for _ in range(50):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        anti = random_antihermitian_array(rng, calc3)
        conn = compatible_connection(metric, anti)
        assert compat_defect(conn, metric) == Connection.zero(calc3).gamma


def test_compatible_connection_general_antihermitian(rng, calc3):
    # off-diagonal antihermitian pairs are also allowed
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    x = random_element(rng, alg)
    z = alg.zero()
    a_arr = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    a_arr[0][0][1] = x
    a_arr[0][1][0] = -x.star()
    a_arr[0][0][0] = alg.i()
    conn = compatible_connection(metric, a_arr)
    assert compat_defect(conn, metric) == Connection.zero(calc3).gamma


def test_compatible_connection_rejects_bad_array(calc3):
    alg = calc3.algebra
    z = alg.zero()
    bad = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    bad[0][0][0] = alg.one()
    with pytest.raises(AntihermitianViolation) as info:
        compatible_connection(identity_metric(calc3), bad)
    assert info.value.entry == (1, 1, 1)


def first_antihermitian_failure(array, n):
    """The message for the first (a, i, j) over all i, j where
    (A^ij_a)* != -A^ji_a, or None."""
    for a in range(n):
        for i in range(n):
            for j in range(n):
                if array[a][i][j].star() != -array[a][j][i]:
                    return "entry (a=%d, i=%d, j=%d) violates (A^ij_a)* = -A^ji_a" % (
                        a + 1,
                        i + 1,
                        j + 1,
                    )
    return None


@pytest.mark.parametrize("n", (2, 3))
def test_antihermitian_check_names_first_failing_entry(n):
    calc = Calculus.torus(n)
    rng = random.Random("antihermitian/%d" % n)
    metric = random_diagonal_metric(rng, calc)
    for _ in range(40):
        array = [
            [list(row) for row in plane] for plane in random_antihermitian_array(rng, calc)
        ]
        for _ in range(rng.randint(0, 2)):  # break zero to two entries
            a, i, j = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            array[a][i][j] = array[a][i][j] + random_element(rng, calc.algebra, 1)
        expected = first_antihermitian_failure(array, n)
        if expected is None:
            compatible_connection(metric, array)
            continue
        with pytest.raises(AntihermitianViolation) as info:
            compatible_connection(metric, array)
        assert str(info.value) == expected


def test_torsion_free_from_by_hand(calc3):
    alg = calc3.algebra
    base = connection_with(calc3, {(1, 1, 2): alg.gen(1)})
    fixed = torsion_free_from(base)
    half_u1 = alg.gen(1) * Fraction(1, 2)
    assert fixed.gamma[0][0][1] == half_u1
    assert fixed.gamma[1][0][0] == half_u1
    assert all(form.is_zero() for form in torsion(fixed))


def test_torsion_free_from_random(rng, calc3):
    # zero torsion for 50 random base connections
    for _ in range(50):
        entries = {
            (a, i, j): random_element(rng, calc3.algebra, max_terms=1)
            for a in (1, 2, 3)
            for i in (1, 2, 3)
            for j in (1, 2, 3)
        }
        base = connection_with(calc3, entries)
        assert all(form.is_zero() for form in torsion(torsion_free_from(base)))


def test_torsion_free_from_symmetric_freedom(rng, calc3):
    alg = calc3.algebra
    base = connection_with(calc3, {(1, 2, 3): alg.gen(1)})
    z = alg.zero()
    beta = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    value = random_element(rng, alg, max_terms=1)
    beta[0][1][2] = value
    beta[2][1][0] = value
    shifted = torsion_free_from(base, beta)
    assert all(form.is_zero() for form in torsion(shifted))
    assert shifted != torsion_free_from(base)
    bad = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    bad[0][1][2] = alg.one()
    with pytest.raises(ValueError):
        torsion_free_from(base, bad)


# -- array operators ----------------------------------------------------------------


def test_sigma_involution_and_projections(rng, calc3):
    entries = {
        (a, i, j): random_element(rng, calc3.algebra, max_terms=1)
        for a in (1, 2, 3)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    }
    arr = connection_with(calc3, entries).gamma
    assert sigma_swap(sigma_swap(arr)) == arr
    assert symmetrize(antisymmetrize(arr)) == Connection.zero(calc3).gamma
    assert antisymmetrize(symmetrize(arr)) == Connection.zero(calc3).gamma


# -- characterization -----------------------------------------------------------------


def test_characterization_flat_identity(calc3):
    assert lc_characterization_check(Connection.zero(calc3), identity_metric(calc3))


def test_characterization_rejects_compatible_but_torsionful(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    z = alg.zero()
    anti = [[[z for _ in range(3)] for _ in range(3)] for _ in range(3)]
    anti[0][0][1] = alg.one()
    anti[0][1][0] = -alg.one()
    conn = compatible_connection(metric, anti)
    assert compat_defect(conn, metric) == Connection.zero(calc3).gamma
    assert not all(form.is_zero() for form in torsion(conn))
    assert not lc_characterization_check(conn, metric)


def test_characterization_rejects_torsion_free_but_incompatible(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    conn = Connection.zero(calc3)
    assert all(form.is_zero() for form in torsion(conn))
    assert compat_defect(conn, metric) != Connection.zero(calc3).gamma
    assert not lc_characterization_check(conn, metric)
