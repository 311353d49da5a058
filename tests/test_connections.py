import operator
import random
from fractions import Fraction

import pytest

from nctorus import (
    Connection,
    DescriptorMismatch,
    KForm,
    antisymmetrize,
    compat_defect,
    lc_characterization_check,
    torsion,
)
from nctorus.algebra import AlgebraElement, matmul
from nctorus.connections import entrywise, metric_pairing_operator
from nctorus.forms import Calculus, d_array
from nctorus.levicivita import SolverParams, build_levi_civita, verify_levi_civita
from nctorus.metric import weak_symmetry_defect

from conftest import (
    block_metric,
    congruence_metric,
    literal_projection,
    pairing_spy,
    random_antihermitian_array,
    random_block_metric,
    random_congruence_steps,
    random_element,
    random_hermitian,
)
from test_metric import identity_metric
from test_products import oracle_gamma


def compatible(metric, antiherm=None):
    """The member (1/2 d_a h + A_a) h_lower of the compatible family, formed
    by the literal index sum of ``oracle_gamma``; A is zero when not given."""
    calc = metric.calculus
    if antiherm is None:
        antiherm = [[[calc.algebra.zero()] * calc.n] * calc.n] * calc.n
    return Connection(calc, oracle_gamma(metric, antiherm))


def connection_with(calc, entries):
    """Connection that is zero except for the given {(a, i, j): element}."""
    n = calc.n
    z = calc.algebra.zero()
    gamma = [[[z for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (a, i, j), value in entries.items():
        gamma[a - 1][i - 1][j - 1] = value
    return Connection(calc, gamma)


def nabla(conn, a, f):
    """nabla_{d_a}(f_i theta^i) in the theta basis: d_a f_j + sum_i f_i gamma^i_aj."""
    plane, zero, n = conn.gamma[a - 1], conn.calculus.algebra.zero(), len(f)
    return tuple(
        f[j].derive(a) + sum((f[i] * plane[i][j] for i in range(n)), zero) for j in range(n)
    )


def pairing(metric, f, g):
    """h(f_i theta^i, g_j theta^j) = sum f_i h^ij (g_j)*."""
    n, h = len(f), metric.upper
    terms = (f[i] * h[i][j] * g[j].star() for i in range(n) for j in range(n))
    return sum(terms, metric.calculus.algebra.zero())


def projected(conn):
    """The torsion-free projection (d + s(gamma)) / 2 of ``conn``."""
    calc = conn.calculus
    return Connection(calc, literal_projection(d_array(calc), conn.gamma))


def swapped(array):
    """sigma(alpha)^i_ab = alpha^i_ba: the two derivation slots transposed."""
    n = len(array)
    return tuple(
        tuple(tuple(array[b][i][a] for b in range(n)) for i in range(n)) for a in range(n)
    )


# -- nabla in the theta basis, the convention the oracles rest on ---------------


def test_apply_flat_is_derivative(calc3):
    alg = calc3.algebra
    conn = Connection.zero(calc3)
    out = nabla(conn, 1, (alg.gen(1), alg.zero(), alg.zero()))
    assert out[0] == alg.i() * alg.gen(1)
    assert out[1].is_zero() and out[2].is_zero()


def test_apply_on_basis_vector_gives_gamma_row(calc3, rng):
    alg = calc3.algebra
    conn = connection_with(
        calc3, {(2, 1, 3): alg.gen(2), (2, 1, 1): alg.one()}
    )
    basis = (alg.one(), alg.zero(), alg.zero())
    out = nabla(conn, 2, basis)
    assert out == tuple(conn.gamma[1][0][j] for j in range(3))


def test_apply_leibniz(calc3, rng):
    alg = calc3.algebra
    conn = connection_with(calc3, {(1, 2, 3): alg.gen(1), (3, 1, 1): alg.i()})
    for _ in range(10):
        f = random_element(rng, alg)
        g = tuple(random_element(rng, alg) for _ in range(3))
        for a in (1, 2, 3):
            lhs = nabla(conn, a, tuple(f * gi for gi in g))
            inner = nabla(conn, a, g)
            rhs = tuple(f * inner[k] + f.derive(a) * g[k] for k in range(3))
            assert lhs == rhs


def test_connection_repr_lists_the_nonzero_entries(calc3):
    alg = calc3.algebra
    assert repr(Connection.zero(calc3)) == "Connection(0)"
    conn = connection_with(calc3, {(1, 2, 3): alg.i(), (3, 1, 1): alg.gen(1) * 2})
    assert repr(conn) == "Connection(gamma[1,2,3]=i; gamma[3,1,1]=2*U1)"


# -- torsion ---------------------------------------------------------------------


def test_torsion_zero_connection(calc3):
    zero = Connection.zero(calc3)
    assert torsion(zero) == zero.gamma


def test_torsion_symmetric_gamma(calc3, rng):
    alg = calc3.algebra
    sym = {}
    for a in (1, 2, 3):
        for b in range(a, 4):
            value = random_element(rng, alg)
            sym[(a, 1, b)] = value
            sym[(b, 1, a)] = value
    conn = connection_with(calc3, sym)
    assert torsion(conn) == Connection.zero(calc3).gamma


def test_torsion_definition(calc3, rng):
    conn = connection_with(
        calc3, {(1, 2, 3): calc3.algebra.gen(1), (3, 2, 1): calc3.algebra.i()}
    )
    tors = torsion(conn)
    for i in (1, 2, 3):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                expected = (
                    conn.gamma[a - 1][i - 1][b - 1] - conn.gamma[b - 1][i - 1][a - 1]
                )
                assert tors[a - 1][i - 1][b - 1] == expected


def test_torsion_bracket_term():
    heis = Calculus.torus(3, brackets={(3, 1, 2): 1})
    conn = Connection.zero(heis)
    tors = torsion(conn)
    assert tors[0][2][1] == heis.algebra.one()
    assert tors[1][2][0] == -heis.algebra.one()
    assert tors[0][0][1].is_zero()
    fixed = projected(conn)
    assert torsion(fixed) == conn.gamma
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
        tors = torsion(conn)
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
                        nab_x = nabla(conn, x, coeffs)
                        nab_y = nabla(conn, y, coeffs)
                        direct = nab_x[y - 1] - nab_y[x - 1] - dform(x, y)
                        assert direct == a_elt * tors[x - 1][i - 1][y - 1], brackets


def test_torsion_is_antisymmetric_on_a_shared_zero_diagonal(rng):
    # T[b][i][a] = -T[a][i][b], and T[a][i][a] is the algebra's shared zero
    for brackets in (None, HEISENBERG, SO3):
        calc = Calculus.torus(3, brackets=brackets)
        alg = calc.algebra
        entries = {
            (a, i, j): random_element(rng, alg, max_terms=2)
            for a in (1, 2, 3)
            for i in (1, 2, 3)
            for j in (1, 2, 3)
        }
        tors = torsion(connection_with(calc, entries))
        assert tors != Connection.zero(calc).gamma, brackets
        for a in range(3):
            for i in range(3):
                assert tors[a][i][a] is alg.zero(), brackets
                for b in range(a + 1, 3):
                    assert tors[b][i][a] == -tors[a][i][b], brackets


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
    tors = torsion(conn)
    anti = antisymmetrize(conn.gamma)
    dop = d_array(calc3)
    for i in (1, 2, 3):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert tors[a - 1][i - 1][b - 1] == anti[a - 1][i - 1][b - 1] - dop[a - 1][i - 1][b - 1]


# -- compatibility ------------------------------------------------------------------


def test_compat_identity_flat(calc3):
    metric = identity_metric(calc3)
    assert compat_defect(Connection.zero(calc3), metric) == Connection.zero(calc3).gamma


def test_compat_pairing_identity(calc3):
    # h(nabla_a theta^2, theta^3) + h(theta^2, nabla_a theta^3) = d_a h^23
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2) * alg.gen(3))
    conn = compatible(metric)
    e2 = (alg.zero(), alg.one(), alg.zero())
    e3 = (alg.zero(), alg.zero(), alg.one())
    for a in (1, 2, 3):
        lhs = pairing(metric, nabla(conn, a, e2), e3) + pairing(metric, e2, nabla(conn, a, e3))
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
    # gamma^i_ak = sum_j (1/2 d_a h^ij) h_jk, summed by hand, has zero defect
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    half = Fraction(1, 2)
    gamma = [[[alg.zero()] * 3 for _ in range(3)] for _ in range(3)]
    for a in range(3):
        for i in range(3):
            for k in range(3):
                for j in range(3):
                    gamma[a][i][k] = gamma[a][i][k] + (
                        metric.upper[i][j].derive(a + 1) * half
                    ) * metric.lower[j][k]
    conn = Connection(calc3, gamma)
    assert compat_defect(conn, metric) == Connection.zero(calc3).gamma


def test_compatible_connection_identity_zero(calc3):
    # on the flat metric d h = 0, so the build with zero parameters is zero
    assert compatible(identity_metric(calc3)) == Connection.zero(calc3)
    assert build_levi_civita(identity_metric(calc3)) == Connection.zero(calc3)


def test_compatible_connection_with_antihermitian_freedom(rng, calc3):
    # zero defect for 50 random (metric, antihermitian array) pairs
    for _ in range(50):
        metric = random_block_metric(rng, calc3, weakly_symmetric=False)
        anti = random_antihermitian_array(rng, calc3)
        conn = compatible(metric, anti)
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
    conn = compatible(metric, a_arr)
    assert compat_defect(conn, metric) == Connection.zero(calc3).gamma


def test_torsion_free_from_by_hand(calc3):
    alg = calc3.algebra
    base = connection_with(calc3, {(1, 1, 2): alg.gen(1)})
    fixed = projected(base)
    half_u1 = alg.gen(1) * Fraction(1, 2)
    assert fixed.gamma[0][0][1] == half_u1
    assert fixed.gamma[1][0][0] == half_u1
    assert torsion(fixed) == Connection.zero(calc3).gamma


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
        assert torsion(projected(base)) == Connection.zero(calc3).gamma


# -- array operators ----------------------------------------------------------------


def test_sigma_involution_and_projections(rng, calc3):
    entries = {
        (a, i, j): random_element(rng, calc3.algebra, max_terms=1)
        for a in (1, 2, 3)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    }
    base = connection_with(calc3, entries)
    arr, zero = base.gamma, Connection.zero(calc3)
    # calc3 is abelian, so d = 0 and the projection P is s / 2
    assert projected(Connection(calc3, swapped(arr))) == projected(base)
    assert projected(Connection(calc3, antisymmetrize(arr))) == zero
    assert antisymmetrize(projected(base).gamma) == zero.gamma


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
    conn = compatible(metric, anti)
    assert compat_defect(conn, metric) == Connection.zero(calc3).gamma
    assert torsion(conn) != Connection.zero(calc3).gamma
    assert not lc_characterization_check(conn, metric)
    report = verify_levi_civita(conn, metric)
    assert report.torsion == torsion(conn) and not report.torsion_zero
    assert report.compat_zero and not report.passed


def test_characterization_rejects_torsion_free_but_incompatible(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    conn = Connection.zero(calc3)
    assert torsion(conn) == conn.gamma
    assert compat_defect(conn, metric) != Connection.zero(calc3).gamma
    assert not lc_characterization_check(conn, metric)


# -- the pair loops and the characterization against literal formulas -----------------


def dense_array(rng, calc, zeros=()):
    """An n x n x n array with a nonzero entry everywhere, diagonal included,
    except at the given (a, i, b), which are the algebra's zero."""
    alg, n = calc.algebra, calc.n
    out = []
    for a in range(n):
        plane = []
        for i in range(n):
            row = []
            for b in range(n):
                x = alg.zero()
                while not x.terms and (a, i, b) not in zeros:
                    x = random_element(rng, alg, max_terms=2, max_exp=1)
                row.append(x)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


PAIR_CALCULI = {
    "q-deformed-3": (3, False, None),
    "commutative-3": (3, True, None),
    "bracket-4": (4, False, HEISENBERG),
}


@pytest.mark.parametrize("name", sorted(PAIR_CALCULI))
def test_pair_loops_match_literal_entries(name):
    n, commutative, brackets = PAIR_CALCULI[name]
    calc = Calculus.torus(n, commutative=commutative, brackets=brackets)
    zero = calc.algebra.zero()
    rng = random.Random("pair-loops/" + name)
    # both entries of one pair zero, one of them zero, and a zero diagonal entry
    holes = {(0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 1, 1)}
    arrays = [dense_array(rng, calc), dense_array(rng, calc, holes)]
    for arr in arrays:
        anti = antisymmetrize(arr)
        for a in range(n):
            for i in range(n):
                for b in range(n):
                    assert anti[a][i][b] == arr[a][i][b] - arr[b][i][a]
            for i in range(n):
                assert anti[a][i][a] is zero
        entries = [x for plane in anti for row in plane for x in row]
        assert all(x is zero for x in entries if not x.terms)


def test_pair_loops_combine_each_pair_once(monkeypatch, calc3):
    # on calc3 wedge forms n * n(n-1)/2 differences, one per pair a < b, and
    # as many negations; a pair of two zeros costs no call
    arr = dense_array(random.Random("pair-calls"), calc3, {(0, 0, 1), (1, 0, 0)})
    counts = {"__add__": 0, "__sub__": 0, "__neg__": 0}
    for name in counts:
        original = getattr(AlgebraElement, name)

        def spy(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(AlgebraElement, name, spy)
    antisymmetrize(arr)
    assert counts == {"__add__": 0, "__sub__": 3 * 3 - 1, "__neg__": 3 * 3 - 1}


def literal_characterization(conn, metric):
    """The two identities as first written, each on its own: the pairing
    identity T_h(s) = 2 dh - T_h(d) and the fixed point (d + s) / 2 = gamma,
    from entrywise sums over the slot transpose."""
    dop = d_array(conn.calculus)
    sym = entrywise(operator.add, conn.gamma, swapped(conn.gamma))
    rhs = entrywise(
        lambda dh, t: dh * 2 - t, metric.d_upper, metric_pairing_operator(dop, metric)
    )
    pairing = metric_pairing_operator(sym, metric) == rhs
    fixed = entrywise(lambda d, s: (d + s) * Fraction(1, 2), dop, sym) == conn.gamma
    return pairing, fixed


def quadrant_connections(calc, rng):
    """(metric, connections) over one weakly symmetric 2-step congruence
    metric: random arrays, compatible connections with a random A,
    torsion-free projections of random arrays and built connections."""
    alg, n = calc.algebra, calc.n
    metric = congruence_metric(calc, *random_congruence_steps(rng, alg, 2))
    while not weak_symmetry_defect(metric).is_zero():
        metric = congruence_metric(calc, *random_congruence_steps(rng, alg, 2))
    z = alg.zero()
    x = [[z] * n for _ in range(n)]
    x[0][1] = random_hermitian(rng, alg, max_terms=1, max_exp=1)
    conns = [
        Connection(calc, dense_array(rng, calc)),
        compatible(metric, random_antihermitian_array(rng, calc)),
        projected(Connection(calc, dense_array(rng, calc))),
        build_levi_civita(metric),
        build_levi_civita(metric, SolverParams(tuple(map(tuple, x)), {})),
    ]
    return metric, conns


def replaced(conn, entries):
    """``conn`` with the entries {(a, i, b): element}, 0-based, put in."""
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    for (a, i, b), value in entries.items():
        gamma[a][i][b] = value
    return Connection(conn.calculus, gamma)


def perturbed_builds(conn, rng):
    """A built ``conn`` with one random nonzero element w added at one
    off-diagonal entry where d vanishes (its pair then differs) and at one
    diagonal entry; where d has a nonzero entry, w added at that entry
    alone and at both entries of its pair, and the entry copied onto its
    pair (an equal pair where d does not vanish)."""
    calc, n = conn.calculus, conn.calculus.n
    gamma, dop = conn.gamma, d_array(calc)
    w = calc.algebra.zero()
    while not w.terms:
        w = random_element(rng, calc.algebra, max_terms=2, max_exp=1)
    places = [(a, i, b) for a in range(n) for i in range(n) for b in range(n)]
    a, i, b = rng.choice([(a, i, b) for a, i, b in places if a < b and not dop[a][i][b].terms])
    k, j = rng.randrange(n), rng.randrange(n)
    out = [
        replaced(conn, {(a, i, b): gamma[a][i][b] + w}),
        replaced(conn, {(k, j, k): gamma[k][j][k] + w}),
    ]
    bracket = [(a, i, b) for a, i, b in places if dop[a][i][b].terms]
    if bracket:
        a, i, b = rng.choice(bracket)
        x, y = gamma[a][i][b], gamma[b][i][a]
        out += [
            replaced(conn, {(a, i, b): x + w}),
            replaced(conn, {(a, i, b): x + w, (b, i, a): y + w}),
            replaced(conn, {(b, i, a): x}),
        ]
    return out


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("name", ("q-deformed", "commutative", "bracket"))
def test_characterization_matches_the_literal_identities(name, n):
    brackets = HEISENBERG if name == "bracket" else None
    calc = Calculus.torus(n, commutative=name == "commutative", brackets=brackets)
    rng = random.Random("characterization/%s/%d" % (name, n))
    metric, conns = quadrant_connections(calc, rng)
    conns += perturbed_builds(conns[-1], rng)
    dop, zero = d_array(calc), Connection.zero(calc).gamma
    seen = set()
    for conn in conns:
        pairing, fixed = literal_characterization(conn, metric)
        assert (antisymmetrize(conn.gamma) == dop) is fixed
        torsion_zero = torsion(conn) == zero
        compat_zero = not any(
            x.terms for plane in compat_defect(conn, metric) for row in plane for x in row
        )
        # the fixed point is zero torsion; given it, the pairing is compatibility
        assert fixed == torsion_zero
        if fixed:
            assert pairing == compat_zero
        verdict = lc_characterization_check(conn, metric)
        assert verdict == (pairing and fixed) == (torsion_zero and compat_zero)
        seen.add((torsion_zero, compat_zero))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_characterization_tests_the_fixed_point_first(monkeypatch, calc3):
    # the identity that forms no product goes first: a torsionful connection
    # is refused before any pairing is formed; a fresh connection keeps no
    # pairing, so a passing one forms T_h(gamma) once
    metric = block_metric(calc3, calc3.algebra.gen(2))
    conn = Connection(calc3, build_levi_civita(metric).gamma)
    calls = pairing_spy(monkeypatch)
    torsionful = connection_with(calc3, {(1, 2, 3): calc3.algebra.one()})
    assert not lc_characterization_check(torsionful, metric)
    assert calls == []
    assert lc_characterization_check(conn, metric)
    assert calls == [conn.gamma]


def test_build_forms_one_pairing(monkeypatch, calc3):
    # the compatibility defect forms T_h(gamma) and the characterization
    # reads it; verifying the built connection again against the same
    # metric forms none
    metric = block_metric(calc3, calc3.algebra.gen(2))
    calls = pairing_spy(monkeypatch)
    conn = build_levi_civita(metric)
    assert calls == [conn.gamma]
    assert verify_levi_civita(conn, metric).passed
    assert len(calls) == 1


def test_kept_pairing_follows_the_metric_and_gamma(calc3):
    # one connection verified against two metrics in turn, and a new
    # connection built from another gamma, give each metric's own verdict
    # and defect, as a fresh connection and a directly formed pairing do
    alg = calc3.algebra
    first = block_metric(calc3, alg.gen(2))
    second = block_metric(calc3, alg.gen(3))
    conn = build_levi_civita(first)

    def check(metric, passed):
        report = verify_levi_civita(conn, metric)
        fresh = verify_levi_civita(Connection(calc3, conn.gamma), metric)
        assert report == fresh
        assert report.passed is passed
        assert report.compat == entrywise(
            operator.sub, metric.d_upper, metric_pairing_operator(conn.gamma, metric)
        )

    check(first, True)
    check(second, False)
    check(first, True)
    conn = Connection(calc3, build_levi_civita(second).gamma)
    check(first, False)
    check(second, True)
