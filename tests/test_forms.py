from fractions import Fraction
from itertools import combinations
import random

import pytest

from nctorus import (
    Calculus,
    DescriptorMismatch,
    GaussianRational,
    KForm,
    LieAlgebra,
)

from conftest import random_element, random_form


HEISENBERG = {(3, 1, 2): 1}


@pytest.fixture
def heis():
    return Calculus.torus(3, brackets=HEISENBERG)


# -- construction and evaluation -------------------------------------------------


def test_eval_antisymmetry(calc3, rng):
    om = random_form(rng, calc3, 2)
    assert om(2, 1) == -om(1, 2)
    assert om(1, 1).is_zero()
    assert om(3, 2) == -om(2, 3)


def test_eval_index_range(calc3):
    om = calc3.zero_form(1)
    with pytest.raises(IndexError):
        om(4)
    with pytest.raises(ValueError):
        om(1, 2)


def test_degree_above_dimension_is_zero(calc2, rng):
    alg = calc2.algebra
    om = KForm(calc2, 3, {})
    assert om.is_zero()
    big = random_form(rng, calc2, 2) * random_form(rng, calc2, 2)
    assert big.degree == 4 and big.is_zero()


def test_d_of_generator(calc3):
    u1 = calc3.algebra.gen(1)
    du1 = KForm.of_element(calc3, u1).d()
    assert du1(1) == calc3.algebra.i() * u1
    assert du1(2).is_zero()
    assert du1.d().is_zero()


def test_d_degree_one_by_hand(calc3):
    # components (0, U1, 0): d at (1, 2) is d_1(U1) - d_2(0) = i U1
    u1 = calc3.algebra.gen(1)
    om = KForm(calc3, 1, {(2,): u1})
    dom = om.d()
    assert dom(1, 2) == calc3.algebra.i() * u1
    assert dom(1, 3).is_zero()
    assert dom(2, 3).is_zero()


def test_d_top_degree_returns_zero_form(calc3, rng):
    top = random_form(rng, calc3, 3)
    assert top.d().degree == 4
    assert top.d().is_zero()


# -- wedge -----------------------------------------------------------------------


def test_wedge_of_dual_basis(calc3):
    th1, th2 = calc3.theta(1), calc3.theta(2)
    assert (th1 * th1).is_zero()
    prod = th1 * th2
    assert prod(1, 2) == calc3.algebra.one()
    assert prod(2, 1) == -calc3.algebra.one()


def test_wedge_degree_zero_is_module_action(calc3, rng):
    a = random_element(rng, calc3.algebra)
    om = random_form(rng, calc3, 1)
    left = KForm.of_element(calc3, a) * om
    right = om * KForm.of_element(calc3, a)
    for idx in (1, 2, 3):
        assert left(idx) == a * om(idx)
        assert right(idx) == om(idx) * a
    # coercion of bare elements works the same way
    assert (a * om)(2) == a * om(2)


def test_wedge_matches_normalized_symmetric_sum_at_degree_one(calc3, rng):
    # for k = l = 1 the (1,1)-shuffle sum equals the full S2 sum with
    # normalization 1/(1! 1!)
    om = random_form(rng, calc3, 1)
    ta = random_form(rng, calc3, 1)
    prod = om * ta
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            full = calc3.algebra.zero()
            for sigma, sign in (((a, b), 1), ((b, a), -1)):
                term = om(sigma[0]) * ta(sigma[1])
                full = full + term if sign > 0 else full - term
            assert prod(a, b) == full


def test_wedge_associative(calc3, rng):
    x = random_form(rng, calc3, 1, max_terms=1)
    y = random_form(rng, calc3, 1, max_terms=1)
    z = random_form(rng, calc3, 1, max_terms=1)
    assert (x * y) * z == x * (y * z)


def shuffle_wedge(left, right):
    """left * right as the signed sum over (k,l)-shuffles, evaluating both
    factors at every increasing index tuple of length k + l."""
    calc, k, l = left.calculus, left.degree, right.degree
    positions = tuple(range(k + l))
    comps = {}
    for key in combinations(range(1, calc.n + 1), k + l):
        total = calc.algebra.zero()
        for left_pos in combinations(positions, k):
            right_pos = tuple(p for p in positions if p not in left_pos)
            sign = (-1) ** sum(p - i for i, p in enumerate(left_pos))
            prod = left(*(key[p] for p in left_pos)) * right(*(key[p] for p in right_pos))
            total = total + prod if sign > 0 else total - prod
        comps[key] = total
    return KForm(calc, k + l, comps)


WEDGE_CALCULI = {
    "q-deformed": {},
    "commutative": {"commutative": True},
    "bracket": {"brackets": HEISENBERG},
}


@pytest.mark.parametrize("k,l", [(0, 2), (1, 2), (2, 1), (2, 2), (1, 3)])
@pytest.mark.parametrize("name", sorted(WEDGE_CALCULI))
def test_wedge_matches_shuffle_sum(name, k, l):
    calc = Calculus.torus(4, **WEDGE_CALCULI[name])
    rng = random.Random("wedge/%s/%d%d" % (name, k, l))
    for _ in range(3):
        om = random_form(rng, calc, k, max_exp=1)
        ta = random_form(rng, calc, l, max_exp=1)
        assert om * ta == shuffle_wedge(om, ta)


def test_form_mismatch_raises(calc2, calc3):
    with pytest.raises(DescriptorMismatch):
        calc2.zero_form(1) + calc3.zero_form(1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda c: KForm(c, -1, {}), ValueError, "degree must be nonnegative"),
        (lambda c: KForm(c, 1, {(4,): c.algebra.one()}), IndexError, "bad component tuple (4,)"),
        (lambda c: KForm(c, 2, {(1,): c.algebra.one()}), IndexError, "bad component tuple (1,)"),
        (
            lambda c: KForm(c, 2, {(2, 1): c.algebra.one()}),
            ValueError,
            "component tuples must be strictly increasing",
        ),
        (
            lambda c: c.theta(1) + c.theta(1) * c.theta(2),
            ValueError,
            "cannot add forms of different degree",
        ),
        (lambda c: c.theta(0), IndexError, "basis index out of range: 0"),
    ],
    ids=("negative-degree", "index-range", "length", "order", "add-degrees", "theta-0"),
)
def test_bad_form_is_refused(calc3, build, error, message):
    with pytest.raises(error) as info:
        build(calc3)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "scalar",
    [2, Fraction(1, 2), GaussianRational(Fraction(1, 3), -1)],
    ids=("int", "fraction", "gaussian"),
)
def test_scalar_factors_scale_every_component(calc3, rng, scalar):
    om = random_form(rng, calc3, 2)
    assert om.comps
    expected = {key: value * scalar for key, value in om.comps.items()}
    assert (scalar * om).comps == expected
    assert (om * scalar).comps == expected
    assert (scalar * om).degree == (om * scalar).degree == 2


# -- star ------------------------------------------------------------------------


def test_star_fixes_dual_basis(calc3):
    for i in (1, 2, 3):
        assert calc3.theta(i).star() == calc3.theta(i)


def test_star_antilinear(calc3):
    om = calc3.algebra.i() * calc3.theta(1)
    assert om.star() == -calc3.algebra.i() * calc3.theta(1)


def test_star_product_rule(calc3, rng):
    for _ in range(20):
        om = random_form(rng, calc3, 1)
        ta = random_form(rng, calc3, 1)
        # (om ta)* = (-1)^{1*1} ta* om*
        assert (om * ta).star() == -(ta.star() * om.star())


def test_d_commutes_with_star(calc3, rng):
    for degree in (0, 1, 2):
        om = random_form(rng, calc3, degree)
        assert om.d().star() == om.star().d()


# -- d squared and graded Leibniz ---------------------------------------------------


def abelian_calculi(calc2, calc3):
    return (calc2, calc3, Calculus.torus(3, commutative=True), Calculus.torus(4))


def test_d_squared_zero(calc3, calc2, rng):
    for calc in abelian_calculi(calc2, calc3):
        for degree in range(calc.n):
            om = random_form(rng, calc, degree)
            assert om.d().d().is_zero()


@pytest.mark.xfail(
    strict=True,
    reason="the torus derivations commute, so they do not represent a nonzero "
    "bracket and d(d x) != 0 there; ROADMAP item 5 (d o d = 0) mends this",
)
def test_d_squared_zero_with_a_bracket():
    calc = Calculus.torus(3, brackets={(3, 1, 2): 1})
    assert KForm.of_element(calc, calc.algebra.gen(3)).d().d().is_zero()


def test_graded_leibniz(calc3, calc2, rng):
    for calc in abelian_calculi(calc2, calc3):
        for kd, ld in ((0, 0), (0, 1), (1, 1), (1, 2), (0, 2)):
            om = random_form(rng, calc, kd)
            ta = random_form(rng, calc, ld)
            sign = -1 if kd % 2 else 1
            lhs = (om * ta).d()
            rhs = om.d() * ta + (om * ta.d() if sign > 0 else -(om * ta.d()))
            assert lhs == rhs


# -- torus-specific identities ---------------------------------------------------


def test_one_form_bimodule_relation(calc3):
    # (dU_i) U_j = q_ij U_j dU_i at every derivation
    alg = calc3.algebra
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            dui = KForm.of_element(calc3, alg.gen(i)).d()
            lhs = dui * alg.gen(j)
            qij = alg.q(i, j) if i < j else alg.q(j, i, -1)
            rhs = qij * alg.gen(j) * dui
            for a in (1, 2, 3):
                assert lhs(a) == rhs(a)


def test_dual_basis_from_generators(calc3):
    alg = calc3.algebra
    for j in (1, 2, 3):
        theta = alg.scalar(0, -1) * alg.gen(j, -1) * KForm.of_element(calc3, alg.gen(j)).d()
        for a in (1, 2, 3):
            expected = alg.one() if a == j else alg.zero()
            assert theta(a) == expected
        assert theta == calc3.theta(j)


# -- structure constants -------------------------------------------------------------


def test_lie_algebra_validation():
    with pytest.raises(ValueError):
        # Jacobi violated: [d1,d2] = d1, [d1,d3] = d2
        LieAlgebra(3, {(1, 1, 2): 1, (2, 1, 3): 1})
    lie = LieAlgebra(3, HEISENBERG)
    assert lie.bracket(3, 1, 2) == 1
    assert lie.bracket(3, 2, 1) == -1
    assert not lie.is_abelian()



@pytest.mark.parametrize(
    "key", [(0, 1, 2), (4, 1, 2), (1, 0, 2), (1, 4, 2), (1, 2, 0), (1, 2, 4)]
)
def test_structure_constant_index_out_of_range(key):
    # each of e, a and b is refused below 1 and above n
    with pytest.raises(IndexError) as info:
        LieAlgebra(3, {(3, 1, 2): 1, key: 1})
    assert str(info.value) == "structure constant index out of range: %s" % (key,)


@pytest.mark.parametrize(
    "value", [0.1, 0.5, "1/2", "1"], ids=("float", "exact-float", "str", "int-str")
)
def test_inexact_structure_constant_is_refused(value):
    # a float or a string is not read as a rational: Fraction(0.1) would be
    # 3602879701896397/36028797018963968
    with pytest.raises(TypeError) as info:
        LieAlgebra(3, {(3, 1, 2): value})
    name = type(value).__name__
    assert str(info.value) == "structure constant (3, 1, 2) must be int or Fraction, not " + name
    assert LieAlgebra(3, {(3, 1, 2): Fraction(1, 4)}).bracket(3, 1, 2) == Fraction(1, 4)


@pytest.mark.parametrize(
    "entries, where",
    [
        ({(3, 1, 2): 0, (3, 2, 1): 5}, (3, 2, 1)),
        ({(3, 2, 1): 5, (3, 1, 2): 0}, (3, 1, 2)),
        ({(3, 1, 2): 1, (3, 2, 1): 0}, (3, 2, 1)),
    ],
    ids=("zero-first", "zero-second", "nonzero-then-zero"),
)
def test_explicit_zero_conflicts_with_its_partner(entries, where):
    # an explicit zero is an assignment: its antisymmetric partner must be
    # zero too, in either order; the error carries the later key
    with pytest.raises(ValueError) as info:
        LieAlgebra(3, entries)
    assert str(info.value) == "conflicting structure constants at %s" % (where,)
    assert info.value.key == where == list(entries)[-1]


def test_consistent_explicit_entries_are_accepted():
    zero = LieAlgebra(3, {(3, 1, 2): 0, (3, 2, 1): 0})
    assert zero.is_abelian() and zero == LieAlgebra(3, {})
    both = LieAlgebra(3, {(3, 1, 2): 1, (3, 2, 1): -1})
    assert both == LieAlgebra(3, HEISENBERG)


def _jacobi_reference(n, c):
    """First failing (a, b, d, f) of the Jacobi sum by the literal loop."""
    for a in range(n):
        for b in range(n):
            for d in range(n):
                for f in range(n):
                    total = Fraction(0)
                    for e in range(n):
                        total += (
                            c[e][a][b] * c[f][e][d]
                            + c[e][b][d] * c[f][e][a]
                            + c[e][d][a] * c[f][e][b]
                        )
                    if total:
                        return (a + 1, b + 1, d + 1, f + 1)
    return None


def test_jacobi_failure_names_first_failing_indices():
    rng = random.Random(7)
    failures = 0
    for _ in range(60):
        n = rng.randint(3, 5)
        entries = {}
        for _ in range(rng.randint(2, 5)):
            e, a, b = rng.randint(1, n), rng.randint(1, n - 1), rng.randint(1, n)
            if a < b and (e, a, b) not in entries:
                entries[(e, a, b)] = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (e, a, b), v in entries.items():
            c[e - 1][a - 1][b - 1], c[e - 1][b - 1][a - 1] = v, -v
        expected = _jacobi_reference(n, c)
        if expected is None:
            assert LieAlgebra(n, entries).brackets == tuple(
                tuple(tuple(row) for row in plane) for plane in c
            )
            continue
        failures += 1
        with pytest.raises(ValueError) as excinfo:
            LieAlgebra(n, entries)
        assert str(excinfo.value) == "Jacobi identity fails at indices %s" % (expected,)
    assert failures >= 20


def test_d_with_brackets_on_constant_form(heis):
    # d theta^i (d_a, d_b) = -c^i_ab for the constant dual-basis forms
    alg = heis.algebra
    dth3 = heis.theta(3).d()
    assert dth3(1, 2) == -alg.one()
    assert dth3(1, 3).is_zero()
    assert heis.theta(1).d().is_zero()


def test_d_degree_one_bracket_term(heis, rng):
    # the bracket contributes -om([d_a, d_b]) on top of the derivative part
    om = random_form(rng, heis, 1)
    dom = om.d()
    expected = om(2).derive(1) - om(1).derive(2) - om(3)
    assert dom(1, 2) == expected


def alternating_sum_d(form):
    """d form by the invariant formula, at every increasing index tuple:
    sum_i (-1)^i d_i form(.. no i ..) plus, over i < j,
    (-1)^(i+j) form([d_i, d_j], .. no i, j ..) with the bracket expanded."""
    calc, k = form.calculus, form.degree
    comps = {}
    for key in combinations(range(1, calc.n + 1), k + 1):
        total = calc.algebra.zero()
        for i, b in enumerate(key):
            total += (-1) ** i * form(*(key[:i] + key[i + 1 :])).derive(b)
        for i, j in combinations(range(k + 1), 2):
            rest = tuple(x for p, x in enumerate(key) if p not in (i, j))
            for e in range(1, calc.n + 1):
                c = calc.lie.bracket(e, key[i], key[j])
                total += (-1) ** (i + j) * c * form(e, *rest)
        comps[key] = total
    return KForm(calc, k + 1, comps)


D_BRACKETS = {
    "heisenberg": HEISENBERG,
    # [d1, d3] = d1: a 2-form's bracket term at (i, j) = (0, 2) is nonzero
    "affine": {(1, 1, 3): 1},
    "so3": {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1},
}


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(D_BRACKETS))
def test_d_matches_alternating_sum(name, degree):
    calc = Calculus.torus(3, brackets=D_BRACKETS[name])
    rng = random.Random("d/%s/%d" % (name, degree))
    for _ in range(3):
        om = random_form(rng, calc, degree, max_exp=1)
        assert om.d() == alternating_sum_d(om)


def test_kform_rejects_foreign_elements(calc3):
    other = Calculus.torus(3, commutative=True)
    with pytest.raises(DescriptorMismatch):
        KForm(calc3, 0, {(): other.algebra.one()})
    with pytest.raises(DescriptorMismatch):
        KForm.of_element(calc3, other.algebra.gen(1))
