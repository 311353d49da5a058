from fractions import Fraction
import operator
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from nctorus import (
    Calculus,
    DescriptorMismatch,
    GaussianRational,
    KForm,
    NotMonomial,
    TorusAlgebra,
    ZeroElement,
    parse_element,
)

from conftest import random_element


# -- strategies ---------------------------------------------------------------


def element_strategy(alg, max_terms=3, max_exp=2):
    coeff = st.tuples(
        st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3)
    ).map(lambda t: GaussianRational(Fraction(t[0], t[1]), Fraction(t[2], t[3])))
    exps = st.tuples(*[st.integers(-max_exp, max_exp) for _ in range(alg.n)])
    qpow = st.integers(-2, 2)

    def build(parts):
        total = alg.zero()
        for coeff_value, exp, qp in parts:
            term = alg.monomial(coeff_value, exp)
            if qp and alg.n >= 2:
                term = term * alg.q(1, alg.n, qp)
            total = total + term
        return total

    return st.lists(st.tuples(coeff, exps, qpow), max_size=max_terms).map(build)


ELEM2 = element_strategy(TorusAlgebra(2))
ELEM3 = element_strategy(TorusAlgebra(3))
ELEM3C = element_strategy(TorusAlgebra(3, commutative=True))


# -- addition ------------------------------------------------------------------


def test_add_identities(t3):
    u1 = t3.gen(1)
    assert u1 + t3.zero() == u1
    assert (u1 + -u1).is_zero()
    assert u1 * 2 + u1 * 3 == u1 * 5


def test_add_requires_same_descriptor(t2, t3):
    with pytest.raises(DescriptorMismatch):
        t2.gen(1) + t3.gen(1)
    with pytest.raises(DescriptorMismatch):
        TorusAlgebra(3).gen(1) * TorusAlgebra(3, commutative=True).gen(1)


def test_add_coerces_an_equal_descriptor_and_refuses_other_types(t3):
    twin = TorusAlgebra(3)
    assert twin is not t3
    total = t3.gen(1) + twin.gen(2)
    assert total == t3.monomial(1, (1, 0, 0)) + t3.monomial(1, (0, 1, 0))
    assert total.algebra is t3
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+: "):
        t3.gen(1) + object()


def _form():
    calc = Calculus.torus(2)
    return KForm(calc, 1, {(1,): calc.algebra.gen(2)})


FOREIGN_OPERANDS = {
    "element": lambda: TorusAlgebra(2).gen(1) + 1,
    "form": _form,
    "gaussian": lambda: GaussianRational(Fraction(1, 2), -3),
}
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "** or pow()": operator.pow}


@pytest.mark.parametrize("symbol", OPERATORS)
@pytest.mark.parametrize("kind", FOREIGN_OPERANDS)
def test_foreign_operands_raise_pythons_type_error(kind, symbol):
    # each class declines an operand it does not know, an object or a float
    # (so ``x ** 1.5`` too), on either side, and Python raises its own TypeError
    x, op = FOREIGN_OPERANDS[kind](), OPERATORS[symbol]
    message = r"^unsupported operand type\(s\) for %s: " % re.escape(symbol)
    for foreign in (object(), 1.5):
        for left, right in ((x, foreign), (foreign, x)):
            with pytest.raises(TypeError, match=message):
                op(left, right)


def test_zero_form_and_gaussian_reprs():
    assert repr(KForm(Calculus.torus(2), 1, {})) == "KForm(degree=1, 0)"
    assert repr(GaussianRational(Fraction(1, 2), -3)) == "GaussianRational(1/2, -3)"


def test_equal_elements_hash_equal(t3):
    twin = TorusAlgebra(3)
    x = t3.gen(1) * Fraction(1, 2) + t3.q(1, 2) * t3.gen(3, -1)
    y = twin.gen(3, -1) * twin.q(1, 2) + twin.gen(1) * Fraction(1, 2)
    assert x == y and x is not y
    assert hash(x) == hash(y)
    assert len({x, y, t3.gen(1)}) == 2


def _equality_pool():
    """Elements over TorusAlgebra(n, kind) for n = 1..3 and both kinds, each
    built twice: over one descriptor and over a second, equal one."""
    pool = []
    for n in (1, 2, 3):
        for kind in (False, True):
            for alg in (TorusAlgebra(n, kind), TorusAlgebra(n, kind)):
                rng = random.Random("equality-pool/%d/%s" % (n, kind))
                pool += [alg.zero(), alg.one(), alg.scalar(2), alg.scalar(Fraction(-1, 3))]
                pool += [alg.scalar(Fraction(1, 2), -1), alg.i(), alg.gen(1), alg.gen(1) + 2]
                pool += [random_element(rng, alg, max_terms=2) for _ in range(2)]
                if n > 1 and not kind:
                    pool.append(alg.q(1, 2))
    return pool


def _normal_form(x):
    return (x.algebra.n, x.algebra.commutative, x.den, frozenset(x.terms.items()))


def test_equality_is_identity_of_normal_forms():
    pool = _equality_pool()
    forms = list(map(_normal_form, pool))
    for a in pool:
        assert a == a
        for b in pool:
            if a == b:
                assert b == a and hash(a) == hash(b), (a, b)
                for c in pool:
                    if b == c:
                        assert a == c, (a, b, c)
    # equal exactly when descriptor fields and normal forms coincide, so every
    # element equals its twin over the second descriptor
    for a, form in zip(pool, forms):
        assert [a == b for b in pool] == [form == other for other in forms], a
    for number in (0, 1, Fraction(-1, 3), GaussianRational(0, 1)):
        assert not any(x == number or number == x for x in pool), number
    for n in (1, 2, 3):
        alg = TorusAlgebra(n)
        assert len({alg.zero(), 0}) == 2
        assert {2: "v"}.get(alg.scalar(2)) is None
    # a set's size does not depend on insertion order
    rng = random.Random("equality-order")
    sizes = set()
    for _ in range(20):
        rng.shuffle(pool)
        sizes.add(len(set(pool)))
    assert sizes == {len(set(forms))}
    # constants over different algebras are unequal, and never mix in arithmetic
    x, y = TorusAlgebra(3).scalar(2), TorusAlgebra(3, True).scalar(2)
    assert x != y and len({x, y}) == 2
    with pytest.raises(DescriptorMismatch):
        x + y


# -- descriptor lookups ----------------------------------------------------------


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda t: t.gen(0), IndexError, "generator index out of range: 0"),
        (lambda t: t.q(0, 1), IndexError, "phase indices out of range: (0, 1)"),
        (lambda t: t.monomial(1, (1, 2)), ValueError, "exponent vector must have length 3"),
        (
            lambda t: t.scalar(0.1),
            TypeError,
            "a GaussianRational part must be int or Fraction, not float",
        ),
        (
            lambda t: t.scalar("1/3"),
            TypeError,
            "a GaussianRational part must be int or Fraction, not str",
        ),
        (
            lambda t: t.scalar(1, 0.5),
            TypeError,
            "a GaussianRational part must be int or Fraction, not float",
        ),
        (
            lambda t: t.scalar(GaussianRational(1), 1),
            TypeError,
            "scalar takes no im with a GaussianRational re",
        ),
    ],
    ids=("gen", "q", "monomial", "scalar-float", "scalar-str", "scalar-float-im", "scalar-im"),
)
def test_bad_generator_phase_or_exponents_are_refused(t3, build, error, message):
    with pytest.raises(error) as info:
        build(t3)
    assert type(info.value) is error and str(info.value) == message


# -- multiplication -------------------------------------------------------------


def test_mul_canonical_order(t3):
    u1, u2 = t3.gen(1), t3.gen(2)
    assert u1 * u2 == t3.monomial(1, (1, 1, 0))
    # commuting U2 past U1 picks up the inverse phase
    assert u2 * u1 == t3.q(1, 2, -1) * u1 * u2


def test_mul_unitarity(t3):
    u1 = t3.gen(1)
    assert t3.gen(1, -1) * u1 == t3.one()
    assert u1 * t3.gen(1, -1) == t3.one()


@settings(max_examples=60, deadline=None)
@given(ELEM3, ELEM3, ELEM3)
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(ELEM2, ELEM2, ELEM2)
def test_mul_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x


@settings(max_examples=60, deadline=None)
@given(ELEM3C, ELEM3C)
def test_commutative_flag_makes_mul_commute(x, y):
    assert x * y == y * x


# -- star -----------------------------------------------------------------------


def test_star_on_generators(t3):
    assert t3.gen(1).star() == t3.gen(1, -1)
    assert t3.i().star() == -t3.i()


def test_star_of_product_of_generators(t3):
    # invert both sides of U1 U2 = q12 U2 U1 by hand: (U1 U2)* = q12^-1 U1^-1 U2^-1
    expected = t3.q(1, 2, -1) * t3.gen(1, -1) * t3.gen(2, -1)
    assert (t3.gen(1) * t3.gen(2)).star() == expected


@settings(max_examples=60, deadline=None)
@given(ELEM3, ELEM3)
def test_star_antihomomorphism(x, y):
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x
    assert (x + y).star() == x.star() + y.star()


@settings(max_examples=40, deadline=None)
@given(ELEM2)
def test_star_antilinear(x):
    lam = GaussianRational(Fraction(2, 3), -1)
    assert (x * lam).star() == x.star() * GaussianRational(lam.re, -lam.im)


# -- derivations -------------------------------------------------------------------


def test_derive_on_generators(t3):
    assert t3.gen(1).derive(1) == t3.i() * t3.gen(1)
    assert t3.gen(1).derive(2).is_zero()
    prod = t3.gen(1) * t3.gen(2) ** 3
    assert prod.derive(2) == t3.scalar(0, 3) * prod


def test_derive_index_out_of_range(t3):
    with pytest.raises(IndexError):
        t3.gen(1).derive(4)
    with pytest.raises(IndexError):
        t3.gen(1).derive(0)


@settings(max_examples=60, deadline=None)
@given(ELEM3, ELEM3)
def test_derive_leibniz_and_hermitian(x, y):
    for a in (1, 2, 3):
        assert (x * y).derive(a) == x.derive(a) * y + x * y.derive(a)
        assert x.star().derive(a) == x.derive(a).star()
    assert x.derive(2).derive(1) == x.derive(1).derive(2)


# -- inversion -----------------------------------------------------------------------


def test_invert_unitary(t3):
    assert t3.gen(2).invert() == t3.gen(2, -1)


def test_invert_monomial_two_sided(t3):
    x = t3.scalar(0, 2) * t3.gen(1) * t3.gen(3, -1)
    inv = x.invert()
    assert x * inv == t3.one()
    assert inv * x == t3.one()
    # frozen value, verified by the multiplications above
    assert inv == t3.scalar(0, Fraction(-1, 2)) * t3.q(1, 3) * t3.gen(1, -1) * t3.gen(3)


def test_invert_rejects_sums_and_zero(t3):
    with pytest.raises(NotMonomial):
        (t3.gen(1) + t3.gen(2)).invert()
    with pytest.raises(ZeroElement):
        t3.zero().invert()


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3)),
    st.tuples(*[st.integers(-2, 2)] * 3),
    st.lists(st.tuples(st.sampled_from([(1, 2), (1, 3), (2, 3)]), st.integers(-2, 2))),
)
def test_invert_random_monomials(coeff, uexp, phases):
    # c q^e U^k for every nonzero c, with phases on all three pairs
    assume(coeff[0] or coeff[2])
    alg = TorusAlgebra(3)
    mono = alg.monomial(GaussianRational(Fraction(*coeff[:2]), Fraction(*coeff[2:])), uexp)
    for (a, b), e in phases:
        mono = mono * alg.q(a, b, e)
    assert mono.is_monomial()
    assert mono * mono.invert() == alg.one()
    assert mono.invert() * mono == alg.one()


# -- predicates -----------------------------------------------------------------------


def test_predicates(t3):
    assert (t3.gen(1) + t3.gen(1, -1)).is_hermitian()
    assert not t3.i().is_hermitian()
    assert (t3.gen(1) - t3.gen(1)).is_zero()
    assert not t3.one().is_zero()


def test_power_negative_exponent(t3):
    u2 = t3.gen(2)
    assert u2 ** -2 == t3.gen(2, -2)
    assert (t3.gen(1) * 2) ** 0 == t3.one()


def test_power_matches_repeated_product(rng):
    alg = TorusAlgebra(3)
    x = random_element(rng, alg, max_terms=2, max_exp=1) + alg.gen(2) * alg.q(1, 2)
    expected = alg.one()
    for k in range(10):
        assert x ** k == expected
        expected = expected * x


def test_large_generator_power_is_exact():
    alg = TorusAlgebra(2)
    assert parse_element(alg, "U1^20000") == alg.gen(1, 20000)
    assert (alg.gen(1) * alg.gen(2)) ** 3000 == alg.gen(1, 3000) * alg.gen(2, 3000) * alg.q(
        1, 2, -3000 * 2999 // 2
    )


def test_non_integer_exponents_rejected(t3):
    with pytest.raises(TypeError):
        t3.gen(1, 2.5)
    with pytest.raises(TypeError):
        t3.gen(1, 2.0)
    with pytest.raises(TypeError):
        t3.monomial(1, (0.5, 0, 0))
    with pytest.raises(TypeError):
        t3.monomial(1, (Fraction(1, 2), 0, 0))
    with pytest.raises(TypeError):
        t3.q(1, 2, 0.5)
    assert t3.monomial(1, (2, 0, 0)) == t3.gen(1, 2)


def test_commutative_laws_persist(rng):
    alg = TorusAlgebra(3, commutative=True)
    for _ in range(30):
        x = random_element(rng, alg)
        y = random_element(rng, alg)
        z = random_element(rng, alg)
        assert (x * y) * z == x * (y * z)
        assert (x * y).star() == y.star() * x.star()
        for a in (1, 2, 3):
            assert (x * y).derive(a) == x.derive(a) * y + x * y.derive(a)
