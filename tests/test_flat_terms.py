"""The flat term representation against an independent word-rewriting oracle.

The oracle knows nothing of keys or common denominators.  It writes each
monomial c * q^e * U^k as a word of generator letters U_j^(+-1), and
normal-orders a word by adjacent swaps: moving U_a^s left past U_b^t,
a < b, collects q[a,b]^(-s*t), from U_a^s U_b^t = q[a,b]^(s*t) U_b^t U_a^s.
Coefficients are pairs of Fractions.  In a commutative algebra every q
symbol is 1.
"""

from fractions import Fraction
from math import gcd
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from nctorus import (
    DescriptorMismatch,
    GaussianRational,
    TorusAlgebra,
    parse_element,
    render_element,
)
from nctorus.algebra import _plus_product, matmul

from conftest import canonical_terms

# -- the oracle ----------------------------------------------------------------

# An oracle element is a dict {(U exponents, q key): (re, im)} with Fraction
# parts and the q key a sorted tuple of ((a, b), e), e != 0.


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _word(uexp):
    return [(j + 1, 1 if k > 0 else -1) for j, k in enumerate(uexp) for _ in range(abs(k))]


def _qadd(acc, pair, e):
    acc[pair] = acc.get(pair, 0) + e


def _normal_order(word, q):
    """Bubble the letters of ``word`` into increasing generator order,
    collecting each swap's phase into the dict ``q``; returns U exponents."""
    word = list(word)
    swapped = True
    while swapped:
        swapped = False
        for p in range(len(word) - 1):
            (b, t), (a, s) = word[p], word[p + 1]
            if a < b:
                word[p], word[p + 1] = (a, s), (b, t)
                _qadd(q, (a, b), -s * t)
                swapped = True
    return word


def _term(alg, coeff, q, word):
    """Collect a normal-ordered word into an oracle (key, coeff) pair."""
    uexp = [0] * alg.n
    for j, s in word:
        uexp[j - 1] += s
    qkey = () if alg.commutative else tuple(sorted((p, e) for p, e in q.items() if e))
    return (tuple(uexp), qkey), coeff


def _accumulate(terms):
    acc = {}
    for key, c in terms:
        old = acc.get(key, (Fraction(0), Fraction(0)))
        acc[key] = (old[0] + c[0], old[1] + c[1])
    return {key: c for key, c in acc.items() if c[0] or c[1]}


def o_mul(alg, x, y):
    out = []
    for (ku, kq), c in x.items():
        for (lu, lq), d in y.items():
            q = dict(kq)
            for pair, e in lq:
                _qadd(q, pair, e)
            word = _normal_order(_word(ku) + _word(lu), q)
            out.append(_term(alg, _cmul(c, d), q, word))
    return _accumulate(out)


def _reversed_inverse(alg, uexp, qkey):
    q = {pair: -e for pair, e in qkey}
    word = [(j, -s) for j, s in reversed(_word(uexp))]
    return q, _normal_order(word, q)


def o_star(alg, x):
    out = []
    for (uexp, qkey), (re, im) in x.items():
        q, word = _reversed_inverse(alg, uexp, qkey)
        out.append(_term(alg, (re, -im), q, word))
    return _accumulate(out)


def o_invert(alg, x):
    ((uexp, qkey), (re, im)), = x.items()
    norm = re * re + im * im
    q, word = _reversed_inverse(alg, uexp, qkey)
    return _accumulate([_term(alg, (re / norm, -im / norm), q, word)])


def o_derive(alg, x, a):
    """Leibniz over the letters of each word: d_a(U_j^s) = i s [j == a] U_j^s."""
    out = []
    for (uexp, qkey), c in x.items():
        weight = sum(s for j, s in _word(uexp) if j == a)
        out.append(((uexp, qkey), _cmul(c, (Fraction(0), Fraction(weight)))))
    return _accumulate(out)


# -- building both sides from one spec -------------------------------------------


def spec_strategy(n, max_terms=3, min_terms=0):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    coeff = st.tuples(
        st.integers(-6, 6), st.integers(1, 6), st.integers(-6, 6), st.integers(1, 6)
    ).filter(lambda t: t[0] or t[2])
    uexp = st.tuples(*[st.integers(-2, 2) for _ in range(n)])
    phase = st.lists(st.tuples(st.sampled_from(pairs), st.integers(-2, 2)), max_size=2)
    return st.lists(st.tuples(coeff, uexp, phase), min_size=min_terms, max_size=max_terms)


def build(alg, spec):
    """The library element and the oracle element of one spec."""
    element = alg.zero()
    oracle_terms = []
    for (rn, rd, im_n, im_d), uexp, phase in spec:
        c = (Fraction(rn, rd), Fraction(im_n, im_d))
        term = alg.monomial(GaussianRational(*c), uexp)
        q = {}
        for pair, e in phase:
            term = term * alg.q(*pair, e)
            _qadd(q, pair, e)
        element = element + term
        oracle_terms.append(_term(alg, c, q, _word(uexp)))
    return element, _accumulate(oracle_terms)


def as_oracle(x):
    return {
        (uexp, qkey): (Fraction(*re), Fraction(*im))
        for uexp, qkey, re, im in canonical_terms(x)
    }


def assert_normal_form(x):
    alg = x.algebra
    width = alg.n if alg.commutative else alg.n + alg.n * (alg.n - 1) // 2
    assert isinstance(x.den, int) and x.den >= 1
    if not x.terms:
        assert x.den == 1
        return
    for key, value in x.terms.items():
        assert isinstance(key, tuple) and len(key) == width
        assert not hasattr(value, "terms")
        re, im = value
        assert re or im
    assert gcd(x.den, *(v for value in x.terms.values() for v in value)) == 1


def check(alg, x, oracle):
    assert_normal_form(x)
    assert as_oracle(x) == oracle


ALGEBRAS = [TorusAlgebra(n, commutative) for n in (2, 3, 4) for commutative in (False, True)]
IDS = ["n%d-%s" % (alg.n, "comm" if alg.commutative else "q") for alg in ALGEBRAS]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_mul_matches_oracle(alg):
    @seed(alg.n * 10 + alg.commutative)
    @settings(max_examples=40, deadline=None)
    @given(spec_strategy(alg.n), spec_strategy(alg.n))
    def inner(sx, sy):
        x, ox = build(alg, sx)
        y, oy = build(alg, sy)
        check(alg, x, ox)
        check(alg, y, oy)
        check(alg, x * y, o_mul(alg, ox, oy))
        check(alg, x + y, _accumulate(list(ox.items()) + list(oy.items())))

    inner()


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_star_and_derive_match_oracle(alg):
    @seed(alg.n * 10 + alg.commutative + 100)
    @settings(max_examples=40, deadline=None)
    @given(spec_strategy(alg.n, max_terms=4))
    def inner(sx):
        x, ox = build(alg, sx)
        check(alg, x.star(), o_star(alg, ox))
        for a in range(1, alg.n + 1):
            check(alg, x.derive(a), o_derive(alg, ox, a))

    inner()


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_invert_matches_oracle(alg):
    @seed(alg.n * 10 + alg.commutative + 200)
    @settings(max_examples=40, deadline=None)
    @given(spec_strategy(alg.n, max_terms=1, min_terms=1))
    def inner(sx):
        x, ox = build(alg, sx)
        inverse = x.invert()
        check(alg, inverse, o_invert(alg, ox))
        assert x * inverse == alg.one()
        assert inverse * x == alg.one()

    inner()


def o_neg(x):
    return {key: (-re, -im) for key, (re, im) in x.items()}


ZERO_SCALARS = (0, 3, Fraction(-2, 3), GaussianRational(Fraction(1, 2), -1))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_zero_operands_match_oracle(alg):
    zero = alg.zero()
    for result, expected in (
        (zero * zero, o_mul(alg, {}, {})),
        (-zero, o_neg({})),
        (zero.star(), o_star(alg, {})),
        (zero - zero, {}),
        *((zero * c, {}) for c in ZERO_SCALARS),
        *((c * zero, {}) for c in ZERO_SCALARS),
        *((zero.derive(a), o_derive(alg, {}, a)) for a in range(1, alg.n + 1)),
    ):
        check(alg, result, expected)
        assert (result.terms, result.den) == ({}, 1)

    @seed(alg.n * 10 + alg.commutative + 300)
    @settings(max_examples=20, deadline=None)
    @given(spec_strategy(alg.n))
    def inner(sx):
        x, ox = build(alg, sx)
        for result, expected in (
            (x * zero, o_mul(alg, ox, {})),
            (zero * x, o_mul(alg, {}, ox)),
            (x * 0, {}),
            (x - zero, ox),
            (x - 0, ox),
            (zero - x, o_neg(ox)),
            (0 - x, o_neg(ox)),
        ):
            check(alg, result, expected)

    inner()


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_zero_operands_keep_checks(alg):
    n = alg.n
    zero = alg.zero()
    x = alg.gen(1) * GaussianRational(1, 2) + alg.q(1, 2)
    for other_alg in (TorusAlgebra(n, not alg.commutative), TorusAlgebra(n + 1, alg.commutative)):
        other = other_alg.zero()
        for left, right in ((x, other), (other, x), (zero, other), (other, zero)):
            for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
                with pytest.raises(DescriptorMismatch):
                    op(left, right)
        # elements over different algebras are unequal, zeros included
        assert (zero == other) is False
        assert (other == zero) is False
        assert (x == other_alg.gen(1)) is False
    for a in (0, n + 1):
        with pytest.raises(IndexError):
            zero.derive(a)
    assert (zero == zero) is True
    assert (zero == alg.zero()) is True
    assert (zero == TorusAlgebra(n, alg.commutative).zero()) is True
    for c in (0, Fraction(0), GaussianRational(0)):
        assert (zero == c) is False
        assert (x == c) is False
    assert (zero == "0") is False


# -- the adjoint cache and direct subtraction, over seeded elements ---------------

KERNEL_ALGEBRAS = [
    TorusAlgebra(n, commutative) for n in (1, 2, 3, 4, 5) for commutative in (False, True)
]
KERNEL_IDS = ["n%d-%s" % (alg.n, "comm" if alg.commutative else "q") for alg in KERNEL_ALGEBRAS]


def random_spec(rng, n, max_terms=4):
    """A seeded spec in the format of ``spec_strategy``; n = 1 has no phases."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    spec = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = (0, 1, 0, 1)
        while not (coeff[0] or coeff[2]):
            coeff = (rng.randint(-6, 6), rng.randint(1, 6), rng.randint(-6, 6), rng.randint(1, 6))
        uexp = tuple(rng.randint(-2, 2) for _ in range(n))
        phases = rng.randint(0, 2) if pairs else 0
        phase = [(rng.choice(pairs), rng.randint(-2, 2)) for _ in range(phases)]
        spec.append((coeff, uexp, phase))
    return spec


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
def test_star_is_kept_and_matches_oracle(alg):
    rng = random.Random("star/%d/%s" % (alg.n, alg.commutative))
    for _ in range(40):
        x, ox = build(alg, random_spec(rng, alg.n))
        adjoint = x.star()
        assert x.star() is adjoint
        check(alg, adjoint, o_star(alg, ox))
        # the adjoint keeps no link back to x, so the cache makes no cycle
        again = adjoint.star()
        assert again == x and (again is not x or not x.terms)
        assert adjoint.star() is again
        # an operation on x reads x itself, not its kept adjoint
        check(alg, x * x, o_mul(alg, ox, ox))
        check(alg, x + adjoint, _accumulate(list(ox.items()) + list(o_star(alg, ox).items())))


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
def test_star_of_zero_and_constants(alg):
    zero = alg.zero()
    assert zero.star() is zero and zero.star().star() is zero
    for c in (1, Fraction(-2, 3), GaussianRational(Fraction(1, 2), -3), GaussianRational(0, 5)):
        x = alg.scalar(c)
        conjugate = GaussianRational.coerce(c)
        expected = alg.scalar(GaussianRational(conjugate.re, -conjugate.im))
        assert x.star() == expected
        assert x.star() is x.star()
        assert x.star().star() == x
        assert x.is_hermitian() == (conjugate.im == 0)


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
def test_difference_merges_like_sum_with_negation(alg):
    rng = random.Random("difference/%d/%s" % (alg.n, alg.commutative))
    zero = alg.zero()
    other_denominators = 0
    for _ in range(40):
        spec_x, spec_y = random_spec(rng, alg.n), random_spec(rng, alg.n)
        x, ox = build(alg, spec_x)
        y, oy = build(alg, spec_y)
        check(alg, x - y, _accumulate(list(ox.items()) + list(o_neg(oy).items())))
        assert x - y == x + (-y)
        # a difference that cancels is the shared zero, whether the two
        # operands are one object or two equal ones
        copy, _ = build(alg, spec_x)
        assert copy == x and (copy is not x or not x.terms)
        assert x - copy is zero and x - x is zero
        assert (x + y) - y == x
        # operands over different denominators
        w = y * Fraction(1, rng.choice((2, 3, 5, 7))) + x * Fraction(rng.randint(1, 4), 3)
        other_denominators += x.den != w.den
        difference = x - w
        assert_normal_form(difference)
        assert difference == x + (-w)
        assert difference + w == x
        # scalars on either side
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert x - c == x + (-alg.scalar(c))
        assert c - x == -(x - c)
    assert other_denominators >= 20


def test_scalar_multiples_stay_normal(t3):
    x = parse_element(t3, "2/3*U1 + 4/9*i*U2 - 2*q[1,3]")
    assert_normal_form(x)
    ox = as_oracle(x)
    units = (1, -1, GaussianRational(0, 1), GaussianRational(0, -1))
    for c in (3, Fraction(9, 2), GaussianRational(Fraction(3, 2), 3), 0) + units:
        # a Python scalar factor is the constant element: on either side it
        # gives the product with that constant, with the same terms in the
        # same order and the same denominator
        g = GaussianRational.coerce(c)
        oc = {((0, 0, 0), ()): (g.re, g.im)} if c else {}
        check(t3, x * c, o_mul(t3, ox, oc))
        products = (x * c, c * x, x * t3.scalar(c), t3.scalar(c) * x)
        for y in products:
            assert y == products[0] and y.den == products[0].den
            assert list(y.terms.items()) == list(products[0].terms.items())
    # a unit keeps the denominator
    for c in units:
        assert (x * c).den == x.den
    assert x * 1 == x and x * -1 == -x
    assert x * 0 is t3.zero() and 0 * x is t3.zero()
    assert_normal_form(x - x)
    assert (x * Fraction(9, 2)).den == 1


def test_render_order_uses_sparse_q_key(t3):
    # sorted by ((a, b), e) pairs: q[1,2] before q[1,3]^-1, although the
    # dense q-exponent vector (0, -1, 0) sorts before (1, 0, 0)
    x = t3.q(1, 3, -1) + t3.q(1, 2)
    assert render_element(x) == "q[1,2] + q[1,3]^-1"
    assert render_element(t3.q(2, 3) * t3.gen(1) + t3.q(1, 3, 2)) == "q[1,3]^2 + q[2,3]*U1"


def test_parse_render_round_trip_with_denominators(t3):
    text = "1/6*U1 + 1/4*i*q[1,2]"
    x = parse_element(t3, text)
    assert x.den == 12
    assert_normal_form(x)
    rendered = render_element(x)
    assert rendered == "1/4*i*q[1,2] + 1/6*U1"
    assert parse_element(t3, rendered) == x
    y = parse_element(t3, "(1/2 - 3/4*i)*U2^-1 - 5/6*i*q[2,3]^-2*U1*U3")
    assert render_element(y) == "(1/2-3/4*i)*U2^-1 - 5/6*i*q[2,3]^-2*U1*U3"
    assert parse_element(t3, render_element(y)) == y


# -- the fused x + sign * f * p, and matmul built on it ----------------------------


def o_plus_product(alg, ox, of, op, sign):
    product = o_mul(alg, of, op)
    return _accumulate(list(ox.items()) + list((product if sign == 1 else o_neg(product)).items()))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_plus_product_matches_oracle(alg):
    zero = alg.zero()
    rescaled = []  # examples in which x's numerators move to a larger denominator

    @seed(alg.n * 10 + alg.commutative + 400)
    @settings(max_examples=40, deadline=None)
    @given(
        spec_strategy(alg.n),
        spec_strategy(alg.n, min_terms=1),
        spec_strategy(alg.n, min_terms=1),
        st.sampled_from((1, -1)),
    )
    def inner(sx, sf, sp, sign):
        x, ox = build(alg, sx)
        f, of = build(alg, sf)
        p, op = build(alg, sp)
        rescaled.append(bool(x.terms) and x.den % (f.den * p.den) != 0)
        result = _plus_product(x, ((f, p),), sign)
        check(alg, result, o_plus_product(alg, ox, of, op, sign))
        assert result == (x + f * p if sign == 1 else x - f * p)
        # a full cancellation is the shared zero; a partial one leaves x
        assert _plus_product(f * p * -sign, ((f, p),), sign) is zero
        check(alg, _plus_product(x - f * p * sign, ((f, p),), sign), ox)
        # a zero factor returns x itself
        assert _plus_product(x, ((zero, p),), sign) is x
        assert _plus_product(x, ((f, zero),), sign) is x

    inner()
    assert sum(rescaled) >= 10


def is_constant(x):
    """One term, at the all-zero key: the factors of the constant path."""
    return len(x.terms) == 1 and not any(next(iter(x.terms)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_matmul_matches_oracle_sum(alg):
    # entry (i, k) against the oracle's sum over j of left[i][j] * right[j][k],
    # over seeded matrices with inner dimension up to 6, zero entries,
    # constants among general elements, mixed denominators, and pairs
    # that cancel each other
    rng = random.Random("matmul/%d/%s" % (alg.n, alg.commutative))
    zero = alg.zero()
    seen = dict(deep=0, mixed=0, three_dens=0, constant_and_general=0, cancelled=0, zero_sum=0)
    for _ in range(24):
        m, depth, width = rng.randint(1, 3), rng.randint(1, 6), rng.randint(1, 3)
        left = [[build(alg, random_spec(rng, alg.n, 3)) for _ in range(depth)] for _ in range(m)]
        right = [[build(alg, random_spec(rng, alg.n, 3)) for _ in range(width)] for _ in range(depth)]
        for row in left + right:
            for c in range(len(row)):
                if rng.random() < 0.25:
                    row[c] = random_constant(rng, alg)
        if depth > 1:
            # left[i][b] * right[b][k] = -left[i][a] * right[a][k]: the pairs
            # a and b cancel, and half the time they are the entry's only pairs
            i, k = rng.randrange(m), rng.randrange(width)
            a, b = rng.sample(range(depth), 2)
            x = left[i][a]
            if rng.random() < 0.5:
                left[i] = [(zero, {})] * depth
            left[i][a] = left[i][b] = x
            y, oy = right[a][k]
            right[b][k] = (-y, o_neg(oy))
        product = matmul(
            [[x for x, _ in row] for row in left], [[y for y, _ in row] for row in right]
        )
        assert len(product) == m and all(len(row) == width for row in product)
        for i, row in enumerate(product):
            for k, entry in enumerate(row):
                pairs = [
                    (left[i][j], right[j][k])
                    for j in range(depth)
                    if left[i][j][0].terms and right[j][k][0].terms
                ]
                products = [o_mul(alg, ox, oy) for (_, ox), (_, oy) in pairs]
                terms = [term for each in products for term in each.items()]
                check(alg, entry, _accumulate(terms))
                assert entry.terms or entry is zero
                dens = {x.den * y.den for (x, _), (y, _) in pairs}
                constant = [is_constant(x) or is_constant(y) for (x, _), (y, _) in pairs]
                seen["deep"] += len(pairs) >= 5
                seen["mixed"] += len(dens) > 1
                seen["three_dens"] += len(dens) > 2
                seen["constant_and_general"] += any(constant) and not all(constant)
                seen["cancelled"] += any(a == o_neg(b) for a in products for b in products)
                seen["zero_sum"] += bool(pairs) and entry is zero
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_product_whose_cross_terms_cancel_stays_normal(alg):
    # U1 * U2 and U2 * (-q[1,2] U1) land on one key with opposite
    # numerators, so the product keeps two of its four term products
    x = alg.gen(1) + alg.gen(2)
    y = alg.gen(2) - alg.q(1, 2) * alg.gen(1)
    product = x * y
    check(alg, product, o_mul(alg, as_oracle(x), as_oracle(y)))
    assert len(product.terms) == 2


def test_matmul_of_empty_shapes():
    # no row, or rows of no column: no entry is formed
    x = TorusAlgebra(2).gen(1)
    assert matmul((), ()) == ()
    assert matmul(((x,), (x,)), ((),)) == ((), ())


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_matmul_and_plus_product_keep_the_descriptor_check(alg):
    n = alg.n
    x = alg.gen(1) * GaussianRational(1, 2) + alg.q(1, 2)
    for other_alg in (TorusAlgebra(n, not alg.commutative), TorusAlgebra(n + 1, alg.commutative)):
        y = other_alg.gen(1) + other_alg.one()
        for left, right in (([[x, x]], [[y], [y]]), ([[y]], [[x]]), ([[x, y]], [[x], [x]])):
            with pytest.raises(DescriptorMismatch):
                matmul(left, right)
        other = other_alg.zero()
        for args in ((x, x, y), (x, y, x), (y, x, x), (other, x, x), (x, x, other), (x, other, x)):
            with pytest.raises(DescriptorMismatch):
                _plus_product(args[0], (args[1:],))


# -- constant factors keep the other factor's keys ----------------------------------

CONSTANT_ALGEBRAS = KERNEL_ALGEBRAS[:8]  # n = 1..4
CONSTANT_IDS = KERNEL_IDS[:8]
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def random_constant(rng, alg):
    """A seeded nonzero constant and its oracle: +-1 or +-i a third of the
    time, else a Gaussian rational with denominators."""
    if rng.random() < 1 / 3:
        re, im = map(Fraction, rng.choice(UNITS))
    else:
        re, im = Fraction(0), Fraction(0)
        while not (re or im):
            re = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            im = Fraction(rng.randint(-6, 6), rng.randint(1, 6)) * rng.randint(0, 1)
    return alg.scalar(GaussianRational(re, im)), {((0,) * alg.n, ()): (re, im)}


def phase_factors(alg):
    """q[1,2] and i*q[1,2] with their oracles (n >= 2): one term each, at a
    key that is not all zero unless the algebra is commutative."""
    phase = [((1, 2), 1)]
    return [build(alg, [(coeff, (0,) * alg.n, phase)]) for coeff in ((1, 1, 0, 1), (0, 1, 1, 1))]


def o_matmul(alg, left, right):
    """The oracle matrix product: entry (i, k) sums o_mul(left[i][j], right[j][k])."""
    return [
        [
            _accumulate([term for x, y in zip(row, column) for term in o_mul(alg, x, y).items()])
            for column in zip(*right)
        ]
        for row in left
    ]


@pytest.mark.parametrize("alg", CONSTANT_ALGEBRAS, ids=CONSTANT_IDS)
def test_constant_factors_match_oracle(alg):
    # a constant (one term, at the all-zero key) on either side of random
    # elements, through __mul__, _plus_product and matmul
    rng = random.Random("constant/%d/%s" % (alg.n, alg.commutative))
    zero = alg.zero()
    for _ in range(30):
        c, oc = random_constant(rng, alg)
        d, od = random_constant(rng, alg)
        x, ox = build(alg, random_spec(rng, alg.n))
        y, oy = build(alg, random_spec(rng, alg.n))
        factors = [(c, oc), (d, od), (x, ox)] + (phase_factors(alg) if alg.n > 1 else [])
        for f, of in factors:
            check(alg, c * f, o_mul(alg, oc, of))
            check(alg, f * c, o_mul(alg, of, oc))
            for sign in (1, -1):
                expected = o_plus_product(alg, oy, oc, of, sign)
                check(alg, _plus_product(y, ((c, f),), sign), expected)
                expected = o_plus_product(alg, oy, of, oc, sign)
                check(alg, _plus_product(y, ((f, c),), sign), expected)
                if f.terms:
                    # a full cancellation is the shared zero
                    assert _plus_product(f * c * -sign, ((c, f),), sign) is zero
                    assert _plus_product(f * c * -sign, ((f, c),), sign) is zero
        # a constant diagonal with random entries off it, and the identity
        m = rng.randint(1, 3)
        cells = [[build(alg, random_spec(rng, alg.n, 2)) for _ in range(m)] for _ in range(m)]
        diagonal = [random_constant(rng, alg) for _ in range(m)]
        for i in range(m):
            cells[i][i] = diagonal[i]
        one = (alg.one(), {((0,) * alg.n, ()): (Fraction(1), Fraction(0))})
        identity = [[one if i == j else (zero, {}) for j in range(m)] for i in range(m)]
        other = [[build(alg, random_spec(rng, alg.n, 3)) for _ in range(m)] for _ in range(m)]
        for left, right in ((cells, other), (other, cells), (identity, other), (other, identity)):
            product = matmul(
                [[v for v, _ in row] for row in left], [[v for v, _ in row] for row in right]
            )
            expected = o_matmul(
                alg, [[o for _, o in row] for row in left], [[o for _, o in row] for row in right]
            )
            for row, expected_row in zip(product, expected):
                for entry, oracle in zip(row, expected_row):
                    check(alg, entry, oracle)
                    assert entry.terms or entry is zero


@pytest.mark.parametrize("alg", CONSTANT_ALGEBRAS, ids=CONSTANT_IDS)
def test_constant_factors_read_no_pair_exponents(alg, monkeypatch):
    # the general term-pair loop reads the U-exponents of every pair through
    # the algebra's two pickers; a product with a constant factor must not
    x = alg.gen(1, -2) * GaussianRational(Fraction(2, 3), 1) + alg.gen(alg.n)
    if alg.n > 1:
        x = x * alg.q(1, 2) + alg.gen(2)
    c = alg.scalar(GaussianRational(Fraction(-5, 4), Fraction(1, 3)))
    zero, one = alg.zero(), alg.one()
    picked = []
    for name in ("_first_of_pair", "_second_of_pair"):
        picker = alg.__dict__[name]
        monkeypatch.setitem(
            alg.__dict__, name, lambda key, picker=picker: picked.append(key) or picker(key)
        )
    g = GaussianRational(Fraction(-5, 4), Fraction(1, 3))
    for result, expected in (
        (c * x, x * c),
        (x * g, x * c),
        (Fraction(1, 2) * x, x * alg.scalar(Fraction(1, 2))),
        (one * x, x),
        (c * c, c * c),
        (_plus_product(x, ((c, x),), -1), x - c * x),
        (_plus_product(x, ((x, one),)), x + x),
        (matmul([[c, zero], [zero, one]], [[x, c], [c, x]]), ((c * x, c * c), (c, x))),
    ):
        assert result == expected
    assert picked == []
    x * x
    assert picked
