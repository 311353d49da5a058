"""Shared fixtures and random generators for the test suite.

Random data is produced from seeded random.Random instances so every run
checks exactly the same cases.  Elements are kept small (few terms, small
exponents) because the point is exact law checking, not stress testing.
"""

from fractions import Fraction
import os
from pathlib import Path
import random

import pytest

from nctorus import (
    Calculus,
    GaussianRational,
    HermitianMetric,
    KForm,
    TorusAlgebra,
)
from nctorus.algebra import matmul


REPO = Path(__file__).resolve().parent.parent


def src_env():
    """The environment with the repository's ``src`` first on PYTHONPATH,
    for tests that run the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture
def t2():
    return TorusAlgebra(2)


@pytest.fixture
def t3():
    return TorusAlgebra(3)


@pytest.fixture
def calc2():
    return Calculus.torus(2)


@pytest.fixture
def calc3():
    return Calculus.torus(3)


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_coeff(rng, allow_zero=False):
    while True:
        c = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        if allow_zero or c:
            return c


def random_monomial(rng, alg, max_exp=2):
    """A random invertible monomial: coefficient, q-phase, U-exponents."""
    exp = tuple(rng.randint(-max_exp, max_exp) for _ in range(alg.n))
    value = alg.monomial(random_coeff(rng), exp)
    if not alg.commutative and alg.n >= 2 and rng.random() < 0.4:
        a = rng.randint(1, alg.n - 1)
        b = rng.randint(a + 1, alg.n)
        value = value * alg.q(a, b, rng.choice((-2, -1, 1, 2)))
    return value


def random_element(rng, alg, max_terms=3, max_exp=2):
    total = alg.zero()
    for _ in range(rng.randint(0, max_terms)):
        total = total + random_monomial(rng, alg, max_exp)
    return total


def random_hermitian(rng, alg, max_terms=2, max_exp=2):
    x = random_element(rng, alg, max_terms, max_exp)
    return x + x.star()


def random_antihermitian(rng, alg, max_terms=2, max_exp=2):
    x = random_element(rng, alg, max_terms, max_exp)
    return x - x.star()


def random_hermitian_matrix(rng, alg, n):
    """An n x n hermitian matrix with one- or two-term entries, some zero."""
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = random_hermitian(rng, alg, 1, 1)
        for j in range(i + 1, n):
            m[i][j] = random_element(rng, alg, 2, 1)
            m[j][i] = m[i][j].star()
    return m


def random_antihermitian_array(rng, calc):
    """An n x n x n array with (A^ij_a)* = -A^ji_a for every a."""
    alg = calc.algebra
    n = calc.n
    out = []
    for _ in range(n):
        plane = [[None] * n for _ in range(n)]
        for i in range(n):
            plane[i][i] = random_antihermitian(rng, alg, max_terms=1)
            for j in range(i + 1, n):
                x = random_element(rng, alg, max_terms=1)
                plane[i][j] = x
                plane[j][i] = -x.star()
        out.append(tuple(tuple(row) for row in plane))
    return tuple(out)


def random_form(rng, calc, degree, max_terms=2, max_exp=2):
    from itertools import combinations

    comps = {}
    for key in combinations(range(1, calc.n + 1), degree):
        comps[key] = random_element(rng, calc.algebra, max_terms, max_exp)
    return KForm(calc, degree, comps)


def random_diagonal_metric(rng, calc):
    """Diagonal metric with nonzero rational constant entries.

    Hermitian invertible monomials are exactly the nonzero rational
    scalars, so this is the full family of exact diagonal metrics.
    """
    n = calc.n
    alg = calc.algebra
    z = alg.zero()
    upper = [[z for _ in range(n)] for _ in range(n)]
    for k in range(n):
        value = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        upper[k][k] = alg.scalar(value)
    return HermitianMetric(calc, upper)


def random_block_metric(rng, calc, weakly_symmetric=True):
    """Rank-3 block metric: one diagonal constant, one off-diagonal pair
    h^pq = h0, h^qp = h0* with h0 an invertible monomial.

    With ``weakly_symmetric`` the monomial exponent at the remaining index
    is forced to zero, which is exactly the d(rho) = 0 condition for this
    shape.
    """
    assert calc.n == 3
    alg = calc.algebra
    p, q = rng.choice(((1, 2), (1, 3), (2, 3)))
    r = ({1, 2, 3} - {p, q}).pop()
    exp = [rng.randint(-2, 2) for _ in range(3)]
    if weakly_symmetric:
        exp[r - 1] = 0
    h0 = alg.monomial(random_coeff(rng), tuple(exp))
    if not alg.commutative and rng.random() < 0.4:
        h0 = h0 * alg.q(1, 2, rng.choice((-1, 1)))
    z = alg.zero()
    upper = [[z for _ in range(3)] for _ in range(3)]
    upper[r - 1][r - 1] = alg.scalar(Fraction(rng.choice((1, 2, 3)), rng.randint(1, 2)))
    upper[p - 1][q - 1] = h0
    upper[q - 1][p - 1] = h0.star()
    return HermitianMetric(calc, upper)


def congruence_metric(calc, *steps):
    """lower = E* D E and upper = E^-1 D^-1 E^-*, passed as an explicit
    pair: D = diag(2, 3, 1, 2, 3, 1, ...) and E is the product of the steps
    I + x e_ij, each given as (i, j, x) with 1-based i != j."""
    alg, n = calc.algebra, calc.n
    weights = [(2, 3, 1)[k % 3] for k in range(n)]

    def diag(values):
        return [
            [alg.scalar(values[i]) if i == j else alg.zero() for j in range(n)]
            for i in range(n)
        ]

    def adjoint(m):
        return [[m[j][i].star() for j in range(n)] for i in range(n)]

    e, e_inv = diag([1] * n), diag([1] * n)
    for i, j, x in steps:
        step, step_inv = diag([1] * n), diag([1] * n)
        step[i - 1][j - 1], step_inv[i - 1][j - 1] = x, -x
        e, e_inv = matmul(e, step), matmul(step_inv, e_inv)
    lower = matmul(matmul(adjoint(e), diag(weights)), e)
    upper = matmul(
        matmul(e_inv, diag([Fraction(1, w) for w in weights])), adjoint(e_inv)
    )
    return HermitianMetric(calc, upper, lower)


def random_congruence_steps(rng, alg, count):
    """``count`` seeded steps (i, j, x) for ``congruence_metric``.  One
    non-constant monomial W is drawn for the whole metric, and each x is
    c W^k or the hermitian c W^k + (c W^k)*, with c a nonzero rational and
    k = +-1."""
    exponents = [0] * alg.n
    while not any(exponents):
        exponents = [rng.randint(-1, 1) for _ in range(alg.n)]
    w = alg.monomial(1, exponents)
    if not alg.commutative and rng.random() < 0.5:
        w = w * alg.q(1, 2)
    steps = []
    for _ in range(count):
        i, j = rng.sample(range(1, alg.n + 1), 2)
        x = w.invert() if rng.random() < 0.5 else w
        x = x * Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
        steps.append((i, j, x + x.star() if rng.random() < 0.8 else x))
    return steps


def block_metric(calc, h0):
    """The rank-3 metric with h^11 = 1, h^23 = h0, h^32 = h0*."""
    alg = calc.algebra
    z, one = alg.zero(), alg.one()
    return HermitianMetric(
        calc,
        [[one, z, z], [z, z, h0], [z, h0.star(), z]],
    )


def drho_via_generators(metric):
    """Independent route to d(rho) through the one-form calculus.

    Computes theta_i* (d h^ij) theta_j + (d theta^i)* theta_i
    - theta_i* d theta^i using only wedge, d and star of forms, with
    theta_i = h_ij theta^j.  Used as an oracle against the direct
    exterior derivative of the symmetry form.
    """
    calc = metric.calculus
    n = calc.n
    lowered = [
        KForm(calc, 1, {(j,): metric.lower[i][j - 1] for j in range(1, n + 1)})
        for i in range(n)
    ]
    total = calc.zero_form(3)
    for i in range(n):
        for j in range(n):
            dh = KForm.of_element(calc, metric.upper[i][j]).d()
            total = total + lowered[i].star() * dh * lowered[j]
    for i in range(n):
        dtheta = calc.theta(i + 1).d()
        total = total + dtheta.star() * lowered[i]
        total = total - lowered[i].star() * dtheta
    return total
