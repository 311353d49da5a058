from fractions import Fraction

import pytest

from nctorus import GaussianRational, TorusAlgebra

from conftest import canonical_terms


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    b = GaussianRational(2, 1)
    assert a + b == GaussianRational(Fraction(5, 2), -2)
    assert a * b == GaussianRational(4, Fraction(-11, 2))
    assert -a == GaussianRational(Fraction(-1, 2), 3)
    assert a - a == GaussianRational(0, 0)
    assert not (a - a)
    # both parts default to 0, and equal means both parts equal
    assert GaussianRational() == GaussianRational(im=0) == 0
    assert GaussianRational(1, 2) != GaussianRational(1, 3)
    assert GaussianRational(1, 2) != GaussianRational(0, 2)


# q-phase coefficients are part of each term of an algebra element; these
# check the phase laws on elements built from alg.q(a, b, e).


def test_phase_scalar_drops_zero_terms(t3):
    p = t3.q(1, 2) - t3.q(1, 2)
    assert p.is_zero()
    assert p.terms == {}
    assert p == t3.zero()


def test_phase_scalar_conjugation_is_involution(t3):
    p = t3.q(1, 2, 3) * GaussianRational(1, 2) + t3.scalar(Fraction(5, 7))
    assert p.star().star() == p
    # conjugation negates exponent vectors
    q = t3.q(1, 2)
    assert q.star() == t3.q(2, 1)


def test_phase_scalar_q_orientation(t3):
    # q[b,a] is stored as the inverse of q[a,b]
    assert t3.q(2, 1) == t3.q(1, 2, -1)
    assert t3.q(1, 2) * t3.q(2, 1) == t3.one()
    with pytest.raises(ValueError):
        t3.q(1, 1)


def test_phase_scalar_ring_laws(t3):
    p = t3.q(1, 2) + t3.scalar(2)
    q = t3.q(1, 3, -1)
    r = t3.scalar(GaussianRational(0, 1))
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p * q).star() == p.star() * q.star()


def test_phase_scalar_collapse():
    alg = TorusAlgebra(3, commutative=True)
    p = alg.q(1, 2) + alg.one()
    assert p == alg.scalar(2)
    minus = alg.q(1, 2) - alg.one()
    assert minus.is_zero()
    plain = alg.scalar(GaussianRational(2, -1))
    assert plain * alg.q(1, 3, -2) == plain
    assert canonical_terms(plain) == [((0, 0, 0), (), (2, 1), (-1, 1))]
    assert (alg.zero() * alg.q(2, 3)).is_zero()
