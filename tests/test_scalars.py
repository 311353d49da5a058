from fractions import Fraction

import pytest

from nctorus import GaussianRational, PhaseScalar


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    b = GaussianRational(2, 1)
    assert a + b == GaussianRational(Fraction(5, 2), -2)
    assert a * b == GaussianRational(4, Fraction(-11, 2))
    assert -a == GaussianRational(Fraction(-1, 2), 3)
    assert a - a == GaussianRational(0, 0)
    assert not (a - a)


def test_gaussian_rational_conjugate_and_inverse():
    a = GaussianRational(3, -4)
    assert a.conjugate() == GaussianRational(3, 4)
    assert a * a.inverse() == GaussianRational(1, 0)
    assert GaussianRational(0, 2).inverse() == GaussianRational(0, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0, 0).inverse()


def test_phase_scalar_drops_zero_terms():
    p = PhaseScalar.q_symbol(1, 2) - PhaseScalar.q_symbol(1, 2)
    assert p.is_zero()
    assert p.terms == {}


def test_phase_scalar_conjugation_is_involution():
    p = PhaseScalar.q_symbol(1, 2, 3) * GaussianRational(1, 2) + PhaseScalar.from_coeff(
        Fraction(5, 7)
    )
    assert p.conjugate().conjugate() == p
    # conjugation negates exponent vectors
    q = PhaseScalar.q_symbol(1, 2)
    assert q.conjugate() == PhaseScalar.q_symbol(2, 1)


def test_phase_scalar_q_orientation():
    # q[b,a] is stored as the inverse of q[a,b]
    assert PhaseScalar.q_symbol(2, 1) == PhaseScalar.q_symbol(1, 2, -1)
    assert PhaseScalar.q_symbol(1, 2) * PhaseScalar.q_symbol(2, 1) == PhaseScalar.one()
    with pytest.raises(ValueError):
        PhaseScalar.q_symbol(1, 1)


def test_phase_scalar_ring_laws():
    p = PhaseScalar.q_symbol(1, 2) + PhaseScalar.from_coeff(2)
    q = PhaseScalar.q_symbol(1, 3, -1)
    r = PhaseScalar.from_coeff(GaussianRational(0, 1))
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()


def test_phase_scalar_collapse():
    p = PhaseScalar.q_symbol(1, 2) + PhaseScalar.from_coeff(1)
    assert p.collapsed() == PhaseScalar.from_coeff(2)
    minus = PhaseScalar.q_symbol(1, 2) - PhaseScalar.from_coeff(1)
    assert minus.collapsed().is_zero()
    plain = PhaseScalar.from_coeff(GaussianRational(2, -1))
    assert plain.collapsed() is plain
    assert PhaseScalar.zero().collapsed().is_zero()
