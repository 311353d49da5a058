"""Exact Gaussian-rational scalars, the public coefficient type.

A ``GaussianRational`` is re + im*i with exact rational parts.  It is
what ``TorusAlgebra.scalar``, ``TorusAlgebra.monomial`` and ``x * c``
accept as a coefficient.  Inside an algebra element the coefficients are
stored flat, as Gaussian-integer numerators over one common denominator
per element (see :mod:`nctorus.algebra`), and the q-phase symbols are
part of each term's key.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """A complex number re + im*i with exact parts, each an int or a Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(
                    "a GaussianRational part must be int or Fraction, not %s"
                    % type(part).__name__
                )
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError("cannot coerce %r to GaussianRational" % (value,))

    def __add__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self + (-GaussianRational.coerce(other))

    def __mul__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction (and an integral one its int),
        # so it hashes as that Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)
