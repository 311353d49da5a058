"""Exact scalar arithmetic for the torus algebra.

Coefficients are Gaussian rationals (exact rational real and imaginary
parts) times Laurent monomials in formal unimodular symbols q[a,b], one
symbol per generator pair a < b.  The symbols satisfy q[a,b]* = q[a,b]^-1,
so the coefficient ring is closed under conjugation and every scalar
computation stays exact.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """A complex number re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)

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
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


I_UNIT = GaussianRational(0, 1)

# A phase exponent key is a sorted tuple of ((a, b), e) with a < b and e != 0;
# it stands for the product of q[a,b]^e over the listed pairs.
QKey = tuple


def qkey_merge(k1: QKey, k2: QKey) -> QKey:
    acc = dict(k1)
    for pair, e in k2:
        acc[pair] = acc.get(pair, 0) + e
        if acc[pair] == 0:
            del acc[pair]
    return tuple(sorted(acc.items()))


def qkey_neg(k: QKey) -> QKey:
    return tuple((pair, -e) for pair, e in k)


class PhaseScalar:
    """A finite sum of q-monomials with Gaussian-rational coefficients.

    Conjugation maps every exponent vector e to -e and conjugates the
    coefficient, which models the unimodularity q* = q^-1 of the formal
    deformation symbols.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = GaussianRational.coerce(coeff)
                if coeff:
                    clean[key] = clean.get(key, GaussianRational()) + coeff
                    if not clean[key]:
                        del clean[key]
        self.terms = clean

    @classmethod
    def from_coeff(cls, coeff) -> "PhaseScalar":
        return cls({(): GaussianRational.coerce(coeff)})

    @classmethod
    def q_symbol(cls, a: int, b: int, power: int = 1) -> "PhaseScalar":
        if a == b:
            raise ValueError("phase symbol needs two distinct generator indices")
        if a > b:
            a, b = b, a
            power = -power
        if power == 0:
            return cls.from_coeff(1)
        return cls({(((a, b), power),): GaussianRational(1)})

    @classmethod
    def zero(cls) -> "PhaseScalar":
        return cls()

    @classmethod
    def one(cls) -> "PhaseScalar":
        return cls.from_coeff(1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, PhaseScalar):
            return NotImplemented
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, GaussianRational()) + coeff
        return PhaseScalar(acc)

    def __neg__(self):
        return PhaseScalar({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = GaussianRational.coerce(other)
            return PhaseScalar({key: c * other for key, c in self.terms.items()})
        if not isinstance(other, PhaseScalar):
            return NotImplemented
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = qkey_merge(k1, k2)
                acc[key] = acc.get(key, GaussianRational()) + c1 * c2
        return PhaseScalar(acc)

    __rmul__ = __mul__

    def shifted(self, qkey: QKey) -> "PhaseScalar":
        """Multiply by the q-monomial with exponent key ``qkey``."""
        if not qkey:
            return self
        return PhaseScalar({qkey_merge(k, qkey): c for k, c in self.terms.items()})

    def conjugate(self) -> "PhaseScalar":
        return PhaseScalar(
            {qkey_neg(k): c.conjugate() for k, c in self.terms.items()}
        )

    def inverse(self) -> "PhaseScalar":
        """Invert a single q-monomial scalar; raises on sums."""
        if len(self.terms) != 1:
            raise ValueError("only single q-monomial phase scalars are invertible")
        ((key, coeff),) = self.terms.items()
        return PhaseScalar({qkey_neg(key): coeff.inverse()})

    def collapsed(self) -> "PhaseScalar":
        """Specialize every q symbol to 1 (the commutative limit)."""
        if self.terms.keys() <= {()}:
            return self
        total = GaussianRational()
        for coeff in self.terms.values():
            total = total + coeff
        return PhaseScalar({(): total}) if total else PhaseScalar()

    def __eq__(self, other):
        if not isinstance(other, PhaseScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "PhaseScalar(0)"
        bits = []
        for key, coeff in sorted(self.terms.items()):
            qs = "*".join(
                "q[%d,%d]^%d" % (a, b, e) for (a, b), e in key
            )
            bits.append("(%s, %s)%s" % (coeff.re, coeff.im, ":" + qs if qs else ""))
        return "PhaseScalar(%s)" % "; ".join(bits)
