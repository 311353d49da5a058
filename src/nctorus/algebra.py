"""Exact arithmetic in the noncommutative torus algebra.

The algebra is generated by unitaries U_1, ..., U_n subject to
U_a U_b = q[a,b] U_b U_a for a < b, where the q[a,b] are formal unimodular
scalars (see :mod:`nctorus.scalars`).  Every element is kept in normal
form: a finite sum of ordered monomials U_1^{k_1} ... U_n^{k_n} with
nonzero phase-scalar coefficients.  Two elements are equal exactly when
their normal forms coincide.

The standard derivations act by d_a(U^k) = i k_a U^k; each d_a is
hermitian and the family commutes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DescriptorMismatch, NotMonomial, ZeroElement
from .scalars import GaussianRational, PhaseScalar


@dataclass(frozen=True)
class TorusAlgebra:
    """Descriptor of the torus algebra: number of generators and q-mode.

    With ``commutative=True`` every commutation phase collapses to 1,
    which realizes the algebra of Laurent polynomials on the ordinary
    n-torus.
    """

    n: int
    commutative: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one generator")

    # -- element constructors -------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.scalar(1)

    def scalar(self, re, im=0) -> "AlgebraElement":
        coeff = re if isinstance(re, GaussianRational) else GaussianRational(re, im)
        if coeff.is_zero():
            return self.zero()
        exp = (0,) * self.n
        return AlgebraElement(self, {exp: PhaseScalar.from_coeff(coeff)})

    def i(self) -> "AlgebraElement":
        return self.scalar(0, 1)

    def gen(self, j: int, power: int = 1) -> "AlgebraElement":
        """The generator U_j raised to an integer power.

        A power that is not an integer (such as 2.5) raises TypeError.
        """
        if not 1 <= j <= self.n:
            raise IndexError("generator index out of range: %d" % j)
        power = operator.index(power)
        exp = tuple(power if k == j - 1 else 0 for k in range(self.n))
        return AlgebraElement(self, {exp: PhaseScalar.one()})

    def q(self, a: int, b: int, power: int = 1) -> "AlgebraElement":
        """The scalar q[a,b]^power as an algebra element."""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise IndexError("phase indices out of range: (%d, %d)" % (a, b))
        exp = (0,) * self.n
        power = operator.index(power)
        return AlgebraElement(self, {exp: PhaseScalar.q_symbol(a, b, power)})

    def monomial(self, coeff, exponents) -> "AlgebraElement":
        """coeff * U_1^{k_1} ... U_n^{k_n}; a non-integer exponent raises TypeError."""
        exponents = tuple(operator.index(k) for k in exponents)
        if len(exponents) != self.n:
            raise ValueError("exponent vector must have length %d" % self.n)
        phase = coeff if isinstance(coeff, PhaseScalar) else PhaseScalar.from_coeff(coeff)
        return AlgebraElement(self, {exponents: phase})


class AlgebraElement:
    """An element of the torus algebra in canonical normal form.

    ``terms`` maps each monomial exponent vector in Z^n to its nonzero
    PhaseScalar coefficient.  Instances are immutable by convention; all
    operations return new elements.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: TorusAlgebra, terms):
        clean = {}
        for exp, phase in terms.items():
            if algebra.commutative:
                phase = phase.collapsed()
            if phase:
                clean[exp] = phase
        self.algebra = algebra
        self.terms = clean

    # -- helpers ---------------------------------------------------------------

    def _check_same(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise DescriptorMismatch(
                "elements live over different algebras: %r vs %r"
                % (self.algebra, other.algebra)
            )

    def _coerce(self, value):
        if isinstance(value, AlgebraElement):
            self._check_same(value)
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return self.algebra.scalar(GaussianRational.coerce(value))
        return None

    # -- ring structure ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for exp, phase in other.terms.items():
            if exp in acc:
                acc[exp] = acc[exp] + phase
            else:
                acc[exp] = phase
        return AlgebraElement(self.algebra, acc)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(
            self.algebra, {exp: -phase for exp, phase in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            return AlgebraElement(
                self.algebra, {exp: phase * c for exp, phase in self.terms.items()}
            )
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        n = self.algebra.n
        acc: dict = {}
        for k, pk in self.terms.items():
            for l, pl in other.terms.items():
                exp = tuple(k[t] + l[t] for t in range(n))
                phase = pk * pl
                if not self.algebra.commutative:
                    shift = _reorder_qkey(k, l)
                    if shift:
                        phase = phase.shifted(shift)
                if exp in acc:
                    acc[exp] = acc[exp] + phase
                else:
                    acc[exp] = phase
        return AlgebraElement(self.algebra, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        out = self.algebra.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- star structure and derivations -----------------------------------------

    def star(self) -> "AlgebraElement":
        """The adjoint: antilinear, reverses products, U_j -> U_j^-1."""
        acc = {}
        for k, phase in self.terms.items():
            exp = tuple(-e for e in k)
            new = phase.conjugate()
            if not self.algebra.commutative:
                shift = _reversal_qkey(k)
                if shift:
                    new = new.shifted(shift)
            if exp in acc:
                acc[exp] = acc[exp] + new
            else:
                acc[exp] = new
        return AlgebraElement(self.algebra, acc)

    def derive(self, a: int) -> "AlgebraElement":
        """Apply the standard derivation d_a: d_a(c U^k) = i k_a c U^k."""
        if not 1 <= a <= self.algebra.n:
            raise IndexError("derivation index out of range: %d" % a)
        acc = {}
        for k, phase in self.terms.items():
            factor = GaussianRational(0, k[a - 1])
            if factor:
                acc[k] = phase * factor
        return AlgebraElement(self.algebra, acc)

    def invert(self) -> "AlgebraElement":
        """Invert a monomial element; mul(x, x.invert()) == 1 two-sided."""
        if self.is_zero():
            raise ZeroElement("cannot invert the zero element")
        if not self.is_monomial():
            raise NotMonomial("only single-monomial elements are invertible")
        ((k, phase),) = self.terms.items()
        exp = tuple(-e for e in k)
        new = phase.inverse()
        if not self.algebra.commutative:
            shift = _reversal_qkey(k)
            if shift:
                new = new.shifted(shift)
        return AlgebraElement(self.algebra, {exp: new})

    # -- predicates ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        """True for exactly one ordered monomial with one q-monomial coefficient."""
        if len(self.terms) != 1:
            return False
        (phase,) = self.terms.values()
        return len(phase.terms) == 1

    def is_hermitian(self) -> bool:
        return self.star() == self

    def __eq__(self, other):
        coerced = None
        if isinstance(other, AlgebraElement):
            if self.algebra != other.algebra:
                return False
            coerced = other
        elif isinstance(other, (int, Fraction, GaussianRational)):
            coerced = self.algebra.scalar(GaussianRational.coerce(other))
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self):
        return hash(
            (self.algebra, frozenset((k, p) for k, p in self.terms.items()))
        )

    def __repr__(self):
        from .expr import render_element

        return render_element(self)


def _reorder_qkey(k, l):
    """Phase exponents picked up normal-ordering the product U^k * U^l.

    Moving U_a^{l_a} of the right factor leftwards past U_b^{k_b} with
    b > a contributes q[a,b]^(-k_b * l_a).
    """
    acc = {}
    n = len(k)
    for a0 in range(n - 1):
        if l[a0] == 0:
            continue
        for b0 in range(a0 + 1, n):
            e = -k[b0] * l[a0]
            if e:
                acc[(a0 + 1, b0 + 1)] = acc.get((a0 + 1, b0 + 1), 0) + e
    return tuple(sorted((pair, e) for pair, e in acc.items() if e))


def _reversal_qkey(k):
    """Phase exponents from normal-ordering U_n^{-k_n} ... U_1^{-k_1}.

    This is the reordering needed by both the star and the inverse of the
    ordered monomial U^k.
    """
    acc = {}
    n = len(k)
    for a0 in range(n - 1):
        if k[a0] == 0:
            continue
        for b0 in range(a0 + 1, n):
            e = -k[b0] * k[a0]
            if e:
                acc[(a0 + 1, b0 + 1)] = acc.get((a0 + 1, b0 + 1), 0) + e
    return tuple(sorted((pair, e) for pair, e in acc.items() if e))


def matmul(left, right):
    """The exact matrix product (left . right) of two matrices of elements.

    Entry (i, k) is the sum over j of left[i][j] * right[j][k], summed in
    increasing j.  A pair with a zero factor contributes nothing and is
    skipped without multiplying, so sparse matrices (block and diagonal
    metrics, most Christoffel arrays) cost only their nonzero pairs.
    Exact arithmetic makes the result independent of which pairs are
    skipped.  Returns a tuple of row tuples.
    """
    if not right or not right[0]:
        return tuple(() for _ in left)
    zero = right[0][0].algebra.zero()
    out = []
    for row in left:
        acc = [zero] * len(right[0])
        for x, right_row in zip(row, right):
            if x.is_zero():
                continue
            for k, y in enumerate(right_row):
                if not y.is_zero():
                    acc[k] = acc[k] + x * y
        out.append(tuple(acc))
    return tuple(out)


# Named operation surface mirroring the library contract; each is a thin
# wrapper around the corresponding method.

def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x + y


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y


def star(x: AlgebraElement) -> AlgebraElement:
    return x.star()


def derive(a: int, x: AlgebraElement) -> AlgebraElement:
    return x.derive(a)


def invert(x: AlgebraElement) -> AlgebraElement:
    return x.invert()


def is_hermitian(x: AlgebraElement) -> bool:
    return x.is_hermitian()


def is_zero(x: AlgebraElement) -> bool:
    return x.is_zero()
