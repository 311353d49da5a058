"""Forms over a Lie algebra of derivations: exterior derivative and wedge.

A k-form assigns an algebra element to every k-tuple of basis derivations,
antisymmetrically.  Components are stored on strictly increasing index
tuples; evaluation at arbitrary tuples is the signed extension.  The
exterior derivative follows the alternating-sum formula with bracket
terms weighted by the structure constants, the product multiplies pairs
of stored components and signs each merged index tuple by the parity of
its inversions (the signed sum over (k,l)-shuffles of nonzero factors),
and the star acts componentwise because the basis derivations are
hermitian.  The torus derivations commute, so they do not represent a
nonzero bracket, and d(d x) = 0 holds only for abelian brackets: over
c^3_12 = 1, d(d U3) = -i U3 theta^1 theta^2.

Structure constants enter in one place, ``LieAlgebra``, as a sparse map,
and only this module reads them: ``KForm.d`` and ``d_array`` (d as a
component array) fix d theta^i (d_a, d_b) = -c^i_ab for the array
formulas of ``connections`` and ``levicivita``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import AlgebraElement, TorusAlgebra, _frozen
from .errors import DescriptorMismatch
from .records import Record
from .scalars import GaussianRational


def _jacobi_defect(nonzero):
    """The lexicographically first (a, b, d, f), 1-based, at which
    sum_e c^e_ab c^f_ed + c^e_bd c^f_ea + c^e_da c^f_eb is nonzero, or None.

    ``nonzero`` lists (e, x, y, c^e_xy), 0-based, for each nonzero
    constant, and the sums are accumulated from their products only.
    """
    outer = {}  # e -> [(f, z, c^f_ez)]
    for f, e, z, w in nonzero:
        outer.setdefault(e, []).append((f, z, w))
    totals = {}
    for e, x, y, v in nonzero:
        for f, z, w in outer.get(e, ()):
            # c^e_xy c^f_ez is the product in the first, second and third
            # summand at (a, b, d) = (x, y, z), (z, x, y) and (y, z, x).
            for key in ((x, y, z, f), (z, x, y, f), (y, z, x, f)):
                totals[key] = totals.get(key, 0) + v * w
    failing = [key for key, total in totals.items() if total]
    if not failing:
        return None
    return tuple(idx + 1 for idx in min(failing))


def _entry_error(message, key):
    """A ValueError refusing the bracket entry ``key``, (e, a, b) 1-based
    as given, which it carries as ``key``."""
    error = ValueError(message)
    error.key = key
    return error


class LieAlgebra(Record):
    """An n-dimensional Lie algebra with a hermitian basis d_1, ..., d_n.

    ``brackets`` maps (e, a, b), 1-based, to the rational structure
    constant c^e_{ab} of [d_a, d_b] = sum_e c^e_{ab} d_e; a missing entry
    is 0.  The partner c^e_{ba} = -c^e_{ab} of each entry is filled in,
    so the table is antisymmetric by construction.  A value that is not
    an int or a Fraction (a float, a string) raises TypeError naming its
    key, and an index out of range raises IndexError; c^e_{aa}, an entry
    assigned twice with different values (explicit zeros count) and a
    failing Jacobi identity raise ValueError, the first two with the key
    (e, a, b) of the entry as the error's ``key``.  The field
    ``brackets`` is the full table, a nested tuple of Fractions indexed
    [e][a][b] (0-based).  Immutable; equal and hashed by (n, brackets).
    Whether the bracket is abelian is decided once here, outside the
    fields, for ``KForm.d``.
    """

    _fields = ("n", "brackets")

    def __init__(self, n: int, brackets=None):
        if n < 1:
            raise ValueError("need dimension at least 1")
        table = {}  # (e, a, b), 0-based -> c^e_ab, explicit zeros and partners included
        for (e, a, b), value in (brackets or {}).items():
            if not (1 <= e <= n and 1 <= a <= n and 1 <= b <= n):
                raise IndexError("structure constant index out of range: %s" % ((e, a, b),))
            if a == b:
                raise _entry_error("structure constant c^e_{aa} must vanish", (e, a, b))
            if not isinstance(value, (int, Fraction)):
                raise TypeError(
                    "structure constant %s must be int or Fraction, not %s"
                    % ((e, a, b), type(value).__name__)
                )
            value = Fraction(value)
            for x, y, v in ((a, b, value), (b, a, -value)):
                if table.setdefault((e - 1, x - 1, y - 1), v) != v:
                    raise _entry_error(
                        "conflicting structure constants at %s" % ((e, x, y),), (e, a, b)
                    )
        zero, r = Fraction(0), range(n)
        c = tuple(tuple(tuple(table.get((e, a, b), zero) for b in r) for a in r) for e in r)
        Record.__init__(self, n, c)
        nonzero = [key + (v,) for key, v in table.items() if v]
        self.__dict__["_abelian"] = not nonzero
        bad = _jacobi_defect(nonzero)
        if bad is not None:
            raise ValueError("Jacobi identity fails at indices %s" % (bad,))

    def bracket(self, e: int, a: int, b: int) -> Fraction:
        """c^e_{ab} with 1-based indices."""
        return self.brackets[e - 1][a - 1][b - 1]

    def is_abelian(self) -> bool:
        return self._abelian


class Calculus(Record):
    """A torus algebra together with a Lie algebra acting by the standard
    derivations; both must have the same dimension n.  Immutable; equal
    and hashed by (algebra, lie)."""

    _fields = ("algebra", "lie")

    def __init__(self, algebra: TorusAlgebra, lie: LieAlgebra):
        Record.__init__(self, algebra, lie)
        if algebra.n != lie.n:
            raise DescriptorMismatch(
                "algebra has %d generators but Lie algebra has dimension %d"
                % (algebra.n, lie.n)
            )

    @property
    def n(self) -> int:
        return self.algebra.n

    @classmethod
    def torus(cls, n: int, commutative: bool = False, brackets=None) -> "Calculus":
        return cls(TorusAlgebra(n, commutative), LieAlgebra(n, brackets))

    def zero_form(self, degree: int) -> "KForm":
        return KForm(self, degree, {})

    def theta(self, i: int) -> "KForm":
        """The dual-basis one-form with theta^i(d_a) = delta^i_a."""
        if not 1 <= i <= self.n:
            raise IndexError("basis index out of range: %d" % i)
        return KForm(self, 1, {(i,): self.algebra.one()})


def _sorted_signed(indices):
    """(sign, sorted tuple) of an index tuple: the sign is the parity of
    its inversions, and 0 (with None) on a repeated index."""
    if len(set(indices)) < len(indices):
        return 0, None
    inversions = sum(x > y for x, y in combinations(indices, 2))
    return (-1) ** inversions, tuple(sorted(indices))


class KForm(Record):
    """A degree-k alternating form with algebra-element components.

    Components are stored on strictly increasing 1-based index tuples;
    degree 0 uses the empty tuple.  Forms of degree above the Lie algebra
    dimension are identically zero.
    """

    __slots__ = _fields = ("calculus", "degree", "comps")

    def __init__(self, calculus: Calculus, degree: int, comps):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        if degree <= calculus.n:
            for key, value in comps.items():
                key = tuple(key)
                if len(key) != degree or any(
                    not 1 <= idx <= calculus.n for idx in key
                ):
                    raise IndexError("bad component tuple %s" % (key,))
                if list(key) != sorted(set(key)):
                    raise ValueError("component tuples must be strictly increasing")
                # the checker's own identity test first: this runs per component
                if value.__class__ is not AlgebraElement or value.algebra is not calculus.algebra:
                    value = _frozen(value, (), "component %s" % (key,), calculus.algebra)
                if not value.is_zero():
                    clean[key] = value
        Record.__init__(self, calculus, degree, clean)

    # -- construction ------------------------------------------------------------

    @classmethod
    def of_element(cls, calculus: Calculus, value: AlgebraElement) -> "KForm":
        return cls(calculus, 0, {(): value})

    def _zero_value(self) -> AlgebraElement:
        return self.calculus.algebra.zero()

    # -- evaluation ----------------------------------------------------------------

    def __call__(self, *indices) -> AlgebraElement:
        if len(indices) != self.degree:
            raise ValueError(
                "degree-%d form evaluated on %d indices" % (self.degree, len(indices))
            )
        for idx in indices:
            if not 1 <= idx <= self.calculus.n:
                raise IndexError("derivation index out of range: %d" % idx)
        sign, key = _sorted_signed(indices)
        if sign == 0:
            return self._zero_value()
        value = self.comps.get(key)
        if value is None:
            return self._zero_value()
        return value if sign > 0 else -value

    # -- graded vector space ---------------------------------------------------------

    def _check_compatible(self, other: "KForm"):
        if self.calculus != other.calculus:
            raise DescriptorMismatch("forms live over different calculi")

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self.comps)
        for key, value in other.comps.items():
            acc[key] = acc[key] + value if key in acc else value
        return KForm(self.calculus, self.degree, acc)

    def __neg__(self):
        return KForm(
            self.calculus, self.degree, {k: -v for k, v in self.comps.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self + (-other)

    # -- product, star, derivative ------------------------------------------------

    def _coerce_form(self, other):
        if isinstance(other, KForm):
            self._check_compatible(other)
            return other
        if isinstance(other, AlgebraElement):
            return KForm.of_element(self.calculus, other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return KForm.of_element(self.calculus, self.calculus.algebra.scalar(other))
        return None

    def __mul__(self, other):
        other = self._coerce_form(other)
        if other is None:
            return NotImplemented
        comps = {}
        for left_key, left in self.comps.items():
            for right_key, right in other.comps.items():
                sign, key = _sorted_signed(left_key + right_key)
                if sign:
                    prod = left * right if sign > 0 else -(left * right)
                    comps[key] = comps[key] + prod if key in comps else prod
        return KForm(self.calculus, self.degree + other.degree, comps)

    def __rmul__(self, other):
        other = self._coerce_form(other)
        if other is None:
            return NotImplemented
        return other * self

    def star(self) -> "KForm":
        """Componentwise star; valid because the basis derivations are hermitian."""
        return KForm(
            self.calculus, self.degree, {k: v.star() for k, v in self.comps.items()}
        )

    def d(self) -> "KForm":
        """Exterior derivative via the alternating sum with bracket terms."""
        calc = self.calculus
        n = calc.n
        k = self.degree
        if k >= n:
            return KForm(calc, k + 1, {})
        lie = calc.lie
        abelian = lie.is_abelian()
        comps = {}
        zero = self._zero_value()
        for key in combinations(range(1, n + 1), k + 1):
            total = zero
            for pos, b in enumerate(key):
                rest = key[:pos] + key[pos + 1 :]  # increasing: a stored key
                value = self.comps.get(rest)
                if value is not None:
                    term = value.derive(b)
                    if term.terms:
                        total = total + term if pos % 2 == 0 else total - term
            if not abelian:
                for pi, pj in combinations(range(k + 1), 2):
                    rest = tuple(
                        idx for p, idx in enumerate(key) if p not in (pi, pj)
                    )
                    sign = (-1) ** (pi + pj)
                    for e in range(1, n + 1):
                        c = lie.bracket(e, key[pi], key[pj])
                        if c:
                            term = self(e, *rest)
                            if term.terms:
                                term = term * c
                                total = total + term if sign > 0 else total - term
            if total.terms:
                comps[key] = total
        return KForm(calc, k + 1, comps)

    # -- predicates ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def __repr__(self):
        if not self.comps:
            return "KForm(degree=%d, 0)" % self.degree
        bits = ", ".join(
            "%s: %r" % (key, value) for key, value in sorted(self.comps.items())
        )
        return "KForm(degree=%d, {%s})" % (self.degree, bits)


def d_array(calculus: Calculus):
    """The exterior derivative as a component array, d^i_ab = d theta^i (d_a, d_b)
    = -c^i_ab stored at [a][i][b], built on first use and kept on the
    (immutable) calculus."""
    cached = calculus.__dict__.get("_d_array")
    if cached is None:
        lie, scalar, r = calculus.lie, calculus.algebra.scalar, range(1, calculus.n + 1)
        cached = calculus.__dict__["_d_array"] = tuple(
            tuple(tuple(scalar(-lie.bracket(i, a, b)) for b in r) for i in r) for a in r
        )
    return cached

