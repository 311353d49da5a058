"""Forms over a Lie algebra of derivations: exterior derivative and wedge.

A k-form assigns an algebra element to every k-tuple of basis derivations,
antisymmetrically.  Components are stored on strictly increasing index
tuples; evaluation at arbitrary tuples is the signed extension.  The
exterior derivative follows the alternating-sum formula with bracket
terms weighted by the structure constants, the product is the signed sum
over (k,l)-shuffles, and the star acts componentwise because the basis
derivations are hermitian.  The torus derivations commute, so they do
not represent a nonzero bracket, and d(d x) = 0 holds only for abelian
brackets: over c^3_12 = 1, d(d U3) = -i U3 theta^1 theta^2.

Only this module reads the structure constants: ``KForm.d`` and
``d_array`` (d as a component array) fix d theta^i (d_a, d_b) = -c^i_ab
for the array formulas of ``connections`` and ``levicivita``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import AlgebraElement, TorusAlgebra, _first_unpaired, _frozen
from .errors import DescriptorMismatch
from .records import FrozenRecord
from .scalars import GaussianRational


def _jacobi_defect(n, c):
    """The lexicographically first (a, b, d, f), 1-based, at which
    sum_e c^e_ab c^f_ed + c^e_bd c^f_ea + c^e_da c^f_eb is nonzero, or None.

    The sums are accumulated from products of nonzero constants only, so
    an abelian bracket costs one pass over c instead of O(n^5).
    """
    nonzero = [
        (e, x, y, c[e][x][y])
        for e in range(n)
        for x in range(n)
        for y in range(n)
        if c[e][x][y]
    ]
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


class LieAlgebra(FrozenRecord):
    """An n-dimensional Lie algebra with a hermitian basis d_1, ..., d_n.

    ``brackets`` holds rational structure constants c^e_{ab} with
    [d_a, d_b] = sum_e c^e_{ab} d_e, stored as a nested tuple indexed
    [e][a][b] (0-based).  Antisymmetry and the Jacobi identity are
    validated at construction.  Immutable; equal and hashed by
    (n, brackets).
    """

    _fields = ("n", "brackets")

    def __init__(self, n: int, brackets: tuple):
        if n < 1:
            raise ValueError("need dimension at least 1")
        c = _frozen(brackets, (n, n, n), "structure constants", "n x n x n")
        self.__dict__.update(n=n, brackets=c)
        bad = _first_unpaired(c, lambda x, y: x == -y, 3)
        if bad is not None:
            raise ValueError("structure constants not antisymmetric at c^%d_{%d%d}" % bad)
        bad = _jacobi_defect(n, c)
        if bad is not None:
            raise ValueError("Jacobi identity fails at indices %s" % (bad,))

    @classmethod
    def from_struct(cls, n: int, entries) -> "LieAlgebra":
        """Build from a sparse map {(e, a, b): rational}, 1-based indices.

        The antisymmetric partner of every entry is filled in
        automatically; conflicting assignments raise.
        """
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (e, a, b), value in entries.items():
            if not (1 <= e <= n and 1 <= a <= n and 1 <= b <= n):
                raise IndexError("structure constant index out of range: %s" % ((e, a, b),))
            if a == b:
                raise ValueError("structure constant c^e_{aa} must vanish")
            value = Fraction(value)
            for (x, y, v) in ((a, b, value), (b, a, -value)):
                if c[e - 1][x - 1][y - 1] and c[e - 1][x - 1][y - 1] != v:
                    raise ValueError("conflicting structure constants at %s" % ((e, x, y),))
                c[e - 1][x - 1][y - 1] = v
        return cls(n, c)

    def bracket(self, e: int, a: int, b: int) -> Fraction:
        """c^e_{ab} with 1-based indices."""
        return self.brackets[e - 1][a - 1][b - 1]

    def is_abelian(self) -> bool:
        return all(
            not v for plane in self.brackets for row in plane for v in row
        )


class Calculus(FrozenRecord):
    """A torus algebra together with a Lie algebra acting by the standard
    derivations; both must have the same dimension n.  Immutable; equal
    and hashed by (algebra, lie)."""

    _fields = ("algebra", "lie")

    def __init__(self, algebra: TorusAlgebra, lie: LieAlgebra):
        self.__dict__.update(algebra=algebra, lie=lie)
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
        return cls(TorusAlgebra(n, commutative), LieAlgebra.from_struct(n, brackets or {}))

    def zero_form(self, degree: int) -> "KForm":
        return KForm(self, degree, {})

    def theta(self, i: int) -> "KForm":
        """The dual-basis one-form with theta^i(d_a) = delta^i_a."""
        if not 1 <= i <= self.n:
            raise IndexError("basis index out of range: %d" % i)
        return KForm(self, 1, {(i,): self.algebra.one()})


def _sorted_signed(indices):
    """Sort an index tuple, returning (sign, sorted tuple); sign 0 on repeats."""
    items = list(indices)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return 0, None
    return sign, tuple(items)


class KForm:
    """A degree-k alternating form with algebra-element components.

    Components are stored on strictly increasing 1-based index tuples;
    degree 0 uses the empty tuple.  Forms of degree above the Lie algebra
    dimension are identically zero.
    """

    __slots__ = ("calculus", "degree", "comps")

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
                    value = _frozen(value, (), "component %s" % (key,), "", calculus.algebra)
                if not value.is_zero():
                    clean[key] = value
        self.calculus = calculus
        self.degree = degree
        self.comps = clean

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
            return KForm.of_element(
                self.calculus,
                self.calculus.algebra.scalar(GaussianRational.coerce(other)),
            )
        return None

    def __mul__(self, other):
        other = self._coerce_form(other)
        if other is None:
            return NotImplemented
        k, l = self.degree, other.degree
        n = self.calculus.n
        if k + l > n:
            return KForm(self.calculus, k + l, {})
        comps = {}
        positions = tuple(range(k + l))
        for key in combinations(range(1, n + 1), k + l):
            total = self._zero_value()
            for left_pos in combinations(positions, k):
                right_pos = tuple(p for p in positions if p not in left_pos)
                sign = (-1) ** sum(p - i for i, p in enumerate(left_pos))
                left = self(*(key[p] for p in left_pos))
                if left.is_zero():
                    continue
                right = other(*(key[p] for p in right_pos))
                if right.is_zero():
                    continue
                prod = left * right
                total = total + prod if sign > 0 else total - prod
            if not total.is_zero():
                comps[key] = total
        return KForm(self.calculus, k + l, comps)

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
                term = self.comps.get(rest, zero).derive(b)
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
                            term = self(e, *rest) * c
                            total = total + term if sign > 0 else total - term
            if not total.is_zero():
                comps[key] = total
        return KForm(calc, k + 1, comps)

    # -- predicates ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (
            self.calculus == other.calculus
            and self.degree == other.degree
            and self.comps == other.comps
        )

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

