"""Exact arithmetic in the noncommutative torus algebra.

The algebra is generated by unitaries U_1, ..., U_n subject to
U_a U_b = q[a,b] U_b U_a for a < b, where the q[a,b] are formal unimodular
scalars, q[a,b]* = q[a,b]^-1.  Every element is kept in normal form: a
finite sum of terms c * q^e * U_1^{k_1} ... U_n^{k_n} with a nonzero
Gaussian-rational coefficient c and a Laurent monomial q^e in the phase
symbols.  Two elements are equal exactly when their normal forms coincide.

One flat term representation carries all of this.  An element stores a
dict from a key to a Gaussian-integer numerator ``(re, im)``, plus one
positive common denominator ``den``.  The key lists the n U-exponents,
then the q-exponents of the pairs (1,2), (1,3), ..., (n-1,n); a
commutative algebra has no q block.  In normal form no numerator is
zero, gcd(den, every numerator) = 1, and the zero element is ({}, 1).
Products, sums, the star, derivations and inverses are integer
arithmetic on keys and numerators with one gcd pass per result.  An
entry of a matrix product, sum_j f_j * p_j, and an elimination step
x - f * p are each one result too: ``_plus_product`` brings every pair to
one common denominator first, adds all term products into one
accumulator and normalises once, so no partial sum is formed.

Each algebra has one zero: ``zero()`` and every operation whose result
is zero return the same instance.  Zero entries of arrays are therefore
shared and cost one attribute test (``x.terms`` is empty) or one identity
test (tuple equality compares identical entries without ``__eq__``).  An
operation with a zero operand returns at once, after the same descriptor
and index checks, without building or normalising anything.  The array
checkers follow suit and cost about one read per entry.  ``_frozen``
returns nested tuples of the right shape whose leaves all live over the
very algebra instance, which is every array the package froze itself,
after one pass that builds nothing.  ``_first_unpaired`` skips a pair of
two zero elements, because every relation it is given (hermitian,
antisymmetric, equal) holds on (0, 0).  The hermitian relation, x* == y
through ``_is_adjoint``, forms x*, which the element keeps (below).  No
array is checked for antihermiticity: the solver's one antihermitian
array, i U, is so because U = h R h and R passed the hermitian check.
No element is formed whose value is known: x - x is the shared zero
after one comparison, without a merge.

A constant factor keeps the other factor's keys.  A nonzero constant c
has one term, at the all-zero key, which each algebra builds once.
U^0 commutes with every monomial and picks up no phase, so c * x and
x * c have the keys of x, each numerator times c.  ``_product_into``
adds them so, in the order of its general loop, without slicing or
building a key; the constant diagonals of block and diagonal metrics,
the constant pivots of L D L* metrics, the identity half of the
augmented elimination and scalar parameters all take this path.  A
Python scalar factor (int, Fraction or GaussianRational) becomes that
constant, as an operand of + and - does, and takes the same path.  A
q-phase such as q[1,2] has a nonzero key and takes the general loop.

Two elements are equal exactly when their algebras are equal and their
normal forms coincide; elements over different algebras are unequal, and
arithmetic across algebras raises DescriptorMismatch.  A Python scalar
is an operand of arithmetic, never of ``==``: ``alg.one() == 1`` is
false, and ``alg.one() == alg.scalar(1)`` is the way to ask.

An element keeps its adjoint once formed: ``star()`` stores the result in
the element's ``_star`` slot and returns that instance on later calls, so
a matrix whose hermiticity is checked twice, or whose entries are starred
again when rho is formed, pays for each adjoint once.  This is safe
because elements are immutable, and the link goes one way (the adjoint
does not point back), so it makes no reference cycle.

This module alone knows the layout.  Each algebra builds the label of
every factor (``q[a,b]``, ``U1``) once, in written order, and
``written_terms`` hands the renderer each term as its written factors and
integer coefficient, sorted by U exponents and then by the nonzero phase
exponents as ((a, b), e) pairs in increasing (a, b).

The standard derivations act by d_a(U^k) = i k_a U^k; each d_a is
hermitian and the family commutes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain, product, repeat
from math import gcd

from .errors import DescriptorMismatch, NotMonomial, ZeroElement
from .records import Record
from .scalars import GaussianRational

_SCALARS = (int, Fraction, GaussianRational)
_plus, _minus, _times = operator.add, operator.sub, operator.mul
_algebra_of = operator.attrgetter("algebra")


def _picker(indices):
    """A function from a key to the tuple of its entries at ``indices``."""
    if len(indices) == 1:
        return operator.itemgetter(slice(indices[0], indices[0] + 1))
    return operator.itemgetter(*indices) if indices else operator.itemgetter(slice(0))


class TorusAlgebra(Record):
    """Descriptor of the torus algebra: number of generators and q-mode.

    With ``commutative=True`` every commutation phase collapses to 1,
    which realizes the algebra of Laurent polynomials on the ordinary
    n-torus.  Immutable; equal and hashed by (n, commutative).
    """

    _fields = ("n", "commutative")

    def __init__(self, n: int, commutative: bool = False):
        if n < 1:
            raise ValueError("need at least one generator")
        pairs = () if commutative else tuple(
            (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
        )
        # The key layout: the generator pairs (a, b), a < b, of the q block
        # in key order, and for each its (key position, a - 1, b - 1).  Both
        # are empty for a commutative algebra.  The two pickers read the
        # U-exponents k_a and k_b of every pair from a key, for ``_product_into``.
        # The labels are (key position, factor label) in written order,
        # every q[a,b] before U_1, ..., U_n, for ``written_terms``.  The
        # all-zero key is the one key of every nonzero constant.
        Record.__init__(self, n, commutative)
        self.__dict__.update(
            _pairs=pairs,
            _slots=tuple((n + p, a - 1, b - 1) for p, (a, b) in enumerate(pairs)),
            _first_of_pair=_picker([a - 1 for a, _ in pairs]),
            _second_of_pair=_picker([b - 1 for _, b in pairs]),
            _labels=tuple((n + p, "q[%d,%d]" % pair) for p, pair in enumerate(pairs))
            + tuple((j, "U%d" % (j + 1)) for j in range(n)),
            _zero=AlgebraElement(self, {}, 1),
            _one_key=(0,) * (n + len(pairs)),
        )

    # -- element constructors -------------------------------------------------

    def zero(self) -> "AlgebraElement":
        """The zero element; the same instance on every call."""
        return self._zero

    def one(self) -> "AlgebraElement":
        return self._constant(1)

    def scalar(self, re, im=0) -> "AlgebraElement":
        """The scalar re + im*i, or the GaussianRational ``re`` with no ``im``."""
        if not isinstance(re, GaussianRational):
            re = GaussianRational(re, im)
        elif im != 0:
            raise TypeError("scalar takes no im with a GaussianRational re")
        return self._constant(re)

    def _constant(self, c) -> "AlgebraElement":
        """The constant c, an int, Fraction or GaussianRational: its one
        term at the all-zero key, or the shared zero."""
        re, im, den = _gaussian_parts(c)
        if not (re or im):
            return self._zero
        return AlgebraElement(self, {self._one_key: (re, im)}, den)

    def i(self) -> "AlgebraElement":
        return self.scalar(0, 1)

    def gen(self, j: int, power: int = 1) -> "AlgebraElement":
        """The generator U_j raised to an integer power.

        A power that is not an integer (such as 2.5) raises TypeError.
        """
        if not 1 <= j <= self.n:
            raise IndexError("generator index out of range: %d" % j)
        power = operator.index(power)
        return self.monomial(1, tuple(power if k == j - 1 else 0 for k in range(self.n)))

    def q(self, a: int, b: int, power: int = 1) -> "AlgebraElement":
        """The scalar q[a,b]^power as an algebra element; q[b,a] = q[a,b]^-1."""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise IndexError("phase indices out of range: (%d, %d)" % (a, b))
        power = operator.index(power)
        if a == b:
            raise ValueError("phase symbol needs two distinct generator indices")
        if a > b:
            a, b, power = b, a, -power
        if not self._pairs:
            return self.one()
        key = [0] * (self.n + len(self._pairs))
        key[self.n + self._pairs.index((a, b))] = power
        return AlgebraElement(self, {tuple(key): (1, 0)}, 1)

    def monomial(self, coeff, exponents) -> "AlgebraElement":
        """coeff * U_1^{k_1} ... U_n^{k_n}; a non-integer exponent raises TypeError."""
        exponents = tuple(operator.index(k) for k in exponents)
        if len(exponents) != self.n:
            raise ValueError("exponent vector must have length %d" % self.n)
        re, im, den = _gaussian_parts(coeff)
        if not (re or im):
            return self.zero()
        return AlgebraElement(self, {exponents + (0,) * len(self._pairs): (re, im)}, den)


def _gaussian_parts(c):
    """(re, im, den) with c = (re + i im) / den in lowest terms, for c an
    int, a Fraction or a GaussianRational."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    c = GaussianRational.coerce(c)
    rd, id_ = c.re.denominator, c.im.denominator
    den = rd * id_ // gcd(rd, id_)
    return c.re.numerator * (den // rd), c.im.numerator * (den // id_), den


def _scaled(terms: dict, factor: int) -> dict:
    if factor == 1:
        return terms
    return {key: (re * factor, im * factor) for key, (re, im) in terms.items()}


class AlgebraElement:
    """An element of the torus algebra in canonical normal form.

    ``terms`` maps each flat key (U-exponents, then q-exponents, see the
    module docstring) to its nonzero Gaussian-integer numerator
    ``(re, im)``; ``den`` is the common denominator.  Elements are built
    by ``TorusAlgebra`` and the operations below, which keep the normal
    form; the constructor trusts its arguments.  Instances are immutable
    by convention: an operation may return one of its operands unchanged
    (``x - 0`` returns ``x`` itself, a product with a zero factor returns
    that factor), so nothing may mutate ``terms`` or ``den``.  ``_star``
    holds the adjoint once ``star()`` has formed it.
    """

    __slots__ = ("algebra", "terms", "den", "_star")

    def __init__(self, algebra: TorusAlgebra, terms: dict, den: int):
        self.algebra = algebra
        self.terms = terms
        self.den = den
        self._star = None

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
        if isinstance(value, _SCALARS):
            return self.algebra._constant(value)
        return None

    def _normal(self, acc: dict, den: int, nonzero: bool = False) -> "AlgebraElement":
        """The element acc / den over this algebra, brought to normal form;
        ``acc`` maps keys to ``(re, im)`` tuples and is not copied.  With
        ``nonzero`` the caller vouches that no numerator is zero (a product
        or sum of nonzero Gaussian integers in which no two terms merged),
        and the zero filter is skipped."""
        if not nonzero:
            acc = {key: value for key, value in acc.items() if value[0] or value[1]}
        if not acc:
            return self.algebra._zero
        if den != 1:
            g = gcd(den, *chain.from_iterable(acc.values()))
            if g != 1:
                den //= g
                acc = {key: (re // g, im // g) for key, (re, im) in acc.items()}
        return AlgebraElement(self.algebra, acc, den)

    def _reversed_key(self, k):
        """Key of the reversed inverse monomial U_n^{-k_n} ... U_1^{-k_1}.

        Both the star and the inverse of the ordered monomial q^e U^k need
        it: the exponents are negated, and normal-ordering the reversed
        word picks up q[a,b]^(-k_a k_b) for every pair a < b.
        """
        return tuple(
            [-e for e in k[: self.algebra.n]]
            + [-k[i] - k[a] * k[b] for i, a, b in self.algebra._slots]
        )

    def written_terms(self):
        """The terms in rendering order, as (factors, re, im): sorted by U
        exponents, then by the nonzero phase exponents as ((a, b), e)
        pairs in increasing (a, b).  ``factors`` lists the written monomial
        factors (``q[1,2]^-1``, ``U1``, ``U2^3``), every q[a,b] before
        U_1, ..., U_n, and (re + i im) / ``den`` is the coefficient, not
        reduced.  The factor labels come from the algebra's table; this is
        what the renderer writes."""
        n = self.algebra.n
        labels = self.algebra._labels
        items = sorted(self.terms.items())
        if self.algebra._pairs and len({k[:n] for k in self.terms}) < len(items):
            # Two terms share their U exponents: order those by the q
            # exponents as a sparse ((position, e), ...) tuple, which orders
            # like the ((a, b), e) pairs the positions stand for, not the
            # dense q block of the key.
            items.sort(
                key=lambda item: (
                    item[0][:n],
                    tuple((p, e) for p, e in enumerate(item[0][n:]) if e),
                )
            )
        return [
            (
                [label if k[p] == 1 else "%s^%d" % (label, k[p]) for p, label in labels if k[p]],
                re,
                im,
            )
            for k, (re, im) in items
        ]

    # -- ring structure ----------------------------------------------------------

    def _merged(self, other, negate: bool) -> "AlgebraElement":
        """self + other, or self - other with ``negate``: one pass over the
        numerators of ``other``.  Both operands are nonzero and live over
        the same algebra."""
        dx, dy = self.den, other.den
        if dx == dy:
            den, left, right = dx, self.terms, other.terms
        else:
            den = dx * dy // gcd(dx, dy)
            left, right = _scaled(self.terms, den // dx), _scaled(other.terms, den // dy)
        acc = dict(left)
        get = acc.get
        if negate:
            for key, (re, im) in right.items():
                old = get(key)
                acc[key] = (-re, -im) if old is None else (old[0] - re, old[1] - im)
        else:
            for key, (re, im) in right.items():
                old = get(key)
                acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return self._normal(acc, den, len(acc) == len(left) + len(right))

    def __add__(self, other):
        if other.__class__ is not AlgebraElement or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return self._merged(other, False)

    __radd__ = __add__

    def __neg__(self):
        if not self.terms:
            return self
        return AlgebraElement(
            self.algebra,
            {key: (-re, -im) for key, (re, im) in self.terms.items()},
            self.den,
        )

    def __sub__(self, other):
        if other.__class__ is not AlgebraElement or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return -other
        if self.den == other.den and self.terms == other.terms:
            return self.algebra._zero
        return self._merged(other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not AlgebraElement or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not self.terms:
            return self
        if not other.terms:
            return other
        acc: dict = {}
        _product_into(acc, self, other, 1)
        nonzero = len(acc) == len(self.terms) * len(other.terms)
        return self._normal(acc, self.den * other.den, nonzero)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
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
        """The adjoint: antilinear, reverses products, U_j -> U_j^-1.

        Formed on the first call and kept, so every later call returns the
        same instance; the zero element is its own adjoint.
        """
        adjoint = self._star
        if adjoint is None:
            if not self.terms:
                return self
            adjoint = self._star = AlgebraElement(
                self.algebra,
                {self._reversed_key(k): (re, -im) for k, (re, im) in self.terms.items()},
                self.den,
            )
        return adjoint

    def derive(self, a: int) -> "AlgebraElement":
        """Apply the standard derivation d_a: d_a(c U^k) = i k_a c U^k."""
        if not 1 <= a <= self.algebra.n:
            raise IndexError("derivation index out of range: %d" % a)
        if not self.terms:
            return self
        t = a - 1
        return self._normal(
            {k: (-im * k[t], re * k[t]) for k, (re, im) in self.terms.items() if k[t]},
            self.den,
            True,
        )

    def invert(self) -> "AlgebraElement":
        """Invert a monomial element; mul(x, x.invert()) == 1 two-sided."""
        if self.is_zero():
            raise ZeroElement("cannot invert the zero element")
        if not self.is_monomial():
            raise NotMonomial("only single-monomial elements are invertible")
        ((k, (re, im)),) = self.terms.items()
        # 1 / ((re + i im) / den) = den (re - i im) / (re^2 + im^2)
        return self._normal(
            {self._reversed_key(k): (self.den * re, -self.den * im)},
            re * re + im * im,
            True,
        )

    # -- predicates ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        """True for exactly one term: one ordered monomial times one q-monomial."""
        return len(self.terms) == 1

    def is_hermitian(self) -> bool:
        return self.star() == self

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, self.den, frozenset(self.terms.items())))

    def __repr__(self):
        from .expr import render_element

        return render_element(self)


def _product_into(acc: dict, x, y, scale: int) -> None:
    """Add the numerators of scale * x * y into ``acc``; x and y are nonzero.

    When either factor is a constant c (one term, at the algebra's
    all-zero key), each term of the other factor is added at its own key
    with its numerator times scale * c, in the order the general loop
    would add it; no key is sliced or built.
    """
    alg, get = x.algebra, acc.get
    xt, yt, one = x.terms, y.terms, alg._one_key
    if len(yt) == 1 and one in yt:
        (cr, ci), other = yt[one], xt
    elif len(xt) == 1 and one in xt:
        (cr, ci), other = xt[one], yt
    else:
        other = None
    if other is not None:
        cr, ci = cr * scale, ci * scale
        for key, (re, im) in other.items():
            re, im = re * cr - im * ci, re * ci + im * cr
            old = get(key)
            acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return
    n, first, second = alg.n, alg._first_of_pair, alg._second_of_pair
    # Normal-ordering U^k U^l moves U_a^{l_a} of the right factor
    # leftwards past U_b^{k_b}, b > a: the pair (a, b) picks up the
    # q-exponent -k_b * l_a.  A commutative algebra has no pairs, so
    # its key is the sum of the U exponents alone.
    right = [(l[:n], l[n:], first(l), lr * scale, li * scale) for l, (lr, li) in y.terms.items()]
    for k, (kr, ki) in x.terms.items():
        ku, kq, kb = k[:n], k[n:], second(k)
        for lu, lq, la, lr, li in right:
            key = (
                *map(_plus, ku, lu),
                *map(_minus, map(_plus, kq, lq), map(_times, kb, la)),
            )
            re, im = kr * lr - ki * li, kr * li + ki * lr
            old = get(key)
            acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)


def _plus_product(x, pairs, sign: int = 1):
    """x + sign * (f_1 * p_1 + f_2 * p_2 + ...) over the pairs (f, p) of
    ``pairs`` (sign 1 or -1), as one result.

    The common denominator of x and of every pair is found before any
    product is formed; x's numerators are scaled to it once, each pair's
    term products are added into the same dict by ``_product_into``, and
    the sum is normalised once.  A pair with a zero factor adds nothing,
    and with no other pair x itself is returned.  Every factor must live
    over x's algebra, zero factors included.
    """
    alg, xd = x.algebra, x.den
    common, size, live = xd, len(x.terms), []
    for f, p in pairs:
        if not (f.algebra is alg and p.algebra is alg):
            x._check_same(f)
            f._check_same(p)
        if f.terms and p.terms:
            den = f.den * p.den
            live.append((f, p, den))
            size += len(f.terms) * len(p.terms)
            if common % den:
                common = common * den // gcd(common, den)
    if not live:
        return x
    if not x.terms:  # every matrix-product entry starts from zero
        acc = {}
    elif common == xd:
        acc = dict(x.terms)
    else:
        acc = _scaled(x.terms, common // xd)
    for f, p, den in live:
        _product_into(acc, f, p, sign * (common // den))
    return x._normal(acc, common, len(acc) == size)


def _product_rows(left, right):
    """The rows of the exact matrix product (left . right), one row tuple
    at a time, in order.

    The nonzero entries of each row of ``right`` are listed once, when the
    first row is asked for.  Entry (i, k) sums its pairs left[i][j] *
    right[j][k] with both factors nonzero, in increasing j, through one
    ``_plus_product``; an entry with no such pair is the shared zero.  A
    pair with a zero factor is skipped without multiplying, so sparse
    matrices (block and diagonal metrics, most Christoffel arrays) cost
    only their nonzero pairs.  Exact arithmetic makes the result
    independent of which pairs are skipped.
    """
    if not right or not right[0]:
        for _ in left:
            yield ()
        return
    zero = right[0][0].algebra.zero()
    width = len(right[0])
    empty = (zero,) * width
    nonzero_rows = [[(k, y) for k, y in enumerate(row) if y.terms] for row in right]
    for row in left:
        cells = {}  # column k -> the pairs of entry k
        for x, nonzero in zip(row, nonzero_rows):
            if x.terms:
                for k, y in nonzero:
                    if k in cells:
                        cells[k].append((x, y))
                    else:
                        cells[k] = [(x, y)]
        if not cells:
            yield empty
            continue
        out = [zero] * width
        for k, pairs in cells.items():
            out[k] = _plus_product(zero, pairs)
        yield tuple(out)


def matmul(left, right):
    """The exact matrix product (left . right) of two matrices of elements,
    as a tuple of row tuples: every row of ``_product_rows``, so each
    entry's pairs are summed as one result."""
    return tuple(_product_rows(left, right))


def _is_frozen(x, shape, algebra):
    """True when ``x`` is nested tuples of exactly ``shape`` whose leaves
    are all AlgebraElements over the instance ``algebra``: one pass that
    builds nothing.  The last two axes are walked in one frame, row by
    row, so a shape of one axis, which no caller passes, reads False."""
    if len(shape) > 2:
        if x.__class__ is not tuple or len(x) != shape[0]:
            return False
        inner = shape[1:]
        for part in x:
            if not _is_frozen(part, inner, algebra):
                return False
        return True
    if not shape:
        return x.__class__ is AlgebraElement and x.algebra is algebra
    if x.__class__ is not tuple or len(x) != shape[0]:
        return False
    width = shape[-1]
    for row in x:
        if row.__class__ is not tuple or len(row) != width:
            return False
        for y in row:
            if y.__class__ is not AlgebraElement or y.algebra is not algebra:
                return False
    return True


def _frozen(x, shape, name, algebra, errors=(ValueError, TypeError)):
    """The nested sequence ``x`` as nested tuples of ``shape``; with an
    empty shape, ``x`` is the one leaf.

    Input that is already nested tuples of ``shape``, with every leaf an
    AlgebraElement over the very ``algebra`` instance, is returned as it
    is after one pass that builds nothing (``_is_frozen``); this is every
    array the package froze itself.  Any other input is frozen level by
    level, keeping a level that is already a tuple of the right length,
    and its leaves are checked in index order.

    Another shape raises ``errors[0]``, worded from ``name`` and the rank
    of ``shape``: "an n x n" or "an n x n x n array".  The first leaf in
    index order that is not an AlgebraElement raises ``errors[1]``, and
    the first over an algebra not equal to ``algebra`` DescriptorMismatch,
    each naming the leaf as ``name[i][j]...``, 1-based.
    """
    if _is_frozen(x, shape, algebra):
        return x

    last = len(shape) - 1

    def freeze(part, depth):
        items = tuple(part) if hasattr(part, "__iter__") else None  # a tuple is kept
        if items is None or len(items) != shape[depth]:
            dims = " x ".join("n" * (last + 1))
            raise errors[0]("%s must be an %s array" % (name, dims))
        if depth == last:
            return items
        frozen = [freeze(item, depth + 1) for item in items]
        return items if all(map(operator.is_, frozen, items)) else tuple(frozen)

    out = freeze(x, 0) if shape else x
    leaves = [out]
    for _ in shape:
        leaves = list(chain.from_iterable(leaves))
    if set(map(type, leaves)) == {AlgebraElement} and all(
        map(operator.is_, map(_algebra_of, leaves), repeat(algebra))
    ):
        return out
    for index, y in zip(product(*[range(1, k + 1) for k in shape]), leaves):
        where = name + "".join("[%d]" % k for k in index)
        if not isinstance(y, AlgebraElement):
            raise errors[1]("%s has type %s, not AlgebraElement" % (where, type(y).__name__))
        if y.algebra != algebra:
            raise DescriptorMismatch("%s lives over %r, not %r" % (where, y.algebra, algebra))
    return out


def _is_adjoint(x, y) -> bool:
    """x* == y: the hermitian pairing of entries (i, j) and (j, i).  The
    adjoint is formed, because ``star`` keeps it for later reads."""
    return x.star() == y


def _first_unpaired(x, related, ndim):
    """The first index (..., i, j), 1-based, with j >= i at which
    ``related(x[..][i][j], x[..][j][i])`` is false, or None.

    ``x`` has ``ndim`` axes of AlgebraElements, the last two of equal
    length.  For a relation that holds at (i, j) exactly when it holds at
    (j, i), such as hermitian or antisymmetric pairing, no earlier index of
    the full search fails.  Every relation passed here holds on two zero
    elements, so such a pair is skipped without calling ``related``.
    """
    if ndim > 2:
        for k, part in enumerate(x, 1):
            bad = _first_unpaired(part, related, ndim - 1)
            if bad is not None:
                return (k,) + bad
        return None
    for i, row in enumerate(x):
        for j in range(i, len(x)):
            u, v = row[j], x[j][i]
            if not (u.terms or v.terms):
                continue
            if not related(u, v):
                return (i + 1, j + 1)
    return None
