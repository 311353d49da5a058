"""Hermitian metrics on the free module of one-forms with dual basis.

A metric is stored as the pair of n x n matrices h^ij (upper) and h_ij
(lower), where the lower matrix is a verified two-sided inverse of the
upper one.  The dual basis theta^i(d_a) = delta^i_a makes every lowered
quantity an explicit matrix entry: theta_i(d_a) = h_ia.

The symmetry two-form rho(d_a, d_b) = h_ab - (h_ab)* and its exterior
derivative measure how far the metric is from admitting a torsion-free
compatible connection; d(rho) = 0 is the exact existence criterion.
"""

from __future__ import annotations

from .algebra import _first_unpaired, _frozen, _is_adjoint, _plus_product, _product_rows
from .errors import NotHermitian, NotInverse, NotInvertibleByElimination
from .expr import render_short
from .forms import Calculus, KForm
from .records import Record


def invert_metric(calculus: Calculus, upper):
    """Invert a hermitian matrix by Gaussian elimination with row swaps.

    Every pivot must be an invertible monomial; when a column offers no
    monomial pivot the procedure raises NotInvertibleByElimination and the
    caller has to supply the lower matrix explicitly.  Elimination runs on
    one list per row, the augmented row [h^i1 ... h^in | e_i], and returns
    the right halves.  Each row operation is written once for both halves:
    it writes the pivot column (one at the pivot, zero in every other row)
    instead of multiplying it and touches only the nonzero entries right
    of the pivot (those left of it are zero already); each update
    x - factor * p is one ``_plus_product`` of one pair.
    """
    alg, n = calculus.algebra, calculus.n
    upper = _frozen(upper, (n, n), "upper", alg)
    bad = _first_unpaired(upper, _is_adjoint, 2)
    if bad is not None:
        raise NotHermitian(bad)
    one, zero = alg.one(), alg.zero()
    identity = [[one if r == c else zero for c in range(n)] for r in range(n)]
    rows = [[*row, *e_r] for row, e_r in zip(upper, identity)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col].is_monomial()), None)
        if pivot_row is None:
            raise NotInvertibleByElimination(
                "no invertible monomial pivot in column %d" % (col + 1)
            )
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        inv = pivot[col].invert()
        pivot[col + 1 :] = [inv * p if p.terms else p for p in pivot[col + 1 :]]
        pivot[col] = one
        rest = [(c, p) for c, p in enumerate(pivot[col + 1 :], col + 1) if p.terms]
        for row in rows:
            factor = row[col]
            if row is pivot or not factor.terms:
                continue
            for c, p in rest:
                row[c] = _plus_product(row[c], ((factor, p),), -1)
            row[col] = zero
    return tuple(tuple(row[n:]) for row in rows)


class HermitianMetric(Record):
    """A validated metric: hermitian upper matrix with two-sided inverse."""

    __slots__ = ("calculus", "upper", "lower", "_d_upper")
    _fields = ("calculus", "upper", "lower")

    def __init__(self, calculus: Calculus, upper, lower=None):
        shape = (calculus.n,) * 2
        upper = _frozen(upper, shape, "upper", calculus.algebra)
        if lower is None:
            lower = invert_metric(calculus, upper)
        else:
            lower = _frozen(lower, shape, "lower", calculus.algebra)
        Record.__init__(self, calculus, upper, lower)
        object.__setattr__(self, "_d_upper", None)
        validate(self)

    @property
    def d_upper(self):
        """The n matrices d_a h^ij (a = 1..n), derived on first use."""
        d_upper = self._d_upper
        if d_upper is None:
            d_upper = tuple(
                tuple(
                    tuple([entry.derive(a) if entry.terms else entry for entry in row])
                    for row in self.upper
                )
                for a in range(1, self.calculus.n + 1)
            )
            object.__setattr__(self, "_d_upper", d_upper)
        return d_upper

    def __repr__(self):
        return "HermitianMetric(n=%d)" % self.calculus.n


def validate(metric: HermitianMetric) -> None:
    """Check hermitian symmetry of both matrices and both inverse identities.

    Raises NotHermitian or NotInverse naming the first failing entry.
    Only h^ij h_jk is formed: once U = h^ij and L = h_ij are hermitian,
    (LU)_ik = sum_j L_ij U_jk = sum_j (U_kj L_ji)* = ((UL)_ki)*, so LU is
    the adjoint of UL and equals delta exactly when UL does.  UL is read
    one row at a time from one ``_product_rows`` iterator, which lists the
    nonzero entries of L once, and no row after the first failing one is
    formed.
    """
    alg = metric.calculus.algebra
    for matrix in (metric.upper, metric.lower):
        bad = _first_unpaired(matrix, _is_adjoint, 2)
        if bad is not None:
            raise NotHermitian(bad)
    one, zero = alg.one(), alg.zero()
    for i, row in enumerate(_product_rows(metric.upper, metric.lower)):
        for k, total in enumerate(row):
            if total != (one if i == k else zero):
                raise NotInverse(
                    "h^ij h_jk fails at (%d, %d): got %s"
                    % (i + 1, k + 1, render_short(total))
                )


def symmetry_form(metric: HermitianMetric) -> KForm:
    """The two-form rho with rho(d_a, d_b) = h_ab - (h_ab)*.

    ``validate`` has proved the lower matrix hermitian, so (h_ab)* is the
    stored entry h_ba and is read, not formed; h_ab and h_ba are zero
    together.
    """
    calc = metric.calculus
    lower = metric.lower
    comps = {}
    for a in range(calc.n):
        for b in range(a + 1, calc.n):
            x = lower[a][b]
            if x.terms:
                comps[(a + 1, b + 1)] = x - lower[b][a]  # KForm drops a zero
    return KForm(calc, 2, comps)


def weak_symmetry_defect(metric: HermitianMetric) -> KForm:
    """d(rho) as a three-form; the metric is weakly symmetric iff it vanishes."""
    return symmetry_form(metric).d()

