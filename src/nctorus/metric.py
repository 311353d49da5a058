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

from .algebra import AlgebraElement, _first_unpaired, _frozen, matmul
from .errors import NotHermitian, NotInverse, NotInvertibleByElimination
from .expr import render_short
from .forms import Calculus, KForm


def _adjoint(x, y):
    """The hermitian pairing of entries (i, j) and (j, i)."""
    return x.star() == y


def invert_metric(calculus: Calculus, upper):
    """Invert a hermitian matrix by Gaussian elimination with row swaps.

    Every pivot must be an invertible monomial; when a column offers no
    monomial pivot the procedure raises NotInvertibleByElimination and the
    caller has to supply the lower matrix explicitly.
    """
    alg, n = calculus.algebra, calculus.n
    upper = _frozen(upper, (n, n), "upper", "n x n", alg)
    bad = _first_unpaired(upper, _adjoint, 2)
    if bad is not None:
        raise NotHermitian(bad)
    work = [list(row) for row in upper]
    aug = [
        [alg.one() if r == c else alg.zero() for c in range(n)] for r in range(n)
    ]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if work[r][col].is_monomial():
                pivot_row = r
                break
        if pivot_row is None:
            raise NotInvertibleByElimination(
                "no invertible monomial pivot in column %d" % (col + 1)
            )
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = work[col][col].invert()
        work[col] = [inv * entry for entry in work[col]]
        aug[col] = [inv * entry for entry in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero():
                continue
            work[r] = [
                work[r][c] - factor * work[col][c] for c in range(n)
            ]
            aug[r] = [aug[r][c] - factor * aug[col][c] for c in range(n)]
    return tuple(tuple(row) for row in aug)


class HermitianMetric:
    """A validated metric: hermitian upper matrix with two-sided inverse."""

    __slots__ = ("calculus", "upper", "lower", "_d_upper")

    def __init__(self, calculus: Calculus, upper, lower=None):
        shape = (calculus.n,) * 2
        upper = _frozen(upper, shape, "upper", "n x n", calculus.algebra)
        if lower is None:
            lower = invert_metric(calculus, upper)
        else:
            lower = _frozen(lower, shape, "lower", "n x n", calculus.algebra)
        self.calculus = calculus
        self.upper = upper
        self.lower = lower
        self._d_upper = None
        validate(self)

    @property
    def d_upper(self):
        """The n matrices d_a h^ij (a = 1..n), derived on first use."""
        if self._d_upper is None:
            self._d_upper = tuple(
                tuple(tuple(entry.derive(a) for entry in row) for row in self.upper)
                for a in range(1, self.calculus.n + 1)
            )
        return self._d_upper

    def __eq__(self, other):
        if not isinstance(other, HermitianMetric):
            return NotImplemented
        return (
            self.calculus == other.calculus
            and self.upper == other.upper
            and self.lower == other.lower
        )

    def __repr__(self):
        return "HermitianMetric(n=%d)" % self.calculus.n


def validate(metric: HermitianMetric) -> None:
    """Check hermitian symmetry of both matrices and both inverse identities.

    Raises NotHermitian or NotInverse naming the first failing entry.
    Only h^ij h_jk is formed: once U = h^ij and L = h_ij are hermitian,
    (LU)_ik = sum_j L_ij U_jk = sum_j (U_kj L_ji)* = ((UL)_ki)*, so LU is
    the adjoint of UL and equals delta exactly when UL does.  UL is formed
    one row at a time, up to the first failing row.
    """
    alg = metric.calculus.algebra
    for matrix in (metric.upper, metric.lower):
        bad = _first_unpaired(matrix, _adjoint, 2)
        if bad is not None:
            raise NotHermitian(bad)
    one, zero = alg.one(), alg.zero()
    for i, upper_row in enumerate(metric.upper):
        (row,) = matmul((upper_row,), metric.lower)
        for k, total in enumerate(row):
            if total != (one if i == k else zero):
                raise NotInverse(
                    "h^ij h_jk fails at (%d, %d): got %s"
                    % (i + 1, k + 1, render_short(total))
                )


def pair(metric: HermitianMetric, left, right) -> AlgebraElement:
    """h(f_i theta^i, g_j theta^j) = sum f_i h^ij (g_j)*."""
    alg, n = metric.calculus.algebra, metric.calculus.n
    left = _frozen(left, (n,), "left", "n-entry", alg)
    right = _frozen(right, (n,), "right", "n-entry", alg)
    total = alg.zero()
    for i in range(n):
        for j in range(n):
            total = total + left[i] * metric.upper[i][j] * right[j].star()
    return total


def symmetry_form(metric: HermitianMetric) -> KForm:
    """The two-form rho with rho(d_a, d_b) = h_ab - (h_ab)*."""
    calc = metric.calculus
    comps = {}
    for a in range(1, calc.n + 1):
        for b in range(a + 1, calc.n + 1):
            value = metric.lower[a - 1][b - 1] - metric.lower[a - 1][b - 1].star()
            if not value.is_zero():
                comps[(a, b)] = value
    return KForm(calc, 2, comps)


def weak_symmetry_defect(metric: HermitianMetric) -> KForm:
    """d(rho) as a three-form; the metric is weakly symmetric iff it vanishes."""
    return symmetry_form(metric).d()

