"""Connections on the free module of one-forms, stored as Christoffel arrays.

A connection is the array gamma[a][i][j] of algebra elements with

    nabla_{d_a} theta^i = gamma[a][i][j] theta^j   (sum over j),

extended to arbitrary module elements by the Leibniz rule.  On the
dual-basis module every operator needed here (index swap in the two
derivation slots, symmetrization, antisymmetrization, pairing against the
metric) acts on such finite component arrays, and each is defined once.
With T_h the metric pairing operator, s the symmetrizer, wedge the
antisymmetrizer and d the exterior derivative as an array
(``forms.d_array``, d^i_ab = -c^i_ab):

    torsion                T(gamma) = wedge(gamma) - d
    compatibility defect   C(gamma) = d h - T_h(gamma)
    torsion-free part      P(gamma) = (d + s(gamma)) / 2

``torsion``, ``compat_defect``, ``torsion_free_from`` and the
characterization check are built from these identities, and
``compatible_connection`` reads d_a h^ij from ``HermitianMetric.d_upper``.
The F tensor of ``levicivita`` reads its bracket term, -i h_ce d^e_ab,
from the same array.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations

from .algebra import _first_unpaired, _frozen, matmul
from .errors import AntihermitianViolation, DescriptorMismatch
from .forms import Calculus, KForm, d_array
from .metric import HermitianMetric

HALF = Fraction(1, 2)


class Connection:
    """Christoffel data gamma[a][i][j] over a calculus, an n x n x n array."""

    __slots__ = ("calculus", "gamma")

    def __init__(self, calculus: Calculus, gamma):
        self.calculus = calculus
        self.gamma = _frozen(
            gamma, (calculus.n,) * 3, "gamma", "n x n x n", calculus.algebra
        )

    @classmethod
    def zero(cls, calculus: Calculus) -> "Connection":
        n = calculus.n
        return cls(calculus, [[[calculus.algebra.zero()] * n] * n] * n)

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.calculus == other.calculus and self.gamma == other.gamma

    def __repr__(self):
        from .expr import render_element

        nonzero = []
        for a, plane in enumerate(self.gamma, 1):
            for i, row in enumerate(plane, 1):
                for j, entry in enumerate(row, 1):
                    if not entry.is_zero():
                        nonzero.append(
                            "gamma[%d,%d,%d]=%s" % (a, i, j, render_element(entry))
                        )
        return "Connection(%s)" % ("; ".join(nonzero) if nonzero else "0")


def apply_connection(conn: Connection, a: int, coeffs):
    """Coefficients of nabla_{d_a}(f_i theta^i) in the theta basis."""
    calc = conn.calculus
    if not 1 <= a <= calc.n:
        raise IndexError("derivation index out of range: %d" % a)
    coeffs = _frozen(coeffs, (calc.n,), "coeffs", "n-entry", calc.algebra)
    (product,) = matmul((coeffs,), conn.gamma[a - 1])
    return tuple(f.derive(a) + p for f, p in zip(coeffs, product))


def torsion(conn: Connection):
    """Torsion on the basis: a two-form per basis index i.

    T^i(d_a, d_b) = gamma[a][i][b] - gamma[b][i][a] - d^i_ab, the
    antisymmetrization of gamma minus ``d_array``, taken once per pair
    a < b; left linearity extends this to the whole module.
    """
    calc = conn.calculus
    gamma, dop = conn.gamma, d_array(calc)
    forms = []
    for i in range(calc.n):
        comps = {}
        for a, b in combinations(range(calc.n), 2):
            value = gamma[a][i][b] - gamma[b][i][a] - dop[a][i][b]
            if not value.is_zero():
                comps[(a + 1, b + 1)] = value
        forms.append(KForm(calc, 2, comps))
    return tuple(forms)


def compat_defect(conn: Connection, metric: HermitianMetric):
    """C^ij_a = d_a h^ij - T_h(gamma)^ij_a
    = d_a h^ij - gamma^i_ak h^kj - (gamma^j_ak h^ki)*."""
    if conn.calculus != metric.calculus:
        raise DescriptorMismatch("connection and metric live over different calculi")
    return entrywise(
        operator.sub, metric.d_upper, metric_pairing_operator(conn.gamma, metric)
    )


def check_antihermitian(array) -> None:
    """(A^ij_a)* = -A^ji_a for all a, i, j of a frozen n x n x n array;
    raises AntihermitianViolation naming the first failing (a, i, j)."""
    bad = _first_unpaired(array, lambda x, y: x.star() == -y, 3)
    if bad is not None:
        raise AntihermitianViolation(bad)


def compatible_connection(metric: HermitianMetric, antiherm=None) -> Connection:
    """A metric-compatible connection gamma^i_ak = (1/2 d_a h^ij + A^ij_a) h_jk.

    The optional array A must satisfy (A^ij_a)* = -A^ji_a; every such
    choice yields zero compatibility defect.
    """
    calc = metric.calculus
    if antiherm is None:
        coeffs = [[[x * HALF for x in row] for row in plane] for plane in metric.d_upper]
    else:
        antiherm = _frozen(antiherm, (calc.n,) * 3, "antiherm", "n x n x n", calc.algebra)
        check_antihermitian(antiherm)
        coeffs = entrywise(lambda dh, x: dh * HALF + x, metric.d_upper, antiherm)
    return Connection(calc, [matmul(coeff, metric.lower) for coeff in coeffs])


def torsion_free_from(base: Connection, symmetric_part=None) -> Connection:
    """The torsion-free connection (d + symmetrization of base) / 2 + beta.

    The optional ``symmetric_part`` beta must be symmetric in its two
    derivation slots (equivalently, its antisymmetrization vanishes);
    every such choice keeps the result torsion free.
    """
    calc = base.calculus
    if symmetric_part is not None:
        symmetric_part = _frozen(
            symmetric_part, (calc.n,) * 3, "symmetric_part", "n x n x n", calc.algebra
        )
        # the planes [a][b] of each i pair the two derivation slots
        bad = _first_unpaired(tuple(zip(*symmetric_part)), operator.eq, 3)
        if bad is not None:
            raise ValueError(
                "symmetric_part must be symmetric in the derivation "
                "slots; entry (a=%d, i=%d, b=%d) is not" % (bad[1], bad[0], bad[2])
            )
    gamma = _projection(d_array(calc), symmetrize(base.gamma))
    if symmetric_part is not None:
        gamma = entrywise(operator.add, gamma, symmetric_part)
    return Connection(calc, gamma)


# -- operators on component arrays gamma[a][i][b] (dual basis) -----------------


def entrywise(op, left, right):
    """op applied entry by entry to two arrays of the same shape."""
    return tuple(
        tuple(tuple(map(op, row_l, row_r)) for row_l, row_r in zip(plane_l, plane_r))
        for plane_l, plane_r in zip(left, right)
    )


def sigma_swap(array):
    """sigma(alpha)^i_ab = alpha^i_ba: transpose the two derivation slots."""
    n = len(array)
    return tuple(
        tuple(
            tuple(array[b][i][a] for b in range(n)) for i in range(len(array[0]))
        )
        for a in range(n)
    )


def symmetrize(array):
    """s(alpha) = alpha + sigma(alpha)."""
    return entrywise(operator.add, array, sigma_swap(array))


def antisymmetrize(array):
    """wedge(alpha) = alpha - sigma(alpha)."""
    return entrywise(operator.sub, array, sigma_swap(array))


def metric_pairing_operator(array, metric: HermitianMetric):
    """T_h(alpha)^ij_a = alpha^i_ak h^kj + (alpha^j_ak h^ki)*."""
    n = metric.calculus.n
    out = []
    for plane in array:
        product = matmul(plane, metric.upper)
        out.append(
            tuple(
                tuple(product[i][j] + product[j][i].star() for j in range(n))
                for i in range(n)
            )
        )
    return tuple(out)


def _projection(dop, sym):
    """The torsion-free projection (d + s(gamma)) / 2, from d_array and s(gamma)."""
    return entrywise(lambda d, s: (d + s) * HALF, dop, sym)


def lc_characterization_check(conn: Connection, metric: HermitianMetric) -> bool:
    """Both component identities a Levi-Civita connection must satisfy.

    First, the pairing of the symmetrized connection equals
    2 dh - T_h(d).  Second, the fixed-point identity: the torsion-free
    projection (d + s(conn)) / 2 returns conn itself.  The conjunction
    holds exactly when conn is torsion free and compatible.
    """
    calc = conn.calculus
    if calc != metric.calculus:
        raise DescriptorMismatch("connection and metric live over different calculi")
    sym = symmetrize(conn.gamma)
    dop = d_array(calc)
    rhs = entrywise(
        lambda dh, t: dh * 2 - t, metric.d_upper, metric_pairing_operator(dop, metric)
    )
    return (
        metric_pairing_operator(sym, metric) == rhs
        and _projection(dop, sym) == conn.gamma
    )
