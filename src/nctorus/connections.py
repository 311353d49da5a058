"""Connections on the free module of one-forms, stored as Christoffel arrays.

A connection is the array gamma[a][i][j] of algebra elements with

    nabla_{d_a} theta^i = gamma[a][i][j] theta^j   (sum over j),

extended to arbitrary module elements by the Leibniz rule.  On the
dual-basis module every operator needed here (antisymmetrization in the
two derivation slots, pairing against the metric) acts on such finite
component arrays, and each is defined once.  The operators visit only
nonzero entries: a zero entry is skipped after one ``x.terms`` test, and
a zero result is the algebra's shared zero.
``entrywise`` therefore requires an additive ``op``, with op(0, 0) = 0.
With T_h the metric pairing operator, s(alpha)^i_ab = alpha^i_ab +
alpha^i_ba, wedge the antisymmetrizer and d the exterior derivative as an
array (``forms.d_array``, d^i_ab = -c^i_ab):

    torsion                T(gamma) = wedge(gamma) - d
    compatibility defect   C(gamma) = d h - T_h(gamma)
    torsion-free part      P(gamma) = (d + s(gamma)) / 2

Entry by entry P(gamma) - gamma = (d - wedge(gamma)) / 2, so the fixed
point P(gamma) = gamma holds exactly when wedge(gamma) = d, which is zero
torsion: both read the one antisymmetrizer.  wedge(alpha) is
antisymmetric, so each pair a < b is formed once and entry (b, i, a) is
its negation, on a zero diagonal.  The characterization tests
T_h(P) = dh, the paper's T_h(s) = 2 dh - T_h(d) halved (T_h is
real-linear), and only once the fixed point has held.  Then P = gamma
entry by entry, so T_h(P) = T_h(gamma) exactly: T_h reads nothing but the
entries, and equal entries are identical normal forms.  So the
compatibility defect and the characterization read one pairing
T_h(gamma), which a connection keeps for the last metric it was paired
with (``_gamma_pairing``), and neither P nor T_h(d) is formed.

``torsion`` and ``compat_defect`` return the two defects as n x n x n
arrays, each one ``entrywise`` difference, and the characterization check
is built from the same identities.  The compatible connections are
gamma_a = (d_a h / 2 + K_a) h_lower with K_a antihermitian: T_h of that
gamma is d_a h / 2 + K_a plus its adjoint, which is d_a h.  The solver
of ``levicivita`` forms its connection so, with K = i U for a hermitian U.
The F tensor of ``levicivita`` reads its bracket term, -i h_ce d^e_ab,
from the same array.
"""

from __future__ import annotations

import operator
from itertools import chain

from .algebra import _frozen, matmul
from .errors import DescriptorMismatch
from .forms import Calculus, d_array
from .metric import HermitianMetric
from .records import Record


class Connection(Record):
    """Christoffel data gamma[a][i][j] over a calculus, an n x n x n array.

    ``_pairing`` keeps the last (metric, T_h(gamma)) that
    ``_gamma_pairing`` formed; ``gamma`` is fixed at construction, so the
    pair is keyed by the identity of the metric alone, and pairing with
    another metric forms T_h again.
    """

    __slots__ = ("calculus", "gamma", "_pairing")
    _fields = ("calculus", "gamma")

    def __init__(self, calculus: Calculus, gamma):
        gamma = _frozen(gamma, (calculus.n,) * 3, "gamma", calculus.algebra)
        Record.__init__(self, calculus, gamma)
        object.__setattr__(self, "_pairing", None)

    @classmethod
    def zero(cls, calculus: Calculus) -> "Connection":
        n = calculus.n
        return cls(calculus, [[[calculus.algebra.zero()] * n] * n] * n)

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


def torsion(conn: Connection):
    """T[a][i][b] = T^i(d_a, d_b) = wedge(gamma)^i_ab - d^i_ab.

    An n x n x n array like ``compat_defect``'s: antisymmetric in (a, b),
    with the shared zero on the diagonal and wherever wedge and d agree.
    Left linearity extends T from the basis to the whole module.
    """
    return entrywise(operator.sub, antisymmetrize(conn.gamma), d_array(conn.calculus))


def compat_defect(conn: Connection, metric: HermitianMetric):
    """C^ij_a = d_a h^ij - T_h(gamma)^ij_a
    = d_a h^ij - gamma^i_ak h^kj - (gamma^j_ak h^ki)*.

    T_h(gamma) is read through the pairing the connection keeps for this
    metric.  The characterization check reads the same one: it pairs
    only once the fixed point P == gamma has held entry by entry, and
    then T_h(P) = T_h(gamma) exactly.
    """
    if conn.calculus != metric.calculus:
        raise DescriptorMismatch("connection and metric live over different calculi")
    return entrywise(operator.sub, metric.d_upper, _gamma_pairing(conn, metric))


# -- operators on component arrays gamma[a][i][b] (dual basis) -----------------


def entrywise(op, left, right):
    """op applied entry by entry to two arrays of the same shape.

    ``op(0, 0)`` must be 0, as it is for every sum, difference and scaled
    sum used here: a pair of zero entries gives the left zero without
    calling ``op``.
    """
    return tuple(
        tuple(
            tuple([op(x, y) if x.terms or y.terms else x for x, y in zip(row_l, row_r)])
            for row_l, row_r in zip(plane_l, plane_r)
        )
        for plane_l, plane_r in zip(left, right)
    )


def antisymmetrize(array):
    """wedge(alpha)^i_ab = alpha^i_ab - alpha^i_ba for all a, i, b.

    The difference is antisymmetric in (a, b), so each pair a < b is
    formed once: entry (b, i, a) is its negation (no normalisation), and
    the diagonal is the shared zero.  A pair of zero entries, or a zero
    difference, is left at the shared zero without a negation.
    """
    n = len(array)
    zero = array[0][0][0].algebra.zero()
    out = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        plane_a, out_a = array[a], out[a]
        for b in range(a + 1, n):
            plane_b, out_b = array[b], out[b]
            for i in range(n):
                x, y = plane_a[i][b], plane_b[i][a]
                if x.terms or y.terms:
                    value = x - y
                    if value.terms:
                        out_a[i][b], out_b[i][a] = value, -value
    return tuple(tuple(map(tuple, plane)) for plane in out)


def metric_pairing_operator(array, metric: HermitianMetric):
    """T_h(alpha)^ij_a = alpha^i_ak h^kj + (alpha^j_ak h^ki)*.

    T_h(alpha)^ji_a is the star of T_h(alpha)^ij_a, so each plane is formed
    on i <= j and mirrored; no zero product is starred, and an entry that
    cancels stays the shared zero and is not starred.  The n plane
    products are one matrix product of the stacked rows.
    """
    n = metric.calculus.n
    zero = metric.calculus.algebra.zero()
    products = matmul(tuple(chain.from_iterable(array)), metric.upper)
    out = []
    for start in range(0, len(products), n):
        product = products[start : start + n]
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x, y = product[i][j], product[j][i]
                if x.terms or y.terms:
                    value = x + y.star() if y.terms else x
                    if value.terms:
                        rows[i][j] = value
                        if j != i:
                            rows[j][i] = value.star()
        out.append(tuple(map(tuple, rows)))
    return tuple(out)


def _gamma_pairing(conn: Connection, metric: HermitianMetric):
    """T_h(conn.gamma), formed by ``metric_pairing_operator`` once per
    metric and kept in ``conn._pairing``."""
    kept = conn._pairing
    if kept is None or kept[0] is not metric:
        kept = (metric, metric_pairing_operator(conn.gamma, metric))
        object.__setattr__(conn, "_pairing", kept)
    return kept[1]


def lc_characterization_check(conn: Connection, metric: HermitianMetric) -> bool:
    """Both component identities a Levi-Civita connection must satisfy.

    The fixed-point identity: the torsion-free projection
    P = (d + s(conn)) / 2 returns conn itself.  Entry by entry
    P - gamma = (d - wedge(gamma)) / 2, so it is tested as
    wedge(gamma) == d, and no P is formed.  The paper's pairing identity,
    T_h(s(conn)) = 2 dh - T_h(d), is tested in its halved form
    T_h(P) = dh: T_h is real-linear, so T_h(P) = T_h(d) / 2 + T_h(s) / 2,
    which equals dh exactly when the paper's identity holds.  The
    identity that forms no product goes first.  Once it holds, P == gamma
    entry by entry, so T_h(P) is T_h(gamma) exactly, and the pairing is
    read through the one the connection keeps for this metric, which
    ``compat_defect`` shares.  The conjunction holds exactly when
    conn is torsion free and compatible.
    """
    calc = conn.calculus
    if calc != metric.calculus:
        raise DescriptorMismatch("connection and metric live over different calculi")
    return (
        antisymmetrize(conn.gamma) == d_array(calc)
        and _gamma_pairing(conn, metric) == metric.d_upper
    )
