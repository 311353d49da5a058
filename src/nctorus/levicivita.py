"""Construction and verification of Levi-Civita connections.

Pipeline: from a validated metric that passes the d(rho) gate, build
the antisymmetric F tensor
F_cab = (i/2) (d_b h_ca - d_a h_cb) - i h_ce d^e_ab with d = ``d_array``,
solve the hermitian matrix equations (R_a)_cb - (R_b)_ca = F_cab, that is
antisymmetrize(R) = F, conjugate by the metric to obtain the U array,
and assemble the Christoffel entries

    gamma^i_ak = (1/2 d_a h^ij + i U^ij_a) h_jk.

F, R and U are 0-based nested tuples like gamma; F is checked where
``solve_R`` receives it and R where ``assemble_U`` receives it.

Compatibility follows from U being hermitian: ``assemble_U`` checks
that R is hermitian, so U_a = h R_a h is hermitian, i U_a is
antihermitian, and gamma_a = (1/2 d_a h + i U_a) h_lower is in the
compatible family of ``connections``.  i U is not checked again; the
re-verification proves compatibility on every build.  Both the
conjugation, U_a = (h R_a) h, and the assembly, one product of the
stacked coefficient rows with h_lower, are matrix products over the
algebra (``nctorus.algebra.matmul``): O(n^3) element multiplications
per derivation index, O(n^4) in all, with every pair that has a zero
factor skipped, so block and diagonal metrics cost only their nonzero
pairs.

The free data of the construction is exactly: the hermitian diagonal
parameters X_ab = (R_a)_bb and one hermitian parameter per strictly
increasing index triple.  These reach every Levi-Civita connection of
the metric, and distinct parameters give distinct connections.  A
compatible gamma is (1/2 d_a h + K_a) h_lower with K_a antihermitian, and
it is torsion free exactly when R_a = h_lower (-i K_a) h_lower solves
antisymmetrize(R) = F; ``solve_R`` returns every hermitian solution of
that system, each for one choice of parameters.  Every constructed
connection is re-verified (torsion, compatibility, and the
characterization identities) before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product

from .algebra import _first_unpaired, _frozen, _is_adjoint, matmul
from .connections import (
    Connection,
    antisymmetrize,
    compat_defect,
    entrywise,
    lc_characterization_check,
    torsion,
)
from .errors import (
    InternalVerificationFailure,
    NotWeaklySymmetric,
    ParamViolation,
    SolvabilityViolated,
)
from .forms import Calculus, d_array
from .metric import HermitianMetric, weak_symmetry_defect
from .records import Record
from .scalars import GaussianRational

HALF = Fraction(1, 2)
HALF_I = GaussianRational(0, HALF)
UNIT_I = GaussianRational(0, 1)


class SolverParams(Record):
    """Free parameters of the construction.

    ``X[a][b]`` (0-based) is the hermitian diagonal entry (R_{a+1})_{b+1,b+1};
    ``triples`` maps each strictly increasing index triple (a, b, c)
    (1-based) to a hermitian element; a triple it does not name is zero.
    Distinct parameters give distinct Levi-Civita connections, and every
    Levi-Civita connection of a metric comes from some of them.  Compared
    field-wise.
    """

    _fields = ("X", "triples")

    @classmethod
    def zeros(cls, calculus: Calculus) -> "SolverParams":
        n = calculus.n
        z = calculus.algebra.zero()
        return cls(tuple(tuple(z for _ in range(n)) for _ in range(n)), {})

    def validated(self, calculus: Calculus) -> "SolverParams":
        """The parameters frozen and checked for ``calculus``; every failure
        but a foreign algebra (DescriptorMismatch) raises ParamViolation."""
        n = calculus.n
        alg = calculus.algebra
        errors = (ParamViolation, ParamViolation)
        X = _frozen(self.X, (n, n), "X", alg, errors)
        for a, row in enumerate(X, 1):
            for b, x in enumerate(row, 1):
                if x.terms and not x.is_hermitian():
                    raise ParamViolation("X[%d][%d] is not hermitian" % (a, b))
        triples = {}
        keys = set(combinations(range(1, n + 1), 3))
        for key, value in self.triples.items():
            if key not in keys:
                raise ParamViolation(
                    "triple key %r must be three strictly increasing indices in 1..%d"
                    % (key, n)
                )
            value = _frozen(value, (), "triple parameter %s" % (key,), alg, errors)
            if not value.is_hermitian():
                raise ParamViolation("triple parameter %s is not hermitian" % (key,))
            triples[key] = value
        return SolverParams(X, triples)


def compute_F(metric: HermitianMetric) -> tuple:
    """F[c][a][b] = F_{c+1,a+1,b+1} as 0-based nested tuples, with
    F_cab = -(i/2) d_a h_cb + (i/2) d_b h_ca - i h_ce d^e_ab.

    d^e_ab is ``d_array``, zero for an abelian Lie algebra; its nonzero
    entries, times i, are listed once per call, and zero entries of h are
    skipped.  The cyclic defect of this tensor reproduces i d(rho)
    componentwise.  Since d^e_ab = -d^e_ba, F is antisymmetric in (a, b):
    each pair a < b is computed once, F_cba = -F_cab, and F_caa = 0.
    """
    calc = metric.calculus
    n = calc.n
    zero = calc.algebra.zero()
    dop = d_array(calc)
    pairs = [
        (a, b, [(e, dop[a][e][b] * UNIT_I) for e in range(n) if dop[a][e][b].terms])
        for a, b in combinations(range(n), 2)
    ]
    F = []
    for h_c in metric.lower:
        plane = [[zero] * n for _ in range(n)]
        for a, b, brackets in pairs:
            x, y = h_c[a], h_c[b]
            dx = x.derive(b + 1) if x.terms else x
            dy = y.derive(a + 1) if y.terms else y
            value = (dx - dy) * HALF_I if dx.terms or dy.terms else zero
            for e, d_i in brackets:
                if h_c[e].terms:
                    value = value - h_c[e] * d_i
            if value.terms:
                plane[a][b], plane[b][a] = value, -value
        F.append(tuple(map(tuple, plane)))
    return tuple(F)


def solvability_check(F):
    """None when solvable; otherwise ((a, b, c), defect) for the first
    strictly increasing triple, 1-based, where the cyclic hermitian
    condition on F (0-based, as ``compute_F`` returns it) fails.

    For the F of a metric the defect is i d(rho)_abc, so this names the
    first nonzero triple of ``weak_symmetry_defect``."""
    for a, b, c in combinations(range(len(F)), 3):
        x, y, z = F[a][b][c], F[b][c][a], F[c][a][b]
        if not (x.terms or y.terms or z.terms):
            continue
        cyclic = x + y + z
        if cyclic.terms:
            defect = cyclic + cyclic.star()
            if defect.terms:
                return (a + 1, b + 1, c + 1), defect
    return None


def solve_R(calculus: Calculus, F, params: SolverParams) -> tuple:
    """The general hermitian solution of (R_a)_cb - (R_b)_ca = F_cab as
    0-based nested tuples R[a][b][c] = (R_{a+1})_{b+1,c+1}.

    Checked in this order: F's shape and leaves, F's antisymmetry
    (ValueError), solvability (SolvabilityViolated), the parameters
    (ParamViolation).  Diagonals are the free X parameters, entries
    (R_a)_ab are forced, and each strictly increasing triple adds the
    closed-form entries with one free hermitian parameter (the parameter
    itself where the triple's three F entries are zero); the transposed
    entries are their stars.
    """
    n = calculus.n
    F = _frozen(F, (n, n, n), "F", calculus.algebra)
    bad = _first_unpaired(F, lambda x, y: x == -y, 3)
    if bad is not None:
        raise ValueError("F is not antisymmetric at (%d, %d, %d)" % bad)
    violation = solvability_check(F)
    if violation is not None:
        raise SolvabilityViolated(*violation)
    params = params.validated(calculus)
    zero = calculus.algebra.zero()
    R = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a, b in product(range(n), repeat=2):
        R[a][b][b] = params.X[a][b]
        if a != b:
            diagonal, forced = params.X[b][a], F[a][a][b]
            if diagonal.terms or forced.terms:
                value = diagonal + forced
                R[a][a][b], R[a][b][a] = value, value.star()
    for a, b, c in combinations(range(n), 3):
        h = params.triples.get((a + 1, b + 1, c + 1), zero)
        f_abc, f_bca, f_cab = F[a][b][c], F[b][c][a], F[c][a][b]
        if f_abc.terms or f_bca.terms or f_cab.terms:
            r_a = (f_abc - f_bca + f_cab.star()) * HALF + h
            r_b = (f_abc.star() - f_bca.star() - f_cab) * HALF + h
            r_c = -((f_abc + f_bca + f_cab.star()) * HALF) + h
        elif h.terms:
            r_a = r_b = r_c = h
        else:
            continue
        R[a][b][c], R[a][c][b] = r_a, r_a.star()
        R[b][c][a], R[b][a][c] = r_b, r_b.star()
        R[c][a][b], R[c][b][a] = r_c, r_c.star()
    R = tuple(tuple(map(tuple, plane)) for plane in R)
    lhs = antisymmetrize(R)  # (R_a)_cb - (R_b)_ca at [a][c][b]
    if lhs != tuple(zip(*F)):
        for a, b, c in product(range(n), repeat=3):
            if lhs[a][c][b] != F[c][a][b]:
                raise InternalVerificationFailure(
                    "R equation fails at (a=%d, b=%d, c=%d)" % (a + 1, b + 1, c + 1)
                )
    return R


def assemble_U(metric: HermitianMetric, R):
    """U^ij_a = h^ib (R_a)_bc h^cj; satisfies (U^ij_a)* = U^ji_a.

    R is ``solve_R``'s R[a][b][c] = (R_{a+1})_{b+1,c+1}, checked first:
    its shape and leaves, then the hermiticity of each R_a (ValueError).
    Each plane is two matrix products, U_a = (h R_a) h: O(n^3) element
    multiplications per plane and O(n^4) in all, instead of the O(n^5) of
    the double index sum, and pairs with a zero factor are skipped.
    """
    calc = metric.calculus
    n = calc.n
    R = _frozen(R, (n, n, n), "R", calc.algebra)
    bad = _first_unpaired(R, _is_adjoint, 3)
    if bad is not None:
        raise ValueError("R_%d is not hermitian at (%d, %d)" % bad)
    return tuple(matmul(matmul(metric.upper, r_a), metric.upper) for r_a in R)


class LCVerification(Record):
    """Outcome of checking a connection against a metric; compared
    field-wise.  ``torsion`` is the array T[a][i][b] of ``torsion`` and
    ``compat`` the array C[a][i][j] of ``compat_defect``; each ``_zero``
    flag is true when no entry of its array is nonzero."""

    _fields = ("torsion", "compat", "torsion_zero", "compat_zero", "characterization")

    @property
    def passed(self) -> bool:
        return self.torsion_zero and self.compat_zero and self.characterization


def verify_levi_civita(conn: Connection, metric: HermitianMetric) -> LCVerification:
    """Full report: the torsion and compatibility-defect arrays, whether
    each is zero, and the characterization's verdict."""
    tors, defect = torsion(conn), compat_defect(conn, metric)
    return LCVerification(
        tors,
        defect,
        not any(x.terms for plane in tors for row in plane for x in row),
        not any(x.terms for plane in defect for row in plane for x in row),
        lc_characterization_check(conn, metric),
    )


def build_levi_civita(metric: HermitianMetric, params: SolverParams | None = None) -> Connection:
    """Construct a torsion-free metric-compatible connection.

    Raises NotWeaklySymmetric when d(rho) != 0 (no such connection
    exists).  That gate is the one existence verdict: F's cyclic
    solvability condition is the same condition, since
    cyc + cyc* = i d(rho)_abc with cyc = F_abc + F_bca + F_cab, so the
    solvability checks after the gate pass and SolvabilityViolated does
    not come out of a build.  The default parameters are all zero; each
    choice of parameters gives a distinct connection, and every
    Levi-Civita connection of the metric is one of them.  gamma is
    formed from the hermitian U as (1/2 d_a h + i U_a) h_lower, which is
    compatible because i U is antihermitian.  The unconditional
    re-verification proves torsion freedom and compatibility, and
    reports a failure, which is an internal convention bug, as
    InternalVerificationFailure.
    """
    calc = metric.calculus
    if params is None:
        params = SolverParams.zeros(calc)
    params = params.validated(calc)
    defect = weak_symmetry_defect(metric)
    if not defect.is_zero():
        key = sorted(defect.comps)[0]
        raise NotWeaklySymmetric(key, defect.comps[key])
    F = compute_F(metric)
    violation = solvability_check(F)
    if violation is not None:
        raise SolvabilityViolated(*violation)
    R = solve_R(calc, F, params)

    def coefficient(dh, u):
        # 1/2 d_a h^ij + i U^ij_a, with no product or sum that has a zero
        # operand (entrywise never passes two zeros)
        if not u.terms:
            return dh * HALF
        return dh * HALF + u * UNIT_I if dh.terms else u * UNIT_I

    coeffs = entrywise(coefficient, metric.d_upper, assemble_U(metric, R))
    n = calc.n
    rows = matmul(tuple(chain.from_iterable(coeffs)), metric.lower)
    conn = Connection(calc, tuple(rows[start : start + n] for start in range(0, n * n, n)))
    report = verify_levi_civita(conn, metric)
    if not report.passed:
        raise InternalVerificationFailure(
            "constructed connection failed re-verification: torsion_zero=%s "
            "compat_zero=%s characterization=%s"
            % (report.torsion_zero, report.compat_zero, report.characterization)
        )
    return conn
