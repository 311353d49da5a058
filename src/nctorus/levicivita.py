"""Construction and verification of Levi-Civita connections.

Pipeline: from a validated metric build the antisymmetric F tensor,
F_cab = (i/2) (d_b h_ca - d_a h_cb) - i h_ce d^e_ab with d = ``d_array``,
check the cyclic solvability condition (equivalent to d(rho) = 0), solve
the hermitian matrix equations (R_a)_cb - (R_b)_ca = F_cab, that is
antisymmetrize(R) = F, conjugate by the metric to obtain the U array,
and assemble the Christoffel entries

    gamma^i_ak = (1/2 d_a h^ij + i U^ij_a + A^ij_a) h_jk.

The assembly is ``compatible_connection(metric, i U + A)``: i U is
antihermitian because U is hermitian, so gamma is compatible by
construction.  Both the conjugation, U_a = (h R_a) h, and the assembly,
gamma_a = (1/2 d_a h + i U_a + A_a) h_lower, are matrix products over
the algebra (``nctorus.algebra.matmul``): O(n^3) element multiplications per
derivation index, O(n^4) in all, with every pair that has a zero factor
skipped, so block and diagonal metrics cost only their nonzero pairs.

The free data of the construction is exactly: the hermitian diagonal
parameters X_ab = (R_a)_bb, one hermitian parameter per strictly
increasing index triple, and an optional antihermitian array A.  Every
constructed connection is re-verified (torsion, compatibility, and the
characterization identities) before being returned.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations, product

from .algebra import AlgebraElement, _first_unpaired, _frozen, matmul
from .connections import (
    Connection,
    antisymmetrize,
    check_antihermitian,
    compat_defect,
    compatible_connection,
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
from .expr import render_short
from .forms import Calculus, d_array
from .metric import HermitianMetric, weak_symmetry_defect
from .records import Record
from .scalars import GaussianRational

HALF = Fraction(1, 2)
HALF_I = GaussianRational(0, HALF)
UNIT_I = GaussianRational(0, 1)


class FTensor:
    """The n x n x n array F_cab, antisymmetric in its last two indices."""

    __slots__ = ("calculus", "entries")

    def __init__(self, calculus: Calculus, entries):
        n = calculus.n
        entries = _frozen(entries, (n, n, n), "F", "n x n x n", calculus.algebra)
        bad = _first_unpaired(entries, lambda x, y: x == -y, 3)
        if bad is not None:
            raise ValueError("F is not antisymmetric at (%d, %d, %d)" % bad)
        self.calculus = calculus
        self.entries = entries

    def __getitem__(self, key):
        c, a, b = key
        return self.entries[c - 1][a - 1][b - 1]

    @property
    def n(self) -> int:
        return self.calculus.n


class SolverParams(Record):
    """Free parameters of the construction.

    ``X[a][b]`` (0-based) is the hermitian diagonal entry (R_{a+1})_{b+1,b+1};
    ``triples`` maps each strictly increasing index triple (a, b, c)
    (1-based) to a hermitian element; ``antiherm``, when present, is the
    n x n x n antihermitian compatibility freedom.  Compared field-wise.
    """

    _fields = ("X", "triples", "antiherm")

    def __init__(self, X: tuple, triples: dict, antiherm: tuple | None = None):
        self.X = X
        self.triples = triples
        self.antiherm = antiherm

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
        X = _frozen(self.X, (n, n), "X", "n x n", alg, errors)
        for a, row in enumerate(X, 1):
            for b, x in enumerate(row, 1):
                if not x.is_hermitian():
                    raise ParamViolation("X[%d][%d] is not hermitian" % (a, b))
        triples = {}
        keys = set(combinations(range(1, n + 1), 3))
        for key, value in self.triples.items():
            if key not in keys:
                raise ParamViolation(
                    "triple key %r must be three strictly increasing indices in 1..%d"
                    % (key, n)
                )
            value = _frozen(value, (), "triple parameter %s" % (key,), "", alg, errors)
            if not value.is_hermitian():
                raise ParamViolation("triple parameter %s is not hermitian" % (key,))
            triples[key] = value
        antiherm = self.antiherm
        if antiherm is not None:
            antiherm = _frozen(antiherm, (n, n, n), "A", "n x n x n", alg, errors)
            check_antihermitian(antiherm)
        return SolverParams(X, triples, antiherm)


class RSet:
    """n hermitian n x n matrices over the algebra."""

    __slots__ = ("calculus", "matrices")

    def __init__(self, calculus: Calculus, matrices):
        n = calculus.n
        matrices = _frozen(matrices, (n, n, n), "R", "n x n x n", calculus.algebra)
        bad = _first_unpaired(matrices, lambda x, y: x.star() == y, 3)
        if bad is not None:
            raise ValueError("R_%d is not hermitian at (%d, %d)" % bad)
        self.calculus = calculus
        self.matrices = matrices

    def __getitem__(self, a: int):
        return self.matrices[a - 1]

    def entry(self, a: int, b: int, c: int) -> AlgebraElement:
        return self.matrices[a - 1][b - 1][c - 1]


def compute_F(metric: HermitianMetric) -> FTensor:
    """F_cab = -(i/2) d_a h_cb + (i/2) d_b h_ca - i h_ce d^e_ab.

    d^e_ab is ``d_array``, zero for an abelian Lie algebra; zero entries
    are skipped.  The cyclic defect of this tensor reproduces i d(rho)
    componentwise.  Since d^e_ab = -d^e_ba, F is antisymmetric in (a, b):
    each pair a < b is computed once, F_cba = -F_cab, and F_caa = 0.
    """
    calc = metric.calculus
    n = calc.n
    zero = calc.algebra.zero()
    dop = d_array(calc)
    entries = []
    for h_c in metric.lower:
        plane = [[zero] * n for _ in range(n)]
        for a, b in combinations(range(n), 2):
            value = (h_c[a].derive(b + 1) - h_c[b].derive(a + 1)) * HALF_I
            for e in range(n):
                if not dop[a][e][b].is_zero():
                    value = value - h_c[e] * dop[a][e][b] * UNIT_I
            plane[a][b] = value
            plane[b][a] = -value
        entries.append(plane)
    return FTensor(calc, entries)


def solvability_check(tensor: FTensor):
    """None when solvable; otherwise ((a, b, c), defect) for the first
    strictly increasing triple where the cyclic hermitian condition fails."""
    n = tensor.n
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                cyclic = tensor[a, b, c] + tensor[b, c, a] + tensor[c, a, b]
                defect = cyclic + cyclic.star()
                if not defect.is_zero():
                    return (a, b, c), defect
    return None


def solve_R(tensor: FTensor, params: SolverParams) -> RSet:
    """General hermitian solution of (R_a)_cb - (R_b)_ca = F_cab.

    Diagonals are the free X parameters; entries (R_a)_ab are forced;
    for each strictly increasing triple the three remaining entries follow
    the closed-form solution with one free hermitian parameter.  The
    transposed entries are filled by hermitian conjugation.
    """
    calc = tensor.calculus
    n = tensor.n
    violation = solvability_check(tensor)
    if violation is not None:
        raise SolvabilityViolated(*violation)
    params = params.validated(calc)
    R = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            R[a][b][b] = params.X[a][b]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x == y:
                continue
            value = params.X[y - 1][x - 1] + tensor[x, x, y]
            R[x - 1][x - 1][y - 1] = value
            R[x - 1][y - 1][x - 1] = value.star()
    zero = calc.algebra.zero()
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                h = params.triples.get((a, b, c), zero)
                f_abc = tensor[a, b, c]
                f_bca = tensor[b, c, a]
                f_cab = tensor[c, a, b]
                r_a = (f_abc - f_bca + f_cab.star()) * HALF + h
                r_b = (f_abc.star() - f_bca.star() - f_cab) * HALF + h
                r_c = -((f_abc + f_bca + f_cab.star()) * HALF) + h
                R[a - 1][b - 1][c - 1] = r_a
                R[a - 1][c - 1][b - 1] = r_a.star()
                R[b - 1][c - 1][a - 1] = r_b
                R[b - 1][a - 1][c - 1] = r_b.star()
                R[c - 1][a - 1][b - 1] = r_c
                R[c - 1][b - 1][a - 1] = r_c.star()
    result = RSet(calc, R)
    lhs = antisymmetrize(result.matrices)  # (R_a)_cb - (R_b)_ca at [a][c][b]
    for a, b, c in product(range(n), repeat=3):
        if lhs[a][c][b] != tensor.entries[c][a][b]:
            raise InternalVerificationFailure(
                "R equation fails at (a=%d, b=%d, c=%d)" % (a + 1, b + 1, c + 1)
            )
    return result


def assemble_U(metric: HermitianMetric, rset: RSet):
    """U^ij_a = h^ib (R_a)_bc h^cj; satisfies (U^ij_a)* = U^ji_a.

    Each plane is two matrix products, U_a = (h R_a) h: O(n^3) element
    multiplications per plane and O(n^4) in all, instead of the O(n^5) of
    the double index sum, and pairs with a zero factor are skipped.
    """
    return tuple(
        matmul(matmul(metric.upper, r_a), metric.upper) for r_a in rset.matrices
    )


class LCVerification(Record):
    """Outcome of checking a connection against a metric; compared
    field-wise."""

    _fields = ("torsion_forms", "compat", "torsion_zero", "compat_zero", "characterization")

    def __init__(
        self,
        torsion_forms: tuple,
        compat: tuple,
        torsion_zero: bool,
        compat_zero: bool,
        characterization: bool,
    ):
        self.torsion_forms = torsion_forms
        self.compat = compat
        self.torsion_zero = torsion_zero
        self.compat_zero = compat_zero
        self.characterization = characterization

    @property
    def passed(self) -> bool:
        return self.torsion_zero and self.compat_zero and self.characterization


def verify_levi_civita(conn: Connection, metric: HermitianMetric) -> LCVerification:
    """Full report: torsion forms, compatibility defect, both identities."""
    torsion_forms = torsion(conn)
    defect = compat_defect(conn, metric)
    return LCVerification(
        torsion_forms=torsion_forms,
        compat=defect,
        torsion_zero=all(form.is_zero() for form in torsion_forms),
        compat_zero=all(
            entry.is_zero() for plane in defect for row in plane for entry in row
        ),
        characterization=lc_characterization_check(conn, metric),
    )


def build_levi_civita(metric: HermitianMetric, params: SolverParams | None = None) -> Connection:
    """Construct a torsion-free metric-compatible connection.

    Raises NotWeaklySymmetric when d(rho) != 0 (no such connection
    exists).  The default parameters are all zero.  A nonzero
    antihermitian array keeps compatibility but in general breaks torsion
    freeness; the unconditional re-verification reports that as a
    ParamViolation naming the first (i, a, b) with T^i(d_a, d_b) != 0, and
    any other failure (an internal convention bug) as
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
    tensor = compute_F(metric)
    violation = solvability_check(tensor)
    if violation is not None:
        raise SolvabilityViolated(*violation)
    rset = solve_R(tensor, params)
    antiherm = tuple(
        tuple(tuple(u * UNIT_I for u in row) for row in plane)
        for plane in assemble_U(metric, rset)
    )
    if params.antiherm is not None:
        antiherm = entrywise(operator.add, antiherm, params.antiherm)
    conn = compatible_connection(metric, antiherm)
    report = verify_levi_civita(conn, metric)
    if params.antiherm is not None and report.compat_zero and not report.torsion_zero:
        # the construction without A is torsion free, so A broke it
        i, form = next((i, f) for i, f in enumerate(report.torsion_forms, 1) if f.comps)
        a, b = min(form.comps)
        raise ParamViolation(
            "antihermitian parameter A breaks torsion freedom: T^%d(d_%d, d_%d) = %s"
            % (i, a, b, render_short(form.comps[(a, b)]))
        )
    if not report.passed:
        raise InternalVerificationFailure(
            "constructed connection failed re-verification: torsion_zero=%s "
            "compat_zero=%s characterization=%s"
            % (report.torsion_zero, report.compat_zero, report.characterization)
        )
    return conn
