"""Exception types raised by the nctorus package."""


class NCTorusError(Exception):
    """Base class for all package errors."""


class DescriptorMismatch(NCTorusError):
    """Operands live over different algebra or calculus descriptors."""


class ZeroElement(NCTorusError):
    """The zero element was used where an invertible element is required."""


class NotMonomial(NCTorusError):
    """Inversion is only defined for single-monomial elements."""


class NotHermitian(NCTorusError):
    """A matrix fails (h^ij)* = h^ji; ``entry`` is the first failing (i, j), i <= j."""

    def __init__(self, entry):
        self.entry = entry
        i, j = entry
        super().__init__("entry (%d, %d) is not the star of entry (%d, %d)" % (i, j, j, i))


class NotInverse(NCTorusError):
    """The stored lower matrix is not a two-sided inverse of the upper one."""


class NotInvertibleByElimination(NCTorusError):
    """Gaussian elimination found no invertible monomial pivot."""


class ParamViolation(NCTorusError):
    """A solver parameter fails its hermiticity or shape requirement."""


class AntihermitianViolation(ParamViolation):
    """A parameter that must satisfy (A^ij)* = -A^ji does not.

    ``entry`` is the first failing (a, i, j), 1-based.
    """

    def __init__(self, entry):
        self.entry = entry
        super().__init__(
            "entry (a=%d, i=%d, j=%d) violates (A^ij_a)* = -A^ji_a" % entry
        )


class SolvabilityViolated(NCTorusError):
    """The cyclic solvability condition on the F tensor fails."""

    def __init__(self, triple, defect):
        from .expr import render_short
        self.triple = triple
        self.defect = defect
        super().__init__(
            "solvability condition fails at triple %s: defect %s"
            % (triple, render_short(defect))
        )


class NotWeaklySymmetric(NCTorusError):
    """The metric has d(rho) != 0, so no torsion-free compatible connection exists."""

    def __init__(self, triple, component):
        from .expr import render_short
        self.triple = triple
        self.component = component
        super().__init__(
            "d(rho) is nonzero at derivations %s: %s" % (triple, render_short(component))
        )


class InternalVerificationFailure(NCTorusError):
    """A constructed connection failed its own re-verification; this is a bug."""


class HermiticityError(NCTorusError):
    """A declared-hermitian (or antihermitian) config entry fails the check."""


class ParseError(NCTorusError):
    """An expression or config file could not be parsed."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = " at line %d" % line
            if col is not None:
                where += ", column %d" % col
        super().__init__(message + where)
