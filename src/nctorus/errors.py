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


class SolvabilityViolated(NCTorusError):
    """The cyclic solvability condition on F fails; ``triple`` is the
    first strictly increasing (a, b, c), 1-based, and ``defect`` the
    element F_abc + F_bca + F_cab plus its star there.

    The condition is d(rho) = 0 in another form, so after the d(rho) gate
    only ``solve_R`` on an F array of the caller's own raises this.
    """

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


class ParseError(NCTorusError):
    """An expression or config file could not be parsed."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = " at line %d" % line
            if col is not None:
                where += ", column %d" % col
        super().__init__(message + where)
