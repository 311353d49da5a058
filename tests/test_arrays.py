"""Every public array argument goes through one checker.

Each entry below takes a nested list of algebra elements: a metric
matrix, a Christoffel or parameter array, the F tensor, the R matrices
or a vector of module coefficients.  Four defects are put into a valid
array in turn: one row one entry short, an int leaf, a leaf over another
algebra, and an int in place of the whole array.  Each must be refused
with the package's error for it, in words that start with the argument's
name, and never escape as an AttributeError, a bare TypeError from
``len`` or an unpacking ValueError from deeper in the code.  The
components of a ``KForm`` go through the same leaf check.
"""

import pytest

from nctorus import (
    Calculus,
    Connection,
    DescriptorMismatch,
    FTensor,
    HermitianMetric,
    KForm,
    ParamViolation,
    RSet,
    SolverParams,
    TorusAlgebra,
    apply_connection,
    build_levi_civita,
    compatible_connection,
    compute_F,
    invert_metric,
    pair,
    solve_R,
    torsion_free_from,
)

CALC = Calculus.torus(3)
ALG = CALC.algebra
FOREIGN = TorusAlgebra(3, commutative=True).one()
N = 3


def zeros(*shape):
    if not shape:
        return ALG.zero()
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def identity():
    return [[ALG.one() if i == j else ALG.zero() for j in range(N)] for i in range(N)]


METRIC = HermitianMetric(CALC, identity())


def build_with(params):
    return build_levi_civita(METRIC, params)


def solve_with(params):
    return solve_R(compute_F(METRIC), params)


def params(X=None, triples=None, antiherm=None):
    return SolverParams(zeros(N, N) if X is None else X, triples or {}, antiherm)


# name -> (a maker of a valid array, the call that checks it, name in the
# error, error for a bad shape and an int leaf when not ValueError/TypeError)
ENTRIES = {
    "upper": (identity, lambda x: HermitianMetric(CALC, x), "upper", None),
    "lower": (identity, lambda x: HermitianMetric(CALC, identity(), x), "lower", None),
    "invert_metric": (identity, lambda x: invert_metric(CALC, x), "upper", None),
    "Connection": (lambda: zeros(N, N, N), lambda x: Connection(CALC, x), "gamma", None),
    "compatible_connection": (
        lambda: zeros(N, N, N),
        lambda x: compatible_connection(METRIC, x),
        "antiherm",
        None,
    ),
    "torsion_free_from": (
        lambda: zeros(N, N, N),
        lambda x: torsion_free_from(Connection.zero(CALC), x),
        "symmetric_part",
        None,
    ),
    "FTensor": (lambda: zeros(N, N, N), lambda x: FTensor(CALC, x), "F", None),
    "RSet": (lambda: zeros(N, N, N), lambda x: RSet(CALC, x), "R", None),
    "apply_connection": (
        lambda: zeros(N),
        lambda x: apply_connection(Connection.zero(CALC), 1, x),
        "coeffs",
        None,
    ),
    "pair-left": (lambda: zeros(N), lambda x: pair(METRIC, x, zeros(N)), "left", None),
    "pair-right": (lambda: zeros(N), lambda x: pair(METRIC, zeros(N), x), "right", None),
}
for run in (build_with, solve_with):
    ENTRIES["%s-X" % run.__name__] = (
        lambda: zeros(N, N),
        lambda x, run=run: run(params(X=x)),
        "X",
        ParamViolation,
    )
    ENTRIES["%s-A" % run.__name__] = (
        lambda: zeros(N, N, N),
        lambda x, run=run: run(params(antiherm=x)),
        "A",
        ParamViolation,
    )


def broken(array, failure):
    """``array`` with its first row one entry short, or its first leaf
    replaced by an int or by an element over another algebra, or an int
    in its place."""
    if failure == "scalar":
        return 5
    row = array
    while isinstance(row[0], list):
        row = row[0]
    if failure == "shape":
        row.pop()
    else:
        row[0] = 0 if failure == "leaf" else FOREIGN
    return array


@pytest.mark.parametrize("failure", ("shape", "leaf", "foreign", "scalar"))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_bad_array_is_refused(entry, failure):
    make, call, name, param_error = ENTRIES[entry]
    expected = {
        "shape": param_error or ValueError,
        "scalar": param_error or ValueError,
        "leaf": param_error or TypeError,
        "foreign": DescriptorMismatch,
    }[failure]
    with pytest.raises(Exception) as info:
        call(broken(make(), failure))
    assert type(info.value) is expected, repr(info.value)
    assert str(info.value).startswith(name), str(info.value)


@pytest.mark.parametrize("run", (build_with, solve_with))
@pytest.mark.parametrize(
    "triples, expected, words",
    [
        ({(1, 2): ALG.one()}, ParamViolation, "triple key (1, 2) must be"),
        ({(1, 2, 3, 4): ALG.one()}, ParamViolation, "triple key (1, 2, 3, 4) must be"),
        ({"abc": ALG.one()}, ParamViolation, "triple key 'abc' must be"),
        ({(1, 2, 3): 1}, ParamViolation, "triple parameter (1, 2, 3) has type int"),
        ({(1, 2, 3): FOREIGN}, DescriptorMismatch, "triple parameter (1, 2, 3) lives over"),
    ],
    ids=("short-key", "long-key", "str-key", "int-value", "foreign-value"),
)
def test_bad_triple_is_refused(run, triples, expected, words):
    with pytest.raises(Exception) as info:
        run(params(triples=triples))
    assert type(info.value) is expected, repr(info.value)
    assert str(info.value).startswith(words), str(info.value)


def test_leaves_are_named_and_algebra_compared_by_value():
    upper = identity()
    upper[1][2] = 7
    with pytest.raises(TypeError) as info:
        HermitianMetric(CALC, upper)
    assert str(info.value) == "upper[2][3] has type int, not AlgebraElement"
    gamma = zeros(N, N, N)
    gamma[2][0][1] = FOREIGN
    with pytest.raises(DescriptorMismatch) as info:
        Connection(CALC, gamma)
    assert str(info.value) == (
        "gamma[3][1][2] lives over TorusAlgebra(n=3, commutative=True), "
        "not TorusAlgebra(n=3, commutative=False)"
    )
    # an element over an equal but distinct descriptor is accepted
    twin = TorusAlgebra(3)
    assert twin is not ALG
    upper = [[twin.one() if i == j else twin.zero() for j in range(N)] for i in range(N)]
    assert HermitianMetric(CALC, upper) == METRIC


@pytest.mark.parametrize(
    "degree, value, expected, words",
    [
        (1, 1, TypeError, "component (1,) has type int, not AlgebraElement"),
        (2, None, TypeError, "component (1, 2) has type NoneType, not AlgebraElement"),
        (1, FOREIGN, DescriptorMismatch, "component (1,) lives over"),
    ],
    ids=("int", "none", "foreign"),
)
def test_bad_kform_component_is_refused(degree, value, expected, words):
    with pytest.raises(Exception) as info:
        KForm(CALC, degree, {tuple(range(1, degree + 1)): value})
    assert type(info.value) is expected, repr(info.value)
    assert str(info.value).startswith(words), str(info.value)


def test_module_of_another_size_is_refused():
    # the module has the size of the calculus: 2 x 2 over the 3-torus is refused
    two = [[ALG.one(), ALG.zero()], [ALG.zero(), ALG.one()]]
    with pytest.raises(ValueError, match=r"^upper must be an n x n array$"):
        HermitianMetric(CALC, two)
    with pytest.raises(ValueError, match=r"^gamma must be an n x n x n array$"):
        Connection(CALC, zeros(N, 2, 2))
