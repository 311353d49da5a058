"""Every public array argument goes through one checker.

Each entry below takes a nested list of algebra elements: a metric
matrix, a Christoffel or parameter array, the F tensor or the R
matrices.  Four defects are put into a valid array in turn: one row one
entry short, an int leaf, a leaf over another algebra, and an int in
place of the whole array.  Each must be refused
with the package's error for it, in words that start with the argument's
name, and never escape as an AttributeError, a bare TypeError from
``len`` or an unpacking ValueError from deeper in the code.  The
components of a ``KForm`` go through the same leaf check.
"""

from fractions import Fraction
from itertools import product
import operator
import random
import sys

import pytest

from nctorus import (
    AlgebraElement,
    Calculus,
    Connection,
    DescriptorMismatch,
    HermitianMetric,
    KForm,
    ParamViolation,
    SolverParams,
    TorusAlgebra,
    assemble_U,
    build_levi_civita,
    compute_F,
    invert_metric,
    solve_R,
)
import nctorus.algebra as algebra_module
from nctorus.algebra import _first_unpaired, _frozen

from conftest import random_block_metric

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
    return solve_R(CALC, compute_F(METRIC), params)


def params(X=None, triples=None):
    return SolverParams(zeros(N, N) if X is None else X, triples or {})


# name -> (a maker of a valid array, the call that checks it, name in the
# error, error for a bad shape and an int leaf when not ValueError/TypeError)
ENTRIES = {
    "upper": (identity, lambda x: HermitianMetric(CALC, x), "upper", None),
    "lower": (identity, lambda x: HermitianMetric(CALC, identity(), x), "lower", None),
    "invert_metric": (identity, lambda x: invert_metric(CALC, x), "upper", None),
    "Connection": (lambda: zeros(N, N, N), lambda x: Connection(CALC, x), "gamma", None),
    # the F tensor and the R set, checked where solve_R and assemble_U take them
    "FTensor": (lambda: zeros(N, N, N), lambda x: solve_R(CALC, x, params()), "F", None),
    "RSet": (lambda: zeros(N, N, N), lambda x: assemble_U(METRIC, x), "R", None),
}
for run in (build_with, solve_with):
    ENTRIES["%s-X" % run.__name__] = (
        lambda: zeros(N, N),
        lambda x, run=run: run(params(X=x)),
        "X",
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
        ({(1, 2, 4): ALG.one()}, ParamViolation, "triple key (1, 2, 4) must be"),
        ({(1, 2, 3): 1}, ParamViolation, "triple parameter (1, 2, 3) has type int"),
        ({(1, 2, 3): FOREIGN}, DescriptorMismatch, "triple parameter (1, 2, 3) lives over"),
    ],
    ids=("short-key", "long-key", "str-key", "range-key", "int-value", "foreign-value"),
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


# -- the pair checker and the freezer against literal searches -------------------

# Every relation the package hands to ``_first_unpaired``, and the
# antihermitian one, each with a map that makes a partner entry for which
# the relation holds.
RELATIONS = {
    "hermitian": (lambda x, y: x.star() == y, lambda x: x.star()),
    "antihermitian": (lambda x, y: x.star() == -y, lambda x: -x.star()),
    "antisymmetric": (lambda x, y: x == -y, operator.neg),
    "equal": (operator.eq, lambda x: x),
}


def full_search(x, related, ndim):
    """The first index (..., i, j) in index order, over every i and j, at
    which ``related(x[..][i][j], x[..][j][i])`` is false, or None."""
    n = len(x) if ndim == 2 else len(x[0])
    for index in product(*[range(len(x))] * (ndim - 2), range(n), range(n)):
        part = x
        for k in index[:-2]:
            part = part[k]
        i, j = index[-2:]
        if not related(part[i][j], part[j][i]):
            return tuple(k + 1 for k in index)
    return None


def paired_array(alg, n, ndim, related_pairs, bad):
    """An n x ... x n array of zeros, with entry (.., i, j) and its partner
    (.., j, i) set for each ``(index, value, partner)`` of ``related_pairs``,
    then the entries of ``bad`` (index -> value) overwritten."""
    zero = alg.zero()

    def zeros_of(depth):
        if depth == ndim:
            return zero
        return [zeros_of(depth + 1) for _ in range(n)]

    array = zeros_of(0)

    def put(index, value):
        part = array
        for k in index[:-1]:
            part = part[k]
        part[index[-1]] = value

    for index, value, partner in related_pairs:
        put(index, value)
        put(index[:-2] + (index[-1], index[-2]), partner)
    for index, value in bad.items():
        put(index, value)
    return array


def edge_cases(alg, partner):
    """(name, n, ndim, related pairs, bad entries) for the edge shapes."""
    u1, u2 = alg.gen(1), alg.gen(2) * alg.scalar(2, 1)
    ok = lambda index, x: (index, x, partner(x))  # noqa: E731
    yield "all-zero-1", 1, 2, [], {}
    yield "all-zero-2", 2, 3, [], {}
    yield "all-zero-4", 4, 3, [], {}
    yield "n1-diagonal", 1, 2, [], {(0, 0): u1}
    yield "n1-planes", 1, 3, [], {(0, 0, 0): u2}
    yield "n2-off-diagonal", 2, 2, [ok((0, 0), u1 + u1.star())], {(1, 0): u2}
    yield "n2-last-plane", 2, 3, [ok((0, 0, 1), u1)], {(1, 0, 1): u2}
    yield "after-zeros", 4, 3, [ok((3, 0, 1), u2)], {(3, 1, 3): u1}
    yield "after-pairs", 4, 3, [ok((a, 0, 3), u1) for a in range(4)], {(2, 2, 3): u2}
    yield "last-pair", 4, 3, [ok((0, 1, 2), u1)], {(3, 3, 3): u1}
    yield "last-off-diagonal", 4, 2, [ok((0, 3), u2)], {(3, 2): u1}


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_first_unpaired_matches_full_search_on_edge_shapes(relation):
    related, partner = RELATIONS[relation]
    found = set()
    for alg in (ALG, TorusAlgebra(4, commutative=True), TorusAlgebra(2)):
        for name, n, ndim, pairs, bad in edge_cases(alg, partner):
            if n > alg.n or any(max(index) >= alg.n for index, _, _ in pairs):
                continue
            array = _frozen(paired_array(alg, n, ndim, pairs, bad), (n,) * ndim, "x", alg)
            expected = full_search(array, related, ndim)
            assert _first_unpaired(array, related, ndim) == expected, name
            found.add(expected is None)
    assert found == {True, False}


def test_public_pair_checks_name_the_full_search_index():
    # one failing pair behind valid nonzero pairs, through each checker
    u = ALG.gen(1) * ALG.gen(3, -1)
    cases = [
        (
            "antisymmetric",
            lambda x: solve_R(CALC, x, params()),
            "F is not antisymmetric at (%d, %d, %d)",
        ),
        ("hermitian", lambda x: assemble_U(METRIC, x), "R_%d is not hermitian at (%d, %d)"),
    ]
    for relation, call, words in cases:
        related, partner = RELATIONS[relation]
        pairs = [((a, 0, 2), u, partner(u)) for a in range(N)]
        array = paired_array(ALG, N, 3, pairs, {(1, 1, 2): u})
        expected = full_search(_frozen(array, (N,) * 3, "x", ALG), related, 3)
        assert expected == (2, 2, 3)
        with pytest.raises(Exception) as info:
            call(array)
        assert str(info.value) == words % expected


def test_frozen_returns_frozen_input_as_it_is():
    plane = tuple(tuple(row) for row in identity())
    array = (plane, plane, plane)
    assert _frozen(array, (N, N, N), "F", ALG) is array
    assert _frozen(plane, (N, N), "upper", ALG) is plane
    one = ALG.one()
    assert _frozen(one, (), "value", ALG) is one
    # a list is rebuilt as a tuple, and its tuple rows are kept
    rows = [plane[0], plane[1], plane[2]]
    out = _frozen(rows, (N, N), "upper", ALG)
    assert out == plane and type(out) is tuple
    assert all(a is b for a, b in zip(out, rows))
    # a tuple of the wrong rank, or with a level of the wrong length, is
    # refused, also when every part of it is wrong alike
    ragged = tuple(row[:2] for row in plane)
    for x, shape in (
        ((plane, plane, plane[:2]), (N, N, N)),
        ((plane, plane), (N, N, N)),
        ((ragged,) * N, (N, N, N)),
        (plane, (N, N, N)),
        (plane[:2], (N, N)),
        (plane[0], (N, N)),
        (one, (N, N)),
    ):
        dims = " x ".join("n" * len(shape))
        with pytest.raises(ValueError, match=r"^F must be an %s array$" % dims):
            _frozen(x, shape, "F", ALG)
    # and so is one whose every leaf is an int or lives over another algebra
    with pytest.raises(TypeError) as info:
        _frozen(((1,) * N,) * N, (N, N), "upper", ALG)
    assert str(info.value) == "upper[1][1] has type int, not AlgebraElement"
    with pytest.raises(DescriptorMismatch) as info:
        _frozen(((FOREIGN,) * N,) * N, (N, N), "upper", ALG)
    assert str(info.value) == "upper[1][1] lives over %r, not %r" % (FOREIGN.algebra, ALG)


@pytest.mark.parametrize("frozen", (False, True), ids=("lists", "tuples"))
def test_frozen_names_the_same_leaf_for_lists_and_tuples(frozen):
    def shaped(array):
        if not frozen or not isinstance(array, list):
            return array
        return tuple(shaped(part) for part in array)

    ragged = identity()
    ragged[2] = ragged[2][:2]
    with pytest.raises(ValueError, match=r"^upper must be an n x n array$"):
        _frozen(shaped(ragged), (N, N), "upper", ALG)
    gamma = zeros(N, N, N)
    gamma[1][2][0] = FOREIGN
    with pytest.raises(DescriptorMismatch) as info:
        _frozen(shaped(gamma), (N, N, N), "gamma", ALG)
    assert str(info.value) == (
        "gamma[2][3][1] lives over %r, not %r" % (FOREIGN.algebra, ALG)
    )
    upper = identity()
    upper[2][1] = Fraction(1, 2)
    upper[2][2] = 7
    with pytest.raises(TypeError) as info:
        _frozen(shaped(upper), (N, N), "upper", ALG)
    assert str(info.value) == "upper[3][2] has type Fraction, not AlgebraElement"
    with pytest.raises(ParamViolation) as info:
        _frozen(shaped(upper), (N, N), "X", ALG, (ParamViolation, ParamViolation))
    assert str(info.value) == "X[3][2] has type Fraction, not AlgebraElement"


def nested_tuples(x, depth):
    """True when ``x`` is ``depth`` >= 1 levels of tuples all the way down."""
    return type(x) is tuple and (depth == 1 or all(nested_tuples(p, depth - 1) for p in x))


def test_frozen_returns_every_frozen_array_of_a_build_as_it_is(monkeypatch):
    # every array that the metric and the build hand on is frozen already,
    # the connection's gamma included, and each such call returns its input
    # object (the metric's own lists are frozen once, by its constructor)
    original = algebra_module._frozen
    calls = []

    def spy(x, shape, name, *args, **kwargs):
        out = original(x, shape, name, *args, **kwargs)
        calls.append((name, x, out, nested_tuples(x, len(shape))))
        return out

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("nctorus.") and getattr(module, "_frozen", None) is original
    ]
    assert {module.__name__ for module in modules} >= {
        "nctorus.connections",
        "nctorus.forms",
        "nctorus.levicivita",
        "nctorus.metric",
    }
    for module in modules:
        monkeypatch.setattr(module, "_frozen", spy)
    metric = random_block_metric(random.Random("frozen-guard"), CALC)
    build_levi_civita(metric)
    frozen = [(name, x, out) for name, x, out, tupled in calls if tupled]
    names = {name for name, _, _ in frozen}
    assert names == {"upper", "X", "F", "R", "gamma"}, names
    for name, x, out in frozen:
        assert out is x, name
