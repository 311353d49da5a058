"""Value semantics of the record classes.

Every ``Record`` subclass of the package is immutable: assigning or
deleting a field raises ``AttributeError``.  Records compare field by
field and hash by their field tuple, or raise ``TypeError`` when a field
is unhashable (``KForm``'s dict of components, ``SolverParams``'s
triples).  The descriptors (``TorusAlgebra``, ``LieAlgebra``,
``Calculus``) print as ``Name(field=value, ...)``, and error messages
embed that text.  The slotted ``HermitianMetric``, ``Connection`` and
``KForm`` keep no ``__dict__``.  ``run`` returns its report as a plain
dict holding only the sections the command reached.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from nctorus import (
    Calculus,
    Connection,
    DescriptorMismatch,
    KForm,
    LCVerification,
    LieAlgebra,
    SolverParams,
    TorusAlgebra,
    build_levi_civita,
    verify_levi_civita,
)
from nctorus.cli import ProblemConfig, load_config, run
from nctorus.records import Record

from conftest import block_metric

BLOCK_CFG = Path(__file__).resolve().parent.parent / "demos" / "torus3-block.cfg"
ZERO = "Fraction(0, 1)"


def test_descriptor_equality_and_hash():
    assert TorusAlgebra(3) == TorusAlgebra(3, False)
    assert TorusAlgebra(3) != TorusAlgebra(3, commutative=True)
    assert TorusAlgebra(3) != TorusAlgebra(4)
    assert TorusAlgebra(3) != (3, False)
    # the key layout caches take no part in equality or hashing
    for alg in (TorusAlgebra(3), TorusAlgebra(2, True)):
        assert hash(alg) == hash((alg.n, alg.commutative))
    assert len({TorusAlgebra(3), TorusAlgebra(3), TorusAlgebra(3, True)}) == 2

    heis = {(3, 1, 2): 1}
    assert LieAlgebra(3, {}) == LieAlgebra(3) == LieAlgebra(3, None)
    assert LieAlgebra(3, heis) != LieAlgebra(3, {})
    lie = LieAlgebra(3, heis)
    assert hash(lie) == hash((lie.n, lie.brackets))

    calc = Calculus.torus(3, brackets=heis)
    assert calc == Calculus(TorusAlgebra(3), LieAlgebra(3, heis))
    assert calc != Calculus.torus(3)
    assert calc != Calculus.torus(3, commutative=True, brackets=heis)
    assert hash(calc) == hash((calc.algebra, calc.lie))
    assert {calc: 1}[Calculus.torus(3, brackets=heis)] == 1


def test_descriptor_repr_text():
    assert repr(TorusAlgebra(3)) == "TorusAlgebra(n=3, commutative=False)"
    assert repr(TorusAlgebra(2, True)) == "TorusAlgebra(n=2, commutative=True)"
    lie = "LieAlgebra(n=1, brackets=(((%s,),),))" % ZERO
    assert repr(LieAlgebra(1, {})) == lie
    assert repr(Calculus.torus(1)) == (
        "Calculus(algebra=TorusAlgebra(n=1, commutative=False), lie=%s)" % lie
    )
    half = LieAlgebra(2, {(1, 1, 2): Fraction(1, 2)})
    assert repr(half) == (
        "LieAlgebra(n=2, brackets=(((%s, Fraction(1, 2)), (Fraction(-1, 2), %s)),"
        " ((%s, %s), (%s, %s))))" % ((ZERO,) * 6)
    )


@pytest.mark.parametrize(
    "value, field",
    [
        (TorusAlgebra(3), "n"),
        (TorusAlgebra(3), "commutative"),
        (TorusAlgebra(3), "_slots"),
        (LieAlgebra(2, {}), "brackets"),
        (Calculus.torus(2), "algebra"),
        (Calculus.torus(2), "lie"),
    ],
)
def test_descriptor_assignment_raises(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field '%s'" % field):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match="cannot delete field '%s'" % field):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_descriptor_mismatch_message():
    with pytest.raises(DescriptorMismatch) as info:
        TorusAlgebra(3).gen(1) * TorusAlgebra(3, commutative=True).gen(1)
    assert str(info.value) == (
        "elements live over different algebras: "
        "TorusAlgebra(n=3, commutative=False) vs TorusAlgebra(n=3, commutative=True)"
    )


def test_construction_errors():
    cases = [
        (lambda: TorusAlgebra(0), ValueError, "need at least one generator"),
        (lambda: LieAlgebra(0), ValueError, "need dimension at least 1"),
        (
            lambda: LieAlgebra(3, {(1, 1, 2): 1, (2, 1, 3): 1}),
            ValueError,
            "Jacobi identity fails at indices (1, 2, 3, 2)",
        ),
        (
            lambda: LieAlgebra(3, {(4, 1, 2): 1}),
            IndexError,
            "structure constant index out of range: (4, 1, 2)",
        ),
        (
            lambda: LieAlgebra(3, {(1, 2, 2): 1}),
            ValueError,
            "structure constant c^e_{aa} must vanish",
        ),
        (
            # c^1_21 = -1 is filled in from c^1_12 = 1 and contradicts the 2
            lambda: LieAlgebra(2, {(1, 1, 2): 1, (1, 2, 1): 2}),
            ValueError,
            "conflicting structure constants at (1, 2, 1)",
        ),
        (
            lambda: Calculus(TorusAlgebra(2), LieAlgebra(3, {})),
            DescriptorMismatch,
            "algebra has 2 generators but Lie algebra has dimension 3",
        ),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message


def test_solver_records_compare_fieldwise(calc3):
    alg = calc3.algebra
    zeros = SolverParams.zeros(calc3)
    assert zeros == SolverParams.zeros(calc3)
    assert zeros != SolverParams(zeros.X, {(1, 2, 3): alg.one()})
    assert repr(SolverParams(((alg.one(),),), {})) == (
        "SolverParams(X=((1,),), triples={})"
    )
    with pytest.raises(TypeError):
        hash(zeros)

    metric = block_metric(calc3, alg.gen(2))
    conn = build_levi_civita(metric)
    first = verify_levi_civita(conn, metric)
    second = verify_levi_civita(conn, metric)
    assert first == second and first is not second
    failed = LCVerification(second.torsion, second.compat, True, True, False)
    assert first != failed and not failed.passed
    with pytest.raises(TypeError, match="LCVerification takes 5 fields, got 4"):
        LCVerification(second.torsion, second.compat, True, True)


def test_slotted_values_compare_through_record(calc3):
    alg = calc3.algebra
    metric = block_metric(calc3, alg.gen(2))
    twin = block_metric(Calculus.torus(3), alg.gen(2))
    assert metric == twin and metric is not twin
    metric.d_upper  # the derived cache takes no part in equality
    assert metric == twin
    assert metric != block_metric(calc3, alg.gen(1))
    assert repr(metric) == "HermitianMetric(n=3)"

    conn = build_levi_civita(metric)
    assert conn == build_levi_civita(twin)
    assert conn != Connection.zero(calc3)
    assert repr(Connection.zero(calc3)) == "Connection(0)"

    form = KForm(calc3, 1, {(2,): alg.gen(1)})
    assert form == KForm(Calculus.torus(3), 1, {(2,): alg.gen(1)})
    assert form != KForm(calc3, 2, {}) and form != KForm(calc3, 1, {})
    assert form != alg.gen(1) and form != calc3.theta(2)
    assert repr(form) == "KForm(degree=1, {(2,): U1})"

    for value in (metric, conn, form):
        cls = type(value)
        assert "__eq__" not in vars(cls) and isinstance(value, Record)
        assert not hasattr(value, "__dict__")
    # metric and connection hash by value; a form's components are a dict
    assert hash(metric) == hash(twin) and {metric: 1}[twin] == 1
    assert hash(conn) == hash(build_levi_civita(twin))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(form)


def example_records():
    """One value of each ``Record`` subclass, keyed by class."""
    calc = Calculus.torus(3)
    metric = block_metric(calc, calc.algebra.gen(2))
    conn = build_levi_civita(metric)
    values = [
        calc.algebra,
        calc.lie,
        calc,
        calc.theta(2),
        metric,
        conn,
        SolverParams.zeros(calc),
        verify_levi_civita(conn, metric),
        load_config(BLOCK_CFG),
    ]
    return {type(value): value for value in values}


EXAMPLES = example_records()


@pytest.mark.parametrize("cls", Record.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_record_refuses_assignment(cls):
    value = EXAMPLES[cls]
    assert type(value) is cls and cls._fields
    for name in cls._fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete field '%s'" % name):
            delattr(value, name)
        assert getattr(value, name) is before
    fields = tuple(getattr(value, name) for name in cls._fields)
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


def test_a_built_connection_keeps_its_gamma(calc3):
    # a gamma of lists never equals the tuples of its own projection, so
    # the characterization would fail where torsion and compatibility pass;
    # the assignment is refused and the verdicts stay consistent
    metric = block_metric(calc3, calc3.algebra.gen(2))
    conn = build_levi_civita(metric)
    gamma = conn.gamma
    with pytest.raises(AttributeError, match="cannot assign to field 'gamma'"):
        conn.gamma = [[list(row) for row in plane] for plane in conn.gamma]
    assert conn.gamma is gamma
    report = verify_levi_civita(conn, metric)
    assert report.torsion_zero and report.compat_zero and report.characterization


def test_cli_records_refuse_assignment():
    config = load_config(BLOCK_CFG)
    assert config == load_config(BLOCK_CFG)
    with pytest.raises(AttributeError, match="cannot assign to field 'command'"):
        config.command = "check-weak-symmetry"
    assert config.command == "build-lc"
    config = ProblemConfig(
        config.calculus,
        config.upper,
        config.lower,
        config.params,
        config.gamma,
        "check-weak-symmetry",
    )
    assert config != load_config(BLOCK_CFG)
    assert set(run(config)) == {
        "schema",
        "command",
        "status",
        "n",
        "commutative",
        "weak_symmetry",
    }
