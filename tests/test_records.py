"""Value semantics of the plain record classes.

The three descriptors (``TorusAlgebra``, ``LieAlgebra``, ``Calculus``)
are immutable, compare and hash by their fields and print as
``Name(field=value, ...)``; error messages embed that text.
``SolverParams`` and ``LCVerification`` compare field-wise, and the CLI's
``ProblemConfig`` stays mutable; ``run`` returns its report as a plain
dict holding only the sections the command reached.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from nctorus import (
    Calculus,
    DescriptorMismatch,
    LieAlgebra,
    SolverParams,
    TorusAlgebra,
    build_levi_civita,
    verify_levi_civita,
)
from nctorus.cli import load_config, run

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
    assert LieAlgebra.from_struct(3, {}) == LieAlgebra.from_struct(3, {})
    assert LieAlgebra.from_struct(3, heis) != LieAlgebra.from_struct(3, {})
    lie = LieAlgebra.from_struct(3, heis)
    assert hash(lie) == hash((lie.n, lie.brackets))

    calc = Calculus.torus(3, brackets=heis)
    assert calc == Calculus(TorusAlgebra(3), LieAlgebra.from_struct(3, heis))
    assert calc != Calculus.torus(3)
    assert calc != Calculus.torus(3, commutative=True, brackets=heis)
    assert hash(calc) == hash((calc.algebra, calc.lie))
    assert {calc: 1}[Calculus.torus(3, brackets=heis)] == 1


def test_descriptor_repr_text():
    assert repr(TorusAlgebra(3)) == "TorusAlgebra(n=3, commutative=False)"
    assert repr(TorusAlgebra(2, True)) == "TorusAlgebra(n=2, commutative=True)"
    lie = "LieAlgebra(n=1, brackets=(((%s,),),))" % ZERO
    assert repr(LieAlgebra.from_struct(1, {})) == lie
    assert repr(Calculus.torus(1)) == (
        "Calculus(algebra=TorusAlgebra(n=1, commutative=False), lie=%s)" % lie
    )
    half = LieAlgebra.from_struct(2, {(1, 1, 2): Fraction(1, 2)})
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
        (LieAlgebra.from_struct(2, {}), "brackets"),
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
        (lambda: LieAlgebra(0, ()), ValueError, "need dimension at least 1"),
        (
            lambda: LieAlgebra(2, ((0, 0),)),
            ValueError,
            "structure constants must be an n x n x n array",
        ),
        (
            lambda: LieAlgebra(2, (((0, 1), (1, 0)), ((0, 0), (0, 0)))),
            ValueError,
            "structure constants not antisymmetric at c^1_{12}",
        ),
        (
            lambda: LieAlgebra.from_struct(3, {(1, 1, 2): 1, (2, 1, 3): 1}),
            ValueError,
            "Jacobi identity fails at indices (1, 2, 3, 2)",
        ),
        (
            lambda: Calculus(TorusAlgebra(2), LieAlgebra.from_struct(3, {})),
            DescriptorMismatch,
            "algebra has 2 generators but Lie algebra has dimension 3",
        ),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def test_solver_records_compare_fieldwise(calc3):
    alg = calc3.algebra
    zeros = SolverParams.zeros(calc3)
    assert zeros == SolverParams.zeros(calc3)
    assert zeros != SolverParams(zeros.X, {(1, 2, 3): alg.one()})
    assert zeros != SolverParams(zeros.X, {}, ())
    assert repr(SolverParams(((alg.one(),),), {})) == (
        "SolverParams(X=((1,),), triples={}, antiherm=None)"
    )
    with pytest.raises(TypeError):
        hash(zeros)

    metric = block_metric(calc3, alg.gen(2))
    conn = build_levi_civita(metric)
    first = verify_levi_civita(conn, metric)
    second = verify_levi_civita(conn, metric)
    assert first == second and first is not second
    second.characterization = False
    assert first != second and not second.passed


def test_cli_records_stay_mutable():
    config = load_config(BLOCK_CFG)
    assert config == load_config(BLOCK_CFG)
    config.command = "check-weak-symmetry"
    assert config.command == "check-weak-symmetry"
    assert config != load_config(BLOCK_CFG)
    assert set(run(config)) == {
        "schema",
        "command",
        "status",
        "n",
        "commutative",
        "weak_symmetry",
    }
