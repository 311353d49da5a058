"""Differential forms, hermitian metrics, and the weak symmetry test.

Run with: python demos/forms_and_metrics.py
"""

from nctorus import (
    Calculus,
    HermitianMetric,
    KForm,
    symmetry_form,
    weak_symmetry_defect,
)

calc = Calculus.torus(3)
alg = calc.algebra
U1, U2 = alg.gen(1), alg.gen(2)

print("== the exterior derivative and the dual basis ==")
dU1 = KForm.of_element(calc, U1).d()
print("dU1(d_1)        =", dU1(1))
print("dU1(d_2)        =", dU1(2))
theta1 = alg.scalar(0, -1) * U1.invert() * dU1
print("theta^1 = -i U1^-1 dU1 evaluates to",
      [str(theta1(a)) for a in (1, 2, 3)])
print("d(dU1) == 0     :", dU1.d().is_zero())

print()
print("== wedge products ==")
th1, th2 = calc.theta(1), calc.theta(2)
area = th1 * th2
print("(theta1 theta2)(d_1, d_2) =", area(1, 2))
print("(theta1 theta2)(d_2, d_1) =", area(2, 1))
print("graded star law :", (th1 * th2).star() == -(th2.star() * th1.star()))

print()
print("== a block metric and its symmetry form ==")
z, one = alg.zero(), alg.one()
h0 = U2
metric = HermitianMetric(calc, [[one, z, z], [z, z, h0], [z, h0.star(), z]])
print("lower matrix row 2:", [str(e) for e in metric.lower[1]])
rho = symmetry_form(metric)
print("rho(d_2, d_3)   =", rho(2, 3))
print("d(rho) == 0     :", weak_symmetry_defect(metric).is_zero(),
      "  (so a torsion-free compatible connection exists)")

print()
print("== the same shape through U1 is not weakly symmetric ==")
bad = HermitianMetric(
    calc, [[one, z, z], [z, z, U1], [z, U1.star(), z]]
)
defect = weak_symmetry_defect(bad)
print("d(rho)(d_1, d_2, d_3) =", defect(1, 2, 3))
