"""End to end: build and verify a Levi-Civita connection, and see why it
is not unique.

Run with: python demos/levi_civita_walkthrough.py
"""

from nctorus import (
    Calculus,
    HermitianMetric,
    NotWeaklySymmetric,
    SolverParams,
    assemble_U,
    build_levi_civita,
    compute_F,
    solve_R,
    verify_levi_civita,
)


def show_connection(label, conn):
    print(label)
    for a in range(3):
        for i in range(3):
            for j in range(3):
                entry = conn.gamma[a][i][j]
                if not entry.is_zero():
                    print("  gamma[a=%d, i=%d, j=%d] = %s" % (a + 1, i + 1, j + 1, entry))


calc = Calculus.torus(3)
alg = calc.algebra
z, one = alg.zero(), alg.one()
h0 = alg.gen(2)
metric = HermitianMetric(calc, [[one, z, z], [z, z, h0], [z, h0.star(), z]])

print("== the solver pipeline, stage by stage ==")
F = compute_F(metric)
print("F[2,2,3] =", F[1][1][2])
R = solve_R(calc, F, SolverParams.zeros(calc))
print("(R_2)_23 =", R[1][1][2])
u = assemble_U(metric, R)
print("(U_2)^23 =", u[1][1][2])

print()
conn = build_levi_civita(metric)
show_connection("connection with all parameters zero:", conn)
report = verify_levi_civita(conn, metric)
print("torsion zero:", report.torsion_zero,
      " compatible:", report.compat_zero,
      " characterization:", report.characterization)

print()
print("== non-uniqueness through the hermitian parameter X11 ==")
x = [[z for _ in range(3)] for _ in range(3)]
x[0][0] = alg.gen(1) + alg.gen(1, -1)
other = build_levi_civita(metric, SolverParams(tuple(tuple(r) for r in x), {}))
show_connection("connection with X11 = U1 + U1^-1:", other)
print("both verify:", verify_levi_civita(other, metric).passed,
      " and differ:", other != conn)

print()
print("== the existence gate ==")
bad = HermitianMetric(
    calc,
    [[one, z, z], [z, z, alg.gen(1)], [z, alg.gen(1).star(), z]],
)
try:
    build_levi_civita(bad)
except NotWeaklySymmetric as exc:
    print("rejected:", exc)
