"""Kernel timings on fixed seeded operands, one per layer.

Every operand is built from a fixed seed, independent of the run's seed,
so these numbers compare the same work across commits.  Each kernel runs
in batches sized to last at least ``MIN_BATCH_S``; the reported value is
the median per-call time over ``REPEATS`` batches.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from itertools import combinations
from time import perf_counter

from tracer import flat_terms
from workloads import random_element, random_monomial, dense_upper

REPEATS = 5
MIN_BATCH_S = 0.02


def _per_call(fn):
    number = 1
    while True:
        start = perf_counter()
        for _ in range(number):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= MIN_BATCH_S:
            break
        number *= 2
    samples = [elapsed / number]
    for _ in range(REPEATS - 1):
        start = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - start) / number)
    return statistics.median(samples)


def element_with_terms(rng, alg, terms):
    """An element with exactly ``terms`` (U-monomial, q-monomial) terms."""
    total = alg.zero()
    while flat_terms(total) < terms:
        candidate = total + random_monomial(rng, alg, range(alg.n), 3, phase_prob=0.5)
        if flat_terms(candidate) == flat_terms(total) + 1:
            total = candidate
    return total


def run_kernels(nc):
    """Return {metric name: (value, unit)} for every kernel."""
    rng = random.Random("kernels")
    out = {}
    gr = nc.scalars.GaussianRational
    a, b = gr(Fraction(3, 7), Fraction(-2, 5)), gr(Fraction(-5, 3), Fraction(1, 4))
    out["scalars.gr_mul_ns"] = (_per_call(lambda: a * b) * 1e9, "ns")
    out["scalars.gr_add_ns"] = (_per_call(lambda: a + b) * 1e9, "ns")

    for n in (3, 5):
        alg = nc.algebra.TorusAlgebra(n)
        for terms in (4, 16, 64):
            x = element_with_terms(rng, alg, terms)
            y = element_with_terms(rng, alg, terms)
            label = "n%d_t%d" % (n, terms)
            out["algebra.mul_us." + label] = (_per_call(lambda: x * y) * 1e6, "us")
            out["algebra.star_us." + label] = (_per_call(x.star) * 1e6, "us")

    calc5 = nc.forms.Calculus.torus(5)
    KForm = nc.forms.KForm
    alg5 = calc5.algebra
    one_form = KForm(calc5, 1, {(i,): random_element(rng, alg5, 2) for i in range(1, 6)})
    two_form = KForm(
        calc5, 2, {key: random_element(rng, alg5, 2) for key in combinations(range(1, 6), 2)}
    )
    out["forms.d_us.n5"] = (_per_call(two_form.d) * 1e6, "us")
    out["forms.wedge_us.n5"] = (_per_call(lambda: one_form * two_form) * 1e6, "us")

    calc4 = nc.forms.Calculus.torus(4)
    upper = dense_upper(random.Random("kernels/invert"), calc4.algebra)
    out["metric.invert_us.n4"] = (
        _per_call(lambda: nc.metric.invert_metric(calc4, upper)) * 1e6,
        "us",
    )

    alg3 = nc.algebra.TorusAlgebra(3)
    text = nc.expr.render_element(element_with_terms(rng, alg3, 64))
    element = nc.expr.parse_element(alg3, text)
    out["expr.parse_us.t64"] = (
        _per_call(lambda: nc.expr.parse_element(alg3, text)) * 1e6,
        "us",
    )
    out["expr.render_us.t64"] = (
        _per_call(lambda: nc.expr.render_element(element)) * 1e6,
        "us",
    )
    return out
