from fractions import Fraction
import time

import pytest

from nctorus import (
    NotWeaklySymmetric,
    ParseError,
    SolvabilityViolated,
    TorusAlgebra,
    expr,
    parse_element,
    render_element,
)

from conftest import random_element


@pytest.fixture
def alg():
    return TorusAlgebra(3)


def test_parse_atoms(alg):
    assert parse_element(alg, "U1") == alg.gen(1)
    assert parse_element(alg, "i") == alg.i()
    assert parse_element(alg, "3/4") == alg.scalar(Fraction(3, 4))
    assert parse_element(alg, "q[1,2]") == alg.q(1, 2)
    assert parse_element(alg, "q[2,1]") == alg.q(1, 2, -1)
    assert parse_element(alg, "0").is_zero()


def test_parse_expressions(alg):
    assert parse_element(alg, "2*U1 + 3*U1") == alg.gen(1) * 5
    assert parse_element(alg, "U1^-2") == alg.gen(1, -2)
    assert parse_element(alg, "i^2") == -alg.one()
    assert parse_element(alg, "adj(U1*U2)") == (alg.gen(1) * alg.gen(2)).star()
    assert parse_element(alg, "(U1 + U2) * U1") == (alg.gen(1) + alg.gen(2)) * alg.gen(1)
    assert parse_element(alg, "-U1 + 1") == alg.one() - alg.gen(1)
    assert parse_element(alg, "1 - 2 * U2^2") == alg.one() - alg.gen(2, 2) * 2
    assert parse_element(alg, "(1+i)*U3") == (alg.one() + alg.i()) * alg.gen(3)


def test_parse_adj_reverses_products(alg):
    x = parse_element(alg, "adj(U2*U1)")
    assert x == (alg.gen(2) * alg.gen(1)).star()


def test_parse_whitespace_and_power_of_paren(alg):
    assert parse_element(alg, "  2 * U1 ") == alg.gen(1) * 2
    assert parse_element(alg, "(U1*U2)^-1") == (alg.gen(1) * alg.gen(2)).invert()


def test_parse_errors_carry_position(alg):
    with pytest.raises(ParseError) as info:
        parse_element(alg, "U1 +")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_element(alg, "U1 * * U2")
    with pytest.raises(ParseError):
        parse_element(alg, "q[1,1]")
    with pytest.raises(ParseError):
        parse_element(alg, "U4")
    with pytest.raises(ParseError):
        parse_element(alg, "U1 @ U2")
    with pytest.raises(ParseError):
        parse_element(alg, "foo")
    with pytest.raises(ParseError):
        parse_element(alg, "U1^(2)")
    with pytest.raises(ParseError):
        parse_element(alg, "2^1/2")


def test_render_basics(alg):
    assert render_element(alg.zero()) == "0"
    assert render_element(alg.one()) == "1"
    assert render_element(-alg.one()) == "-1"
    assert render_element(alg.i()) == "i"
    assert render_element(-alg.i()) == "-i"
    assert render_element(alg.gen(1) * -1) == "-U1"
    assert render_element(alg.scalar(Fraction(1, 2))) == "1/2"
    assert render_element(alg.q(1, 2, -1) * alg.gen(2, -3)) == "q[1,2]^-1*U2^-3"


def test_render_sorted_by_monomial_exponent(alg):
    x = alg.gen(2) + alg.gen(1, -1) + alg.one()
    assert render_element(x) == "U1^-1 + 1 + U2"


def test_round_trip_random(rng, alg):
    for _ in range(150):
        x = random_element(rng, alg, max_terms=4, max_exp=3)
        assert parse_element(alg, render_element(x)) == x


def test_round_trip_commutative(rng):
    alg = TorusAlgebra(2, commutative=True)
    for _ in range(60):
        x = random_element(rng, alg)
        assert parse_element(alg, render_element(x)) == x


def test_render_deterministic(rng, alg):
    x = random_element(rng, alg, max_terms=5)
    assert render_element(x) == render_element(x)
    y = parse_element(alg, render_element(x))
    assert render_element(y) == render_element(x)


def test_render_short_cuts_after_max_shown_terms(alg):
    assert expr.MAX_SHOWN_TERMS == 16
    x = alg.zero()
    for k in range(16):
        x = x - alg.gen(1, k)
    assert expr.render_short(x) == render_element(x)
    assert expr.render_short(x - alg.gen(1, 16)) == render_element(x) + " + ... (17 terms)"
    assert expr.render_short(alg.zero()) == "0"


def test_errors_cut_long_elements_and_keep_them_whole(alg):
    long = alg.zero()
    for k in range(20):
        long = long + alg.gen(2, k)
    shown = expr.render_short(long)
    assert shown == " + ".join(["1", "U2"] + ["U2^%d" % k for k in range(2, 16)]) + (
        " + ... (20 terms)"
    )
    exc = NotWeaklySymmetric((1, 2, 3), long)
    assert exc.component is long
    assert str(exc) == "d(rho) is nonzero at derivations (1, 2, 3): " + shown
    exc = SolvabilityViolated((1, 2, 3), long)
    assert exc.defect is long
    assert str(exc) == "solvability condition fails at triple (1, 2, 3): defect " + shown


# -- bounded work ------------------------------------------------------------------


def test_budget_rejects_large_power_and_product_chain(alg):
    assert expr.MAX_TERM_PAIRS == 1 << 16
    chain = "*".join(["(U1+U2+U3)"] * 16)
    for text, op in (("(U1+U2+U3)^16", "^"), ("(U1+U2+U3)^32", "^"), (chain, "*")):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="MAX_TERM_PAIRS = 65536") as info:
            parse_element(alg, text)
        assert time.perf_counter() - start < 5
        assert info.value.line == 1
        assert text[info.value.col - 1] == op


def test_budget_keeps_small_powers_and_monomial_powers(alg):
    u1, u2 = alg.gen(1), alg.gen(2)
    assert parse_element(alg, "(U1+U2)^4") == (u1 + u2) * (u1 + u2) * (u1 + u2) * (u1 + u2)
    assert parse_element(alg, "U1^-20000000") == alg.gen(1, -20000000)
    assert parse_element(alg, "q[1,2]^7") == alg.q(1, 2, 7)
    assert parse_element(alg, "(U1*U2)^100000") == (u1 * u2) ** 100000


def test_budget_charges_products_and_power_bounds(alg, monkeypatch):
    monkeypatch.setattr(expr, "MAX_TERM_PAIRS", 8)
    # 2 x 2 pairs, then 4 x 2 pairs (the product has 4 terms): 12 > 8
    assert len(parse_element(alg, "(U1+U2)*(U1+U2)").terms) == 4
    with pytest.raises(ParseError) as info:
        parse_element(alg, "(U1+U2)*(U1+U2)*(U1+U2)")
    assert info.value.col == 16
    # x^2 of a 2-term x: one squaring (2 x 2) and one product (1 x 4) = 8
    assert parse_element(alg, "(U1+U2)^2") == parse_element(alg, "(U1+U2)*(U1+U2)")
    monkeypatch.setattr(expr, "MAX_TERM_PAIRS", 7)
    with pytest.raises(ParseError) as info:
        parse_element(alg, "(U1+U2)^2")
    assert info.value.col == 8
    # monomial powers are not charged
    assert parse_element(alg, "U1^1000 * U2") == alg.gen(1, 1000) * alg.gen(2)


# -- nesting depth and invalid arithmetic ---------------------------------------------


@pytest.mark.parametrize("opener", ["(", "adj("])
def test_nesting_depth_bound(alg, opener):
    assert expr.MAX_DEPTH == 64
    depth = expr.MAX_DEPTH
    assert parse_element(alg, opener * depth + "U1" + ")" * depth) == alg.gen(1)
    text = opener * (depth + 1) + "U1" + ")" * (depth + 1)
    with pytest.raises(ParseError, match="MAX_DEPTH = 64") as info:
        parse_element(alg, text)
    # reported at the first parenthesis past the bound
    assert info.value.col == len(opener) * depth + len(opener)
    # far past the bound, where the recursion limit would be reached
    with pytest.raises(ParseError, match="MAX_DEPTH"):
        parse_element(alg, opener * 300 + "U1" + ")" * 300)


def test_nesting_depth_counts_open_parentheses_only(alg):
    # many sibling groups at depth one are not nested
    assert parse_element(alg, " + ".join(["(1)"] * 200)) == alg.scalar(200)


@pytest.mark.parametrize(
    "text,col",
    [("1/0", 1), ("U1 + 3/00", 6), ("(U1 + U2)^-1", 10), ("0^-1", 2), ("(U1 - U1)^-2", 10)],
)
def test_invalid_arithmetic_is_parse_error(alg, text, col):
    with pytest.raises(ParseError) as info:
        parse_element(alg, text)
    assert info.value.col == col
