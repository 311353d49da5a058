from fractions import Fraction
import random
import time

import pytest

from nctorus import (
    GaussianRational,
    NotWeaklySymmetric,
    ParseError,
    SolvabilityViolated,
    TorusAlgebra,
    expr,
    parse_element,
    render_element,
)

from conftest import canonical_terms, random_element


@pytest.fixture
def alg():
    return TorusAlgebra(3)


def test_parse_atoms(alg):
    assert parse_element(alg, "U1") == alg.gen(1)
    assert parse_element(alg, "i") == alg.i()
    assert parse_element(alg, "3/4") == alg.scalar(Fraction(3, 4))
    assert parse_element(alg, "q[1,2]") == alg.q(1, 2)
    assert parse_element(alg, "q[2,1]") == alg.q(1, 2, -1)
    assert parse_element(alg, "q[3,1]") == alg.q(1, 3, -1)
    assert parse_element(alg, "q[3,2]") == alg.q(2, 3, -1)
    assert parse_element(alg, "0").is_zero()


def test_parse_expressions(alg):
    assert parse_element(alg, "2*U1 + 3*U1") == alg.gen(1) * 5
    assert parse_element(alg, "U1^-2") == alg.gen(1, -2)
    assert parse_element(alg, "U1^+2") == alg.gen(1, 2)
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
    assert parse_element(alg, "\t2\v*\fU1\r\n") == alg.gen(1) * 2  # ASCII whitespace
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


# -- the renderer against the formatter it replaced ------------------------------
#
# The reference formats ``canonical_terms`` term by term, as the renderer
# did before it wrote terms from the algebra's label table.


def _reference_rational(part):
    num, den = part
    return "%d" % num if den == 1 else "%d/%d" % (num, den)


def _reference_coeff_parts(re, im):
    if im[0] == 0:
        sign = "-" if re[0] < 0 else "+"
        mag = (abs(re[0]), re[1])
        return sign, "" if mag == (1, 1) else _reference_rational(mag)
    im_sign = "-" if im[0] < 0 else "+"
    mag = (abs(im[0]), im[1])
    im_str = "i" if mag == (1, 1) else "%s*i" % _reference_rational(mag)
    if re[0] == 0:
        return im_sign, im_str
    return "+", "(%s%s%s)" % (_reference_rational(re), im_sign, im_str)


def _reference_term_string(uexp, qkey, re, im):
    factors = []
    for (a, b), e in qkey:
        factors.append("q[%d,%d]" % (a, b) + ("^%d" % e if e != 1 else ""))
    for pos, k in enumerate(uexp):
        if k:
            factors.append("U%d" % (pos + 1) + ("^%d" % k if k != 1 else ""))
    sign, coeff_str = _reference_coeff_parts(re, im)
    if coeff_str:
        factors.insert(0, coeff_str)
    if not factors:
        factors = ["1"]
    return sign, "*".join(factors)


def _reference_joined(terms):
    text = " ".join("%s %s" % _reference_term_string(*term) for term in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def reference_render(x):
    return _reference_joined(canonical_terms(x))


def reference_render_short(x):
    terms = canonical_terms(x)
    if len(terms) <= expr.MAX_SHOWN_TERMS:
        return _reference_joined(terms)
    return "%s + ... (%d terms)" % (
        _reference_joined(terms[: expr.MAX_SHOWN_TERMS]),
        len(terms),
    )


RENDER_ALGEBRAS = [
    TorusAlgebra(n, commutative) for n in range(1, 7) for commutative in (False, True)
]


def random_render_coefficient(rng):
    """Integers, fractions, pure imaginary and mixed values of either sign."""
    num = rng.choice((1, 1, 2, 3, 6, 10))
    den = rng.choice((1, 1, 2, 3, 4, 9))
    value = Fraction(rng.choice((-1, 1)) * num, den)
    kind = rng.randrange(3)
    if kind == 0:
        return GaussianRational(value)
    if kind == 1:
        return GaussianRational(0, value)
    return GaussianRational(value, Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), den))


def random_render_element(rng, alg):
    """A sum with constants, q-only terms, negative exponents and terms that
    share their U exponents but not their phases."""
    n = alg.n
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    x = alg.zero()
    exponents = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.randrange(4)
        if kind == 0:
            uexp = (0,) * n  # a constant, or a q-only term
        elif kind == 1 and exponents:
            uexp = rng.choice(exponents)  # shares the U exponents of an earlier term
        else:
            uexp = tuple(rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(n))
        exponents.append(uexp)
        term = alg.monomial(random_render_coefficient(rng), uexp)
        for _ in range(rng.randint(0, 3) if pairs else 0):
            term = term * alg.q(*rng.choice(pairs), rng.choice((-2, -1, 1, 2)))
        x = x + term
    return x


@pytest.mark.parametrize(
    "algebra",
    RENDER_ALGEBRAS,
    ids=["n%d-%s" % (a.n, "comm" if a.commutative else "q") for a in RENDER_ALGEBRAS],
)
def test_render_matches_reference_formatter(algebra):
    rng = random.Random("render/%d/%s" % (algebra.n, algebra.commutative))
    seen = set()
    for _ in range(60):
        x = random_render_element(rng, algebra)
        text = render_element(x)
        assert text == reference_render(x)
        assert expr.render_short(x) == reference_render_short(x)
        assert parse_element(algebra, text) == x
        terms = canonical_terms(x)
        for uexp, qkey, re, im in terms:
            features = {
                "constant": not any(uexp) and not qkey,
                "q-only": not any(uexp) and qkey,
                "negative exponent": min(uexp) < 0,
                "denominator": re[1] > 1 or im[1] > 1,
                "imaginary": im[0] and not re[0],
                "negative": re[0] < 0 or im[0] < 0,
            }
            seen.update(name for name, present in features.items() if present)
        if len({uexp for uexp, _, _, _ in terms}) < len(terms):
            seen.add("shared U exponents")
    # a long element goes through the cut of render_short
    total = random_render_element(rng, algebra) + random_render_element(rng, algebra)
    for k in range(-10, 10):
        total = total + algebra.monomial(random_render_coefficient(rng), (k,) * algebra.n)
    assert len(total.terms) > expr.MAX_SHOWN_TERMS
    assert expr.render_short(total) == reference_render_short(total)
    assert render_element(total) == reference_render(total)
    expected = {"constant", "negative exponent", "denominator", "imaginary", "negative"}
    if not algebra.commutative and algebra.n > 1:
        expected |= {"q-only", "shared U exponents"}
    assert expected <= seen


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
    # the squaring spends the whole budget of 4; the product 1 x 4 after it
    # is still counted
    monkeypatch.setattr(expr, "MAX_TERM_PAIRS", 4)
    with pytest.raises(ParseError) as info:
        parse_element(alg, "(U1+U2)^2")
    assert info.value.col == 8
    # x^1 of a 2-term x is the product 1 x 2, charged like any power: 2 + 4 > 5
    monkeypatch.setattr(expr, "MAX_TERM_PAIRS", 5)
    assert len(parse_element(alg, "(U1+U2)*(U1+U2)").terms) == 4
    with pytest.raises(ParseError) as info:
        parse_element(alg, "(U1+U2)^1*(U1+U2)")
    assert info.value.col == 10


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


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("U1 +\n  U2 *\n U7", 3, 2),
        ("U1\n + $", 2, 4),
        ("U1 +\n", 2, 1),
        ("(U1\n\t+ U2", 2, 6),
        ("U1^2\n\n   * q[1,1]", 3, 6),
        ("1/0\n", 1, 1),
        ("  \n\n  U2 ^ (", 3, 8),
        ("\nU7", 2, 1),
    ],
)
def test_parse_errors_on_multiline_input(alg, text, line, col):
    # the column counts from the start of the line the token is on
    with pytest.raises(ParseError) as info:
        parse_element(alg, text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value).endswith(" at line %d, column %d" % (line, col))


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 2", "unexpected trailing input at line 1, column 3"),
        ("q[x,1]", "expected an integer at line 1, column 3"),
        # digits are ASCII: an Arabic-Indic or fullwidth digit is no digit
        ("U\u0663", "unexpected character '\u0663' at line 1, column 2"),
        ("2 * \uff13", "unexpected character '\uff13' at line 1, column 5"),
        # whitespace is ASCII: other space characters are no whitespace
        ("U1\u3000+ U2", "unexpected character '\\u3000' at line 1, column 3"),
        ("U1 +\u00a0U2", "unexpected character '\\xa0' at line 1, column 5"),
        ("U1\x1c", "unexpected character '\\x1c' at line 1, column 3"),
        # each bracket of q[a,b] is the one expected, and an atom starts with "("
        ("q(1,2)", "expected '[' at line 1, column 2"),
        ("q[1,2)", "expected ']' at line 1, column 6"),
        ("[U1)", "expected an atom at line 1, column 1"),
        ("U1 + foo", "unknown name 'foo' at line 1, column 6"),
        # one phase index out of range is enough
        ("q[1,4]", "bad phase symbol q[1,4] at line 1, column 1"),
        ("q[4,1]", "bad phase symbol q[4,1] at line 1, column 1"),
        ("q[0,2]", "bad phase symbol q[0,2] at line 1, column 1"),
    ],
    ids=[
        "trailing",
        "phase-index",
        "arabic-indic-generator",
        "fullwidth-number",
        "ideographic-space",
        "no-break-space",
        "file-separator",
        "phase-opener",
        "phase-closer",
        "atom-opener",
        "unknown-name",
        "phase-second-index",
        "phase-first-index",
        "phase-zero-index",
    ],
)
def test_parse_error_names_the_token(alg, text, message):
    with pytest.raises(ParseError) as info:
        parse_element(alg, text)
    assert type(info.value) is ParseError and str(info.value) == message


def test_nesting_depth_counts_open_parentheses_only(alg):
    # many sibling groups at depth one are not nested
    assert parse_element(alg, " + ".join(["(1)"] * 200)) == alg.scalar(200)
    # and a closed group gives back exactly the depth it took
    depth = expr.MAX_DEPTH + 1
    with pytest.raises(ParseError, match="MAX_DEPTH = 64") as info:
        parse_element(alg, "(U1) + " + "(" * depth + "U1" + ")" * depth)
    assert info.value.col == len("(U1) + ") + depth


@pytest.mark.parametrize(
    "text,col",
    [("1/0", 1), ("U1 + 3/00", 6), ("(U1 + U2)^-1", 10), ("0^-1", 2), ("(U1 - U1)^-2", 10)],
)
def test_invalid_arithmetic_is_parse_error(alg, text, col):
    with pytest.raises(ParseError) as info:
        parse_element(alg, text)
    assert info.value.col == col
