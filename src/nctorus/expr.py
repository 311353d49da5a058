"""Parsing and canonical rendering of torus algebra elements.

Grammar (whitespace between tokens is ignored)::

    expr    := ('-' | '+')? term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' signed-int)?
    atom    := rational | 'i' | 'q' '[' int ',' int ']' | 'U' int
             | 'adj' '(' expr ')' | '(' expr ')'
    rational := digits ('/' digits)?

In digits and int, a digit is ASCII 0-9: any other digit character,
such as an Arabic-Indic or fullwidth one, is an unexpected character.
Whitespace is ASCII too (space, tab, newline, carriage return, form
feed, vertical tab): U+3000, U+00A0 or U+001C is an unexpected character.
``adj`` is the star operation.  ``q[a,b]`` with a > b denotes the inverse
of the stored symbol q[b,a].  Rendering emits the canonical normal form
with terms sorted lexicographically by monomial exponent, then by the
phase key as a sorted list of ((a, b), e) pairs (so ``q[1,2]`` comes before
``q[1,3]^-1``), and ``parse_element(alg, render_element(x)) == x`` holds
exactly.  Terms come from ``AlgebraElement.written_terms``, already in
that order, with their factors written from the algebra's label table and
each coefficient as integer numerators over the element's denominator;
only the coefficient is formatted here, without building scalar objects.

The work of one parse is bounded by ``MAX_TERM_PAIRS``: every product
``x * y`` is charged len(x) * len(y) term pairs before it is computed,
and a power ``x^k`` of a sum of t >= 2 terms is charged up front with
the pairs square-and-multiply would form if x^j had t^j terms, an upper
bound.  Once the charges exceed the budget, parsing stops with a
ParseError at the operator.  Powers of single terms (``U1^-20000000``,
``q[1,2]^7``) cost one pair per step and are not charged.

Parentheses, including those of ``adj(...)``, nest at most ``MAX_DEPTH``
deep.  The parser recurses once per level, so the bound keeps a parse
far from the interpreter's recursion limit (about 250 levels at the
default limit of 1000 frames) and a deeper value is a ParseError at the
first parenthesis past the bound.  A zero denominator (``1/0``) and a
negative power of the zero element or of a sum are ParseErrors too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .algebra import AlgebraElement, TorusAlgebra
from .errors import NotMonomial, ParseError, ZeroElement

# Budget of multiplied term pairs per parsed value, see the module
# docstring.  A product of two 256-term sums uses all of it.
MAX_TERM_PAIRS = 1 << 16
# Deepest nesting of parentheses per parsed value, see the module docstring.
MAX_DEPTH = 64
# Terms of an element that an error message shows, see ``render_short``.
MAX_SHOWN_TERMS = 16

# Whitespace, between tokens here and around config keys and values in
# ``cli``: the ASCII set that \s matches under ``re.ASCII``.
_BLANKS = " \t\n\r\f\v"

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[%s]+)
  | (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<ugen>U[0-9]+)
  | (?P<name>[A-Za-z]+)
  | (?P<sym>[()\[\],+\-*^])
  | (?P<end>\Z)
    """
    % re.escape(_BLANKS),
    re.VERBOSE,
)


def _error(message, text, pos) -> ParseError:
    """A ParseError at the character offset ``pos`` of ``text``, with its
    1-based line and column."""
    return ParseError(
        message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    )


def _tokenize(text):
    """The tokens of ``text`` as regex matches ``m``, whitespace left out:
    a token's kind is ``m.lastgroup``, its text ``m[0]`` and its offset
    ``m.start()``.  The last token is the empty ``end`` match."""
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise _error("unexpected character %r" % text[pos], text, pos)
        if m.lastgroup != "ws":
            tokens.append(m)
            if m.lastgroup == "end":
                return tokens
        pos = m.end()


def _power_pairs(terms: int, k: int, limit: int) -> int:
    """Term pairs that x ** k forms by square-and-multiply, counting t^j
    terms for x^j when x has t terms; stops counting above ``limit``."""
    pairs, out, base = 0, 1, terms
    while k and pairs <= limit:
        if k & 1:
            pairs += out * base
            out *= base
        k >>= 1
        if k:
            pairs += base * base
            base *= base
    return pairs


class _Parser:
    def __init__(self, algebra: TorusAlgebra, text: str):
        self.algebra = algebra
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.budget = MAX_TERM_PAIRS
        self.depth = 0

    def peek(self) -> re.Match:
        return self.tokens[self.pos]

    def advance(self) -> re.Match:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok: re.Match) -> ParseError:
        """A ParseError at the token ``tok``."""
        return _error(message, self.text, tok.start())

    def fail(self, message):
        raise self.error(message, self.peek())

    def charge(self, pairs: int, tok: re.Match):
        """Spend ``pairs`` of the term-pair budget on the operator ``tok``."""
        self.budget -= pairs
        if self.budget < 0:
            raise self.error(
                "expression multiplies more than MAX_TERM_PAIRS = %d term pairs"
                % MAX_TERM_PAIRS,
                tok,
            )

    def expect(self, text):
        tok = self.peek()
        if tok.lastgroup == "sym" and tok[0] == text:
            return self.advance()
        self.fail("expected %r" % text)

    def parse(self) -> AlgebraElement:
        value = self.expr()
        if self.peek().lastgroup != "end":
            self.fail("unexpected trailing input")
        return value

    def expr(self) -> AlgebraElement:
        tok = self.peek()
        negate = False
        if tok.lastgroup == "sym" and tok[0] in "+-":
            self.advance()
            negate = tok[0] == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.lastgroup == "sym" and tok[0] in "+-":
                self.advance()
                if self.peek().lastgroup == "end":
                    self.fail("dangling operator %r" % tok[0])
                rhs = self.term()
                value = value + rhs if tok[0] == "+" else value - rhs
            else:
                return value

    def term(self) -> AlgebraElement:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.lastgroup == "sym" and tok[0] == "*":
                self.advance()
                rhs = self.factor()
                self.charge(len(value.terms) * len(rhs.terms), tok)
                value = value * rhs
            else:
                return value

    def factor(self) -> AlgebraElement:
        value = self.atom()
        tok = self.peek()
        if tok.lastgroup == "sym" and tok[0] == "^":
            self.advance()
            k = self.signed_int()
            if k > 0 and len(value.terms) > 1:
                self.charge(_power_pairs(len(value.terms), k, self.budget), tok)
            try:
                value = value ** k
            except (NotMonomial, ZeroElement) as exc:
                raise self.error(str(exc), tok) from None
        return value

    def signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.lastgroup == "sym" and tok[0] in "+-":
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        tok = self.peek()
        if tok.lastgroup != "number" or "/" in tok[0]:
            self.fail("expected an integer exponent")
        self.advance()
        return sign * int(tok[0])

    def integer(self) -> int:
        tok = self.peek()
        if tok.lastgroup != "number" or "/" in tok[0]:
            self.fail("expected an integer")
        self.advance()
        return int(tok[0])

    def nested(self, paren: re.Match) -> AlgebraElement:
        """The expression after the opening parenthesis ``paren``, and its ``)``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(
                "parentheses nest deeper than MAX_DEPTH = %d" % MAX_DEPTH, paren
            )
        inner = self.expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def atom(self) -> AlgebraElement:
        alg = self.algebra
        tok = self.peek()
        if tok.lastgroup == "number":
            self.advance()
            try:
                return alg.scalar(Fraction(tok[0]))
            except ZeroDivisionError:
                raise self.error("zero denominator", tok) from None
        if tok.lastgroup == "ugen":
            self.advance()
            j = int(tok[0][1:])
            if not 1 <= j <= alg.n:
                raise self.error(
                    "generator index %d out of range 1..%d" % (j, alg.n), tok
                )
            return alg.gen(j)
        if tok.lastgroup == "name":
            if tok[0] == "i":
                self.advance()
                return alg.i()
            if tok[0] == "q":
                self.advance()
                self.expect("[")
                a = self.integer()
                self.expect(",")
                b = self.integer()
                self.expect("]")
                if a == b or not (1 <= a <= alg.n and 1 <= b <= alg.n):
                    raise self.error("bad phase symbol q[%d,%d]" % (a, b), tok)
                return alg.q(a, b)
            if tok[0] == "adj":
                self.advance()
                return self.nested(self.expect("(")).star()
            self.fail("unknown name %r" % tok[0])
        if tok.lastgroup == "sym" and tok[0] == "(":
            return self.nested(self.advance())
        self.fail("expected an atom")


def parse_element(algebra: TorusAlgebra, text: str) -> AlgebraElement:
    """Parse ``text`` into an element over ``algebra``."""
    return _Parser(algebra, text).parse()


def _rational(num, den) -> str:
    """num / den in lowest terms, den > 0."""
    g = gcd(num, den)
    return "%d" % (num // g) if g == den else "%d/%d" % (num // g, den // g)


def _coefficient(re, im, den):
    """The sign and the factor text of the coefficient (re + i im) / den;
    the text is empty for a coefficient of magnitude one that is real."""
    if not im:
        text = "" if re == den or re == -den else _rational(abs(re), den)
        return "-" if re < 0 else "+", text
    sign = "-" if im < 0 else "+"
    text = "i" if im == den or im == -den else _rational(abs(im), den) + "*i"
    if not re:
        return sign, text
    return "+", "(%s%s%s)" % (_rational(re, den), sign, text)


def _joined(terms, den) -> str:
    """Terms of ``written_terms`` over the denominator ``den``, joined by
    spaces, the leading ``+ `` dropped."""
    out = []
    for factors, re, im in terms:
        sign, text = _coefficient(re, im, den)
        if text:
            factors.insert(0, text)
        out.append("%s %s" % (sign, "*".join(factors) or "1"))
    text = " ".join(out)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def render_element(x: AlgebraElement) -> str:
    """Render ``x`` in canonical normal form; inverse of ``parse_element``."""
    if not x.terms:
        return "0"
    return _joined(x.written_terms(), x.den)


def render_short(x: AlgebraElement) -> str:
    """``render_element(x)`` cut after MAX_SHOWN_TERMS terms, for error messages."""
    if len(x.terms) <= MAX_SHOWN_TERMS:
        return render_element(x)
    terms = x.written_terms()
    return "%s + ... (%d terms)" % (_joined(terms[:MAX_SHOWN_TERMS], x.den), len(terms))
