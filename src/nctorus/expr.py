"""Parsing and canonical rendering of torus algebra elements.

Grammar (whitespace between tokens is ignored)::

    expr    := ('-' | '+')? term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' signed-int)?
    atom    := rational | 'i' | 'q' '[' int ',' int ']' | 'U' int
             | 'adj' '(' expr ')' | '(' expr ')'
    rational := digits ('/' digits)?

``adj`` is the star operation.  ``q[a,b]`` with a > b denotes the inverse
of the stored symbol q[b,a].  Rendering emits the canonical normal form
with terms sorted lexicographically by monomial exponent, then by the
phase key as a sorted list of ((a, b), e) pairs (so ``q[1,2]`` comes before
``q[1,3]^-1``), and ``parse_element(alg, render_element(x)) == x`` holds
exactly.  Terms come from ``AlgebraElement.canonical_terms``, which
yields each coefficient as reduced integer numerators and denominators;
they are formatted directly, without building scalar objects.

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

from .algebra import AlgebraElement, TorusAlgebra
from .errors import NotMonomial, ParseError, ZeroElement

# Budget of multiplied term pairs per parsed value, see the module
# docstring.  A product of two 256-term sums uses all of it.
MAX_TERM_PAIRS = 1 << 16
# Deepest nesting of parentheses per parsed value, see the module docstring.
MAX_DEPTH = 64
# Terms of an element that an error message shows, see ``render_short``.
MAX_SHOWN_TERMS = 16

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ugen>U\d+)
  | (?P<name>[A-Za-z]+)
  | (?P<sym>[()\[\],+\-*^])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "_Token(%r, %r)" % (self.kind, self.text)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


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
        self.tokens = _tokenize(text)
        self.pos = 0
        self.budget = MAX_TERM_PAIRS
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def charge(self, pairs: int, tok: _Token):
        """Spend ``pairs`` of the term-pair budget on the operator ``tok``."""
        self.budget -= pairs
        if self.budget < 0:
            raise ParseError(
                "expression multiplies more than MAX_TERM_PAIRS = %d term pairs"
                % MAX_TERM_PAIRS,
                tok.line,
                tok.col,
            )

    def expect(self, text):
        tok = self.peek()
        if tok.kind == "sym" and tok.text == text:
            return self.advance()
        self.fail("expected %r" % text)

    def parse(self) -> AlgebraElement:
        value = self.expr()
        if self.peek().kind != "end":
            self.fail("unexpected trailing input")
        return value

    def expr(self) -> AlgebraElement:
        tok = self.peek()
        negate = False
        if tok.kind == "sym" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.advance()
                if self.peek().kind == "end":
                    self.fail("dangling operator %r" % tok.text)
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> AlgebraElement:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "*":
                self.advance()
                rhs = self.factor()
                self.charge(len(value.terms) * len(rhs.terms), tok)
                value = value * rhs
            else:
                return value

    def factor(self) -> AlgebraElement:
        value = self.atom()
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "^":
            self.advance()
            k = self.signed_int()
            if k > 0 and len(value.terms) > 1:
                self.charge(_power_pairs(len(value.terms), k, self.budget), tok)
            try:
                value = value ** k
            except (NotMonomial, ZeroElement) as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        return value

    def signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "sym" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        tok = self.peek()
        if tok.kind != "number" or "/" in tok.text:
            self.fail("expected an integer exponent")
        self.advance()
        return sign * int(tok.text)

    def integer(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or "/" in tok.text:
            self.fail("expected an integer")
        self.advance()
        return int(tok.text)

    def nested(self, paren: _Token) -> AlgebraElement:
        """The expression after the opening parenthesis ``paren``, and its ``)``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                "parentheses nest deeper than MAX_DEPTH = %d" % MAX_DEPTH,
                paren.line,
                paren.col,
            )
        inner = self.expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def atom(self) -> AlgebraElement:
        alg = self.algebra
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                return alg.scalar(Fraction(tok.text))
            except ZeroDivisionError:
                raise ParseError("zero denominator", tok.line, tok.col) from None
        if tok.kind == "ugen":
            self.advance()
            j = int(tok.text[1:])
            if not 1 <= j <= alg.n:
                raise ParseError(
                    "generator index %d out of range 1..%d" % (j, alg.n),
                    tok.line,
                    tok.col,
                )
            return alg.gen(j)
        if tok.kind == "name":
            if tok.text == "i":
                self.advance()
                return alg.i()
            if tok.text == "q":
                self.advance()
                self.expect("[")
                a = self.integer()
                self.expect(",")
                b = self.integer()
                self.expect("]")
                if a == b or not (1 <= a <= alg.n and 1 <= b <= alg.n):
                    raise ParseError(
                        "bad phase symbol q[%d,%d]" % (a, b), tok.line, tok.col
                    )
                return alg.q(a, b)
            if tok.text == "adj":
                self.advance()
                return self.nested(self.expect("(")).star()
            self.fail("unknown name %r" % tok.text)
        if tok.kind == "sym" and tok.text == "(":
            return self.nested(self.advance())
        self.fail("expected an atom")


def parse_element(algebra: TorusAlgebra, text: str) -> AlgebraElement:
    """Parse ``text`` into an element over ``algebra``."""
    return _Parser(algebra, text).parse()


def _rational(part) -> str:
    num, den = part
    return "%d" % num if den == 1 else "%d/%d" % (num, den)


def _imaginary(num, den) -> str:
    """The magnitude of an imaginary part, num > 0: i or num/den*i."""
    return "i" if num == den == 1 else "%s*i" % _rational((num, den))


def _coeff_parts(re, im):
    """Split a coefficient into (sign, factor string); empty string means 1.

    ``re`` and ``im`` are (numerator, denominator) pairs in lowest terms.
    """
    if im[0] == 0:
        sign = "-" if re[0] < 0 else "+"
        mag = (abs(re[0]), re[1])
        return sign, "" if mag == (1, 1) else _rational(mag)
    im_sign = "-" if im[0] < 0 else "+"
    im_str = _imaginary(abs(im[0]), im[1])
    if re[0] == 0:
        return im_sign, im_str
    return "+", "(%s%s%s)" % (_rational(re), im_sign, im_str)


def _term_string(uexp, qkey, re, im):
    factors = []
    for (a, b), e in qkey:
        factors.append("q[%d,%d]" % (a, b) + ("^%d" % e if e != 1 else ""))
    for pos, k in enumerate(uexp):
        if k:
            factors.append("U%d" % (pos + 1) + ("^%d" % k if k != 1 else ""))
    sign, coeff_str = _coeff_parts(re, im)
    if coeff_str:
        factors.insert(0, coeff_str)
    if not factors:
        factors = ["1"]
    return sign, "*".join(factors)


def _joined(terms) -> str:
    """The signed terms joined by spaces, the leading ``+ `` dropped."""
    text = " ".join("%s %s" % _term_string(*term) for term in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def render_element(x: AlgebraElement) -> str:
    """Render ``x`` in canonical normal form; inverse of ``parse_element``."""
    return _joined(x.canonical_terms())


def render_short(x: AlgebraElement) -> str:
    """``render_element(x)`` cut after MAX_SHOWN_TERMS terms, for error messages."""
    if len(x.terms) <= MAX_SHOWN_TERMS:
        return render_element(x)
    terms = x.canonical_terms()
    return "%s + ... (%d terms)" % (_joined(terms[:MAX_SHOWN_TERMS]), len(terms))
