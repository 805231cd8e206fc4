"""Recursive-descent parser for equations and characteristics.

Grammar (whitespace ignored):

    equation  :=  "u_t" "=" expr
    expr      :=  term (("+" | "-") term)*
    term      :=  factor ("*" factor)*
    factor    :=  ("+" | "-") factor | power
    power     :=  atom ("^" integer)?
    atom      :=  rational | coordinate | "exp" "(" expr ")" | "(" expr ")"
    coordinate:=  "u" | "u_1" ... "u_9" | "y" | "t"
    rational  :=  digits ("/" digits)?

The argument of ``exp`` must simplify to a rational multiple of a single
0-jet coordinate (t, y or u); zero gives exp(0) = 1.  Equation
right-hand sides additionally may not contain y, t or exponentials; that
restriction is reported as a scope error, not a syntax error.

A power ``b^k`` of an n-term base is ``ExpPolyExpr.__pow__``, expanded
in ``expr`` in one pass over the at most C(n+k-1, k) multisets of k base
terms.  The parser keeps three caps, which refuse with a scope error
before any expansion: an exponent above MAX_EXPONENT, a power whose
expansion could exceed MAX_POWER_TERMS terms, and a product of an m-term
and an n-term factor with m*n above that cap.

Numerals and coefficients are capped too, with a scope error: a numeral
of more than MAX_NUMERAL_DIGITS digits is refused by its text, before it
is converted, and an expanded power or parsed expression with a
coefficient or exponential weight whose numerator or denominator has more
than MAX_COEFFICIENT_BITS bits is refused before it is rendered; so is the
base of a power, before it is expanded.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .engine import EvolutionEquation
from .errors import ParseError, ScopeError
from .expr import ExpPolyExpr, T, coord_by_name

_OPS = "+-*^()="
# ASCII only: str.isdigit() and int() also take superscript and Arabic-Indic digits
_DIGITS = "0123456789"
_NAME_START = "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_NAME_CHARS = _NAME_START + _DIGITS

MAX_EXPONENT = 64
MAX_POWER_TERMS = 5000
# Python converts at most 4300 digits between int and str by default, so a
# longer numeral could not be read and a larger coefficient not rendered.
# The bit cap is that of the largest admitted numeral; such an
# integer is below 2^13288 < 10^4001, so every admitted coefficient renders.
MAX_NUMERAL_DIGITS = 4000
MAX_COEFFICIENT_BITS = 13288  # (10**MAX_NUMERAL_DIGITS - 1).bit_length()


def _numeral(text: str, start: int, end: int) -> int:
    """The digits ``text[start:end]`` as an int, refused above MAX_NUMERAL_DIGITS."""
    if end - start > MAX_NUMERAL_DIGITS:
        raise ScopeError(
            f"a {end - start}-digit numeral at position {start} is above the cap "
            f"of {MAX_NUMERAL_DIGITS} digits"
        )
    return int(text[start:end])


def _checked_coefficients(e: ExpPolyExpr) -> ExpPolyExpr:
    """``e``, refused if a coefficient or exponential weight of it has a
    numerator or denominator of more than MAX_COEFFICIENT_BITS bits."""
    cap = MAX_COEFFICIENT_BITS
    for m in e.terms:
        if m.coeff.numerator.bit_length() > cap or m.coeff.denominator.bit_length() > cap:
            _refuse_rational(m.coeff)
        for _, w in m.expvec:
            if w.numerator.bit_length() > cap or w.denominator.bit_length() > cap:
                _refuse_rational(w)
    return e


def _refuse_rational(x: Fraction):
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    raise ScopeError(
        f"a coefficient or exponential weight with a {bits}-bit numerator "
        f"or denominator is above the cap of {MAX_COEFFICIENT_BITS} bits"
    )


def _tokens(text: str) -> list:
    """``(kind, value, position)`` triples of ``text``, ending with an ``end`` token."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            num = _numeral(text, i, j)
            den = 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1] in _DIGITS:
                k = j + 1
                while k < n and text[k] in _DIGITS:
                    k += 1
                den = _numeral(text, j + 1, k)
                if den == 0:
                    raise ParseError("zero denominator", position=j + 1)
                j = k
            tokens.append(("num", Fraction(num, den), i))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i, expected=("token",))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.pos = _tokens(text), 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        raise ParseError(f"expected {op!r}", position=at, expected=(op,))

    # expr := term (("+"|"-") term)*
    def expr(self) -> ExpPolyExpr:
        first, terms = self.term(), []
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            sign = self.advance()[1]
            rhs = self.term()
            terms.extend((rhs if sign == "+" else -rhs).terms)
        # a single term is canonical already, so only a sum is merged
        return ExpPolyExpr(first.terms + tuple(terms)) if terms else first

    # term := factor ("*" factor)*
    def term(self) -> ExpPolyExpr:
        out = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            rhs = self.factor()
            m, n = len(out.terms), len(rhs.terms)
            if m * n > MAX_POWER_TERMS:
                raise ScopeError(
                    f"a product of factors of {m} and {n} terms may expand to "
                    f"{m * n} terms, above the cap of {MAX_POWER_TERMS}"
                )
            out = out * rhs
        return out

    # factor := ("+"|"-") factor | power
    def factor(self) -> ExpPolyExpr:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.factor()
            return inner if value == "+" else -inner
        return self.power()

    # power := atom ("^" integer)?
    def power(self) -> ExpPolyExpr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            k2, v2, at2 = self.peek()
            if k2 != "num" or v2.denominator != 1 or v2 < 0:
                raise ParseError(
                    "exponent must be a non-negative integer",
                    position=at2,
                    expected=("integer",),
                )
            self.advance()
            k, n = int(v2), len(base.terms)
            if k > MAX_EXPONENT:
                raise ScopeError(f"exponent {k} exceeds the cap of {MAX_EXPONENT}")
            bound = comb(n + k - 1, k) if n else 0
            if bound > MAX_POWER_TERMS:
                raise ScopeError(
                    f"a {n}-term base to the power {k} may expand to {bound} terms, "
                    f"above the cap of {MAX_POWER_TERMS}"
                )
            return _checked_coefficients(_checked_coefficients(base) ** k)
        return base

    # atom := rational | coordinate | "exp" "(" expr ")" | "(" expr ")"
    def atom(self) -> ExpPolyExpr:
        kind, value, at = self.peek()
        if kind == "num":
            self.advance()
            return ExpPolyExpr.constant(value)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            if value == "exp":
                self.advance()
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return self._exp_factor(inner, at)
            # u_10, u_11, ...: names are ASCII, so isdigit() reads only 0-9
            order = value[2:] if value.startswith("u_") else ""
            if len(order) > 1 and order.isdigit() and order[0] != "0":
                raise ParseError(
                    f"jet order out of range in {value!r}",
                    position=at,
                    expected=("u_1 .. u_9",),
                )
            coord = coord_by_name(value)
            if coord is not None:
                self.advance()
                return ExpPolyExpr.coordinate(coord)
            raise ParseError(
                f"unknown name {value!r}",
                position=at,
                expected=("u", "u_1..u_9", "y", "t", "exp", "number"),
            )
        raise ParseError(
            "expected a number, coordinate, 'exp(', or '('",
            position=at,
            expected=("number", "coordinate", "exp(", "("),
        )

    def _exp_factor(self, inner: ExpPolyExpr, at: int) -> ExpPolyExpr:
        if inner.is_zero():
            return ExpPolyExpr.one()
        if len(inner.terms) == 1:
            m = inner.terms[0]
            if not m.expvec and len(m.powers) == 1 and m.powers[0][1] == 1:
                coord = m.powers[0][0]
                if coord.is_zero_jet:
                    return ExpPolyExpr.exponential(coord, m.coeff)
        raise ParseError(
            "exp argument must be a rational multiple of t, y or u",
            position=at,
            expected=("w*y",),
        )

    def finish(self):
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(
                f"unexpected trailing input {value!r}", position=at, expected=("end",)
            )


def parse_expression(text: str) -> ExpPolyExpr:
    """Parse a general characteristic expression."""
    p = _Parser(text)
    out = p.expr()
    p.finish()
    return _checked_coefficients(out)


def parse_characteristic(text: str) -> ExpPolyExpr:
    """Parse a candidate characteristic (no t dependence allowed)."""
    e = parse_expression(text)
    if e.depends_on(T):
        raise ScopeError("characteristics may not depend on t")
    return e


def parse_equation(text: str) -> EvolutionEquation:
    """Parse ``u_t = <expr>`` and validate the evolution-equation scope."""
    p = _Parser(text)
    kind, value, at = p.peek()
    if kind != "name" or value != "u_t":
        raise ParseError("equation must start with 'u_t'", position=at, expected=("u_t",))
    p.advance()
    p.expect_op("=")
    rhs = _checked_coefficients(p.expr())
    p.finish()
    return EvolutionEquation(rhs)
