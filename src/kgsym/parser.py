"""Recursive-descent parsers for operator and jet-polynomial expressions.

Two separate grammars share one skeleton. In operator expressions `*` means
composition (noncommutative) and the atoms are Dx, Dy, J, rationals and the
multiplication variables x, y. In jet expressions `*` is the commutative
product and the atoms are u[k], f[k] (integer k), x, y and rationals.
Printing either kind of value yields text that parses back to an equal value.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import XYPoly
from .jet import ReducedJetPoly
from .opalg import TDOperator


class ParseError(ValueError):
    """Syntax error carrying the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = "+-*^()[]/"

# Deepest parenthesis nesting accepted. Each level costs a few stack frames
# of the recursive descent, so this keeps parsing far below Python's
# recursion limit; deeper input is a ParseError.
MAX_NESTING = 100

# Largest exponent accepted after ^. A power is computed by repeated
# multiplication, so this bounds the number of products one ^ can ask for.
MAX_EXPONENT = 1000


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(("INT", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalnum():
                i += 1
            tokens.append(("NAME", text[start:i], start))
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Shared expression skeleton; subclasses provide the atoms."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        value = self.expression()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def expression(self):
        value = self.factor()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.factor()
            value = value + right if op == "+" else value - right
        return value

    def factor(self):
        value = self.unary()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.unary()
        return value

    def unary(self):
        negative = False
        while self.peek()[0] in ("+", "-"):
            negative ^= self.advance()[0] == "-"
        value = self.power()
        return -value if negative else value

    def power(self):
        value = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] == "-":
                raise ParseError("negative exponents are not allowed", tok[2])
            tok = self.expect("INT")
            exponent = int(tok[1])
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the bound "
                                 f"{MAX_EXPONENT}", tok[2])
            value = value ** exponent
        return value

    def rational(self, first) -> Fraction:
        value = Fraction(int(first[1]))
        if self.peek()[0] == "/":
            self.advance()
            den = self.expect("INT")
            if int(den[1]) == 0:
                raise ParseError("zero denominator", den[2])
            value = Fraction(value, int(den[1]))
        return value

    def primary(self):
        """A parenthesized expression, or else an atom."""
        tok = self.peek()
        if tok[0] != "(":
            return self.atom()
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                             tok[2])
        self.advance()
        self.depth += 1
        inner = self.expression()
        self.depth -= 1
        self.expect(")")
        return inner

    def atom(self):
        raise NotImplementedError


class _OperatorParser(_Parser):
    def atom(self) -> TDOperator:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "INT":
            return TDOperator.mul_by(self.rational(tok))
        if kind == "NAME":
            if value == "Dx":
                return TDOperator.dx()
            if value == "Dy":
                return TDOperator.dy()
            if value == "J":
                return TDOperator.j()
            if value in ("x", "y"):
                return TDOperator.mul_by(XYPoly.variable(value))
            raise ParseError(f"unknown operator atom {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


class _JetParser(_Parser):
    def atom(self) -> ReducedJetPoly:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "INT":
            return ReducedJetPoly.from_poly(self.rational(tok))
        if kind == "NAME":
            if value in ("x", "y"):
                return ReducedJetPoly.from_poly(XYPoly.variable(value))
            if value in ("u", "f"):
                self.expect("[")
                sign = 1
                if self.peek()[0] == "-":
                    self.advance()
                    sign = -1
                index = self.expect("INT")
                self.expect("]")
                return ReducedJetPoly.var(value, sign * int(index[1]))
            raise ParseError(f"unknown jet atom {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_operator(text: str) -> TDOperator:
    """Parse an operator expression into its normal-ordered form."""
    return _OperatorParser(text).parse()


def parse_jet(text: str) -> ReducedJetPoly:
    """Parse a jet-polynomial expression into canonical form."""
    return _JetParser(text).parse()
