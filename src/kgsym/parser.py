"""Recursive-descent parsers for operator and jet-polynomial expressions.

Two separate grammars share one skeleton. In operator expressions `*` means
composition (noncommutative) and the atoms are Dx, Dy, J, rationals and the
multiplication variables x, y. In jet expressions `*` is the commutative
product and the atoms are u[k], f[k] (integer k), x, y and rationals.
Printing either kind of value yields text that parses back to an equal value.

Every atom but J is one monomial c * x^i * y^j * key, where key is the
derivative orders (p, q) of Dx^p Dy^q or the sorted jet variables. A product
or power of monomials that is again a monomial is folded into one while
parsing: in the jet grammar always (a power up to MAX_EXPONENT jet
variables), and in the operator grammar when no derivative stands left of
an x or y. Only a sum, J, or a product or power the fold cannot express
lifts its operands into a TDOperator or ReducedJetPoly and uses their ring
operations, so `Dx*x` still composes to `x*Dx + 1`.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .arith import XYPoly, as_rational, from_terms
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

# Largest exponent accepted after ^. A power of a monomial only multiplies
# its exponents, but any other power is computed by repeated multiplication,
# so this bounds the number of products one ^ can ask for.
MAX_EXPONENT = 1000

# Largest |k| accepted in a jet variable u[k] or f[k]. Total derivatives and
# the prolonged action shift an index one step at a time, so their work
# grows with |k|.
MAX_JET_INDEX = 1000

# Most digits accepted in one integer: the interpreter's default limit on
# converting between int and text, so every coefficient the printers can
# write parses back. _int, the one place where an INT token becomes an int,
# also applies a lower limit set by the user (PYTHONINTMAXSTRDIGITS), so
# int() never raises its own error, which would name no input position.
MAX_DIGITS = 4300


def _int(tok) -> int:
    bound = min(MAX_DIGITS, sys.get_int_max_str_digits() or MAX_DIGITS)
    if len(tok[1]) > bound:
        raise ParseError(f"integer of {len(tok[1])} digits exceeds the bound "
                         f"{bound}", tok[2])
    return int(tok[1])


def _tokenize(text: str):
    """The tokens of text. An INT is a run of ASCII digits 0-9; any other
    digit character, such as a superscript, is an unexpected character."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(("INT", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalpha() or "0" <= text[i] <= "9"):
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


class _Term:
    """The monomial c * x^i * y^j * key: c a rational in normal form, key
    the grammar's monomial key."""

    __slots__ = ("c", "i", "j", "key")

    def __init__(self, c, i, j, key):
        self.c, self.i, self.j, self.key = c, i, j, key

    def __neg__(self):
        return _Term(-self.c, self.i, self.j, self.key)


class _Parser:
    """Shared expression skeleton; subclasses provide the atoms, the value
    type, and when a product of two _Terms or a power of one is a _Term.

    The methods under parse return a _Term while the fold holds and a value
    of value_type otherwise; lift turns a _Term into that value."""

    value_type = None

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

    def lift(self, value):
        """value as the value type: one from_terms for a _Term."""
        if type(value) is not _Term:
            return value
        terms = ({value.key: from_terms(XYPoly, {(value.i, value.j): value.c})}
                 if value.c else {})
        return from_terms(self.value_type, terms)

    def parse(self):
        value = self.expression()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return self.lift(value)

    def expression(self):
        value = self.factor()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            left, right = self.lift(value), self.lift(self.factor())
            value = left + right if op == "+" else left - right
        return value

    def factor(self):
        value = self.unary()
        while self.peek()[0] == "*":
            self.advance()
            right = self.unary()
            key = (self.product_key(value, right)
                   if type(value) is _Term and type(right) is _Term else None)
            if key is None:
                value = self.lift(value) * self.lift(right)
            else:
                value = _Term(as_rational(value.c * right.c),
                              value.i + right.i, value.j + right.j, key)
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
            e = _int(tok)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the bound "
                                 f"{MAX_EXPONENT}", tok[2])
            key = self.power_key(value, e) if type(value) is _Term else None
            if key is None:
                value = self.lift(value) ** e
            else:
                value = _Term(as_rational(value.c ** e), value.i * e,
                              value.j * e, key)
        return value

    def rational(self, first):
        """The integer first, or first/den when a / follows: an int when
        the value is integral, else a Fraction."""
        value = _int(first)
        if self.peek()[0] == "/":
            self.advance()
            tok = self.expect("INT")
            den = _int(tok)
            if den == 0:
                raise ParseError("zero denominator", tok[2])
            value = as_rational(Fraction(value, den))
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

    def product_key(self, a: _Term, b: _Term):
        """The key of the monomial a * b, or None when a * b is none."""
        raise NotImplementedError

    def power_key(self, a: _Term, e: int):
        """The key of the monomial a ** e, or None when a ** e is none."""
        raise NotImplementedError


class _OperatorParser(_Parser):
    value_type = TDOperator

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "INT":
            return _Term(self.rational(tok), 0, 0, (0, 0))
        if kind == "NAME":
            if value == "Dx":
                return _Term(1, 0, 0, (1, 0))
            if value == "Dy":
                return _Term(1, 0, 0, (0, 1))
            if value == "J":
                return TDOperator.j()
            if value == "x":
                return _Term(1, 1, 0, (0, 0))
            if value == "y":
                return _Term(1, 0, 1, (0, 0))
            raise ParseError(f"unknown operator atom {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)

    # x and y commute with each other and Dx with Dy, so a * b is the
    # monomial with added exponents unless a has a derivative and b an x or
    # y: then Leibniz adds lower-order terms (Dx*x = x*Dx + 1).

    def product_key(self, a, b):
        if a.key == (0, 0) or b.i == b.j == 0:
            return (a.key[0] + b.key[0], a.key[1] + b.key[1])
        return None

    def power_key(self, a, e):
        if a.key == (0, 0) or a.i == a.j == 0:
            return (a.key[0] * e, a.key[1] * e)
        return None


class _JetParser(_Parser):
    value_type = ReducedJetPoly

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "INT":
            return _Term(self.rational(tok), 0, 0, ())
        if kind == "NAME":
            if value == "x":
                return _Term(1, 1, 0, ())
            if value == "y":
                return _Term(1, 0, 1, ())
            if value in ("u", "f"):
                self.expect("[")
                sign = 1
                if self.peek()[0] == "-":
                    self.advance()
                    sign = -1
                tok = self.expect("INT")
                index = sign * _int(tok)
                self.expect("]")
                if abs(index) > MAX_JET_INDEX:
                    raise ParseError(f"jet index {index} exceeds the bound "
                                     f"|k| <= {MAX_JET_INDEX}", tok[2])
                return _Term(1, 0, 0, ((value, index),))
            raise ParseError(f"unknown jet atom {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)

    # The product is commutative, so every product and power of monomials
    # is a monomial. A monomial repeats each variable by its exponent, so a
    # folded power holds at most MAX_EXPONENT variables: a nested power such
    # as ((u[0]^1000)^1000)^1000 would otherwise allocate 10^9 of them in
    # one step, where the ring power builds them one product at a time.

    def product_key(self, a, b):
        return tuple(sorted(a.key + b.key))

    def power_key(self, a, e):
        if len(a.key) * e <= MAX_EXPONENT:
            return tuple(sorted(a.key * e))
        return None


def parse_operator(text: str) -> TDOperator:
    """Parse an operator expression into its normal-ordered form."""
    return _OperatorParser(text).parse()


def parse_jet(text: str) -> ReducedJetPoly:
    """Parse a jet-polynomial expression into canonical form."""
    return _JetParser(text).parse()
