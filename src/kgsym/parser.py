"""Recursive-descent parsers for operator and jet-polynomial expressions.

Two separate grammars share one skeleton. In operator expressions `*` means
composition (noncommutative) and the atoms are Dx, Dy, J, rationals and the
multiplication variables x, y. In jet expressions `*` is the commutative
product and the atoms are u[k], f[k] (integer k), x, y and rationals.
Printing either kind of value yields text that parses back to an equal value.

While parsing, a value is a flat term map {(key, i, j): c}, the sum of the
monomials c * x^i * y^j * key, where key is the derivative orders (p, q) of
Dx^p Dy^q or the sorted jet variables; J is the flat map of TDOperator.j(),
x*Dx - y*Dy. + and - add into the map, and a product of two maps is their
distributed product. Operator monomials multiply by opalg.monomial_product,
the package's one Leibniz rule, in closed form (Dx*x = x*Dx + 1), and jet
monomials by jet.monomial_product. A power of one monomial multiplies its
exponents, unless it mixes derivatives with x or y or holds more than
MAX_EXPONENT jet variables; any other power, such as (x + y)^2, is that
many products. Products, and the size of the coefficients they multiply
out, are charged to one work budget per parse, MAX_WORK; a bound on the
Leibniz factors of a product is charged before they are built. The map
becomes a value once, at the end, so no parse makes a ring operation.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import jet, opalg
from .arith import accumulate, as_rational, flat, grouped, neg_terms
from .jet import FIELDS, ReducedJetPoly
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

# Most work one parse may spend on products, in monomial steps (see the
# grammars' cost). A power that does not fold is that many products, so
# J^1000 or (u[0]^1000)^1000 is a ParseError within a second, while J^40 and
# every printed value parse well within the bound.
MAX_WORK = 300_000

# Every coefficient a product or power multiplies out costs one monomial
# step per BITS_PER_STEP bits of it, so huge integers such as
# ((99^1000)^1000)^1000 also pass MAX_WORK instead of running for minutes.
BITS_PER_STEP = 16

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
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        elif "0" <= ch <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(("INT", text[start:i], start))
        elif ch == " ":
            i += 1
        elif ch.isalpha():
            start = i
            while i < n and (text[i].isalpha() or "0" <= text[i] <= "9"):
                i += 1
            tokens.append(("NAME", text[start:i], start))
        elif ch.isspace():
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def _found(tok) -> str:
    """How an error message names the token tok."""
    return "end of input" if tok[0] == "END" else repr(tok[1])


class _Parser:
    """Shared expression skeleton. The methods under parse return a term
    map whose coefficients are nonzero rationals in normal form; parse turns
    the last one into a value of value_type with arith.grouped.

    A subclass provides value_type; grammar, its name in error messages;
    one, the key of the monomial 1; named_atom(name), the map of a name
    other than x and y, or None; cost(a, b), the work in monomial steps of
    the product of the maps a and b; and for monomials m = (key, i, j),
    monomial_product(m1, m2), the (monomial, int factor) pairs that sum to
    m1 * m2 (by opalg's or jet's monomial_product), and
    monomial_power(m, e), the monomial m^e or else None."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.work = 0

    def expect(self, kind: str):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_found(tok)}", tok[2])
        return tok

    def charge(self, steps, tok):
        """Add steps to the work; ParseError at tok once it passes MAX_WORK."""
        self.work += steps
        if self.work > MAX_WORK:
            raise ParseError(f"products exceed the bound of {MAX_WORK} "
                             "monomial steps", tok[2])

    def charged(self, c, tok, times=1):
        """The rational c, once times its bits are charged to the work."""
        bits = (c.bit_length() if type(c) is int else
                c.numerator.bit_length() + c.denominator.bit_length())
        self.charge(times * bits // BITS_PER_STEP, tok)
        return c

    def parse(self):
        terms = self.expression()
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return grouped(self.value_type, terms)

    def expression(self):
        terms = self.factor()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) in ("+", "-"):
            self.pos += 1
            right = self.factor()
            accumulate(terms, (right if op == "+" else
                               neg_terms(right)).items())
        return terms

    def factor(self):
        terms = self.unary()
        tokens = self.tokens
        while (tok := tokens[self.pos])[0] == "*":
            self.pos += 1
            terms = self.product(terms, self.unary(), tok)
        return terms

    def unary(self):
        tokens = self.tokens
        negative = False
        while (op := tokens[self.pos][0]) in ("+", "-"):
            self.pos += 1
            negative ^= op == "-"
        terms = self.power()
        return neg_terms(terms) if negative else terms

    def power(self):
        terms = self.primary()
        tokens = self.tokens
        if (caret := tokens[self.pos])[0] == "^":
            self.pos += 1
            tok = tokens[self.pos]
            if tok[0] == "-":
                raise ParseError("negative exponents are not allowed", tok[2])
            tok = self.expect("INT")
            e = _int(tok)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the bound "
                                 f"{MAX_EXPONENT}", tok[2])
            if len(terms) == 1:
                (m, c), = terms.items()
                m = self.monomial_power(m, e)
                if m is not None:
                    if c != 1 and c != -1:
                        self.charged(c, caret, e)
                    return {m: as_rational(c ** e)}
            base, terms = terms, {(self.one, 0, 0): 1}
            for _ in range(e):
                terms = self.product(terms, base, caret)
        return terms

    def product(self, a, b, tok):
        """The term map of a * b for the * or ^ token tok. cost(a, b) is
        charged first, then every coefficient made by a multiplication; a
        coefficient or factor 1 multiplies nothing."""
        self.charge(self.cost(a, b), tok)
        pairs = []
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                c = (c2 if c1 == 1 else c1 if c2 == 1
                     else self.charged(c1 * c2, tok))
                for m, f in self.monomial_product(m1, m2):
                    pairs.append((m, c if f == 1 else self.charged(c * f, tok)))
        return accumulate({}, pairs)

    def rational(self, first):
        """The integer first, or first/den when a / follows: an int when
        the value is integral, else a Fraction."""
        value = _int(first)
        if self.tokens[self.pos][0] == "/":
            self.pos += 1
            tok = self.expect("INT")
            den = _int(tok)
            if den == 0:
                raise ParseError("zero denominator", tok[2])
            value = as_rational(Fraction(value, den))
        return value

    def primary(self):
        """A parenthesized expression, or else an atom."""
        tok = self.tokens[self.pos]
        if tok[0] != "(":
            return self.atom()
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                             tok[2])
        self.pos += 1
        self.depth += 1
        inner = self.expression()
        self.depth -= 1
        self.expect(")")
        return inner

    def atom(self):
        """A rational, x, y or one of the grammar's own names."""
        kind, value, pos = tok = self.tokens[self.pos]
        self.pos += 1
        if kind == "INT":
            c = self.rational(tok)
            return {(self.one, 0, 0): c} if c else {}
        if kind != "NAME":
            raise ParseError(f"unexpected {_found(tok)}", pos)
        if value == "x":
            return {(self.one, 1, 0): 1}
        if value == "y":
            return {(self.one, 0, 1): 1}
        terms = self.named_atom(value)
        if terms is None:
            raise ParseError(f"unknown {self.grammar} atom {value!r}", pos)
        return terms


class _OperatorParser(_Parser):
    value_type, grammar, one = TDOperator, "operator", (0, 0)

    def named_atom(self, name):
        if name == "Dx":
            return {((1, 0), 0, 0): 1}
        if name == "Dy":
            return {((0, 1), 0, 0): 1}
        if name == "J":
            return flat(TDOperator.j())
        return None

    def cost(self, a, b):
        """One step per pair of monomials, and one more per extra term the
        Leibniz rule makes where a derivative on the left meets an x or y
        on the right. The int factors of those terms are charged too, before
        they are built: the m-th factor in x of Dx^p o x^i is at most
        (p*i)^m, so the m + 1 of them hold at most m(m + 1)/2 * bits(p*i)
        bits, and each one multiplies every factor in y."""
        steps = len(a) * len(b)
        for (p, q), _, _ in a:
            if p or q:
                for _, i, j in b:
                    m, n = min(p, i), min(q, j)
                    bits = ((n + 1) * m * (m + 1) * (p * i).bit_length()
                            + (m + 1) * n * (n + 1) * (q * j).bit_length())
                    steps += (m + 1) * (n + 1) - 1 + bits // 2 // BITS_PER_STEP
        return steps

    monomial_product = staticmethod(opalg.monomial_product)

    def monomial_power(self, m, e):
        (p, q), i, j = m
        if (p or q) and (i or j):
            return None
        return (p * e, q * e), i * e, j * e


class _JetParser(_Parser):
    value_type, grammar, one = ReducedJetPoly, "jet", ()

    def named_atom(self, name):
        if name not in FIELDS:
            return None
        self.expect("[")
        sign = 1
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            sign = -1
        tok = self.expect("INT")
        index = sign * _int(tok)
        self.expect("]")
        if abs(index) > MAX_JET_INDEX:
            raise ParseError(f"jet index {index} exceeds the bound "
                             f"|k| <= {MAX_JET_INDEX}", tok[2])
        return {(((name, index),), 0, 0): 1}

    # Every power of a monomial folds but one of more than MAX_EXPONENT jet
    # variables: ((u[0]^1000)^1000)^1000 would allocate 10^9 of them in one
    # step, where products build them one at a time and MAX_WORK stops them.

    def cost(self, a, b):
        """One step per pair of monomials and per jet variable of a pair."""
        steps = 0
        for key, _, _ in a:
            steps += len(b) * (1 + len(key))
        for key, _, _ in b:
            steps += len(a) * len(key)
        return steps

    def monomial_product(self, m1, m2):
        return (((jet.monomial_product(m1[0], m2[0]), m1[1] + m2[1],
                  m1[2] + m2[2]), 1),)

    def monomial_power(self, m, e):
        key, i, j = m
        if len(key) * e > MAX_EXPONENT:
            return None
        return jet.monomial_product(key * e, ()), i * e, j * e


def parse_operator(text: str) -> TDOperator:
    """Parse an operator expression into its normal-ordered form."""
    return _OperatorParser(text).parse()


def parse_jet(text: str) -> ReducedJetPoly:
    """Parse a jet-polynomial expression into canonical form."""
    return _JetParser(text).parse()
