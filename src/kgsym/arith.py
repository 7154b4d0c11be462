"""Exact arithmetic substrate: rational scalars, sparse bivariate polynomials
in x and y, and exact rational linear algebra. The linear algebra is one
fraction-free elimination on sparse integer rows, behind sparse_kernel and
terms_rank, with no blocks or components to find; nullspace and rank are its
dense front ends for a RationalMatrix.

Everything here is exact; no floating point is used anywhere in the package.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

# Rational scalars are exact: an int when the value is integral, else a
# Fraction (lowest terms, denominator positive). Every rational coefficient
# of a term map, RationalMatrix cell and kernel entry is int | Fraction in
# this form. int arithmetic is much cheaper, and the two forms of one value
# are interchangeable: 3 == Fraction(3), hash(3) == hash(Fraction(3)) and
# str(3) == str(Fraction(3)).
Rational = Fraction


def _integral(c):
    """c with an integral Fraction replaced by its numerator."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def as_rational(value):
    """value as a rational scalar: an int when it is integral, else a
    Fraction; TypeError unless it is an int or a Fraction."""
    if type(value) is int:      # before isinstance(value, Fraction), an ABC
        return value            # check that is slow for an int
    if isinstance(value, Fraction):
        return _integral(value)
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


# Term maps. XYPoly, the jet polynomials and TDOperator all keep
# their terms as a plain dict from monomial keys to nonzero coefficients. The
# functions below are the one implementation of that sparse algebra; a
# coefficient only needs +, * and truthiness.

def accumulate(out, items):
    """Add each (key, coefficient) pair into the term map out, dropping every
    key whose sum is zero; returns out."""
    for key, c in items:
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = _integral(s)
        else:
            out.pop(key, None)
    return out


def add_terms(a, b):
    return accumulate(dict(a), b.items())


def scale_terms(terms, factor):
    """Every coefficient times factor; negation is scaling by -1."""
    factor = _integral(factor)
    if not factor:
        return {}
    return {key: _integral(c * factor) for key, c in terms.items()}


def sub_terms(a, b):
    return add_terms(a, scale_terms(b, -1))


def mul_terms(a, b, key_mul):
    """Product of two term maps; key_mul multiplies two monomial keys."""
    return accumulate({}, ((key_mul(k1, k2), c1 * c2)
                           for k1, c1 in a.items() for k2, c2 in b.items()))


def power(one, base, exponent):
    """base ** exponent by repeated multiplication, starting from one."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    for _ in range(exponent):
        result = result * base
    return result


def join_signed(pieces) -> str:
    """Join printed terms with + and -, folding a leading minus into the
    operator."""
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def monomial_str(powers) -> str:
    """Print (name, exponent) pairs as a product such as x^2*y, leaving out
    zero exponents."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in powers if e)


def _rational_str(c) -> str:
    """The text of the rational c; ValueError when its numerator or
    denominator has more digits than the interpreter will print."""
    try:
        return str(c)
    except ValueError:
        raise ValueError(
            "result has a coefficient too large to print (more than "
            f"{sys.get_int_max_str_digits()} digits)") from None


def scalar_prefixed(c, body: str) -> str:
    """Print the rational c times the printed product body."""
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{_rational_str(c)}*{body}"


def clean_terms(terms, coerce, normalize):
    """The term map of the nonzero coerce(value) under the keys
    normalize(key), from a mapping that may hold zeros and raw scalars."""
    cleaned = {}
    for key, value in (terms or {}).items():
        c = coerce(value)
        if c:
            cleaned[normalize(key)] = c
    return cleaned


def int_key(key):
    return tuple(map(int, key))


def from_terms(cls, terms):
    """An instance of cls holding terms, which must already be clean."""
    result = cls.__new__(cls)
    result.terms = terms
    return result


class XYPoly:
    """Sparse polynomial in x and y over exact rationals.

    Terms map exponent pairs (i, j) to nonzero coefficients; no zero
    coefficient is ever stored, so two polynomials are equal exactly when
    their term maps are. Values are immutable by convention: no operation
    mutates its operands.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = clean_terms(terms, as_rational, int_key)

    @classmethod
    def zero(cls) -> "XYPoly":
        return cls()

    @classmethod
    def one(cls) -> "XYPoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, value) -> "XYPoly":
        return cls({(0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "XYPoly":
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}; only x and y exist")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((0, 0), 0)

    def diff(self, var: str) -> "XYPoly":
        """Exact partial derivative with respect to x or y."""
        if var == "x":
            out = {(i - 1, j): _integral(c * i)
                   for (i, j), c in self.terms.items() if i}
        elif var == "y":
            out = {(i, j - 1): _integral(c * j)
                   for (i, j), c in self.terms.items() if j}
        else:
            raise ValueError(f"unknown variable {var!r}")
        return from_terms(XYPoly, out)

    def __add__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        return from_terms(XYPoly, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return from_terms(XYPoly, scale_terms(self.terms, -1))

    def __sub__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        return from_terms(XYPoly, sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        return from_terms(XYPoly, sub_terms(other.terms, self.terms))

    def __mul__(self, other):
        if isinstance(other, XYPoly):
            # mul_terms with the exponent-pair product written out: this is
            # the package's hottest loop, so it makes no call per term.
            terms = accumulate({}, (((i1 + i2, j1 + j2), c1 * c2)
                                    for (i1, j1), c1 in self.terms.items()
                                    for (i2, j2), c2 in other.terms.items()))
        elif isinstance(other, (int, Fraction)):
            terms = scale_terms(self.terms, other)
        else:
            return NotImplemented
        return from_terms(XYPoly, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(XYPoly.one(), self, exponent)

    def __eq__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms in canonical degree-lexicographic order (highest first)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        return join_signed([_poly_term_str(key, c)
                            for key, c in self.sorted_terms()])

    def __repr__(self):
        return f"XYPoly({self})"


def as_poly(value):
    """value as an XYPoly when it is one or a rational constant, else None."""
    if isinstance(value, XYPoly):
        return value
    if isinstance(value, (int, Fraction)):
        value = as_rational(value)
        return from_terms(XYPoly, {(0, 0): value} if value else {})
    return None


def poly_coefficient(value) -> XYPoly:
    """value as an XYPoly coefficient; TypeError unless it is an XYPoly or a
    rational constant."""
    c = as_poly(value)
    if c is None:
        raise TypeError("coefficients must be XYPoly or rational")
    return c


def _poly_term_str(key, coeff) -> str:
    body = monomial_str(zip("xy", key))
    return scalar_prefixed(coeff, body) if body else _rational_str(coeff)


class RationalMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = [[as_rational(v) for v in row] for row in entries]

    @classmethod
    def from_rows(cls, entries) -> "RationalMatrix":
        entries = [list(row) for row in entries]
        rows = len(entries)
        cols = len(entries[0]) if entries else 0
        return cls(rows, cols, entries)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _combine(a, row, b, pivot):
    """The primitive a*row - b*pivot, zeros dropped: with a and b the two
    rows' entries in one column, that column cancels."""
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot.items():
        s = out.get(c, 0) - b * v
        if s:
            out[c] = s
        else:
            del out[c]
    return _primitive(out)


def _reduced_rows(images):
    """Fraction-free Gauss-Jordan elimination of the linear map sending
    unknown c to the term map images[c]; returns {pivot column: row}.

    Each equation, the values of one key across the images, becomes a sparse
    {column: value} row of coprime integers and is reduced against the pivot
    rows, keyed by leading (smallest) column, until its leading column is
    new. Back substitution in descending pivot order then clears every
    other pivot column, so a row holds its pivot and free columns only. Rows
    only ever mix with rows that share a column, so the blocks of a block
    diagonal map stay apart without being looked for."""
    equations = {}
    for c, terms in enumerate(images):
        for key, v in terms.items():
            if v:
                equations.setdefault(key, {})[c] = v
    pivots = {}
    for row in equations.values():
        den = lcm(*(v.denominator for v in row.values()))
        row = _primitive({c: v.numerator * (den // v.denominator)
                          for c, v in row.items()})
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _combine(pivot[lead], row, row[lead], pivot)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for c in [c for c in row if c != p and c in pivots]:
            row = _combine(pivots[c][c], row, row[c], pivots[c])
        pivots[p] = row
    return pivots


def sparse_kernel(images):
    """Reduced-echelon kernel basis of the linear map sending unknown c to
    the term map images[c], as {c: value} vectors in ascending c.

    The vector of free column f is 1 at f and -row[f] / row[p] at the pivot
    p of every reduced row that holds f; the vectors are ordered by free
    column, their largest index."""
    pivots = _reduced_rows(images)
    kernel = {f: {} for f in range(len(images)) if f not in pivots}
    for p, row in sorted(pivots.items()):
        for f, v in row.items():
            if f != p:
                kernel[f][p] = _integral(Fraction(-v, row[p]))
    return [{**vec, f: 1} for f, vec in kernel.items()]


def terms_rank(rows) -> int:
    """Exact rank of term maps read as the rows of a matrix over the union
    of their keys: the number of pivots of their elimination."""
    return len(_reduced_rows(rows))


def _columns(m: RationalMatrix):
    """The columns of m as term maps {row: value}."""
    return [{r: row[c] for r, row in enumerate(m.entries)}
            for c in range(m.cols)]


def nullspace(m: RationalMatrix):
    """Exact kernel basis of m in reduced-row-echelon convention: the
    sparse_kernel of its columns, written out densely.

    Each basis vector carries a unit entry in its own free column and zeros in
    every other free column; vectors are ordered by ascending free-column
    index. The empty list signals a trivial kernel. The package solves
    through sparse_kernel; this dense front end remains because the sympy
    oracle tests compare it with sympy's nullspace and the benchmark tracer
    wraps it by name."""
    return [[vec.get(c, 0) for c in range(m.cols)]
            for vec in sparse_kernel(_columns(m))]


def rank(m: RationalMatrix) -> int:
    """Exact rank of m: the pivot count of the elimination of its columns.
    Like nullspace, a dense front end kept for the sympy oracle tests and
    the benchmark tracer."""
    return len(_reduced_rows(_columns(m)))
