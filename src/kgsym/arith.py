"""Exact arithmetic substrate: rational scalars, sparse bivariate polynomials
in x and y, and exact rational linear algebra. The linear algebra is one
fraction-free elimination on sparse integer rows, echelon, in a column order
the caller may give and with no blocks or components to find; sparse_kernel
and rank read off it, and nullspace is its one dense front end, for a
RationalMatrix.

Everything here is exact; no floating point is used anywhere in the package.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import index

# Scalars are exact rationals: an int when the value is integral, else a
# Fraction (lowest terms, denominator positive). Every rational coefficient
# of a term map, RationalMatrix cell and kernel entry is int | Fraction in
# this form. int arithmetic is much cheaper, and the two forms of one value
# are interchangeable: 3 == Fraction(3), hash(3) == hash(Fraction(3)) and
# str(3) == str(Fraction(3)).


def _integral(c):
    """c with an integral Fraction replaced by its numerator."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def common_denominator(polys) -> int:
    """The lcm of the denominators of every coefficient of the XYPolys
    polys: the least positive integer whose product with each is integral."""
    return lcm(*(c.denominator for poly in polys
                 for c in poly.terms.values() if type(c) is not int))


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


def scale_terms(terms, factor):
    """Every coefficient times factor."""
    factor = _integral(factor)
    if not factor:
        return {}
    return {key: _integral(c * factor) for key, c in terms.items()}


def neg_terms(terms):
    """Every coefficient negated; a clean coefficient stays clean."""
    return {key: -c for key, c in terms.items()}


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
    return "*".join([name if e == 1 else f"{name}^{e}"
                     for name, e in powers if e])


def _rational_str(c) -> str:
    """The text of the rational or polynomial c; ValueError when a
    numerator or denominator has more digits than the interpreter will
    print."""
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


def _pair_sum(k1, k2):
    """The exponent pair of the product of the monomials keyed k1 and k2."""
    return k1[0] + k2[0], k1[1] + k2[1]


def pair_shown(names):
    """The _shown hook of a term map keyed by the exponent pairs (i, j) of
    the two names: highest total degree first, then highest i."""
    return staticmethod(lambda key: ((-key[0] - key[1], -key[0]),
                                     monomial_str(zip(names, key))))


def exponent_pair(key):
    """key with each exponent, a nonnegative integral rational, as an int."""
    i, j = key = tuple(map(index, map(as_rational, key)))
    if i < 0 or j < 0:
        raise ValueError(f"negative exponent in {key}")
    return key


def from_terms(cls, terms):
    """An instance of cls holding terms, which must already be clean."""
    result = cls.__new__(cls)
    result.terms = terms
    return result


def grouped(cls, flat):
    """An instance of cls from the clean flat term map {(key, i, j): c}:
    the monomials c x^i y^j of each key gathered into one XYPoly."""
    terms = {}
    for (key, i, j), c in flat.items():
        terms.setdefault(key, {})[i, j] = c
    return from_terms(cls, {key: from_terms(XYPoly, t)
                            for key, t in terms.items()})


def flat(value):
    """The flat term map {(key, i, j): c} of value, whose coefficients are
    XYPolys: one entry per monomial c x^i y^j of each key; the inverse of
    grouped."""
    return {(key, i, j): c for key, poly in value.terms.items()
            for (i, j), c in poly.terms.items()}


class TermMap:
    """Value contract of XYPoly, TDOperator and the jet polynomials: terms
    maps monomial keys to nonzero coefficients, and values are immutable by
    convention. Each class states its hooks: _coerce cleans a coefficient
    (TypeError for anything else), _normalize_key a key, and _constant_key
    is the key of the constant monomial, or None when the class holds no
    scalar. A scalar, anything _coerce accepts, equals, hashes as and adds
    like the value holding it there. For printing, _shown(key) is the sort
    key and text of one monomial, and _prefixed(c, text) the text of the
    coefficient c times it. Each class keeps its own algebra."""

    __slots__ = ("terms",)

    _constant_key = None

    def __init__(self, terms=None):
        coerce, normalize = self._coerce, self._normalize_key
        cleaned = {}
        for key, value in (terms or {}).items():
            c = coerce(value)
            if c:
                cleaned[normalize(key)] = c
        self.terms = cleaned

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def terms_of(cls, value):
        """The term map of a scalar read as a value of cls, else None."""
        key = cls._constant_key
        if key is None:
            return None
        try:
            c = cls._coerce(value)
        except TypeError:
            return None
        return {key: c} if c else {}

    def _plus(self, other, sign=1):
        """self + sign * other, for sign 1 or -1, as a value of self's
        class; NotImplemented unless other is one or terms_of takes it."""
        if type(other) is type(self):
            terms = other.terms
        else:
            terms = self.terms_of(other)
            if terms is None:
                return NotImplemented
        if sign != 1:
            terms = neg_terms(terms)
        return from_terms(type(self),
                          accumulate(dict(self.terms), terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.terms == other.terms
        terms = self.terms_of(other)
        if terms is None:
            return NotImplemented
        return self.terms == terms

    def __hash__(self):
        terms = self.terms
        key = self._constant_key
        if terms.keys() <= {key}:   # a constant hashes as its scalar
            return hash(terms.get(key, 0))
        return hash(frozenset(terms.items()))

    def __str__(self):
        """The one printed form: 0 when empty, else the terms in ascending
        order of the sort keys of _shown, which differ for distinct
        monomials, each coefficient prefixed to its monomial's text by
        _prefixed (a constant monomial is its coefficient alone), with signs
        folded by join_signed."""
        terms = self.terms
        if not terms:
            return "0"
        prefixed = self._prefixed
        shown = sorted(zip(map(self._shown, terms), terms.values()))
        return join_signed([prefixed(c, text) if text else _rational_str(c)
                            for (_, text), c in shown])

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class XYPoly(TermMap):
    """Sparse polynomial in x and y over exact rationals: terms map exponent
    pairs (i, j) to nonzero rational coefficients."""

    __slots__ = ()

    _coerce = staticmethod(as_rational)
    _normalize_key = staticmethod(exponent_pair)
    _constant_key = (0, 0)
    _shown = pair_shown("xy")
    _prefixed = staticmethod(scalar_prefixed)

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

    def is_constant(self) -> bool:
        return self.terms.keys() <= {(0, 0)}

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
        return self._plus(other)

    __radd__ = __add__

    def __neg__(self):
        return from_terms(XYPoly, neg_terms(self.terms))

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other)

    def __mul__(self, other):
        """The product with an XYPoly or a rational, by mul_terms. A
        one-term factor k x^a y^b, on either side, only shifts the other's
        keys by (a, b) and scales by k: no two keys meet, nothing is summed."""
        if isinstance(other, XYPoly):
            terms, factor = self.terms, other.terms
            if len(terms) == 1:
                terms, factor = factor, terms
            if len(factor) == 1:
                ((a, b), k), = factor.items()
                terms = {(i + a, j + b): _integral(c * k)
                         for (i, j), c in terms.items()}
            else:
                terms = mul_terms(terms, factor, _pair_sum)
        elif isinstance(other, (int, Fraction)):
            terms = scale_terms(self.terms, other)
        else:
            return NotImplemented
        return from_terms(XYPoly, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(XYPoly.one(), self, exponent)


def poly_coefficient(value) -> XYPoly:
    """value as an XYPoly coefficient; TypeError unless it is an XYPoly or a
    rational constant."""
    return value if isinstance(value, XYPoly) else XYPoly.constant(value)


class RationalMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        """The matrix of the rows entries; ValueError when they are ragged."""
        self.entries = [[as_rational(v) for v in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("matrix rows differ in length")


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


def echelon(rows, order=None):
    """Fraction-free Gauss-Jordan elimination of the term maps rows, read as
    the rows of a matrix over their keys; returns {pivot column: row}, each
    row a term map of coprime integers.

    Columns rank by their place in the list order when it is given, else by
    the keys themselves. Each row is scaled to coprime integers, zeros
    dropped, and reduced against the pivot rows, keyed by leading
    (lowest-ranked) column, until its leading column is new. Back
    substitution in descending pivot order then clears every other pivot
    column, so a row holds its pivot and free columns only. Rows only ever
    mix with rows that share a column, so the blocks of a block diagonal
    matrix stay apart without being looked for."""
    if order is not None:
        place = {key: p for p, key in enumerate(order)}
        rows = ({place[key]: v for key, v in row.items()} for row in rows)
    pivots = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        row = _primitive({c: v.numerator * (den // v.denominator)
                          for c, v in row.items() if v})
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
    if order is None:
        return pivots
    return {order[p]: {order[c]: v for c, v in row.items()}
            for p, row in pivots.items()}


def sparse_kernel(images):
    """Reduced-echelon kernel basis of the linear map sending unknown c to
    the term map images[c], as {c: value} vectors in ascending c.

    Each equation, the values of one key across the images, is a row over
    the columns c. The vector of free column f is 1 at f and
    -row[f] / row[p] at the pivot p of every echelon row that holds f; the
    vectors are ordered by free column, their largest index."""
    equations = {}
    for c, terms in enumerate(images):
        for key, v in terms.items():
            equations.setdefault(key, {})[c] = v
    pivots = echelon(equations.values())
    kernel = {f: {} for f in range(len(images)) if f not in pivots}
    for p, row in sorted(pivots.items()):
        for f, v in row.items():
            if f != p:
                kernel[f][p] = _integral(Fraction(-v, row[p]))
    return [{**vec, f: 1} for f, vec in kernel.items()]


def rank(rows) -> int:
    """Exact rank of term maps read as the rows of a matrix over the union
    of their keys: the number of pivots of their elimination."""
    return len(echelon(rows))


def nullspace(m: RationalMatrix):
    """Exact kernel basis of m in reduced-row-echelon convention: the
    sparse_kernel of its columns, written out densely.

    Each basis vector carries a unit entry in its own free column and zeros in
    every other free column; vectors are ordered by ascending free-column
    index. The empty list signals a trivial kernel. The package solves
    through sparse_kernel and ranks term maps with rank; this dense front
    end remains because the sympy oracle tests compare it with sympy's
    nullspace and the benchmark tracer wraps it by name."""
    columns = [{r: row[c] for r, row in enumerate(m.entries)}
               for c in range(m.cols)]
    return [[vec.get(c, 0) for c in range(m.cols)]
            for vec in sparse_kernel(columns)]

