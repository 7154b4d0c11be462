"""Exact arithmetic substrate: rational scalars, sparse bivariate polynomials
in x and y, and exact rational linear algebra (nullspace, rank).

Everything here is exact; no floating point is used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Rational scalars are arbitrary-precision fractions: always in lowest terms,
# denominator positive, zero is 0/1.
Rational = Fraction


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
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
            out[key] = s
        else:
            out.pop(key, None)
    return out


def add_terms(a, b):
    return accumulate(dict(a), b.items())


def scale_terms(terms, factor):
    """Every coefficient times factor; negation is scaling by -1."""
    if not factor:
        return {}
    return {key: c * factor for key, c in terms.items()}


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


def scalar_prefixed(c, body: str) -> str:
    """Print the rational c times the printed product body."""
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{c}*{body}"


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
        self.terms = clean_terms(terms, _as_rational, int_key)

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

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((0, 0), Fraction(0))

    def diff(self, var: str) -> "XYPoly":
        """Exact partial derivative with respect to x or y."""
        if var == "x":
            out = {(i - 1, j): c * i for (i, j), c in self.terms.items() if i}
        elif var == "y":
            out = {(i, j - 1): c * j for (i, j), c in self.terms.items() if j}
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
        return from_terms(XYPoly, {(0, 0): Fraction(value)} if value else {})
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
    return scalar_prefixed(coeff, body) if body else str(coeff)


class RationalMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = [[_as_rational(v) for v in row] for row in entries]

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


def _integer_rows(m: RationalMatrix):
    """Scale each row to coprime integers, dropping zero rows."""
    out = []
    for row in m.entries:
        den = 1
        for v in row:
            if v:
                den = den * v.denominator // gcd(den, v.denominator)
        ints = [v.numerator * (den // v.denominator) if v else 0
                for v in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g:
            out.append([v // g for v in ints])
    return out


def _echelon(rows, cols):
    """Fraction-free forward elimination.

    Returns (reduced rows, pivot column list). Pivot policy: leftmost nonzero
    column, first nonzero row; scaling stays integral and is normalized only
    when kernel vectors are extracted.
    """
    pivots = []
    r = 0
    for col in range(cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, len(rows)):
            v = rows[i][col]
            if not v:
                continue
            tail = [pv * a - v * b
                    for a, b in zip(rows[i][col:], rows[r][col:])]
            g = 0
            for t in tail:
                g = gcd(g, t)
            if g > 1:
                tail = [t // g for t in tail]
            rows[i] = [0] * col + tail
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def nullspace(m: RationalMatrix):
    """Exact kernel basis in reduced-row-echelon convention.

    Each basis vector carries a unit entry in its own free column and zeros in
    every other free column; vectors are ordered by ascending free-column
    index. The empty list signals a trivial kernel.
    """
    cols = m.cols
    rows, pivots = _echelon(_integer_rows(m), cols)
    pivot_set = set(pivots)
    basis = []
    for free_col in range(cols):
        if free_col in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free_col] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc > free_col:
                continue
            row = rows[i]
            s = row[free_col] * vec[free_col]
            for j in range(i + 1, len(pivots)):
                c = pivots[j]
                if c > free_col:
                    break
                if row[c] and vec[c]:
                    s += row[c] * vec[c]
            if s:
                vec[pc] = Fraction(-s, row[pc])
        basis.append(vec)
    return basis


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    _, pivots = _echelon(_integer_rows(m), m.cols)
    return len(pivots)


def terms_rank(rows) -> int:
    """Exact rank of term maps read as the rows of a matrix over the union
    of their keys; 0 when no key occurs."""
    keys = sorted({key for terms in rows for key in terms})
    if not keys:
        return 0
    return rank(RationalMatrix.from_rows(
        [[terms.get(key, 0) for key in keys] for terms in rows]))
