"""Normal-ordered linear operators in the total derivatives Dx and Dy with
polynomial coefficients.

An operator is a finite sum a_pq(x, y) * Dx^p * Dy^q with all coefficients to
the left of all derivations; the normal form is unique, so operator equality
is coefficient-map equality. Composition re-normal-orders by the Leibniz rule
Dx^p Dy^q o b = sum C(p,m) C(q,n) (d^m/dx^m d^n/dy^n b) Dx^(p-m) Dy^(q-n).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .arith import (XYPoly, accumulate, add_terms, clean_terms, from_terms,
                    int_key, join_signed, monomial_str, poly_coefficient,
                    power, scalar_prefixed, scale_terms, sub_terms)

_X = XYPoly.variable("x")
_Y = XYPoly.variable("y")


def _differentiated(cache, m, n):
    """The term map of d^m/dx^m d^n/dy^n applied to every coefficient of the
    term map cache[(0, 0)], memoized in cache. (m, n - 1), or (m - 1, 0)
    when n is 0, must already be cached."""
    t = cache.get((m, n))
    if t is None:
        prev, var = ((m, n - 1), "y") if n else ((m - 1, 0), "x")
        t = cache[(m, n)] = {key: dc for key, c in cache[prev].items()
                             if (dc := c.diff(var))}
    return t


def _leibniz(p, q, cache, sign=1):
    """(key, coefficient) pairs of sign * Dx^p Dy^q o b, where cache holds
    the term map of b at (0, 0). The sums stop at the first derivative of b
    that vanishes, so the work is bounded by the degree of b's coefficients,
    not by p and q."""
    for m in range(p + 1):
        if not _differentiated(cache, m, 0):
            break
        for n in range(q + 1):
            db = _differentiated(cache, m, n)
            if not db:
                break
            k = sign * comb(p, m) * comb(q, n)
            for (r, s), c in db.items():
                yield (p - m + r, q - n + s), (c if k == 1 else c * k)


class TDOperator:
    """Linear operator sum a_pq(x, y) * Dx^p * Dy^q in normal form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = clean_terms(terms, poly_coefficient, int_key)

    @classmethod
    def zero(cls) -> "TDOperator":
        return cls()

    @classmethod
    def identity(cls) -> "TDOperator":
        return cls({(0, 0): XYPoly.one()})

    @classmethod
    def dx(cls) -> "TDOperator":
        return cls({(1, 0): XYPoly.one()})

    @classmethod
    def dy(cls) -> "TDOperator":
        return cls({(0, 1): XYPoly.one()})

    @classmethod
    def j(cls) -> "TDOperator":
        """The dilation generator x*Dx - y*Dy."""
        return cls({(1, 0): _X, (0, 1): -_Y})

    @classmethod
    def mul_by(cls, poly) -> "TDOperator":
        """Multiplication operator by a polynomial (or constant)."""
        return cls({(0, 0): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Highest total derivative order; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(p + q for (p, q) in self.terms)

    def __add__(self, other):
        if not isinstance(other, TDOperator):
            return NotImplemented
        return from_terms(TDOperator, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, TDOperator):
            return NotImplemented
        return from_terms(TDOperator, sub_terms(self.terms, other.terms))

    def __neg__(self):
        return from_terms(TDOperator, scale_terms(self.terms, -1))

    def scale(self, value) -> "TDOperator":
        """Multiply by a constant scalar (constants commute with Dx, Dy)."""
        return from_terms(TDOperator, scale_terms(self.terms, Fraction(value)))

    def left_mul_poly(self, poly: XYPoly) -> "TDOperator":
        """Left multiplication by a polynomial: poly * self, still normal."""
        return from_terms(TDOperator, scale_terms(self.terms, poly))

    def __mul__(self, other):
        if isinstance(other, TDOperator):
            return self.compose(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, XYPoly):
            return self.left_mul_poly(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        return power(TDOperator.identity(), self, exponent)

    def compose(self, other: "TDOperator") -> "TDOperator":
        """Normal-ordered product self o other, by the Leibniz rule."""
        cache = {(0, 0): other.terms}
        out = {}
        for (p, q), a in self.terms.items():
            lifted = accumulate({}, _leibniz(p, q, cache))
            accumulate(out, ((key, a * c) for key, c in lifted.items()))
        return from_terms(TDOperator, out)

    def adjoint(self) -> "TDOperator":
        """Formal adjoint: (a * Dx^p * Dy^q)+ = (-1)^(p+q) Dx^p Dy^q o a."""
        out = {}
        for (p, q), c in self.terms.items():
            accumulate(out, _leibniz(p, q, {(0, 0): {(0, 0): c}},
                                     (-1) ** (p + q)))
        return from_terms(TDOperator, out)

    def __eq__(self, other):
        if not isinstance(other, TDOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms ordered with the highest derivative order first."""
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for (p, q), c in self.sorted_terms():
            dpart = monomial_str((("Dx", p), ("Dy", q)))
            if not dpart:
                pieces.append(str(c))
            elif c.is_constant():
                pieces.append(scalar_prefixed(c.constant_value(), dpart))
            else:
                pieces.append(f"({c})*{dpart}")
        return join_signed(pieces)

    def __repr__(self):
        return f"TDOperator({self})"


def commutator(a: TDOperator, b: TDOperator) -> TDOperator:
    return a.compose(b) - b.compose(a)


def kg_operator() -> TDOperator:
    """The light-cone Klein-Gordon operator Dx*Dy - 1."""
    return TDOperator({(1, 1): XYPoly.one(), (0, 0): XYPoly.constant(-1)})


def basis_op(kind: str, k: int, l: int) -> TDOperator:
    """Half-shifted basis operator (J + l/2)^k o Dx^l, or the mirrored
    (J - l/2)^k o Dy^l for kind Qbar (which needs l >= 1)."""
    if kind == "Q":
        return monomial_op("X", k, l, Fraction(l, 2))
    if kind == "Qbar":
        if l == 0:
            raise ValueError("Qbar requires l >= 1")
        return monomial_op("Y", k, l, -Fraction(l, 2))
    raise ValueError(f"unknown basis kind {kind!r}")


def monomial_op(side: str, k: int, l: int, shift=0) -> TDOperator:
    """The word (J + shift)^k o Dx^l (side X) or (J + shift)^k o Dy^l
    (side Y), normal-ordered; shift is a rational constant."""
    if k < 0 or l < 0:
        raise ValueError("orders must be nonnegative")
    if side == "X":
        tail = TDOperator({(l, 0): XYPoly.one()})
    elif side == "Y":
        tail = TDOperator({(0, l): XYPoly.one()})
    else:
        raise ValueError(f"unknown side {side!r}")
    head = TDOperator.j() + TDOperator.mul_by(shift)
    return (head ** k).compose(tail)


def skew_self_split(a: TDOperator):
    """Split into (skew-adjoint, self-adjoint) halves summing to a."""
    ad = a.adjoint()
    half = Fraction(1, 2)
    return ((a - ad).scale(half), (a + ad).scale(half))
