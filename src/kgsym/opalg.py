"""Normal-ordered linear operators in the total derivatives Dx and Dy with
polynomial coefficients.

An operator is a finite sum a_pq(x, y) * Dx^p * Dy^q with all coefficients to
the left of all derivations; the normal form is unique, so operator equality
is coefficient-map equality. monomial_product re-normal-orders by the
Leibniz rule in closed form on monomials, Dx^p o x^i = sum C(p,m) i!/(i-m)!
x^(i-m) Dx^(p-m) and likewise in y; compose, adjoint and the parser use it.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (TermMap, XYPoly, accumulate, as_rational, exponent_pair,
                    flat, from_terms, grouped, neg_terms, pair_shown,
                    poly_coefficient, power, scalar_prefixed, scale_terms)

_X = XYPoly.variable("x")
_Y = XYPoly.variable("y")


def _leibniz_factors(p, i):
    """The factors C(p, m) i!/(i - m)! of x^(i - m) Dx^(p - m) in Dx^p o x^i,
    for m = 0 .. min(p, i); each step from the one before is exact."""
    factors = [1]
    for m in range(min(p, i)):
        factors.append(factors[-1] * (p - m) * (i - m) // (m + 1))
    return factors


def monomial_product(m1, m2):
    """The (monomial, int factor) pairs that sum to m1 o m2 for monomials
    ((p, q), i, j) = x^i y^j Dx^p Dy^q: exponents add, plus the Leibniz terms
    where a derivative of m1 meets an x or y of m2 (Dx o x = x Dx + 1)."""
    (p1, q1), i1, j1 = m1
    (p2, q2), i2, j2 = m2
    if not ((p1 or q1) and (i2 or j2)):
        return ((((p1 + p2, q1 + q2), i1 + i2, j1 + j2), 1),)
    xs, ys = _leibniz_factors(p1, i2), _leibniz_factors(q1, j2)
    # A factor 1 takes the other one as it is: a * 1 copies a big int.
    return [(((p1 + p2 - m, q1 + q2 - n), i1 + i2 - m, j1 + j2 - n),
             a if b == 1 else b if a == 1 else a * b)
            for m, a in enumerate(xs) for n, b in enumerate(ys)]


def _product_sum(triples):
    """The operator sum of c * (m1 o m2) over the (m1, m2, c) triples."""
    return grouped(TDOperator, accumulate({}, (
        (m, c if f == 1 else f if c == 1 else c * f)
        for m1, m2, c in triples for m, f in monomial_product(m1, m2))))


class TDOperator(TermMap):
    """Linear operator sum a_pq(x, y) * Dx^p * Dy^q in normal form, keyed by
    (p, q). It holds no scalar: it never equals one and cannot add one."""

    __slots__ = ()

    _coerce = staticmethod(poly_coefficient)
    _normalize_key = staticmethod(exponent_pair)
    _shown = pair_shown(("Dx", "Dy"))

    @staticmethod
    def _prefixed(c, text):
        """Any coefficient but a constant is parenthesized: (x)*Dx."""
        if c.is_constant():
            return scalar_prefixed(c.constant_value(), text)
        return f"({c})*{text}"

    @classmethod
    def identity(cls) -> "TDOperator":
        return cls({(0, 0): XYPoly.one()})

    @classmethod
    def j(cls) -> "TDOperator":
        """The dilation generator x*Dx - y*Dy."""
        return cls({(1, 0): _X, (0, 1): -_Y})

    def __add__(self, other):
        return self._plus(other)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return from_terms(TDOperator, neg_terms(self.terms))

    def scale(self, value) -> "TDOperator":
        """Multiply by a constant scalar (constants commute with Dx, Dy)."""
        return from_terms(TDOperator,
                          scale_terms(self.terms, as_rational(value)))

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
        """Normal-ordered product self o other: the distributed product of
        their monomials."""
        b = flat(other).items()
        return _product_sum((m1, m2, c1 * c2)
                            for m1, c1 in flat(self).items() for m2, c2 in b)

    def adjoint(self) -> "TDOperator":
        """Formal adjoint: (c x^i y^j Dx^p Dy^q)+ = (-1)^(p+q) Dx^p Dy^q o
        c x^i y^j."""
        return _product_sum((((p, q), 0, 0), ((0, 0), i, j),
                             -c if (p + q) % 2 else c)
                            for ((p, q), i, j), c in flat(self).items())

    def __str__(self):
        return TermMap.__str__(self)


def commutator(a: TDOperator, b: TDOperator) -> TDOperator:
    return a.compose(b) - b.compose(a)


def kg_operator() -> TDOperator:
    """The light-cone Klein-Gordon operator Dx*Dy - 1."""
    return TDOperator({(1, 1): 1, (0, 0): -1})


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


def basis_shapes(order: int):
    """(kind, k, l) of the 2*order + 1 basis words with k + l = order:
    Q[order,0], then Q[k,order-k] and then Qbar[k,order-k] for k < order."""
    return [("Q", order, 0), *(("Q", k, order - k) for k in range(order)),
            *(("Qbar", k, order - k) for k in range(order))]


def monomial_op(side: str, k: int, l: int, shift=0) -> TDOperator:
    """The word (J + shift)^k o Dx^l (side X) or (J + shift)^k o Dy^l
    (side Y), normal-ordered; shift is a rational constant. With e(m, n) =
    x^m y^n Dx^m Dy^n, (J + shift) o e(m, n) = (m - n + shift) e(m, n) +
    e(m + 1, n) - e(m, n + 1), and e(m, n) o Dx^l = x^m y^n Dx^(m+l) Dy^n.

    The recurrence runs in integers: with shift = a/b in lowest terms it
    expands (b*J + a)^k, and each coefficient is divided by b^k once at the
    end (an int shift has b = 1 and nothing is divided)."""
    if k < 0 or l < 0:
        raise ValueError("orders must be nonnegative")
    if side not in ("X", "Y"):
        raise ValueError(f"unknown side {side!r}")
    shift = as_rational(shift)
    a, b = shift.numerator, shift.denominator
    word = {(0, 0): 1}
    for _ in range(k):
        word = accumulate({}, (t for (m, n), c in word.items() for t in (
            ((m, n), c * (b * (m - n) + a)), ((m + 1, n), c * b),
            ((m, n + 1), -c * b))))
    if b != 1:
        den = b ** k
        word = {key: as_rational(Fraction(c, den)) for key, c in word.items()}
    p, q = (l, 0) if side == "X" else (0, l)
    return from_terms(TDOperator, {
        (m + p, n + q): from_terms(XYPoly, {(m, n): c})
        for (m, n), c in word.items()})


def skew_self_split(a: TDOperator):
    """Split into (skew-adjoint, self-adjoint) halves summing to a."""
    ad = a.adjoint()
    half = Fraction(1, 2)
    return ((a - ad).scale(half), (a + ad).scale(half))
