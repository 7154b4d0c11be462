"""Jet spaces for the light-cone Klein-Gordon equation u_xy = u.

Two representations live here. The reduced (on-shell) jet has coordinates
w_k per field w, one integer index k: w_k is the k-th pure x-derivative for
k >= 0 and the (-k)-th pure y-derivative for k < 0, with the mixed derivative
eliminated through w_xy = w. The free (off-shell) jet keeps all coordinates
u_(a,b) of the single field u. Every rule that turns jet monomials into
other jet monomials lives here: the total derivatives (one at a time by the
chain rule, and Dx T + Dy X of a pair in one flat integer pass), the Euler
operator, the on-shell reduction morphism and lift, its inverse on the pure
derivatives of u.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from operator import index

from .arith import (TermMap, XYPoly, accumulate, common_denominator,
                    from_terms, grouped, monomial_str, mul_terms, neg_terms,
                    poly_coefficient, power, scalar_prefixed, scale_terms)
from .opalg import TDOperator

FIELDS = ("u", "f")    # f: the symbolic solution of the superposition currents

_X = XYPoly.variable("x")
_Y = XYPoly.variable("y")


def _powers(variables):
    """(variable, exponent) for each run of equal variables, in order."""
    return [(v, len(list(run))) for v, run in groupby(variables)]


# Index shifts of the total derivatives, applied by the chain rule to each
# jet variable: on the reduced jet Dx takes w_k to w_(k+1) and Dy to
# w_(k-1); on the free jet they raise a or b in u_(a,b).
_REDUCED_SHIFTS = {"x": lambda v: (v[0], v[1] + 1),
                   "y": lambda v: (v[0], v[1] - 1)}
_FREE_SHIFTS = {"x": lambda v: (v[0] + 1, v[1]),
                "y": lambda v: (v[0], v[1] + 1)}


def _times(p, other):
    """p * other for another polynomial of p's class, or a coefficient.

    A square p * p sums each unordered pair of monomials once, the
    off-diagonal products doubled: the jet product is commutative."""
    if other is p:
        terms = accumulate({}, _square(list(p.terms.items())))
    elif isinstance(other, type(p)):
        terms = mul_terms(p.terms, other.terms,
                          lambda m1, m2: tuple(sorted(m1 + m2)))
    elif isinstance(other, (XYPoly, int, Fraction)):
        terms = scale_terms(p.terms, other)
    else:
        return NotImplemented
    return from_terms(type(p), terms)


def _square(items):
    """(monomial, coefficient) pairs of the square of the terms items: each
    diagonal product once, each unordered off-diagonal pair once, doubled."""
    for i, (m1, c1) in enumerate(items):
        yield tuple(sorted(m1 + m1)), c1 * c1
        c1 = c1 * 2
        for m2, c2 in items[i + 1:]:
            yield tuple(sorted(m1 + m2)), c1 * c2


def _partial(p, var):
    """Partial derivative of p with respect to the jet variable var."""
    out = {}
    for mono, coeff in p.terms.items():
        e = mono.count(var)
        if e:
            i = mono.index(var)
            out[mono[:i] + mono[i + 1:]] = coeff if e == 1 else coeff * e
    return from_terms(type(p), out)


def _total_derivative(p, var, shifts):
    """Total derivative of p in x or y: the derivative of every coefficient
    plus, by the chain rule, each jet variable v replaced by shifts[var](v)."""
    shift = shifts.get(var)
    if shift is None:
        raise ValueError(f"unknown variable {var!r}")
    return from_terms(type(p),
                      accumulate({}, _chain_rule(p.terms, var, shift)))


def _chain_rule(terms, var, shift):
    for mono, coeff in terms.items():
        dc = coeff.diff(var)
        if dc:
            yield mono, dc
        for i, v in enumerate(mono):
            yield tuple(sorted(mono[:i] + (shift(v),) + mono[i + 1:])), coeff


def onshell_divergence(t: ReducedJetPoly, x: ReducedJetPoly) -> ReducedJetPoly:
    """Dx T + Dy X on the reduced jet; zero exactly when (T, X) is conserved.

    One pass on the integer multiple: the coefficient-derivative and
    chain-rule terms of both total derivatives (Dx takes w_k to w_(k+1) and
    Dy to w_(k-1), on every field w) are summed as ints into one flat map
    {(monomial, i, j): c}, grouped once and divided back by the common
    denominator of T and X."""
    den = common_denominator((*t.terms.values(), *x.terms.values()))
    sums = {}
    for p, di, dj, step in ((t, 1, 0, 1), (x, 0, 1, -1)):
        for mono, coeff in p.terms.items():
            scaled = [(i, j, c * den if type(c) is int
                       else c.numerator * (den // c.denominator))
                      for (i, j), c in coeff.terms.items()]
            for i, j, c in scaled:
                if e := i * di + j * dj:    # the exponent Dx or Dy lowers
                    key = mono, i - di, j - dj
                    sums[key] = sums.get(key, 0) + e * c
            for n, (name, k) in enumerate(mono):
                shifted = tuple(sorted((*mono[:n], (name, k + step),
                                        *mono[n + 1:])))
                for i, j, c in scaled:
                    sums[shifted, i, j] = sums.get((shifted, i, j), 0) + c
    div = grouped(ReducedJetPoly, {key: c for key, c in sums.items() if c})
    return div * Fraction(1, den) if div and den != 1 else div


class _JetPoly(TermMap):
    """Members shared by the two jet polynomial classes.

    Terms map monomials to nonzero XYPoly coefficients. A monomial is the
    sorted tuple of its jet variables, each repeated as often as its
    exponent says; the empty tuple is the constant monomial, so an XYPoly
    or a rational is the polynomial holding it there. Each class checks one
    jet variable in _variable, behind the constructor, var, partial and
    coefficient. The ring operations, partial, total_derivative and __str__
    are own members of each class."""

    __slots__ = ()

    _coerce = staticmethod(poly_coefficient)
    _constant_key = ()

    @classmethod
    def _normalize_key(cls, mono):
        return tuple(sorted(map(cls._variable, mono)))

    @staticmethod
    def _prefixed(c, text):
        """Only a coefficient of several terms is parenthesized: x*u[0]."""
        if len(c.terms) > 1:
            return f"({c})*{text}"
        if c.is_constant():
            return scalar_prefixed(c.constant_value(), text)
        return f"{c}*{text}"

    @classmethod
    def one(cls):
        return cls({(): XYPoly.one()})

    @classmethod
    def from_poly(cls, poly):
        return cls({(): poly})

    def jet_variables(self):
        return {var for mono in self.terms for var in mono}


class ReducedJetPoly(_JetPoly):
    """Differential polynomial in on-shell jet coordinates w_k, k in Z.

    A jet variable is a pair (field, k) of a field name in FIELDS, "u" or
    "f", and an integer index, so u[0]^2*u[1] is the monomial (("u", 0),
    ("u", 0), ("u", 1)). Several fields may appear; all of them satisfy the
    same on-shell relation.
    """

    __slots__ = ()

    @staticmethod
    def _variable(v):
        """(field, k) for a field named in FIELDS and an integer k."""
        field, k = v
        if not isinstance(field, str):
            raise TypeError(f"jet field must be a str, got "
                            f"{type(field).__name__}")
        if field not in FIELDS:
            raise ValueError(f"unknown jet field {field!r}")
        return field, index(k)

    @classmethod
    def var(cls, field: str, k: int) -> "ReducedJetPoly":
        """The single jet coordinate w_k of the field named field."""
        return cls({((field, k),): XYPoly.one()})

    def fields(self):
        return {name for mono in self.terms for name, _ in mono}

    def order(self):
        """Max |k| over appearing jet variables; None when coefficient-only."""
        indices = [abs(k) for (_, k) in self.jet_variables()]
        return max(indices) if indices else None

    def is_linear(self) -> bool:
        """Linear and homogeneous in the jet variables."""
        return all(len(mono) == 1 for mono in self.terms)

    def coefficient(self, mono) -> XYPoly:
        return self.terms.get(self._normalize_key(mono), XYPoly.zero())

    def partial(self, field: str, k: int) -> "ReducedJetPoly":
        """Partial derivative with respect to the jet variable (field, k)."""
        return _partial(self, self._variable((field, k)))

    def total_derivative(self, var: str) -> "ReducedJetPoly":
        """Reduced total derivative: coefficient derivative plus the index
        shift k -> k+1 (for x) or k -> k-1 (for y) through the chain rule."""
        return _total_derivative(self, var, _REDUCED_SHIFTS)

    def __add__(self, other):
        return self._plus(other)

    __radd__ = __add__

    def __neg__(self):
        return from_terms(ReducedJetPoly, neg_terms(self.terms))

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other)

    def __mul__(self, other):
        return _times(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(ReducedJetPoly.one(), self, exponent)

    @staticmethod
    def _shown(mono):
        """Jet degree descending, then by field name and descending index
        inside each degree block; the product lists its variables so."""
        powers = _powers(sorted((name, -k) for name, k in mono))
        return (-len(mono), powers), monomial_str(
            (f"{name}[{-minus_k}]", e) for (name, minus_k), e in powers)

    def __str__(self):
        return TermMap.__str__(self)


class FreeJetPoly(_JetPoly):
    """Differential polynomial in the off-shell coordinates u_(a,b), a,b >= 0.

    Only the field u lives off shell, so a jet variable is the pair (a, b):
    u(1,0)*u(0,2) is the monomial ((0, 2), (1, 0)). Coefficients are XYPoly.
    """

    __slots__ = ()

    @staticmethod
    def _variable(v):
        """(a, b) for integer derivative orders a, b >= 0."""
        a, b = map(index, v)
        if a < 0 or b < 0:
            raise ValueError("derivative orders must be nonnegative")
        return a, b

    @classmethod
    def var(cls, a: int, b: int) -> "FreeJetPoly":
        """The coordinate u_(a,b) = d^a/dx^a d^b/dy^b u."""
        return cls({((a, b),): XYPoly.one()})

    def partial(self, a: int, b: int) -> "FreeJetPoly":
        return _partial(self, self._variable((a, b)))

    def total_derivative(self, var: str) -> "FreeJetPoly":
        """Full off-shell total derivative; no substitution happens here."""
        return _total_derivative(self, var, _FREE_SHIFTS)

    def __add__(self, other):
        return self._plus(other)

    __radd__ = __add__

    def __neg__(self):
        return from_terms(FreeJetPoly, neg_terms(self.terms))

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other)

    def __mul__(self, other):
        return _times(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(FreeJetPoly.one(), self, exponent)

    @staticmethod
    def _shown(mono):
        """Jet degree descending, then by descending total and x order of
        the variables; the product lists them in that order."""
        order = [((-a - b, -a), e) for (a, b), e in _powers(mono)]
        shown = sorted(mono, key=lambda v: (-v[0] - v[1], -v[0]))
        return (-len(mono), order), monomial_str(
            (f"u({a},{b})", e) for (a, b), e in _powers(shown))

    def __str__(self):
        return TermMap.__str__(self)


def iterated_derivative(p: ReducedJetPoly, k: int) -> ReducedJetPoly:
    """k-fold reduced x-derivative for k >= 0, (-k)-fold y-derivative else."""
    var = "x" if k >= 0 else "y"
    for _ in range(abs(k)):
        p = p.total_derivative(var)
    return p


def prolonged_action(eta: ReducedJetPoly, p: ReducedJetPoly) -> ReducedJetPoly:
    """Prolonged action of the evolutionary field of characteristic eta on
    p: the sum over k of dp/du_k times iterated_derivative(eta, k)."""
    result = ReducedJetPoly.zero()
    for (name, k) in sorted(p.jet_variables()):
        if name != "u":
            continue
        result = result + p.partial("u", k) * iterated_derivative(eta, k)
    return result


def require_field_u(p: ReducedJetPoly, message: str):
    """Raise ValueError(message, found <fields>) unless p involves only the
    field u."""
    extra = p.fields() - {"u"}
    if extra:
        raise ValueError(f"{message}, found {sorted(extra)}")


def reduced_J(p: ReducedJetPoly) -> ReducedJetPoly:
    """The reduced dilation x*Dx - y*Dy acting on a reduced jet polynomial."""
    return (p.total_derivative("x") * _X) - (p.total_derivative("y") * _Y)


def apply_operator_reduced(a: TDOperator) -> ReducedJetPoly:
    """Apply an operator to u on shell: the reduction of its off-shell
    application, so Dx^p Dy^q u becomes u_(p-q)."""
    return reduce(apply_operator_free(a))


def apply_operator_free(a: TDOperator) -> FreeJetPoly:
    """Apply an operator to u off shell: Dx^p Dy^q u is the coordinate u_(p,q)."""
    return from_terms(FreeJetPoly, {((p, q),): c
                                    for (p, q), c in a.terms.items()})


def euler_operator(p: FreeJetPoly) -> FreeJetPoly:
    """Euler operator: sum of (-Dx)^a (-Dy)^b applied to dp/du_(a,b).

    Annihilates exactly the total divergences. Evaluated by Horner's rule
    on the signed partials (-1)^(a+b) dp/du_(a,b): an inner sum in Dy for
    each a, then an outer one in Dx, so each step takes one total
    derivative, not one per jet variable and order."""
    signed = {}
    for (a, b) in p.jet_variables():
        term = p.partial(a, b)
        signed.setdefault(a, {})[b] = -term if (a + b) % 2 else term
    result = FreeJetPoly.zero()
    for a in range(max(signed, default=-1), -1, -1):
        inner = FreeJetPoly.zero()
        row = signed.get(a, {})
        for b in range(max(row, default=-1), -1, -1):
            inner = _horner_step(inner, "y", row.get(b))
        result = _horner_step(result, "x", inner)
    return result


def _horner_step(acc, var, term):
    """D_var(acc) + term, one step of a Horner sum; term may be None."""
    if acc:
        acc = acc.total_derivative(var)
    return acc + term if term else acc


def _substituted(mono, sub):
    """The monomial mono with each jet variable v replaced by sub(v)."""
    return tuple(sorted(map(sub, mono)))


def reduce(p: FreeJetPoly) -> ReducedJetPoly:
    """Substitute u_(a,b) -> u_(a-b) using u_xy = u and its consequences."""
    return from_terms(ReducedJetPoly, accumulate(
        {}, ((_substituted(mono, lambda v: ("u", v[0] - v[1])), c)
             for mono, c in p.terms.items())))


def lift(p: ReducedJetPoly) -> FreeJetPoly:
    """Lift u_k to the pure derivative u_(k,0) for k >= 0, u_(0,-k) else:
    reduce(lift(p)) == p. The map is one-to-one on monomials, so no two
    terms meet. ValueError unless p involves only the field u."""
    require_field_u(p, "lift expects only the field u")
    return from_terms(FreeJetPoly, {
        _substituted(mono, lambda v: (max(v[1], 0), max(-v[1], 0))): c
        for mono, c in p.terms.items()})


def eval_exp_family(p: ReducedJetPoly) -> dict:
    """Evaluate on the exponential solution family with spectral parameter
    lambda (u_k picks up lambda^k) and divide out the exponential factor per
    monomial degree. The exact Laurent-polynomial scalar left over is
    returned as a term map {(i, j, m): c} for c * x^i y^j lambda^m."""
    fields = p.fields()
    if len(fields) > 1:
        raise ValueError(f"polynomial mixes distinct fields: {sorted(fields)}")
    out = {}
    for mono, coeff in p.terms.items():
        weight = sum(k for _, k in mono)
        accumulate(out, (((i, j, weight), c)
                         for (i, j), c in coeff.terms.items()))
    return out
