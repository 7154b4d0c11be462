"""Jet spaces for the light-cone Klein-Gordon equation u_xy = u.

Two representations live here. The reduced (on-shell) jet has coordinates
w_k per field w, one integer index k: w_k is the k-th pure x-derivative for
k >= 0 and the (-k)-th pure y-derivative for k < 0, with the mixed derivative
eliminated through w_xy = w. The free (off-shell) jet keeps all coordinates
u_(a,b) of the single field u. Total derivatives, the Euler operator and the
on-shell reduction morphism connect the two pictures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (XYPoly, accumulate, add_terms, as_poly, clean_terms,
                    from_terms, join_signed, monomial_str, mul_terms,
                    poly_coefficient, power, scalar_prefixed, scale_terms,
                    sub_terms)
from .opalg import TDOperator

_X = XYPoly.variable("x")
_Y = XYPoly.variable("y")


@dataclass(frozen=True)
class FieldId:
    """A dependent variable; every declared field satisfies w_xy = w on shell."""
    name: str


U = FieldId("u")
F = FieldId("f")


def _field_name(field) -> str:
    return field.name if isinstance(field, FieldId) else str(field)


def _mono_mul(m1, m2):
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _lowered(mono, var, e):
    """The exponents of mono, in which var has exponent e >= 1, with that of
    var lowered by one."""
    exps = dict(mono)
    if e == 1:
        del exps[var]
    else:
        exps[var] = e - 1
    return exps


# Index shifts of the total derivatives, applied by the chain rule to each
# jet variable: on the reduced jet Dx takes w_k to w_(k+1) and Dy to
# w_(k-1); on the free jet they raise a or b in u_(a,b).
_REDUCED_SHIFTS = {"x": lambda v: (v[0], v[1] + 1),
                   "y": lambda v: (v[0], v[1] - 1)}
_FREE_SHIFTS = {"x": lambda v: (v[0] + 1, v[1]),
                "y": lambda v: (v[0], v[1] + 1)}


def _jet_terms(cls, value):
    """The term map of value as a polynomial of class cls: value itself, an
    XYPoly or a rational constant; None for anything else."""
    if isinstance(value, cls):
        return value.terms
    c = as_poly(value)
    if c is None:
        return None
    return {(): c} if c else {}


def _ring(p, other, combine):
    """combine(p's terms, other's terms) as a polynomial of p's class."""
    terms = _jet_terms(type(p), other)
    if terms is None:
        return NotImplemented
    return from_terms(type(p), combine(p.terms, terms))


def _times(p, other):
    """p * other for another polynomial of p's class, or a coefficient."""
    if isinstance(other, type(p)):
        terms = mul_terms(p.terms, other.terms, _mono_mul)
    elif isinstance(other, (XYPoly, int, Fraction)):
        terms = scale_terms(p.terms, other)
    else:
        return NotImplemented
    return from_terms(type(p), terms)


def _partial(p, var):
    """Partial derivative of p with respect to the jet variable var."""
    out = {}
    for mono, coeff in p.terms.items():
        e = dict(mono).get(var)
        if e:
            out[tuple(sorted(_lowered(mono, var, e).items()))] = (
                coeff if e == 1 else coeff * e)
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
        for v, e in mono:
            exps = _lowered(mono, v, e)
            w = shift(v)
            exps[w] = exps.get(w, 0) + 1
            yield tuple(sorted(exps.items())), coeff if e == 1 else coeff * e


class _JetPoly:
    """Members shared by the two jet polynomial classes.

    Terms map monomials, sorted tuples of (jet variable, exponent) pairs, to
    nonzero XYPoly coefficients. The ring operations, partial,
    total_derivative and __str__ are own members of each class."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = clean_terms(terms, poly_coefficient,
                                 lambda mono: tuple(sorted(mono)))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): XYPoly.one()})

    @classmethod
    def from_poly(cls, poly):
        return cls({(): poly})

    def is_zero(self) -> bool:
        return not self.terms

    def jet_variables(self):
        return {var for mono in self.terms for (var, _) in mono}

    def __eq__(self, other):
        terms = _jet_terms(type(self), other)
        if terms is None:
            return NotImplemented
        return self.terms == terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class ReducedJetPoly(_JetPoly):
    """Differential polynomial in on-shell jet coordinates w_k, k in Z.

    Terms map monomials in the jet variables (tuples of ((field, k), exp))
    to nonzero XYPoly coefficients. Several fields may appear; all of them
    satisfy the same on-shell relation.
    """

    __slots__ = ()

    @classmethod
    def var(cls, field, k: int) -> "ReducedJetPoly":
        """The single jet coordinate w_k of the given field."""
        name = _field_name(field)
        return cls({(((name, int(k)), 1),): XYPoly.one()})

    def fields(self):
        return {name for mono in self.terms for ((name, _), _) in mono}

    def order(self):
        """Max |k| over appearing jet variables; None when coefficient-only."""
        indices = [abs(k) for (_, k) in self.jet_variables()]
        return max(indices) if indices else None

    def is_linear(self) -> bool:
        """Linear and homogeneous in the jet variables."""
        return all(sum(e for _, e in mono) == 1 for mono in self.terms)

    def coefficient(self, mono) -> XYPoly:
        return self.terms.get(tuple(sorted(mono)), XYPoly.zero())

    def partial(self, field, k: int) -> "ReducedJetPoly":
        """Partial derivative with respect to the jet variable (field, k)."""
        return _partial(self, (_field_name(field), int(k)))

    def total_derivative(self, var: str) -> "ReducedJetPoly":
        """Reduced total derivative: coefficient derivative plus the index
        shift k -> k+1 (for x) or k -> k-1 (for y) through the chain rule."""
        return _total_derivative(self, var, _REDUCED_SHIFTS)

    def __add__(self, other):
        return _ring(self, other, add_terms)

    __radd__ = __add__

    def __neg__(self):
        return _times(self, -1)

    def __sub__(self, other):
        return _ring(self, other, sub_terms)

    def __rsub__(self, other):
        return _ring(-self, other, add_terms)

    def __mul__(self, other):
        return _times(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(ReducedJetPoly.one(), self, exponent)

    def sorted_terms(self):
        """Canonical display order: jet degree descending, then by field name
        and descending index inside each degree block."""
        def mono_key(mono):
            return tuple((name, -k, e) for (name, k), e in
                         sorted(mono, key=lambda ve: (ve[0][0], -ve[0][1])))
        return sorted(self.terms.items(),
                      key=lambda kv: (-sum(e for _, e in kv[0]),
                                      mono_key(kv[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            body = monomial_str(
                (f"{name}[{k}]", e) for (name, k), e in
                sorted(mono, key=lambda ve: (ve[0][0], -ve[0][1])))
            pieces.append(_coeff_prefixed(coeff, body))
        return join_signed(pieces)


def _coeff_prefixed(coeff: XYPoly, body: str) -> str:
    if not body:
        return str(coeff)
    if len(coeff.terms) > 1:
        return f"({coeff})*{body}"
    if coeff.is_constant():
        return scalar_prefixed(coeff.constant_value(), body)
    return f"{coeff}*{body}"


class FreeJetPoly(_JetPoly):
    """Differential polynomial in the off-shell coordinates u_(a,b), a,b >= 0.

    Only the field u lives off shell; coefficients are XYPoly.
    """

    __slots__ = ()

    @classmethod
    def var(cls, a: int, b: int) -> "FreeJetPoly":
        """The coordinate u_(a,b) = d^a/dx^a d^b/dy^b u."""
        if a < 0 or b < 0:
            raise ValueError("derivative orders must be nonnegative")
        return cls({(((int(a), int(b)), 1),): XYPoly.one()})

    def partial(self, a: int, b: int) -> "FreeJetPoly":
        return _partial(self, (int(a), int(b)))

    def total_derivative(self, var: str) -> "FreeJetPoly":
        """Full off-shell total derivative; no substitution happens here."""
        return _total_derivative(self, var, _FREE_SHIFTS)

    def __add__(self, other):
        return _ring(self, other, add_terms)

    __radd__ = __add__

    def __neg__(self):
        return _times(self, -1)

    def __sub__(self, other):
        return _ring(self, other, sub_terms)

    def __rsub__(self, other):
        return _ring(-self, other, add_terms)

    def __mul__(self, other):
        return _times(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(FreeJetPoly.one(), self, exponent)

    def __str__(self):
        if not self.terms:
            return "0"
        def mono_key(mono):
            return tuple(((-a - b, -a), e) for (a, b), e in mono)
        pieces = []
        for mono, coeff in sorted(self.terms.items(),
                                  key=lambda kv: (-sum(e for _, e in kv[0]),
                                                  mono_key(kv[0]))):
            body = monomial_str(
                (f"u({a},{b})", e) for (a, b), e in
                sorted(mono, key=lambda ve: (-ve[0][0] - ve[0][1], -ve[0][0])))
            pieces.append(_coeff_prefixed(coeff, body))
        return join_signed(pieces)


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
        dp = p.partial("u", k)
        if dp:
            result = result + dp * iterated_derivative(eta, k)
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


def apply_operator_reduced(a: TDOperator, field=U) -> ReducedJetPoly:
    """Apply an operator to a field on shell: Dx^p Dy^q w reduces to w_(p-q)."""
    name = _field_name(field)
    return from_terms(ReducedJetPoly, accumulate(
        {}, (((((name, p - q), 1),), c) for (p, q), c in a.terms.items())))


def apply_operator_free(a: TDOperator) -> FreeJetPoly:
    """Apply an operator to u off shell: Dx^p Dy^q u is the coordinate u_(p,q)."""
    return from_terms(FreeJetPoly, {(((p, q), 1),): c
                                    for (p, q), c in a.terms.items()})


def euler_operator(p: FreeJetPoly) -> FreeJetPoly:
    """Euler operator: sum of (-Dx)^a (-Dy)^b applied to dp/du_(a,b).

    Annihilates exactly the total divergences."""
    result = FreeJetPoly.zero()
    for (a, b) in sorted(p.jet_variables()):
        term = p.partial(a, b)
        for _ in range(a):
            term = term.total_derivative("x")
        for _ in range(b):
            term = term.total_derivative("y")
        result = result + (term if (a + b) % 2 == 0 else -term)
    return result


def substituted(mono, sub):
    """The monomial mono with each jet variable v replaced by sub(v), the
    exponents of variables that coincide added."""
    exps = {}
    for v, e in mono:
        w = sub(v)
        exps[w] = exps.get(w, 0) + e
    return tuple(sorted(exps.items()))


def reduce(p: FreeJetPoly) -> ReducedJetPoly:
    """Substitute u_(a,b) -> u_(a-b) using u_xy = u and its consequences."""
    return from_terms(ReducedJetPoly, accumulate(
        {}, ((substituted(mono, lambda v: ("u", v[0] - v[1])), c)
             for mono, c in p.terms.items())))


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
        weight = sum(k * e for (_, k), e in mono)
        accumulate(out, (((i, j, weight), c)
                         for (i, j), c in coeff.terms.items()))
    return out
