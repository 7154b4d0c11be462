"""Variational-symmetry testing and conserved currents.

A conserved current is a pair (T, X) of jet polynomials whose on-shell
divergence Dx T + Dy X vanishes identically; constructors verify that, and
the recorded order, before returning anything. The Euler-operator test
certifies conservation-law characteristics independently of any current.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import XYPoly, accumulate
from .jet import (FreeJetPoly, ReducedJetPoly, apply_operator_reduced,
                  euler_operator, prolonged_action, require_field_u,
                  substituted)
from .opalg import (TDOperator, basis_op, kg_operator, monomial_op,
                    skew_self_split)

_X = XYPoly.variable("x")
_Y = XYPoly.variable("y")

MINIMAL_FAMILIES = ("C1", "C1bar", "C2", "C2bar")
CURRENT_FAMILIES = ("C0", "Ctilde", *MINIMAL_FAMILIES, "GEN")


def is_variational_linear(a: TDOperator) -> bool:
    """True iff adjoint(a) o L + adjoint(L) o a is the zero operator, where
    L = Dx*Dy - 1 is the (formally self-adjoint) equation operator."""
    kg = kg_operator()
    return (a.adjoint().compose(kg) + kg.adjoint().compose(a)).is_zero()


def _component_order(t: ReducedJetPoly, x: ReducedJetPoly) -> int:
    """Max of the component orders; 0 when both are coefficient-only."""
    return max(t.order() or 0, x.order() or 0)


def onshell_divergence(t: ReducedJetPoly, x: ReducedJetPoly) -> ReducedJetPoly:
    """Dx T + Dy X on the reduced jet; zero exactly when (T, X) is conserved."""
    return t.total_derivative("x") + x.total_derivative("y")


@dataclass(frozen=True)
class ConservedCurrent:
    """A verified conserved current (T, X) with its recorded order.

    T and X are the reduced (on-shell) components."""
    family: str
    t: ReducedJetPoly
    x: ReducedJetPoly
    order: int
    characteristic: ReducedJetPoly | None = None

    def __post_init__(self):
        if self.family not in CURRENT_FAMILIES:
            raise ValueError(f"unknown current family {self.family!r}")
        div = onshell_divergence(self.t, self.x)
        if div:
            raise ValueError(f"current is not conserved on shell; "
                             f"divergence = {div}")
        actual = _component_order(self.t, self.x)
        if actual != self.order:
            raise ValueError(f"declared order {self.order} but components "
                             f"have order {actual}")


def current_C0(barred: bool = False) -> ConservedCurrent:
    """First-order current attached to the superposition symmetry with a
    symbolic solution f: (f u_y, -f_x u), or the barred (-f_y u, f u_x)."""
    f0, u0 = ReducedJetPoly.var("f", 0), ReducedJetPoly.var("u", 0)
    if barred:
        t = -ReducedJetPoly.var("f", -1) * u0
        x = f0 * ReducedJetPoly.var("u", 1)
    else:
        t = f0 * ReducedJetPoly.var("u", -1)
        x = -ReducedJetPoly.var("f", 1) * u0
    return ConservedCurrent(family="C0", t=t, x=x, order=1, characteristic=f0)


def current_Ctilde(a: TDOperator) -> ConservedCurrent:
    """Uniform current (-u Dy Q u, u_x Q u) for a skew-adjoint operator Q;
    its characteristic is 2 Q u."""
    residue = skew_self_split(a)[1]
    if not residue.is_zero():
        raise ValueError(f"operator is not skew-adjoint; self-adjoint part "
                         f"is {residue}")
    au = apply_operator_reduced(a)
    t = -ReducedJetPoly.var("u", 0) * au.total_derivative("y")
    x = ReducedJetPoly.var("u", 1) * au
    return ConservedCurrent(family="Ctilde", t=t, x=x,
                            order=_component_order(t, x),
                            characteristic=au * 2)


def current_minimal(family: str, kp: int, lp: int) -> ConservedCurrent:
    """Minimal-order current of the stated family with word orders kp, lp.

    The resulting order is kp + lp + 1, asserted before returning. Family C1
    needs lp >= 1. Built on the reduced jet: reduce, a ring morphism
    commuting with Dx and Dy, would give the same from the free jet."""
    if kp < 0 or lp < 0:
        raise ValueError("orders must be nonnegative")
    half = Fraction(1, 2)
    if family in ("C1", "C1bar"):
        # C1 and C1bar share one quadratic form with opposite signs; their
        # characteristic words are Q[2kp+1, 2lp] and Qbar[2kp+1, 2lp].
        if family == "C1" and lp < 1:
            raise ValueError("family C1 requires lp >= 1")
        side, sign = ("X", -1) if family == "C1" else ("Y", 1)
        base = apply_operator_reduced(monomial_op(side, kp, lp))
        dx = base.total_derivative("x")
        dy = base.total_derivative("y")
        square = base * base
        t = ((dy * dy) * _Y + square * _X) * sign
        x = ((dx * dx) * _X + square * _Y) * -sign
        char_op = monomial_op(side, 2 * kp + 1, 2 * lp, -sign * lp)
    elif family in ("C2", "C2bar"):
        # C2bar mirrors C2 (other side and derivative, opposite shift, T and
        # X swapped); their characteristic words are Q/Qbar[2kp, 2lp+1].
        side, var, shift, kind = (("X", "x", -half, "Q") if family == "C2"
                                  else ("Y", "y", half, "Qbar"))
        base = apply_operator_reduced(monomial_op(side, kp, lp, shift))
        d = base.total_derivative(var)
        pair = (-(base * base), d * d)
        t, x = pair if family == "C2" else pair[::-1]
        char_op = basis_op(kind, 2 * kp, 2 * lp + 1)
    else:
        raise ValueError(f"unknown minimal-current family {family!r}")
    return ConservedCurrent(family=family, t=t, x=x, order=kp + lp + 1,
                            characteristic=apply_operator_reduced(char_op))


def lift_linear_characteristic(eta: ReducedJetPoly) -> TDOperator:
    """Re-lift a characteristic linear in the jets of u to the operator whose
    coefficients of u_k become pure Dx^k (k >= 0) or Dy^(-k) powers."""
    lifted = _lift_free(eta)
    if not eta.is_linear():
        raise ValueError("lift expects a characteristic linear in the jets")
    # Each monomial of the linear lift is one coordinate u_(a,b) = Dx^a Dy^b u.
    return TDOperator({mono[0]: coeff
                       for mono, coeff in lifted.terms.items()})


def _lift_free(eta: ReducedJetPoly) -> FreeJetPoly:
    """Lift u_k to the pure derivative u_(k,0) or u_(0,-k)."""
    require_field_u(eta, "lift expects only the field u")
    return FreeJetPoly(accumulate({}, ((substituted(mono, _lifted_var), coeff)
                                       for mono, coeff in eta.terms.items())))


def _lifted_var(v):
    """The free coordinate of u_k: u_(k,0) for k >= 0, else u_(0,-k)."""
    k = v[1]
    return (k, 0) if k >= 0 else (0, -k)


def is_cl_characteristic(eta: ReducedJetPoly) -> bool:
    """True iff eta times the equation expression is a total divergence,
    certified by the Euler operator annihilating the lifted product."""
    lifted = _lift_free(eta)
    equation = FreeJetPoly.var(1, 1) - FreeJetPoly.var(0, 0)
    return euler_operator(lifted * equation).is_zero()


@dataclass(frozen=True)
class CurrentCandidate:
    """Componentwise action of a symmetry on a current, with its divergence."""
    t: ReducedJetPoly
    x: ReducedJetPoly
    divergence: ReducedJetPoly

    @property
    def is_conserved(self) -> bool:
        return self.divergence.is_zero()


def symmetry_action_on_current(eta: ReducedJetPoly,
                               c: ConservedCurrent) -> CurrentCandidate:
    """Act with the evolutionary field of characteristic eta on both current
    components and report the divergence of the resulting pair."""
    t = prolonged_action(eta, c.t)
    x = prolonged_action(eta, c.x)
    return CurrentCandidate(t=t, x=x, divergence=onshell_divergence(t, x))


def minimal_family_members(n: int):
    """The (family, kp, lp) triples of order-n minimal currents, in
    (family, kp, lp) lexicographic order."""
    if n < 1:
        raise ValueError("enumeration is defined for order n >= 1")
    members = []
    for family in MINIMAL_FAMILIES:
        for kp in range(n):
            lp = n - 1 - kp
            if family == "C1" and lp < 1:
                continue
            members.append((family, kp, lp))
    return members


def count_order_n_currents(n: int) -> int:
    """Construct and verify every order-n minimal current; returns how many
    there are (the families give 4n - 1 of them)."""
    count = 0
    for family, kp, lp in minimal_family_members(n):
        current_minimal(family, kp, lp)
        count += 1
    return count

